import dataclasses
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    anderson_iterate,
    assembled_fluxes,
    axis_fluxes,
    bernoulli_signed,
    bicgstab_polished,
    csr_polish,
    edge_flux,
    flux_divergence,
    plain_picard_advance,
    scheme_residual,
    system_matrix,
)

from crossfv import (
    ConfigurationError,
    Coupling,
    DiscreteKernel,
    Gaussian,
    KernelSpec,
    LinearSolverConfig,
    MeshSpec,
    SchemeConfig,
    SolverFailure,
    State,
    StepFailure,
    TopHat,
    WeightKind,
    advance,
    assemble,
    build_mesh,
    discretize,
    parse_config,
    run,
    run_experiment,
    solve_linear,
)
from crossfv import linsolve, scheme
from crossfv.harness import _build_problem
from crossfv.kernels import Extension

RNG = np.random.default_rng(42)
TINY = float(np.finfo(float).tiny)
RECIPES = Path(__file__).resolve().parents[1] / "configs"


def mesh_1d(m=16, a=0.0, b=1.0):
    return build_mesh(MeshSpec(extents=((a, b),), cells_per_axis=(m,)))


def base_cfg(**kw):
    defaults = dict(kappa=0.01, dt=0.01, t_end=0.1, weight=WeightKind.BERNOULLI)
    defaults.update(kw)
    return SchemeConfig(**defaults)


def zero_kernel(mesh, n=1):
    return discretize(
        KernelSpec(strengths=np.zeros((n, n)), shape=Gaussian(eps=1.0)), mesh
    )


def no_matrix_built():
    """A context in which building a CSR matrix fails the test."""
    return mock.patch.object(sp, "csr_matrix", side_effect=AssertionError("CSR matrix built"))


# ---------------------------------------------------------------------------
# edge_flux


def test_flux_vanishes_for_constants():
    mesh = mesh_1d(8)
    cfg = base_cfg()
    u = np.full(mesh.shape, 3.0)
    p = np.full(mesh.shape, -1.0)
    for k in range(8):
        assert edge_flux(mesh, u, p, ((k,), 1), cfg) == 0.0


def test_pure_diffusion_flux():
    mesh = mesh_1d(8)
    cfg = base_cfg()
    u = np.zeros(mesh.shape)
    u[3] = 1.0  # edge 2|3 sees du = +1, dp = 0
    p = np.zeros(mesh.shape)
    flux = edge_flux(mesh, u, p, ((2,), 1), cfg)
    assert flux == pytest.approx(-mesh.tau(0) * cfg.kappa, rel=1e-15)


def test_bernoulli_flux_matches_classical_form():
    # With the Bernoulli weight the upwind form equals the classical flux
    # tau * (B_kappa(dp) u_K - B_kappa(-dp) u_L) built from the signed weight.
    mesh = mesh_1d(16)
    cfg = base_cfg(kappa=0.37)
    u = RNG.random(mesh.shape) + 0.1
    p = RNG.normal(scale=0.7, size=mesh.shape)
    for k in range(16):
        edge = ((k,), 1)
        flux = edge_flux(mesh, u, p, edge, cfg)
        up, uk = u[(k + 1) % 16], u[k]
        dp = p[(k + 1) % 16] - p[k]
        b_plus = cfg.kappa * bernoulli_signed(dp / cfg.kappa)
        b_minus = cfg.kappa * bernoulli_signed(-dp / cfg.kappa)
        classical = mesh.tau(0) * (b_plus * uk - b_minus * up)
        assert flux == pytest.approx(classical, rel=1e-12, abs=1e-15)


def test_flux_antisymmetry_exact():
    mesh = mesh_1d(16)
    cfg = base_cfg()
    u = RNG.random(mesh.shape) + 0.1
    p = RNG.normal(size=mesh.shape)
    p[3] = p[4]  # force one tie, where the upwind branch switches
    for k in range(16):
        ln = (k + 1) % 16
        du, dp = u[ln] - u[k], p[ln] - p[k]
        from crossfv.weights import eval_B_kappa

        upwind_k = u[ln] if dp >= 0 else u[k]
        flux_from_k = -mesh.tau(0) * (
            eval_B_kappa(cfg.weight, cfg.kappa, abs(dp)) * du + upwind_k * dp
        )
        upwind_l = u[k] if -dp >= 0 else u[ln]
        flux_from_l = -mesh.tau(0) * (
            eval_B_kappa(cfg.weight, cfg.kappa, abs(dp)) * (-du) + upwind_l * (-dp)
        )
        assert flux_from_k + flux_from_l == 0.0


def test_zero_diffusion_limit_slope():
    # |F(kappa) - upwind limit| <= C*kappa with slope >= 0.9 across kappas.
    mesh = mesh_1d(32)
    u = RNG.random(mesh.shape) + 0.5
    p = 0.02 * RNG.random(mesh.shape)  # small drops keep B_kappa representable
    kappas = [1e-2, 1e-3, 1e-4]
    errs = []
    for kappa in kappas:
        cfg = base_cfg(kappa=kappa)
        fluxes = axis_fluxes(mesh, u, p, cfg)[0]
        dp = np.roll(p, -1) - p
        upwind = np.where(dp >= 0, np.roll(u, -1), u)
        limit = -mesh.tau(0) * upwind * dp
        errs.append(float(np.max(np.abs(fluxes - limit))))
    slope = np.polyfit(np.log(kappas), np.log(errs), 1)[0]
    assert slope >= 0.9
    bound = errs[0] / kappas[0]
    for kappa, err in zip(kappas, errs):
        assert err <= bound * kappa * (1 + 1e-9)


# ---------------------------------------------------------------------------
# assemble


def test_constant_potential_gives_diffusion_matrix():
    mesh = mesh_1d(8)
    cfg = base_cfg(dt=0.05)
    u_prev = np.full(mesh.shape, 2.0)
    p = np.full(mesh.shape, 1.3)
    system = assemble(u_prev, p, cfg, mesh)
    tau = mesh.tau(0)
    lap = sp.diags([2.0, -1.0, -1.0], [0, 1, -1], shape=(8, 8)).tolil()
    lap[0, 7] = -1.0
    lap[7, 0] = -1.0
    expected = (
        mesh.cell_measure / cfg.dt * sp.eye(8) + cfg.kappa * tau * lap.tocsr()
    )
    assert np.allclose(system_matrix(system).toarray(), expected.toarray(), rtol=1e-14)
    sol, _ = solve_linear(system, cfg)
    assert np.allclose(sol, 2.0, rtol=1e-12)


def test_two_cell_system_matches_hand_computation():
    mesh = mesh_1d(2)
    cfg = base_cfg(dt=0.1, kappa=0.2, weight=WeightKind.BERNOULLI)
    u_prev = np.array([1.0, 2.0])
    delta = 0.3
    p = np.array([0.0, delta])
    system = assemble(u_prev, p, cfg, mesh)
    a = system_matrix(system).toarray()
    tau = mesh.tau(0)
    m_dt = mesh.cell_measure / cfg.dt
    from crossfv.weights import eval_B_kappa

    bk = eval_B_kappa(cfg.weight, cfg.kappa, abs(delta))
    # Both periodic edges join the same two cells, so coefficients double.
    assert a[0, 0] == pytest.approx(m_dt + 2 * tau * (bk + 0.0), rel=1e-14)
    assert a[0, 1] == pytest.approx(-2 * tau * (bk + delta), rel=1e-14)
    assert a[1, 1] == pytest.approx(m_dt + 2 * tau * (bk + delta), rel=1e-14)
    assert a[1, 0] == pytest.approx(-2 * tau * (bk + 0.0), rel=1e-14)
    np.testing.assert_allclose(system.rhs, m_dt * u_prev, rtol=1e-15)


@pytest.mark.parametrize("dims,cells", [(1, (16,)), (2, (8, 8)), (2, (4, 6)), (2, (2, 5))])
def test_column_sums_equal_mass_rate(dims, cells):
    mesh = build_mesh(MeshSpec(extents=((0.0, 1.0),) * dims, cells_per_axis=cells))
    cfg = base_cfg(dt=0.02)
    u_prev = RNG.random(mesh.shape) + 0.1
    p = RNG.normal(size=mesh.shape)
    system = assemble(u_prev, p, cfg, mesh)
    colsums = np.asarray(system_matrix(system).sum(axis=0)).ravel()
    expected = mesh.cell_measure / cfg.dt
    assert np.max(np.abs(colsums - expected)) <= 1e-13 * expected


@pytest.mark.parametrize("cells", [(16,), (2,), (8, 8), (2, 5), (5, 2), (3, 4)])
def test_matrix_applies_flux_divergence(cells):
    # A(p) u - (m/dt) u is the divergence of the scheme's fluxes at (u, p);
    # 2-cell axes hold the same neighbor column twice in a row.
    mesh = build_mesh(MeshSpec(extents=((0.0, 1.0),) * len(cells), cells_per_axis=cells))
    cfg = base_cfg(dt=0.02)
    u = RNG.random(mesh.shape) + 0.1
    p = RNG.normal(size=mesh.shape)
    system = assemble(u, p, cfg, mesh)
    matrix = system_matrix(system)
    product = (matrix @ u.ravel()).reshape(mesh.shape)
    expected = flux_divergence(mesh, axis_fluxes(mesh, u, p, cfg))
    gap = product - mesh.cell_measure / cfg.dt * u - expected
    # Relative to the product: subtracting (m/dt) u cancels its leading digits.
    assert np.max(np.abs(gap)) <= 1e-13 * np.max(np.abs(product))
    if min(cells) >= 3:
        # Axis by axis, the readout of the flux criteria is the flux itself.
        for read, flux in zip(assembled_fluxes(system, u), axis_fluxes(mesh, u, p, cfg)):
            assert np.max(np.abs(read - flux)) <= 1e-14 * np.max(np.abs(flux))
    # Every BiCGStab operand shares one read-only stencil pattern.
    assert not any(array.flags.writeable for array in scheme._csr_pattern(mesh))
    if mesh.dim == 1:
        # The direct 1D solve reads the same slots: it inverts this matrix.
        sol, _ = solve_linear(system, cfg)
        residual = system.rhs - matrix @ sol
        assert np.max(np.abs(residual)) <= cfg.linear.rel_tol * np.max(system.rhs)


@pytest.mark.parametrize("cells", [(16,), (2,), (8, 8), (2, 5), (5, 2), (3, 4)])
def test_stencil_operator_is_the_oracle_matrix_product(cells):
    # Bitwise, on one system and on a 2-species stack, for mesh-shaped and
    # flat fields: the slots are added in CSR row order. The BiCGStab operand
    # on the cached pattern is the same matrix, bitwise.
    mesh = build_mesh(MeshSpec(extents=((0.0, 1.0),) * len(cells), cells_per_axis=cells))
    cfg = base_cfg(dt=0.02)
    u = RNG.random((2,) + mesh.shape) + 0.1
    p = RNG.normal(size=(2,) + mesh.shape)
    x = RNG.random((2,) + mesh.shape)
    n = mesh.n_cells
    stack = assemble(u, p, cfg, mesh)
    product = scheme.apply_stencil(stack.stencil, x)
    flat = scheme.apply_stencil(stack.stencil, x.reshape(2, n))
    assert product.shape == x.shape and flat.shape == (2, n)
    indices, indptr = scheme._csr_pattern(mesh)
    for i in range(2):
        expected = system_matrix(stack, i) @ x[i].ravel()
        assert np.array_equal(product[i].ravel(), expected)
        assert np.array_equal(flat[i], expected)
        operand = sp.csr_matrix((stack.stencil[i].ravel(), indices, indptr), shape=(n, n))
        assert np.array_equal(operand @ x[i].ravel(), expected)
    single = assemble(u[0], p[0], cfg, mesh)
    expected = system_matrix(single) @ x[0].ravel()
    assert np.array_equal(scheme.apply_stencil(single.stencil, x[0]).ravel(), expected)
    assert np.array_equal(scheme.apply_stencil(single.stencil, x[0].ravel()), expected)


def test_matrix_sign_pattern():
    mesh = mesh_1d(16)
    cfg = base_cfg()
    u_prev = RNG.random(mesh.shape) + 0.1
    p = RNG.normal(size=mesh.shape)
    a = system_matrix(assemble(u_prev, p, cfg, mesh)).toarray()
    assert np.all(np.diag(a) > 0)
    off = a - np.diag(np.diag(a))
    assert np.all(off <= 0)


def test_assemble_rejects_bad_previous_state():
    mesh = mesh_1d(8)
    cfg = base_cfg()
    p = np.zeros(mesh.shape)
    with pytest.raises(ConfigurationError):
        assemble(np.zeros(mesh.shape), p, cfg, mesh)
    bad = np.ones(mesh.shape)
    bad[3] = -0.5
    with pytest.raises(ConfigurationError):
        assemble(bad, p, cfg, mesh)


# ---------------------------------------------------------------------------
# solve_linear


def test_identity_system():
    # BiCGStab path (dim >= 2 in solve_linear) on a general matrix.
    cfg = base_cfg()
    rhs = RNG.random(8) + 0.5
    sol, _ = bicgstab_polished(sp.eye(8, format="csr"), rhs, cfg)
    assert np.allclose(sol, rhs, rtol=1e-14)
    assert np.count_nonzero(sol <= 0) == 0  # nothing for the clamp


def test_indicator_becomes_positive_after_one_step():
    mesh = mesh_1d(64)
    cfg = base_cfg(dt=0.005)
    u_prev = np.zeros(mesh.shape)
    u_prev[30:34] = 1.0
    p = np.zeros(mesh.shape)
    system = assemble(u_prev, p, cfg, mesh)
    sol, _ = solve_linear(system, cfg)
    assert np.all(sol > 0)


def test_direct_solve_takes_one_correction_then_fails(monkeypatch):
    mesh = mesh_1d(32)
    cfg = base_cfg()
    system = assemble(RNG.random(mesh.shape) + 0.1, RNG.normal(size=mesh.shape), cfg, mesh)
    target = cfg.linear.rel_tol * np.max(system.rhs)
    exact = linsolve.cyclic_tridiagonal

    def off_by(error):
        # Every solve is off by the relative `error`; one correction leaves error**2.
        return lambda *args: exact(*args) * (1.0 + error)

    monkeypatch.setattr(linsolve, "cyclic_tridiagonal", off_by(1e-9))
    _, info = solve_linear(system, cfg)
    assert info.iterations == 1 and info.residual <= target
    monkeypatch.setattr(linsolve, "cyclic_tridiagonal", off_by(1e-3))
    with pytest.raises(SolverFailure) as failure:
        solve_linear(system, cfg)
    assert len(failure.value.residual_history) == 2
    assert failure.value.residual_history[-1] > target


def test_1d_polish_runs_on_the_stencil(monkeypatch):
    # An undershoot within the residual target triggers the positivity
    # polish, which applies the three-term stencil: no matrix is built.
    mesh = mesh_1d(64)
    cfg = base_cfg(dt=0.005)
    u_prev = np.full(mesh.shape, 1e-200)
    u_prev[30:34] = 1.0
    system = assemble(u_prev, np.zeros(mesh.shape), cfg, mesh)
    exact = linsolve.cyclic_tridiagonal

    def undershoot(*args):
        x = exact(*args)
        x[0] = -1e-14 * x.max()
        return x

    calls = []
    polish = linsolve.jacobi_positive_polish
    monkeypatch.setattr(linsolve, "cyclic_tridiagonal", undershoot)
    monkeypatch.setattr(
        linsolve, "jacobi_positive_polish", lambda *args: calls.append(1) or polish(*args)
    )
    with no_matrix_built():
        sol, info = solve_linear(system, cfg)
    assert calls == [1]
    assert np.all(sol > 0) and info.clamped == 1
    assert info.residual <= cfg.linear.rel_tol * np.max(system.rhs)


def test_2d_polish_repairs_one_species_on_the_stencil(monkeypatch):
    # BiCGStab hands back species 0 with one entry at -1e-14 max: the polish
    # repairs that species alone, on the stencil operator, exactly as the
    # oracle polish with the CSR matvec does.
    mesh = build_mesh(MeshSpec(extents=((0.0, 1.0),) * 2, cells_per_axis=(6, 5)))
    cfg = base_cfg(dt=0.005)
    u_prev = RNG.random((2,) + mesh.shape) + 0.1
    system = assemble(u_prev, RNG.normal(scale=0.01, size=(2,) + mesh.shape), cfg, mesh)
    untouched, _ = solve_linear(system, cfg)
    exact = linsolve.bicgstab
    polish = linsolve.jacobi_positive_polish
    spoiled, polished = [], []

    def undershoot(*args):
        x, history = exact(*args)
        if not spoiled:  # the first call solves species 0
            x[0] = -1e-14 * x.max()
            spoiled.append(x.copy())
        return x, history

    monkeypatch.setattr(linsolve, "bicgstab", undershoot)
    monkeypatch.setattr(
        linsolve, "jacobi_positive_polish", lambda *a: polished.append(a[2]) or polish(*a)
    )
    sol, info = solve_linear(system, cfg)
    assert len(polished) == 1 and np.array_equal(polished[0], system.rhs[0])
    assert np.array_equal(sol[1], untouched[1])
    target = cfg.linear.rel_tol * np.abs(system.rhs[0]).max()
    matrix = system_matrix(system, 0)
    assert np.all(sol > 0) and info.clamped == 0
    assert np.abs(system.rhs[0] - matrix @ sol[0].ravel()).max() <= target
    expected, _ = csr_polish(matrix, system.rhs[0], spoiled[0], target)
    assert np.array_equal(sol[0].ravel(), expected)


def test_random_m_matrix_matches_dense_oracle():
    # BiCGStab path (dim >= 2 in solve_linear) on a general M-matrix.
    n = 64
    rng = np.random.default_rng(5)
    off = rng.random((n, n)) * (rng.random((n, n)) < 0.1)
    np.fill_diagonal(off, 0.0)
    diag = off.sum(axis=0) + rng.random(n) + 0.5  # strict column dominance
    a = np.diag(diag) - off
    rhs = rng.random(n) + 0.1
    cfg = base_cfg(linear=LinearSolverConfig(rel_tol=1e-12))
    sol, _ = bicgstab_polished(sp.csr_matrix(a), rhs, cfg)
    expected = np.linalg.solve(a, rhs)
    assert np.max(np.abs(sol - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected)))


@settings(max_examples=100, deadline=None, derandomize=True)
@example(cells=2, peclet=1e3, kappa=1e-3, diffusion_number=10.0,
         weight=WeightKind.BERNOULLI, seed=0)
@example(cells=512, peclet=1e3, kappa=1.0, diffusion_number=10.0,
         weight=WeightKind.SIGMOID, seed=1)
@given(
    cells=st.integers(min_value=2, max_value=512),
    peclet=st.floats(min_value=0.0, max_value=1e3),
    kappa=st.floats(min_value=1e-3, max_value=1.0),
    diffusion_number=st.floats(min_value=1e-2, max_value=10.0),
    weight=st.sampled_from(list(WeightKind)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_direct_solve_of_assembled_1d_systems(cells, peclet, kappa, diffusion_number, weight, seed):
    # Transport systems with |Dp|/kappa up to `peclet` and right-hand sides
    # spread log-uniformly down to the smallest normal float.
    rng = np.random.default_rng(seed)
    mesh = mesh_1d(cells)
    dt = diffusion_number * mesh.dx[0] ** 2 / kappa
    cfg = base_cfg(kappa=kappa, dt=dt, t_end=dt, weight=weight)
    u_prev = TINY ** rng.random(cells) / (mesh.cell_measure / cfg.dt)
    u_prev[rng.integers(cells)] = 1.0
    p = np.cumsum(rng.uniform(-1.0, 1.0, cells))
    p *= peclet * kappa / max(float(np.abs(np.roll(p, -1) - p).max()), TINY)
    system = assemble(u_prev, p, cfg, mesh)
    with no_matrix_built():  # the 1D solve builds no matrix
        sol, info = solve_linear(system, cfg)
    target = cfg.linear.rel_tol * float(np.abs(system.rhs).max())
    a = system_matrix(system).toarray()
    assert info.residual <= target and info.iterations == 0  # no correction step needed
    assert float(np.abs(system.rhs - a @ sol).max()) <= target
    assert np.all(sol > 0)
    mass, mass_prev = mesh.cell_measure * np.sum(sol), mesh.cell_measure * np.sum(u_prev)
    assert abs(mass - mass_prev) <= 1e-13 * mass_prev
    assert np.max(np.abs(sol - np.linalg.solve(a, system.rhs))) <= 1e-10 * np.max(sol)


def dense_periodic(diag, upper, lower):
    """The periodic tridiagonal matrix of one system's slots (2-cell entries add)."""
    m = diag.size
    a = np.diag(diag)
    k = np.arange(m)
    np.add.at(a, (k, (k + 1) % m), upper)
    np.add.at(a, (k, (k - 1) % m), lower)
    return a


def stacked_system(cells, n, cfg, rng, scales=None):
    """An assembled stack of n species' 1D transport systems, species i scaled by scales[i]."""
    mesh = mesh_1d(cells)
    u_prev = rng.random((n, cells)) + 0.1
    if scales is not None:
        u_prev *= np.asarray(scales)[:, None]
    return assemble(u_prev, rng.normal(size=(n, cells)), cfg, mesh)


@pytest.mark.parametrize("cells", [2, 3, 32, 511])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_cyclic_solve_matches_per_species_and_dense(n, cells):
    rng = np.random.default_rng(cells + n)
    cfg = base_cfg(kappa=0.05)
    system = stacked_system(cells, n, cfg, rng)
    diag, upper, lower = np.moveaxis(system.stencil, -1, 0)
    x = linsolve.cyclic_tridiagonal(diag, upper, lower, system.rhs)
    assert x.shape == (n, cells) and np.all(x >= 0)
    for i in range(n):
        alone = linsolve.cyclic_tridiagonal(diag[i], upper[i], lower[i], system.rhs[i])
        dense = np.linalg.solve(dense_periodic(diag[i], upper[i], lower[i]), system.rhs[i])
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(x[i] - alone)) <= 1e-13 * scale
        assert np.max(np.abs(x[i] - dense)) <= 1e-13 * scale


@pytest.mark.parametrize("cells", [(16,), (5, 4)])
def test_stacked_assembly_is_the_per_species_assembly(cells):
    mesh = build_mesh(MeshSpec(extents=((0.0, 1.0),) * len(cells), cells_per_axis=cells))
    cfg = base_cfg()
    u_prev = RNG.random((3,) + mesh.shape) + 0.1
    p = RNG.normal(size=(3,) + mesh.shape)
    stacked = assemble(u_prev, p, cfg, mesh)
    assert stacked.rhs.shape == (3, mesh.n_cells)
    sol, _ = solve_linear(stacked, cfg)
    for i in range(3):
        single = assemble(u_prev[i], p[i], cfg, mesh)
        assert np.array_equal(stacked.stencil[i], single.stencil)
        assert np.array_equal(stacked.rhs[i], single.rhs)
        alone, _ = solve_linear(single, cfg)
        if mesh.dim == 1:  # one reduction for the stack: its level count may differ
            np.testing.assert_allclose(sol[i], alone, rtol=1e-13)
        else:  # BiCGStab per species on slices of the stack
            assert np.array_equal(sol[i], alone)
    with pytest.raises(ConfigurationError):  # one species without a positive cell
        assemble(np.stack([u_prev[0], np.zeros(mesh.shape)]), p[:2], cfg, mesh)


def test_each_species_meets_its_own_target(monkeypatch):
    # Right-hand sides 1e12 apart: a target taken over the whole stack would
    # let the small species keep a first solve that is off by 1e-9.
    cfg = base_cfg()
    system = stacked_system(64, 2, cfg, np.random.default_rng(3), scales=[1.0, 1e-12])
    exact = linsolve.cyclic_tridiagonal
    monkeypatch.setattr(linsolve, "cyclic_tridiagonal", lambda *args: exact(*args) * (1 + 1e-9))
    sol, info = solve_linear(system, cfg)
    assert info.iterations == 2  # one correction per species
    targets = [cfg.linear.rel_tol * np.abs(system.rhs[i]).max() for i in range(2)]
    for i in range(2):
        assert np.abs(system.rhs[i] - system_matrix(system, i) @ sol[i]).max() <= targets[i]
    # Off by 1e-3, one correction leaves 1e-6: the failure reports a species' own history.
    monkeypatch.setattr(linsolve, "cyclic_tridiagonal", lambda *args: exact(*args) * (1 + 1e-3))
    with pytest.raises(SolverFailure) as failure:
        solve_linear(system, cfg)
    history = failure.value.residual_history
    assert len(history) == 2 and history[-1] > targets[0]


def test_correction_and_polish_leave_the_other_species_bitwise(monkeypatch):
    cfg = base_cfg(dt=0.005)
    mesh = mesh_1d(64)
    u_prev = np.full((2, 64), 1e-200)
    u_prev[:, 30:34] = 1.0
    system = assemble(u_prev, RNG.normal(scale=0.01, size=(2, 64)), cfg, mesh)
    untouched, _ = solve_linear(system, cfg)
    exact = linsolve.cyclic_tridiagonal
    polish = linsolve.jacobi_positive_polish
    polished = []
    monkeypatch.setattr(
        linsolve, "jacobi_positive_polish", lambda *a: polished.append(1) or polish(*a)
    )

    def spoil_species_0(change):
        calls = []

        def solve(*args):
            x = exact(*args)
            if not calls:  # the first, stacked call
                change(x[0])
            calls.append(x.shape)
            return x

        return solve, calls

    def off(x0):
        x0 *= 1 + 1e-9

    def undershoot(x0):
        x0[0] = -1e-14 * x0.max()

    for change, solves, polish_calls in ((off, [(2, 64), (1, 64)], 0), (undershoot, [(2, 64)], 1)):
        polished.clear()
        solve, calls = spoil_species_0(change)
        monkeypatch.setattr(linsolve, "cyclic_tridiagonal", solve)
        sol, info = solve_linear(system, cfg)
        assert np.array_equal(sol[1], untouched[1])
        assert calls == solves and len(polished) == polish_calls
        if polish_calls:
            assert info.iterations >= 1  # the polish sweeps
        else:
            assert info.iterations == 1  # one correction step
        assert np.all(sol > 0)
        residual = system.rhs[0] - system_matrix(system, 0) @ sol[0]
        assert np.abs(residual).max() <= cfg.linear.rel_tol * system.rhs[0].max()


# ---------------------------------------------------------------------------
# advance / run


def test_zero_kernel_converges_in_exactly_two_sweeps():
    mesh = mesh_1d(32)
    kernel = zero_kernel(mesh)
    cfg = base_cfg(dt=0.01)
    u0 = np.maximum(np.zeros((1,) + mesh.shape), TINY)
    u0[0, 10:16] = 1.0
    state = State(k=0, u=u0, mesh=mesh)
    new_state, report = advance(state, kernel, cfg)
    assert report.picard_iters == 2
    assert report.picard_errors[-1] == 0.0
    assert np.all(new_state.u > 0)


def test_steady_state_with_a_predecessor_is_accepted_after_one_sweep():
    # Uniform density under a zero kernel: the extrapolated start is the solution.
    mesh = mesh_1d(32)
    kernel = zero_kernel(mesh)
    cfg = base_cfg(dt=0.01)
    u = np.full((1,) + mesh.shape, 0.7)
    p = np.zeros_like(u)
    state = State(k=1, u=u, mesh=mesh, p=p, levels=((u.copy(), p.copy()),))
    new_state, report = advance(state, kernel, cfg)
    assert report.picard_iters == 1
    assert report.picard_errors[0] <= cfg.picard_tol
    assert new_state.levels[0][0] is state.u and new_state.levels[0][1] is state.p  # not copies


def two_species_problem(mesh):
    spec = KernelSpec(strengths=np.array([[0.3, 0.1], [0.1, 0.2]]), shape=Gaussian(eps=0.4))
    x = mesh.axis_coordinates(0)
    u0 = np.stack([1.0 + 0.5 * np.sin(2 * np.pi * x), 1.0 + 0.3 * np.cos(2 * np.pi * x)])
    return discretize(spec, mesh), u0


@pytest.mark.parametrize("coupling", list(Coupling))
def test_predictor_start_reaches_the_same_step(coupling):
    # The same implicit step from u^n and from 2u^n - u^(n-1): both iterations
    # stop within picard_tol of the one fixed point.
    mesh = mesh_1d(24)
    kernel, u0 = two_species_problem(mesh)
    cfg = base_cfg(dt=0.02, kappa=0.05, coupling=coupling)
    state, _ = advance(State(k=0, u=u0, mesh=mesh), kernel, cfg)
    assert state.levels[0][0] is u0
    predicted, with_pred = advance(state, kernel, cfg)
    plain, without_pred = advance(dataclasses.replace(state, levels=()), kernel, cfg)
    assert with_pred.picard_errors[0] < 0.1 * without_pred.picard_errors[0]
    assert np.max(np.abs(predicted.u - plain.u)) <= 10 * cfg.picard_tol
    assert np.all(predicted.u > 0)
    assert np.max(np.abs(predicted.masses() - state.masses())) <= 1e-13 * state.masses().max()


@pytest.mark.parametrize("coupling", list(Coupling))
def test_first_sweep_after_a_predecessor_convolves_nothing(coupling, monkeypatch):
    mesh = mesh_1d(24)
    kernel, u0 = two_species_problem(mesh)
    cfg = base_cfg(dt=0.02, kappa=0.05, coupling=coupling)
    state, _ = advance(State(k=0, u=u0, mesh=mesh), kernel, cfg)
    calls, calls_at_assembly = [], []
    potentials, assemble_ = DiscreteKernel.potentials, scheme.assemble
    monkeypatch.setattr(
        DiscreteKernel, "potentials", lambda self, u: calls.append(1) or potentials(self, u)
    )
    monkeypatch.setattr(
        scheme, "assemble", lambda *args: calls_at_assembly.append(len(calls)) or assemble_(*args)
    )
    _, report = advance(state, kernel, cfg, compute_diagnostics=False)
    assert calls_at_assembly[0] == 0  # the first sweep, both species in one assembly
    assert len(calls_at_assembly) == report.picard_iters  # one assembly per sweep
    assert len(calls) == report.picard_iters  # one per later sweep, one for the new p


def test_picard_start_extrapolates_a_cubic_in_time():
    # Per-cell cubics in time on 2 species x 32 cells, positive on [0, 4 dt]:
    # from u^n and three stored levels the start is u^(n+1) up to round-off,
    # and its potential, formed from the stored ones, is W applied to it.
    mesh = mesh_1d(32)
    kernel, _ = two_species_problem(mesh)
    coefficients = np.random.default_rng(5).random((4, 2, 32))
    dt = 0.1
    u = [sum(c * (k * dt) ** j for j, c in enumerate(coefficients)) + 0.5 for k in range(5)]
    p = [kernel.potentials(v) for v in u]
    levels = tuple((u[k], p[k]) for k in (2, 1, 0))
    x, w = scheme.picard_start(u[3], p[3], levels)
    assert np.max(np.abs(x - u[4])) <= 1e-13 * np.max(u[4])
    assert np.max(np.abs(w - kernel.potentials(x))) <= 1e-13 * np.max(np.abs(w))
    # Fewer levels: u^n itself, the linear start bitwise as written, the quadratic.
    x, w = scheme.picard_start(u[3], p[3], ())
    assert x is u[3] and w is p[3]
    x, w = scheme.picard_start(u[3], p[3], levels[:1])
    assert np.array_equal(x, 2.0 * u[3] - u[2]) and np.array_equal(w, 2.0 * p[3] - p[2])
    x, w = scheme.picard_start(u[3], p[3], levels[:2])
    assert np.array_equal(x, 3.0 * u[3] - 3.0 * u[2] + u[1])
    assert np.array_equal(w, 3.0 * p[3] - 3.0 * p[2] + p[1])


@pytest.mark.parametrize(
    "mode,ladder", [("converge_space", [4, 8, 16]), ("converge_time", [1, 2, 4])]
)
def test_every_ladder_entry_starts_without_a_predecessor(mode, ladder, monkeypatch):
    # Each entry is its own solve: its first step starts from u^n, every later one
    # from the extrapolated state of its own entry.
    starts = []
    advance_ = scheme.advance

    def recorded(state, *args, **kwargs):
        starts.append((state.k, not state.levels))
        return advance_(state, *args, **kwargs)

    monkeypatch.setattr(scheme, "advance", recorded)
    cfg = parse_config({
        "name": "ladder",
        "mesh": {"extents": [[0.0, 1.0]], "cells": [32]},
        "kernel": {"shape": "gaussian", "eps": 0.5, "strengths": [[0.1]]},
        "scheme": {"kappa": 0.05, "t_end": 0.04, "dt_divisor": 8},
        "initial": [{"type": "trig", "fn": "sin", "modes": [1], "scale": 0.2, "offset": 1.0}],
        "mode": mode,
        "ladder": ladder,
    })
    run_experiment(cfg)
    first = [no_predecessor for k, no_predecessor in starts if k == 0]
    assert first == [True] * (len(ladder) + 1)
    assert not any(no_predecessor for k, no_predecessor in starts if k > 0)


def test_single_step_conserves_mass():
    mesh = mesh_1d(64)
    spec = KernelSpec(
        strengths=np.full((2, 2), 1e-3),
        shape=Gaussian(eps=1.0),
        extension=Extension.WHOLE_SPACE,
    )
    kernel = discretize(spec, mesh)
    cfg = base_cfg(dt=0.1 / 2048, kappa=0.01)
    x = mesh.axis_coordinates(0)
    u0 = np.stack([np.sin(2 * np.pi * x) + 0.5, 0.1 * np.cos(2 * np.pi * x) + 0.15])
    u0 = np.maximum(u0, TINY)  # positive part: the raw profile dips below zero
    state = State(k=0, u=u0, mesh=mesh)
    new_state, _ = advance(state, kernel, cfg)
    rel = np.abs(new_state.masses() - state.masses()) / state.masses()
    assert np.max(rel) <= 1e-12


def test_scheme_residual_within_tolerance_scale():
    mesh = mesh_1d(64)
    spec = KernelSpec(strengths=np.array([[0.5, 0.2], [0.2, 0.3]]), shape=Gaussian(eps=0.5))
    kernel = discretize(spec, mesh)
    cfg = base_cfg(dt=0.01, kappa=0.05)
    x = mesh.axis_coordinates(0)
    u0 = np.stack([1.0 + 0.5 * np.sin(2 * np.pi * x), 1.0 + 0.3 * np.cos(2 * np.pi * x)])
    state = State(k=0, u=u0, mesh=mesh)
    new_state, _ = advance(state, kernel, cfg)
    res = scheme_residual(mesh, state.u, new_state.u, new_state.p, cfg)
    scale = mesh.cell_measure / cfg.dt * float(np.max(new_state.u))
    bound = 10.0 * (cfg.picard_tol / cfg.dt + cfg.linear.rel_tol) * scale
    assert np.max(np.abs(res)) <= bound


@pytest.mark.parametrize("coupling", list(Coupling))
def test_one_potential_per_sweep(coupling, monkeypatch):
    # Each sweep convolves once (the first reuses the previous state's p,
    # the last one is the new state's p), plus once per run for the initial
    # state; a full report convolves nothing under either coupling.
    mesh = mesh_1d(24)
    spec = KernelSpec(strengths=np.array([[0.3, 0.1], [0.1, 0.2]]), shape=Gaussian(eps=0.4))
    kernel = discretize(spec, mesh)
    cfg = base_cfg(dt=0.02, t_end=0.06, kappa=0.05, coupling=coupling)
    x = mesh.axis_coordinates(0)
    u0 = np.stack([1.0 + 0.5 * np.sin(2 * np.pi * x), 1.0 + 0.3 * np.cos(2 * np.pi * x)])
    calls = []
    potentials = DiscreteKernel.potentials

    def counted(self, u):
        calls.append(1)
        return potentials(self, u)

    monkeypatch.setattr(DiscreteKernel, "potentials", counted)
    initial = State(k=0, u=u0, mesh=mesh)
    summary = run(cfg, initial, kernel, diagnostics_every=2)
    assert initial.p is None  # advance never modifies its argument
    full = [r for r in summary.reports if r.verdicts is not None]
    assert summary.n_steps == 3 and len(full) == 2
    sweeps = sum(r.picard_iters for r in summary.reports)
    assert sweeps > 3
    assert len(calls) == sweeps + 1
    # The carried potential is the state's own W*u.
    assert np.array_equal(summary.final_state.p, potentials(kernel, summary.final_state.u))


def recipe(name, steps):
    """A committed recipe as a run of its first steps, with no output."""
    with open(RECIPES / f"{name}.json") as handle:
        raw = json.load(handle)
    dt = raw["scheme"]["t_end"] / raw["scheme"].pop("dt_divisor")
    raw["scheme"].update(dt=dt, t_end=steps * dt)
    raw.update(mode="run", snapshot_times=[], ladder=[], diagnostics_every=1)
    return parse_config(raw)


def problem(cfg):
    """The initial state, kernel and scheme config of a run."""
    mesh, kernel, scheme_cfg, state = _build_problem(cfg)
    return state, kernel, scheme_cfg


def on_mesh(cfg, cells):
    cfg.mesh = MeshSpec(extents=cfg.mesh.extents, cells_per_axis=cells)
    return cfg


def two_sweep_steps():
    # Two steps that converge in two sweeps: the first of the table3_space_2d
    # data on 32^2 (from u^n) and the second of table1_space_1d's weak pair on
    # 64 cells (from the extrapolated state).
    yield problem(on_mesh(recipe("table3_space_2d", 1), (32, 32)))
    state, kernel, cfg = problem(on_mesh(recipe("table1_space_1d", 2), (64,)))
    yield advance(state, kernel, cfg)[0], kernel, cfg


def test_steps_within_two_sweeps_are_bitwise_plain_picard():
    for state, kernel, cfg in two_sweep_steps():
        new_state, report = advance(state, kernel, cfg)
        plain_state, plain_report = plain_picard_advance(state, kernel, cfg)
        assert report.picard_iters == 2
        assert report.picard_errors == plain_report.picard_errors
        assert np.array_equal(new_state.u, plain_state.u)
        assert np.array_equal(new_state.p, plain_state.p)


def test_table1_steps_after_the_third_take_one_sweep():
    # The first 64 steps of table1_space_1d on 64 cells. From step 4 on the
    # start extrapolates three stored levels, and its O(dt^4) error is below
    # picard_tol, so the first sweep is accepted; from the linear start, with
    # an O(dt^2) error, every step after the first takes two.
    state, kernel, cfg = problem(on_mesh(recipe("table1_space_1d", 64), (64,)))
    summary = run(cfg, state, kernel, diagnostics_every=0)
    assert [r.picard_iters for r in summary.reports] == [3, 2, 2] + [1] * 61
    assert len(summary.final_state.levels) == scheme._START_ORDER


def test_2d_states_keep_one_level():
    # For dim >= 2 the start stays linear, so a state stores only its predecessor.
    state, kernel, cfg = problem(on_mesh(recipe("table3_space_2d", 3), (16, 16)))
    for _ in range(3):
        state, _ = advance(state, kernel, cfg, compute_diagnostics=False)
    assert len(state.levels) == 1


def test_mixing_cuts_the_sweeps_of_an_attractive_run(monkeypatch):
    # The first 32 steps of entropy_attractive_1d, with and without mixing:
    # at most 0.8 of the plain sweeps, every gate passing, the same states.
    # Both stop each step within picard_tol of its fixed point, and the
    # aggregation amplifies those differences: after 32 steps they are 4.5e-9
    # of a species' mass in L1 and 2.6e-8 of the peak density in max norm.
    cfg = recipe("entropy_attractive_1d", 32)
    mixed = run_experiment(cfg)
    monkeypatch.setattr(scheme, "advance", plain_picard_advance)
    plain = run_experiment(cfg)
    sweeps = [
        sum(r.picard_iters for r in result.run_summary.reports) for result in (mixed, plain)
    ]
    assert sweeps[0] <= 0.8 * sweeps[1]
    assert mixed.summary["gated_failures"] == 0
    assert mixed.summary["max_mass_drift"] <= 1e-13
    u, u_plain = mixed.run_summary.final_state.u, plain.run_summary.final_state.u
    l1 = np.abs(u - u_plain).sum(axis=1) / u_plain.sum(axis=1)
    assert np.max(l1) <= 1e-8


def test_mixing_matches_the_least_squares_anderson_iterate():
    # A contracting sequence on 2 x 512 fields: sweep k's iterate and map value
    # lie 0.6^k and 0.6^(k+1) from a fixed point along independent random
    # directions, so the residual differences are well conditioned and the
    # errors fall. Every iterate `mix` returns, the first (g itself) and those
    # whose window of three columns slides, is the dense least-squares one.
    rng = np.random.default_rng(7)
    fixed = 1.0 + rng.random((2, 512))
    mixing = scheme._Anderson()
    gs, fs, errors = [], [], []
    for k in range(10):
        x = fixed + 0.6**k * rng.standard_normal(fixed.shape)
        g = fixed + 0.6 ** (k + 1) * rng.standard_normal(fixed.shape)
        gs.append(g)
        fs.append(g - x)
        err = float(np.abs(fs[-1]).max())
        assert not errors or err < errors[-1]
        errors.append(err)
        mixed = mixing.mix(g, fs[-1], err)
        assert np.max(np.abs(mixed - anderson_iterate(gs, fs))) <= 1e-12 * np.max(np.abs(g))


def slow_first_step():
    """Step 1 of entropy_attractive_1d, which takes dozens of sweeps."""
    return problem(recipe("entropy_attractive_1d", 1))


def test_growing_error_drops_the_history(monkeypatch):
    # Sweep 6's solve is spoiled so that its error grows: the iterate of
    # sweep 7 is then that solve itself, where sweep 6's was a mixed one.
    state, kernel, cfg = slow_first_step()
    solve_linear_ = scheme.solve_linear
    calls = []

    def spoiled(system, cfg, x0=None):
        u, info = solve_linear_(system, cfg, x0)
        if len(calls) == 5:
            u = 1.5 * u
        calls.append((x0.copy(), u))
        return u, info

    monkeypatch.setattr(scheme, "solve_linear", spoiled)
    new_state, report = advance(state, kernel, cfg, compute_diagnostics=False)
    errors = report.picard_errors
    assert errors[5] > errors[4] and report.picard_iters > 7
    flat = calls[6][0].shape
    assert not np.array_equal(calls[5][0], calls[4][1].reshape(flat))  # mixed
    assert np.array_equal(calls[6][0], calls[5][1].reshape(flat))  # plain G(x)
    assert not np.array_equal(calls[7][0], calls[6][1].reshape(flat))  # mixed again


def test_negative_mixed_iterates_keep_the_state_positive_and_its_mass(monkeypatch):
    # The accepted state is a raw M-matrix solve, whatever iterate fed its
    # potential: every mixed iterate gets negative cells, the first a gross
    # undershoot (every third cell at minus the peak), every one the vacuum
    # cells below 1e-200 negated, which moves no error the tolerance sees.
    state, kernel, cfg = slow_first_step()
    mix = scheme._Anderson.mix
    calls, negated = [], []

    def negative(self, g, f, err):
        x = mix(self, g, f, err)
        calls.append(err)
        if len(calls) == 1:  # sweep 1's iterate, G(x_0) itself with an empty history
            return x
        x = x.copy()
        if not negated:
            x[:, ::3] = -x.max()
        vacuum = np.abs(x) < 1e-200
        x[vacuum] = -x[vacuum] - TINY
        negated.append(int(np.count_nonzero(x < 0)))
        return x

    monkeypatch.setattr(scheme._Anderson, "mix", negative)
    new_state, report = advance(state, kernel, cfg)
    assert len(negated) >= 2 and min(negated) > 0
    assert np.all(new_state.u > 0) and report.min_density > 0
    drift = np.abs(new_state.masses() - state.masses()) / state.masses()
    assert np.max(drift) <= 1e-13


@pytest.mark.parametrize("budget", [1, 2, 3, 5])
def test_small_picard_budget_keeps_one_error_per_sweep(budget):
    state, kernel, cfg = slow_first_step()
    cfg = dataclasses.replace(cfg, picard_max_iter=budget)
    with pytest.raises(StepFailure) as excinfo:
        run(cfg, state, kernel)
    assert excinfo.value.step_index == 1
    errors = excinfo.value.error_history
    assert len(errors) == budget and errors[-1] > cfg.picard_tol


def test_run_zero_steps_returns_initial():
    mesh = mesh_1d(16)
    kernel = zero_kernel(mesh)
    cfg = base_cfg(t_end=0.0)
    u0 = np.ones((1,) + mesh.shape)
    state = State(k=0, u=u0, mesh=mesh)
    summary = run(cfg, state, kernel)
    assert summary.n_steps == 0
    assert summary.final_state is state


def test_pure_diffusion_decays_to_mean_monotonically():
    mesh = mesh_1d(32)
    kernel = zero_kernel(mesh)
    cfg = base_cfg(dt=0.02, t_end=0.4, kappa=0.05)
    u0 = np.maximum(np.zeros((1,) + mesh.shape), TINY)
    u0[0, 8:16] = 1.0
    state = State(k=0, u=u0, mesh=mesh)
    mean = state.masses()[0] / np.prod([b - a for a, b in mesh.spec.extents])
    dists = [float(np.max(np.abs(state.u - mean)))]

    def watch(s, r):
        dists.append(float(np.max(np.abs(s.u - mean))))

    run(cfg, state, kernel, observers=(watch,))
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_picard_budget_exhaustion_raises_step_failure():
    mesh = mesh_1d(64, a=-10.0, b=10.0)
    spec = KernelSpec(strengths=np.array([[-50.0]]), shape=TopHat(radius=1.0))
    kernel = discretize(spec, mesh)
    cfg = base_cfg(dt=1.0, t_end=2.0, kappa=0.01, picard_max_iter=2)
    u0 = np.maximum(np.zeros((1,) + mesh.shape), TINY)
    u0[0, 16:48] = 1.0
    state = State(k=0, u=u0, mesh=mesh)
    with pytest.raises(StepFailure) as excinfo:
        run(cfg, state, kernel)
    assert excinfo.value.step_index == 1
    assert len(excinfo.value.error_history) == 2


def test_midpoint_coupling_runs():
    mesh = mesh_1d(32, a=-8.0, b=8.0)
    spec = KernelSpec(strengths=np.array([[-2.0]]), shape=TopHat(radius=2.0))
    kernel = discretize(spec, mesh)
    cfg = base_cfg(dt=0.05, t_end=0.25, kappa=0.1, coupling=Coupling.MIDPOINT)
    u0 = np.maximum(np.zeros((1,) + mesh.shape), TINY)
    u0[0, 8:24] = 0.5
    state = State(k=0, u=u0, mesh=mesh)
    summary = run(cfg, state, kernel)
    assert summary.max_mass_drift <= 1e-10
    assert summary.min_density > 0


@pytest.mark.parametrize(
    "recipe,cells,divisor", [("table1_space_1d.json", 256, 256), ("table3_space_2d.json", 32, 64)]
)
def test_zero_strengths_match_the_dft_closed_form(recipe, cells, divisor):
    # With every strength 0 a step solves (I + dt kappa L_h) u^{n+1} = u^n,
    # L_h the periodic Laplacian with eigenvalues lambda_k = sum_l (4 / h_l^2)
    # sin^2(pi k_l / M_l), so the DFT of u^n is that of u^0 over (1 + dt kappa
    # lambda_k)^n. The recipe's data, raised by an offset of 1.5 so that no
    # cell is floored. Measured: 8.3e-14 (1D, 256 steps) and 1.1e-14 (2D, 64
    # steps, BiCGStab) of max |u|.
    raw = json.loads((RECIPES / recipe).read_text())
    dim, n = len(raw["mesh"]["extents"]), len(raw["initial"])
    raw["kernel"]["strengths"] = [[0.0] * n] * n
    for datum in raw["initial"]:
        datum["offset"] = 1.5
    raw["mesh"]["cells"] = [cells] * dim
    raw["scheme"]["dt_divisor"] = divisor
    del raw["ladder"]
    raw["mode"] = "run"
    mesh, kernel, cfg, state = _build_problem(parse_config(raw))
    final = run(cfg, state, kernel, diagnostics_every=0).final_state.u
    per_axis = [(4.0 / h**2) * np.sin(np.pi * np.arange(m) / m) ** 2
                for h, m in zip(mesh.dx, mesh.shape)]
    lam = sum(np.meshgrid(*per_axis, indexing="ij"))
    axes = tuple(range(1, dim + 1))
    decay = np.exp(-cfg.n_steps * np.log1p(cfg.dt * cfg.kappa * lam))
    exact = np.fft.ifftn(np.fft.fftn(state.u, axes=axes) * decay, axes=axes).real
    assert np.max(np.abs(final - exact)) <= 1e-11 * np.max(np.abs(exact))
