import random

import mpmath
import numpy as np
import pytest
from oracles import entropy_rao, fisher_information, kernel_value, verify_step

from crossfv import (
    DiscreteKernel,
    Gaussian,
    KernelSpec,
    MeshSpec,
    SchemeConfig,
    State,
    TopHat,
    UsageError,
    WeightKind,
    build_mesh,
    discretize,
    entropy_boltzmann,
    productions,
)
from crossfv import diagnostics
from crossfv.diagnostics import (
    build_report,
    report_csv_header,
    report_csv_row,
    tolerance_scale,
)
from crossfv.scheme import advance, run
from crossfv.weights import eval_B_kappa

RNG = np.random.default_rng(99)
TINY = float(np.finfo(float).tiny)


def unit_mesh(m, d=1):
    return build_mesh(MeshSpec(extents=((0.0, 1.0),) * d, cells_per_axis=(m,) * d))


def make_state(mesh, u):
    return State(k=1, u=np.asarray(u, dtype=float), mesh=mesh)


def cfg_for(mesh, **kw):
    defaults = dict(kappa=0.05, dt=0.02, t_end=0.1, weight=WeightKind.BERNOULLI)
    defaults.update(kw)
    return SchemeConfig(**defaults)


# ---------------------------------------------------------------------------
# entropies


def test_boltzmann_entropy_of_ones_is_minus_measure():
    mesh = unit_mesh(16)
    state = make_state(mesh, np.ones((1,) + mesh.shape))
    assert entropy_boltzmann(state) == pytest.approx(-1.0, rel=1e-14)


def test_boltzmann_entropy_of_e_is_zero():
    mesh = unit_mesh(16)
    state = make_state(mesh, np.full((1,) + mesh.shape, np.e))
    assert abs(entropy_boltzmann(state)) <= 1e-14


def test_boltzmann_entropy_rejects_nonpositive():
    mesh = unit_mesh(8)
    u = np.ones((1,) + mesh.shape)
    u[0, 3] = 0.0
    with pytest.raises(UsageError):
        entropy_boltzmann(make_state(mesh, u))


def test_boltzmann_entropy_matches_extended_precision():
    mesh = unit_mesh(32)
    u = RNG.random((2,) + mesh.shape) + 0.05
    state = make_state(mesh, u)
    mpmath.mp.dps = 40
    m = mpmath.mpf(mesh.cell_measure)
    exact = mpmath.mpf(0)
    for val in u.ravel():
        x = mpmath.mpf(float(val))
        exact += m * x * (mpmath.log(x) - 1)
    assert entropy_boltzmann(state) == pytest.approx(float(exact), rel=1e-12)


def test_rao_entropy_zero_kernel():
    mesh = unit_mesh(8)
    kernel = discretize(KernelSpec(strengths=np.zeros((1, 1)), shape=Gaussian(eps=1.0)), mesh)
    state = make_state(mesh, RNG.random((1,) + mesh.shape))
    assert entropy_rao(state, kernel) == 0.0


def test_rao_entropy_constant_kernel_factorizes():
    # W == c on the torus (top-hat covering it): H_R = (c/2) (u0 * measure)^2.
    mesh = unit_mesh(16)
    c = 3.0
    kernel = discretize(
        KernelSpec(strengths=np.array([[c]]), shape=TopHat(radius=0.5)), mesh
    )
    u0 = 0.7
    state = make_state(mesh, np.full((1,) + mesh.shape, u0))
    assert entropy_rao(state, kernel) == pytest.approx(0.5 * c * u0**2, rel=1e-12)


def test_rao_entropy_matches_double_sum_oracle():
    mesh = unit_mesh(8)
    strengths = np.array([[1.0, -0.4], [-0.4, 2.0]])
    kernel = discretize(KernelSpec(strengths=strengths, shape=Gaussian(eps=0.3)), mesh)
    u = RNG.random((2,) + mesh.shape)
    state = make_state(mesh, u)
    m = mesh.cell_measure
    brute = 0.0
    for i in range(2):
        for j in range(2):
            for ck in np.ndindex(mesh.shape):
                for cj in np.ndindex(mesh.shape):
                    w = kernel_value(kernel, i, j, ck, cj)
                    brute += 0.5 * m * m * w * u[(i,) + ck] * u[(j,) + cj]
    assert entropy_rao(state, kernel) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# productions


def test_productions_vanish_for_constant_density():
    mesh = unit_mesh(16)
    cfg = cfg_for(mesh)
    state = make_state(mesh, np.full((1,) + mesh.shape, 2.0))
    p = RNG.normal(size=(1,) + mesh.shape)
    terms = productions(state, p, cfg)
    assert terms.fisher == 0.0
    assert terms.p_b == 0.0
    assert terms.cross == 0.0
    assert terms.p_r >= 0.0


def test_productions_vanish_for_constant_potential():
    mesh = unit_mesh(16)
    cfg = cfg_for(mesh)
    state = make_state(mesh, RNG.random((1,) + mesh.shape) + 0.1)
    p = np.full((1,) + mesh.shape, 5.0)
    terms = productions(state, p, cfg)
    assert terms.p_r == 0.0
    assert terms.cross == 0.0
    assert terms.fisher > 0.0


def shuffled_edge_oracle(mesh, u, p, cfg, seed=3):
    """Scalar re-summation over edges in randomized order."""
    edge_list = []
    d = mesh.dim
    for cell in np.ndindex(mesh.shape):
        for axis in range(d):
            edge_list.append((cell, axis))
    random.Random(seed).shuffle(edge_list)
    n = u.shape[0]
    p_b = p_r = cross = fisher = 0.0
    for i in range(n):
        for cell, axis in edge_list:
            nb = list(cell)
            nb[axis] = (nb[axis] + 1) % mesh.shape[axis]
            nb = tuple(nb)
            tau = mesh.tau(axis)
            du = u[(i,) + nb] - u[(i,) + cell]
            dp = p[(i,) + nb] - p[(i,) + cell]
            droot = np.sqrt(u[(i,) + nb]) - np.sqrt(u[(i,) + cell])
            upw = u[(i,) + nb] if dp >= 0 else u[(i,) + cell]
            p_b += 4.0 * tau * eval_B_kappa(cfg.weight, cfg.kappa, abs(dp)) * droot**2
            p_r += tau * upw * dp * dp
            cross += tau * dp * du
            fisher += tau * droot**2
    return p_b, p_r, cross, fisher


def test_productions_match_shuffled_oracle():
    mesh = unit_mesh(6, d=2)
    cfg = cfg_for(mesh)
    u = RNG.random((2,) + mesh.shape) + 0.2
    p = RNG.normal(size=(2,) + mesh.shape)
    state = make_state(mesh, u)
    terms = productions(state, p, cfg)
    pb, pr, x, fi = shuffled_edge_oracle(mesh, u, p, cfg)
    assert terms.p_b == pytest.approx(pb, rel=1e-12)
    assert terms.p_r == pytest.approx(pr, rel=1e-12)
    assert terms.cross == pytest.approx(x, rel=1e-12, abs=1e-14)
    assert terms.fisher == pytest.approx(fi, rel=1e-12)


def test_chain_rule_power_mean_identity():
    # sum tau |Du|^2 / (4 ubar) with the square-root power mean equals the
    # Fisher sum of squared root-differences, identically.
    mesh = unit_mesh(12, d=2)
    u = RNG.random((1,) + mesh.shape) + 0.01
    fisher = fisher_information(u, mesh)
    total = 0.0
    for axis in range(2):
        du = np.roll(u, -1, axis=axis + 1) - u
        ubar = (0.5 * (np.sqrt(np.roll(u, -1, axis=axis + 1)) + np.sqrt(u))) ** 2
        total += mesh.tau(axis) * float(np.sum(du * du / (4.0 * ubar)))
    assert total == pytest.approx(fisher, rel=1e-13)


def test_discrete_integration_by_parts():
    # sum_K sum_{edges of K} F_{K,sigma} v_K = -sum_edges F_{K,sigma} D_K v
    mesh = unit_mesh(8, d=2)
    fluxes = [RNG.normal(size=mesh.shape) for _ in range(2)]
    v = RNG.normal(size=mesh.shape)
    lhs = 0.0
    for axis, f in enumerate(fluxes):
        lhs += float(np.sum((f - np.roll(f, 1, axis=axis)) * v))
    rhs = 0.0
    for axis, f in enumerate(fluxes):
        dv = np.roll(v, -1, axis=axis) - v
        rhs -= float(np.sum(f * dv))
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# verify_step


def test_verify_pure_diffusion_step():
    mesh = unit_mesh(32)
    kernel = discretize(KernelSpec(strengths=np.zeros((1, 1)), shape=Gaussian(eps=1.0)), mesh)
    cfg = cfg_for(mesh, kappa=0.05, dt=0.01)
    u0 = np.maximum(np.zeros((1,) + mesh.shape), TINY)
    u0[0, 10:20] = 1.0
    state = State(k=0, u=u0, mesh=mesh)
    new_state, _ = advance(state, kernel, cfg)
    verdicts = verify_step(state, new_state, kernel, cfg, psd_ok=True)
    assert all(v.passed for v in verdicts.values())
    # Zero kernel: the cross term is exactly zero and Boltzmann entropy drops.
    assert entropy_boltzmann(new_state) < entropy_boltzmann(state)
    terms = productions(new_state, np.zeros_like(u0), cfg)
    assert terms.cross == 0.0


def test_verify_step_requires_positive_states():
    mesh = unit_mesh(8)
    kernel = discretize(KernelSpec(strengths=np.zeros((1, 1)), shape=Gaussian(eps=1.0)), mesh)
    cfg = cfg_for(mesh)
    good = make_state(mesh, np.ones((1,) + mesh.shape))
    bad = make_state(mesh, np.zeros((1,) + mesh.shape))
    with pytest.raises(UsageError):
        verify_step(bad, good, kernel, cfg)


def test_tolerance_scale_formula():
    mesh = unit_mesh(8)
    cfg = cfg_for(mesh, dt=0.02, picard_tol=1e-10)
    expected = 100.0 * (1e-10 / 0.02 + cfg.linear.rel_tol) * 7.0
    assert tolerance_scale(cfg, -7.0, 2.0) == pytest.approx(expected, rel=1e-15)


def test_rao_gating_rules():
    mesh = unit_mesh(16)
    kernel = discretize(KernelSpec(strengths=np.array([[0.2]]), shape=Gaussian(eps=0.4)), mesh)
    u0 = np.ones((1,) + mesh.shape)
    u0[0, :8] = 2.0
    state = State(k=0, u=u0, mesh=mesh)
    cfg_imp = cfg_for(mesh, coupling="implicit")
    new_state, _ = advance(state, kernel, cfg_imp)
    verdicts = verify_step(state, new_state, kernel, cfg_imp, psd_ok=None)
    assert not verdicts["rao"].gated
    verdicts = verify_step(state, new_state, kernel, cfg_imp, psd_ok=True)
    assert verdicts["rao"].gated
    cfg_mid = cfg_for(mesh, coupling="midpoint")
    new_state, _ = advance(state, kernel, cfg_mid)
    verdicts = verify_step(state, new_state, kernel, cfg_mid, psd_ok=None)
    assert verdicts["rao"].gated
    assert verdicts["boltzmann"].gated and verdicts["fisher"].gated


@pytest.mark.parametrize("coupling", ["implicit", "midpoint"])
def test_full_report_is_single_pass(coupling, monkeypatch):
    # A full report reads H_R and the coupling potential off the carried
    # potentials State.p: it convolves nothing under either coupling, and its
    # verdicts and H_R equal the from-scratch verify_step and entropy_rao.
    mesh = unit_mesh(24)
    spec = KernelSpec(strengths=np.array([[0.3, 0.1], [0.1, 0.2]]), shape=Gaussian(eps=0.4))
    kernel = discretize(spec, mesh)
    cfg = cfg_for(mesh, coupling=coupling)
    x = mesh.axis_coordinates(0)
    u0 = np.stack([1.0 + 0.5 * np.sin(2 * np.pi * x), 1.0 + 0.3 * np.cos(2 * np.pi * x)])
    state = State(k=0, u=u0, mesh=mesh, p=kernel.potentials(u0))
    new_state, _ = advance(state, kernel, cfg)
    calls = []
    potentials = DiscreteKernel.potentials

    def counted(self, u):
        calls.append(1)
        return potentials(self, u)

    monkeypatch.setattr(DiscreteKernel, "potentials", counted)
    report = build_report(state, new_state, cfg, [1.0, 0.1, 0.0], 0.0, 0, True, True)
    assert len(calls) == 0
    assert report.picard_iters == 3
    expected = verify_step(state, new_state, kernel, cfg, psd_ok=True)
    assert {k: v.slack for k, v in report.verdicts.items()} == {
        k: v.slack for k, v in expected.items()
    }
    assert report.h_rao == entropy_rao(new_state, kernel)
    with pytest.raises(UsageError, match="State.p"):
        build_report(State(k=0, u=u0, mesh=mesh), new_state, cfg, [0.0], 0.0, 0, True, True)


def test_boltzmann_entropy_carried_between_reports(monkeypatch):
    # A full report keeps H_B of the new state as State.h_b and the next one
    # reads it back: one entropy_boltzmann call per report, plus one for the
    # initial state.
    mesh = unit_mesh(24)
    kernel = discretize(KernelSpec(strengths=np.array([[0.3]]), shape=Gaussian(eps=0.4)), mesh)
    cfg = cfg_for(mesh, dt=0.02, t_end=0.06)
    x = mesh.axis_coordinates(0)
    u0 = (1.0 + 0.5 * np.sin(2 * np.pi * x))[None]
    calls = []
    boltzmann = diagnostics.entropy_boltzmann

    def counted(state):
        calls.append(1)
        return boltzmann(state)

    monkeypatch.setattr(diagnostics, "entropy_boltzmann", counted)
    summary = run(cfg, State(k=0, u=u0, mesh=mesh), kernel, diagnostics_every=1)
    full = [r for r in summary.reports if r.verdicts is not None]
    assert len(full) == 3
    assert len(calls) == len(full) + 1
    assert summary.final_state.h_b == boltzmann(summary.final_state)


# ---------------------------------------------------------------------------
# CSV serialization


def test_report_csv_roundtrip():
    mesh = unit_mesh(16)
    kernel = discretize(KernelSpec(strengths=np.array([[0.1]]), shape=Gaussian(eps=0.5)), mesh)
    cfg = cfg_for(mesh)
    u0 = np.ones((1,) + mesh.shape)
    u0[0, :4] = 1.7
    state = State(k=0, u=u0, mesh=mesh)
    new_state, report = advance(state, kernel, cfg, psd_ok=True)
    header = report_csv_header(1)
    row = report_csv_row(report)
    assert header.split(",")[:3] == ["step", "time", "mass_1"]
    cells = row.split(",")
    assert len(cells) == len(header.split(","))
    # 17 significant digits survive a parse round trip bit-exactly.
    assert float(cells[2]) == report.masses[0]
    assert float(cells[3]) == report.h_boltzmann
    assert "pass" in cells[-1]
    # The solver's health: a 1D step is a direct solve with no correction.
    health = dict(zip(header.split(","), cells))
    assert int(health["linear_iters"]) == report.linear_iters == 0
    assert float(health["linear_residual"]) == report.linear_residual
    assert int(health["clamped"]) == report.clamped
    assert float(health["min_density"]) == report.min_density == new_state.u.min()
