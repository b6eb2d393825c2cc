"""Acceptance suite: one test per criterion, exercising the shipped recipes.

Heavy experiments run once in session fixtures and are shared between
criteria. Each test prints a single PASS/FAIL line (visible with -s or in
failure output).
"""

import dataclasses
import pathlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (
    assembled_fluxes,
    bernoulli_signed,
    bicgstab_polished,
    convolve,
    direct_convolve,
    entropy_rao,
    kernel_value,
    system_matrix,
)

from crossfv import (
    Extension,
    Gaussian,
    KernelSpec,
    MeshSpec,
    SchemeConfig,
    State,
    TopHat,
    WeightKind,
    build_mesh,
    check_psd,
    discretize,
    parse_config,
    run_experiment,
    solve_linear,
)
from crossfv.scheme import assemble

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
RNG = np.random.default_rng(2024)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _run_recipe(name: str, out_root) -> object:
    cfg = parse_config(CONFIG_DIR / f"{name}.json")
    cfg = dataclasses.replace(cfg, out_dir=str(out_root / name))
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def table1(out_root):
    return _run_recipe("table1_space_1d", out_root)


@pytest.fixture(scope="session")
def table2(out_root):
    return _run_recipe("table2_time_1d", out_root)


@pytest.fixture(scope="session")
def table3_space(out_root):
    return _run_recipe("table3_space_2d", out_root)


@pytest.fixture(scope="session")
def table3_time(out_root):
    return _run_recipe("table3_time_2d", out_root)


@pytest.fixture(scope="session")
def entropy_repulsive(out_root):
    return _run_recipe("entropy_repulsive_1d", out_root)


@pytest.fixture(scope="session")
def entropy_attractive(out_root):
    return _run_recipe("entropy_attractive_1d", out_root)


@pytest.fixture(scope="session")
def oscillation(out_root):
    return (
        _run_recipe("oscillation_tophat_r1", out_root),
        _run_recipe("oscillation_tophat_r2", out_root),
    )


@pytest.fixture(scope="session")
def boundary_layer(out_root):
    return _run_recipe("boundary_layer_1d", out_root)


# ---------------------------------------------------------------------------


def test_criterion_1_spatial_convergence_1d(table1):
    table = table1.error_table
    orders = table.orders_l1
    err_first = table.l1[0, 0]  # dx = 2^-5 row, first species
    ok_orders = bool(np.all((orders >= 1.8) & (orders <= 2.3)))
    ok_value = 9.08e-4 / 2 <= err_first <= 9.08e-4 * 2
    _verdict(
        1,
        "spatial convergence 1D",
        ok_orders and ok_value,
        f"L1 orders {np.round(orders, 3)}, L1(2^-5) u1 = {err_first:.3e} "
        f"(expected 9.08e-04)",
    )


def test_criterion_2_temporal_convergence_1d(table2):
    table = table2.error_table
    all_orders = np.concatenate([table.orders_l1, table.orders_linf])
    ok = bool(np.all((all_orders >= 0.9) & (all_orders <= 1.3)))
    _verdict(
        2,
        "temporal convergence 1D",
        ok,
        f"orders L1 {np.round(table.orders_l1, 3)}, "
        f"Linf {np.round(table.orders_linf, 3)}",
    )


def test_criterion_3_convergence_2d(table3_space, table3_time):
    space_order = table3_space.error_table.orders_l1[0]
    time_order = table3_time.error_table.orders_l1[0]
    ok_space = 1.8 <= space_order <= 2.4
    ok_time = 0.9 <= time_order <= 1.4
    _verdict(
        3,
        "2D convergence",
        ok_space and ok_time,
        f"spatial L1 order {space_order:.3f} (expected 2.13), "
        f"temporal {time_order:.3f} (expected 1.12)",
    )


def test_criterion_4_structure_preservation(
    table1,
    table2,
    table3_space,
    table3_time,
    entropy_repulsive,
    entropy_attractive,
    oscillation,
    boundary_layer,
):
    results = [
        table1,
        table2,
        table3_space,
        table3_time,
        entropy_repulsive,
        entropy_attractive,
        *oscillation,
        boundary_layer,
    ]
    drifts = {r.name: r.summary["max_mass_drift"] for r in results}
    mins = {r.name: r.summary["min_density"] for r in results}
    ok = all(d <= 1e-10 for d in drifts.values()) and all(m > 0 for m in mins.values())
    worst = max(drifts.values())
    _verdict(
        4,
        "structure preservation",
        ok,
        f"worst mass drift {worst:.3e}, min density {min(mins.values()):.3e}",
    )


def test_criterion_5_entropy_inequalities(entropy_repulsive, entropy_attractive):
    rep = entropy_repulsive
    reports = rep.run_summary.reports
    assert rep.summary["psd"]["is_psd"]
    failures = []
    for report in reports:
        assert report.verdicts is not None
        for name, verdict in report.verdicts.items():
            if not verdict.passed:
                failures.append((report.step, name, verdict.slack))
    rao_monotone = entropy_attractive.summary["h_rao_non_increasing"]
    ok = not failures and rao_monotone
    _verdict(
        5,
        "entropy inequalities",
        ok,
        f"repulsive: {len(reports)} steps, {len(failures)} check failures; "
        f"attractive interaction energy non-increasing: {rao_monotone}",
    )


def test_criterion_6_oracle_equivalences():
    details = []

    # (a) FFT convolution vs the direct-sum oracle on random inputs, M <= 64.
    worst = 0.0
    for extents, cells, extension in (
        (((0.0, 1.0),), (64,), Extension.PERIODIC_WRAP),
        (((0.0, 1.0), (0.0, 1.0)), (16, 16), Extension.PERIODIC_WRAP),
        (((0.0, 1.0),), (32,), Extension.WHOLE_SPACE),
    ):
        mesh = build_mesh(MeshSpec(extents=extents, cells_per_axis=cells))
        shape = mesh.shape if extension is Extension.PERIODIC_WRAP else tuple(
            2 * m - 1 for m in mesh.shape
        )
        w = RNG.normal(size=shape)
        f = RNG.normal(size=mesh.shape)
        fast = convolve(w, f, mesh, extension)
        direct = direct_convolve(w, f, mesh, extension)
        scale = max(float(np.max(np.abs(direct))), 1.0)
        worst = max(worst, float(np.max(np.abs(fast - direct))) / scale)
    ok_a = worst <= 1e-12
    details.append(f"conv {worst:.2e}")

    # (b) interaction energy via convolution vs brute-force double sum, M <= 16.
    mesh = build_mesh(MeshSpec(extents=((0.0, 1.0),), cells_per_axis=(16,)))
    kernel = discretize(
        KernelSpec(strengths=np.array([[2.0, -0.5], [-0.5, 1.0]]), shape=Gaussian(eps=0.3)),
        mesh,
    )
    u = RNG.random((2,) + mesh.shape) + 0.1
    state = State(k=0, u=u, mesh=mesh)
    brute = 0.0
    m = mesh.cell_measure
    for i in range(2):
        for j in range(2):
            for ck in np.ndindex(mesh.shape):
                for cj in np.ndindex(mesh.shape):
                    w = kernel_value(kernel, i, j, ck, cj)
                    brute += 0.5 * m * m * w * u[(i,) + ck] * u[(j,) + cj]
    rao = entropy_rao(state, kernel)
    gap_b = abs(rao - brute) / max(abs(brute), 1.0)
    ok_b = gap_b <= 1e-12
    details.append(f"rao {gap_b:.2e}")

    # (c) Bernoulli-weight flux of the assembled matrix vs the classical two-sided form.
    mesh = build_mesh(MeshSpec(extents=((0.0, 1.0),), cells_per_axis=(32,)))
    cfg = SchemeConfig(kappa=0.23, dt=0.01, t_end=0.01, weight=WeightKind.BERNOULLI)
    uf = RNG.random(mesh.shape) + 0.1
    pf = RNG.normal(scale=0.5, size=mesh.shape)
    fluxes = assembled_fluxes(assemble(uf, pf, cfg, mesh), uf)[0]
    worst_c = 0.0
    for k in range(32):
        flux = fluxes[k]
        dp = pf[(k + 1) % 32] - pf[k]
        classical = mesh.tau(0) * (
            cfg.kappa * bernoulli_signed(dp / cfg.kappa) * uf[k]
            - cfg.kappa * bernoulli_signed(-dp / cfg.kappa) * uf[(k + 1) % 32]
        )
        worst_c = max(worst_c, abs(flux - classical) / max(abs(classical), 1.0))
    ok_c = worst_c <= 1e-12
    details.append(f"flux {worst_c:.2e}")

    # (d) iterative solve vs dense direct oracle on systems <= 64 cells: the
    # BiCGStab path of solve_linear on a general M-matrix, and the direct 1D
    # solve on an assembled 64-cell transport system.
    n = 64
    rng = np.random.default_rng(31)
    off = rng.random((n, n)) * (rng.random((n, n)) < 0.15)
    np.fill_diagonal(off, 0.0)
    a = np.diag(off.sum(axis=0) + rng.random(n) + 0.5) - off
    rhs = rng.random(n) + 0.1
    cfg = SchemeConfig(kappa=1.0, dt=0.1, t_end=0.1)
    sol, _ = bicgstab_polished(sp.csr_matrix(a), rhs, cfg)
    gap_d = float(np.max(np.abs(sol - np.linalg.solve(a, rhs))))
    mesh64 = build_mesh(MeshSpec(extents=((0.0, 1.0),), cells_per_axis=(n,)))
    system = assemble(rng.random(n) + 0.1, rng.normal(size=n), cfg, mesh64)
    sol, _ = solve_linear(system, cfg)
    dense = system_matrix(system).toarray()
    gap_direct = float(np.max(np.abs(sol - np.linalg.solve(dense, system.rhs))))
    ok_d = gap_d <= 1e-10 and gap_direct <= 1e-10
    details.append(f"solve {gap_d:.2e}, direct {gap_direct:.2e}")

    _verdict(6, "oracle equivalences", ok_a and ok_b and ok_c and ok_d, ", ".join(details))


def test_criterion_7_identity_suites():
    details = []

    # Differentiation rule for periodic kernels on random fields.
    mesh = build_mesh(MeshSpec(extents=((0, 1), (0, 1)), cells_per_axis=(8, 8)))
    kernel = discretize(
        KernelSpec(strengths=np.array([[1.0, 0.5], [0.5, 2.0]]), shape=Gaussian(eps=0.12)),
        mesh,
    )
    u = RNG.random((2,) + mesh.shape)
    p = kernel.potentials(u)
    worst = 0.0
    for axis in range(2):
        for sign in (+1, -1):
            dp = np.stack([np.roll(p[i], -sign, axis=axis) - p[i] for i in range(2)])
            du = np.stack([np.roll(u[j], -sign, axis=axis) - u[j] for j in range(2)])
            rhs = kernel.potentials(du)
            worst = max(worst, float(np.max(np.abs(dp - rhs)) / np.max(np.abs(dp))))
    ok_diff = worst <= 1e-12
    details.append(f"diff-rule {worst:.2e}")

    # Chain rule / power mean identity.
    uu = RNG.random((1,) + mesh.shape) + 0.05
    fisher = 0.0
    chain = 0.0
    for axis in range(2):
        root = np.sqrt(uu)
        droot = np.roll(root, -1, axis=axis + 1) - root
        duu = np.roll(uu, -1, axis=axis + 1) - uu
        ubar = (0.5 * (np.sqrt(np.roll(uu, -1, axis=axis + 1)) + np.sqrt(uu))) ** 2
        fisher += mesh.tau(axis) * float(np.sum(droot**2))
        chain += mesh.tau(axis) * float(np.sum(duu**2 / (4 * ubar)))
    gap_chain = abs(fisher - chain) / abs(fisher)
    ok_chain = gap_chain <= 1e-13
    details.append(f"chain {gap_chain:.2e}")

    # Discrete integration by parts for random edge fluxes and cell fields.
    fluxes = [RNG.normal(size=mesh.shape) for _ in range(2)]
    v = RNG.normal(size=mesh.shape)
    lhs = sum(
        float(np.sum((f - np.roll(f, 1, axis=ax)) * v)) for ax, f in enumerate(fluxes)
    )
    rhs_ibp = -sum(
        float(np.sum(f * (np.roll(v, -1, axis=ax) - v))) for ax, f in enumerate(fluxes)
    )
    scale = max(abs(lhs), abs(rhs_ibp), 1.0)
    gap_ibp = abs(lhs - rhs_ibp) / scale
    ok_ibp = gap_ibp <= 1e-13
    details.append(f"parts {gap_ibp:.2e}")

    # Assembled column sums.
    cfg = SchemeConfig(kappa=0.05, dt=0.02, t_end=0.02)
    u_prev = RNG.random(mesh.shape) + 0.1
    pot = RNG.normal(size=mesh.shape)
    system = assemble(u_prev, pot, cfg, mesh)
    colsums = np.asarray(system_matrix(system).sum(axis=0)).ravel()
    target = mesh.cell_measure / cfg.dt
    gap_cols = float(np.max(np.abs(colsums - target)) / target)
    ok_cols = gap_cols <= 1e-13
    details.append(f"colsums {gap_cols:.2e}")

    _verdict(7, "identity suites", ok_diff and ok_chain and ok_ibp and ok_cols, ", ".join(details))


def test_criterion_8_psd_checker():
    mesh = build_mesh(MeshSpec(extents=((0.0, 1.0),), cells_per_axis=(64,)))
    rep_pos = check_psd(
        discretize(
            KernelSpec(strengths=np.array([[10.0, 5.0], [5.0, 3.0]]), shape=Gaussian(eps=1.0)),
            mesh,
        )
    )
    mesh_th = build_mesh(MeshSpec(extents=((-10.0, 10.0),), cells_per_axis=(128,)))
    rep_neg = check_psd(
        discretize(
            KernelSpec(strengths=np.array([[-1.0]]), shape=TopHat(radius=1.0)), mesh_th
        )
    )

    # Brute-force quadratic-form oracle on meshes <= 16 cells per axis.
    def sampled_min(kernel, n_samples=1000):
        rng = np.random.default_rng(11)
        best = np.inf
        n = kernel.n_species
        msh = kernel.mesh
        for _ in range(n_samples):
            v = rng.normal(size=(n,) + msh.shape)
            pots = kernel.potentials(v)
            q = msh.cell_measure * float(np.sum(v * pots))
            best = min(best, q / float(np.sum(v * v)))
        return best

    mesh16 = build_mesh(MeshSpec(extents=((0.0, 1.0),), cells_per_axis=(16,)))
    pos16 = discretize(
        KernelSpec(strengths=np.array([[10.0, 5.0], [5.0, 3.0]]), shape=Gaussian(eps=1.0)),
        mesh16,
    )
    mesh16_th = build_mesh(MeshSpec(extents=((-2.0, 2.0),), cells_per_axis=(16,)))
    neg16 = discretize(
        KernelSpec(strengths=np.array([[-1.0]]), shape=TopHat(radius=1.0)), mesh16_th
    )
    agree_pos = check_psd(pos16).is_psd and sampled_min(pos16) >= -1e-10
    agree_neg = (not check_psd(neg16).is_psd) and sampled_min(neg16) < 0
    ok = rep_pos.is_psd and not rep_neg.is_psd and agree_pos and agree_neg
    _verdict(
        8,
        "PSD checker",
        ok,
        f"gaussian pair PSD={rep_pos.is_psd}, attractive top-hat PSD={rep_neg.is_psd}, "
        f"brute-force signs agree",
    )


def test_criterion_9_zero_diffusion_limit():
    # The flux is read off the matrix that assemble builds for (u, p).
    mesh = build_mesh(MeshSpec(extents=((0.0, 1.0),), cells_per_axis=(32,)))
    u = RNG.random(mesh.shape) + 0.5
    p = 0.02 * RNG.random(mesh.shape)
    kappas = [1e-2, 1e-3, 1e-4]
    errs = []
    for kappa in kappas:
        cfg = SchemeConfig(kappa=kappa, dt=0.01, t_end=0.01, weight=WeightKind.BERNOULLI)
        flux = assembled_fluxes(assemble(u, p, cfg, mesh), u)[0]
        dp = np.roll(p, -1) - p
        upwind = np.where(dp >= 0, np.roll(u, -1), u)
        errs.append(float(np.max(np.abs(flux + mesh.tau(0) * upwind * dp))))
    slope = float(np.polyfit(np.log(kappas), np.log(errs), 1)[0])
    bound = errs[0] / kappas[0]
    linear = all(err <= bound * kappa * (1 + 1e-9) for kappa, err in zip(kappas, errs))
    ok = slope >= 0.9 and linear
    _verdict(9, "zero-diffusion limit", ok, f"slope {slope:.3f}, C = {bound:.3e}")


def test_criterion_10_oscillation_wavelength(oscillation):
    res_r1, res_r2 = oscillation
    k1 = abs(res_r1.summary["dominant_modes"][0]["modes"][0])
    k2 = abs(res_r2.summary["dominant_modes"][0]["modes"][0])
    ratio = k1 / k2 if k2 else float("inf")
    ok = 1.5 <= ratio <= 2.5
    line = f"dominant modes {k1} vs {k2}, wavelength ratio {ratio:.2f}"
    if ok:
        print(f"ACCEPTANCE 10 [oscillation wavelength]: PASS {line}")
    else:
        # Soft criterion: warn, never fail the suite.
        print(f"ACCEPTANCE 10 [oscillation wavelength]: WARN {line}")
        warnings.warn(f"oscillation wavelength ratio outside [1.5, 2.5]: {line}")
