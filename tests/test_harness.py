import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from oracles import direct_potentials

from crossfv import (
    BoxIC,
    ConfigurationError,
    ConstantIC,
    DiscreteKernel,
    ExperimentConfig,
    Gaussian,
    KernelSpec,
    MeshSpec,
    NumericalStateError,
    StepFailure,
    SchemeConfig,
    TrigIC,
    UsageError,
    build_mesh,
    coarsen,
    dominant_mode,
    error_norms,
    fit_rate,
    parse_config,
    project_initial,
    run_experiment,
)
from crossfv import harness, linsolve, scheme
from crossfv.cli import main as cli_main
from crossfv.harness import ErrorTable

RNG = np.random.default_rng(17)
ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def mesh_1d(m=32, a=0.0, b=1.0):
    return build_mesh(MeshSpec(extents=((a, b),), cells_per_axis=(m,)))


# ---------------------------------------------------------------------------
# project_initial


def test_constant_projection():
    mesh = mesh_1d(8)
    field = project_initial(ConstantIC(value=1.0), mesh)
    assert np.all(field == 1.0)


def test_box_projection_aligned_cells():
    mesh = mesh_1d(500, a=-10.0, b=10.0)
    field = project_initial(BoxIC(lo=(-4.0,), hi=(4.0,), amplitude=0.125), mesh)
    x = mesh.axis_coordinates(0)
    inside = (x > -4.0) & (x < 4.0)
    assert np.all(field[inside] == 0.125)  # box edges align with cell faces
    assert np.all(field[~inside] == 0.0)


def test_box_projection_partial_cells():
    mesh = mesh_1d(10)
    field = project_initial(BoxIC(lo=(0.05,), hi=(0.25,), amplitude=2.0), mesh)
    expected = np.zeros(10)
    expected[0] = 2.0 * 0.5  # [0.05, 0.1) covers half of cell [0, 0.1)
    expected[1] = 2.0
    expected[2] = 2.0 * 0.5
    assert np.allclose(field, expected, rtol=0, atol=1e-15)


def test_box_outside_domain_rejected():
    mesh = mesh_1d(10)
    with pytest.raises(ConfigurationError):
        project_initial(BoxIC(lo=(-0.5,), hi=(0.5,)), mesh)


def test_sine_cell_averages_match_closed_form():
    mesh = mesh_1d(32)
    field = project_initial(TrigIC(fn="sin", modes=(1,), scale=1.0, offset=0.5), mesh)
    dx = mesh.dx[0]
    left = np.arange(32) * dx
    right = left + dx
    exact = (np.cos(2 * np.pi * left) - np.cos(2 * np.pi * right)) / (2 * np.pi * dx) + 0.5
    assert np.max(np.abs(field - exact)) <= 1e-12


def test_2d_diagonal_wave_matches_corner_antiderivative():
    # The diagonal wave of the 2D recipes, and higher modes on a coarse mesh
    # with only 3 to 4 cells per wavelength.
    for cells, (k1, k2) in [((8, 8), (1, -1)), ((7, 9), (2, 3))]:
        mesh = build_mesh(MeshSpec(extents=((0, 1), (0, 1)), cells_per_axis=cells))
        field = project_initial(TrigIC(fn="sin", modes=(k1, k2), scale=1.0, offset=0.0), mesh)

        def anti(x, y):
            # d^2/dxdy of this is sin(2 pi (k1 x + k2 y))
            return -np.sin(2 * np.pi * (k1 * x + k2 * y)) / (4 * np.pi**2 * k1 * k2)

        x = np.linspace(0.0, 1.0, cells[0] + 1)[:, None]
        y = np.linspace(0.0, 1.0, cells[1] + 1)[None, :]
        corners = anti(x, y)
        integral = corners[1:, 1:] - corners[:-1, 1:] - corners[1:, :-1] + corners[:-1, :-1]
        exact = integral * cells[0] * cells[1]
        assert np.max(np.abs(field - exact)) <= 1e-14


def test_mass_normalization():
    mesh = build_mesh(MeshSpec(extents=((0, 1), (0, 1)), cells_per_axis=(16, 16)))
    ic = TrigIC(fn="sin", modes=(1, -1), scale=1.0, offset=1.0, normalize_to=0.001)
    field = project_initial(ic, mesh)
    assert mesh.cell_measure * field.sum() == pytest.approx(0.001, rel=1e-13)


# ---------------------------------------------------------------------------
# coarsen / error_norms / fit_rate


def test_coarsen_constant_and_identity():
    fine = np.full((16,), 3.5)
    assert np.all(coarsen(fine, (4,)) == 3.5)
    f = RNG.random((8, 8))
    assert np.array_equal(coarsen(f, (8, 8)), f)


def test_coarsen_conserves_mass():
    fine = RNG.random((32, 16))
    coarse = coarsen(fine, (8, 4))
    assert coarse.mean() == pytest.approx(fine.mean(), abs=1e-14)


def test_coarsen_rejects_non_nested():
    with pytest.raises(UsageError):
        coarsen(np.zeros(12), (8,))
    with pytest.raises(UsageError):
        coarsen(np.zeros(24), (8,))  # factor 3 is not a power of two


def test_error_norms_examples():
    mesh = mesh_1d(16)
    a = RNG.random(mesh.shape)
    norms = error_norms(a, a, mesh)
    assert norms == {"Linf": 0.0, "L1": 0.0}
    b = a.copy()
    b[5] += 0.25
    norms = error_norms(a, b, mesh)
    assert norms["Linf"] == pytest.approx(0.25, rel=1e-15)
    assert norms["L1"] == pytest.approx(mesh.cell_measure * 0.25, rel=1e-15)


def test_error_norms_match_extended_precision():
    mesh = mesh_1d(64)
    a = RNG.random(mesh.shape)
    b = RNG.random(mesh.shape)
    norms = error_norms(a, b, mesh)
    mpmath.mp.dps = 40
    exact = sum(mpmath.mpf(mesh.cell_measure) * abs(mpmath.mpf(x) - mpmath.mpf(y))
                for x, y in zip(a, b))
    assert norms["L1"] == pytest.approx(float(exact), rel=1e-13)


def test_error_norms_mesh_mismatch():
    mesh = mesh_1d(16)
    with pytest.raises(UsageError):
        error_norms(np.zeros(8), np.zeros(8), mesh)


def test_fit_rate_exact_power_laws():
    res = [2.0**-k for k in range(5, 10)]
    quad = [r**2 for r in res]
    lin = list(res)
    assert fit_rate(res, quad)[0] == pytest.approx(2.0, abs=1e-12)
    assert fit_rate(res, lin)[0] == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_on_tabulated_errors():
    # L1 errors for the first species of the 1D spatial study.
    res = [2.0**-k for k in range(5, 11)]
    errs = [9.08e-4, 2.28e-4, 5.68e-5, 1.40e-5, 3.34e-6, 6.68e-7]
    order, last = fit_rate(res, errs)
    assert order == pytest.approx(2.07, abs=0.02)
    assert last == pytest.approx(np.log2(3.34 / 0.668), abs=1e-12)


def test_fit_rate_excludes_zero_rows():
    res = [0.5, 0.25, 0.125, 0.0625]
    errs = [1e-2, 2.5e-3, 0.0, 6.25e-4]
    order, _ = fit_rate(res, errs)
    assert np.isfinite(order)


def test_fit_rate_preconditions():
    with pytest.raises(UsageError):
        fit_rate([0.5, 0.25], [1.0, 0.5])
    with pytest.raises(UsageError):
        fit_rate([0.25, 0.5, 1.0], [1.0, 0.5, 0.25])


def test_dominant_mode_picks_wave():
    mesh = mesh_1d(64)
    x = mesh.axis_coordinates(0)
    field = 2.0 + 0.3 * np.sin(2 * np.pi * 5 * x)
    modes, mag = dominant_mode(field)
    assert modes == (5,)
    field2d = np.add.outer(np.sin(2 * np.pi * 3 * x), np.zeros(64))
    modes2d, _ = dominant_mode(field2d)
    assert modes2d == (3, 0)


# ---------------------------------------------------------------------------
# config parsing and experiment driver


def tiny_config(tmp_path, **overrides):
    raw = {
        "name": "tiny",
        "mesh": {"extents": [[0.0, 1.0]], "cells": [16]},
        "kernel": {
            "shape": "gaussian",
            "eps": 0.5,
            "strengths": [[0.1]],
            "extension": "periodic_wrap",
        },
        "scheme": {"kappa": 0.05, "dt": 0.01, "t_end": 0.05},
        "initial": [{"type": "trig", "fn": "sin", "modes": [1], "scale": 0.2, "offset": 1.0}],
        "mode": "run",
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def mesh_cells(*cells):
    """The mesh override of tiny_config with the given cells per axis."""
    return {"mesh": {"extents": [[0.0, 1.0]] * len(cells), "cells": list(cells)}}


def dt_divisor(divisor, **scheme):
    """The scheme override of tiny_config with dt = t_end / divisor."""
    return {"scheme": {"kappa": 0.05, "t_end": 0.05, "dt_divisor": divisor, **scheme}}


def test_parse_config_roundtrip(tmp_path):
    cfg = parse_config(tiny_config(tmp_path))
    assert cfg.name == "tiny"
    assert cfg.mesh.cells_per_axis == (16,)
    assert cfg.scheme.kappa == 0.05
    assert cfg.kernel.n_species == 1


def test_parse_config_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ConfigurationError):
        parse_config(path)


@pytest.mark.parametrize(
    "section,key,path",
    [
        (None, "snapshot_time", "snapshot_time"),
        (None, "fast_conv", "fast_conv"),
        ("scheme", "dt_divisr", "scheme.dt_divisr"),
        ("mesh", "cell", "mesh.cell"),
        ("kernel", "radius", "kernel.radius"),
        ("linear_solver", "method", "scheme.linear_solver.method"),
        ("initial", "amplitude", "initial[0].amplitude"),
    ],
)
def test_parse_config_rejects_unknown_keys(tmp_path, capsys, section, key, path):
    raw = json.loads(tiny_config(tmp_path).read_text())
    target = {
        None: raw,
        "scheme": raw["scheme"],
        "mesh": raw["mesh"],
        "kernel": raw["kernel"],
        "linear_solver": raw["scheme"].setdefault("linear_solver", {}),
        "initial": raw["initial"][0],
    }[section]
    target[key] = 1
    with pytest.raises(ConfigurationError, match=re.escape(f"'{path}'")):
        parse_config(raw)
    bad = tmp_path / "unknown.json"
    bad.write_text(json.dumps(raw))
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert path in capsys.readouterr().err


def test_every_recipe_parses_to_a_known_mode():
    modes = {path.stem: parse_config(path).mode for path in CONFIG_DIR.glob("*.json")}
    assert len(modes) == 10
    assert set(modes.values()) == {"run", "converge_space", "converge_time"}


def test_recipes_and_benchmark_configs_parse(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import N_VARIANTS, WORKLOADS, make_config

    recipes = sorted(CONFIG_DIR.glob("*.json"))
    assert len(recipes) == 10
    for recipe in recipes:
        parse_config(recipe)
    for name in WORKLOADS:
        for seed in range(N_VARIANTS):
            parse_config(make_config(str(ROOT), name, seed, str(tmp_path)))


def test_parse_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError):
        parse_config(path)


def test_run_mode_writes_artifacts(tmp_path):
    cfg = parse_config(tiny_config(tmp_path, snapshot_times=[0.05]))
    import dataclasses

    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"))
    result = run_experiment(cfg)
    names = {p.split("/")[-1] for p in result.files}
    assert "report.csv" in names
    assert "summary.json" in names
    assert any(n.startswith("snapshot_") for n in names)
    report = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert report[0].startswith("step,time,mass_1")
    assert len(report) == 1 + 5  # header + one row per step
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["max_mass_drift"] <= 1e-10
    assert summary["min_density"] > 0


def test_outputs_bit_identical_across_runs(tmp_path):
    import dataclasses

    base = parse_config(tiny_config(tmp_path))
    outs = []
    for sub in ("a", "b"):
        cfg = dataclasses.replace(base, out_dir=str(tmp_path / sub))
        run_experiment(cfg)
        outs.append(
            (
                (tmp_path / sub / "report.csv").read_bytes(),
                (tmp_path / sub / "summary.json").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


def scipy_modules_after(code: str) -> list:
    """The scipy modules loaded in a fresh interpreter once `code` has run."""
    code += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def recipe_code(name: str, scheme: dict | None = None, **fields) -> str:
    """Code that parses configs/`name` into `cfg`, cut by `scheme` keys and top-level `fields`."""
    return f"""
import json
import crossfv
raw = json.loads({(CONFIG_DIR / name).read_text()!r})
raw["scheme"].update({scheme or {}!r})
raw.update({fields!r})
cfg = crossfv.parse_config(raw)
"""


def test_1d_run_imports_no_scipy_lapack(tmp_path):
    # scipy serves only the dim >= 2 BiCGStab operand: the package loads no
    # scipy module, and neither does a 1D run, whose systems are solved in numpy.
    assert scipy_modules_after("import crossfv") == []
    code = recipe_code(
        "entropy_repulsive_1d.json", {"t_end": 0.25, "dt_divisor": 8},
        snapshot_times=[], out_dir=str(tmp_path / "out"),
    )
    assert scipy_modules_after(code + "crossfv.run_experiment(cfg)") == []
    assert (tmp_path / "out" / "report.csv").exists()


def test_1d_ladder_and_kernel_check_import_no_scipy(tmp_path):
    code = recipe_code(
        "table1_space_1d.json", {"dt_divisor": 16}, mesh={"extents": [[0.0, 1.0]], "cells": [128]},
        ladder=[16, 32, 64], threads=2, out_dir=str(tmp_path / "out"),
    )
    assert scipy_modules_after(code + "crossfv.run_experiment(cfg)") == []
    assert (tmp_path / "out" / "summary.json").exists()
    args = ["check-kernel", "--config", str(CONFIG_DIR / "boundary_layer_1d.json")]
    code = f"from crossfv.cli import main\nassert main({args!r}) == 0"
    assert scipy_modules_after(code) == []


def test_2d_config_loads_scipy_sparse_when_parsed():
    # Parsing loads the dim >= 2 solve's scipy.sparse, so a 2D run's clock never includes it.
    assert "scipy.sparse" in scipy_modules_after(recipe_code("table3_space_2d.json"))


def test_converge_space_monotone_errors(tmp_path):
    cfg = parse_config(
        tiny_config(tmp_path, **space_ladder([8, 16, 32], 128))
    )
    result = run_experiment(cfg)
    l1 = result.error_table.l1[:, 0]
    assert np.all(np.diff(l1) < 0)


def test_converge_space_rejects_bad_ladder(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config(
            tiny_config(tmp_path, **space_ladder([12], 128))
        )


def test_threaded_ladder_matches_serial(tmp_path):
    import dataclasses

    base = parse_config(tiny_config(tmp_path, **space_ladder([8, 16, 32], 64)))
    serial = run_experiment(base)
    threaded = run_experiment(dataclasses.replace(base, threads=3))
    assert np.array_equal(serial.error_table.l1, threaded.error_table.l1)
    assert np.array_equal(serial.error_table.linf, threaded.error_table.linf)


def test_failed_threaded_ladder_starts_no_further_entry(tmp_path, monkeypatch):
    # Two threads: the coarsest entry fails while the second is running, so
    # the finer entry and the reference, still queued, must never start.
    started, second_running = [], threading.Event()

    def entry(cfg, cells=None, dt=None):
        started.append(cells)
        if cells == 4:
            second_running.wait(timeout=10)
            exc = StepFailure("step 1/5 failed: no convergence", step_index=1, error_history=[1.0])
            exc.entry = {"cells": [4], "dt": 0.01}
            raise exc
        second_running.set()
        time.sleep(0.2)

    monkeypatch.setattr(harness, "_solve_final_state", entry)
    path = tiny_config(tmp_path, **space_ladder([4, 8, 16], 32))
    out = tmp_path / "out"
    args = ["run", "--config", str(path), "--out", str(out), "--threads", "2"]
    assert cli_main(args) == 3
    assert sorted(started) == [4, 8]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells"] == [4] and summary["failed_step"] == 1


def test_run_summary_counts_the_picard_sweeps(tmp_path):
    # Counts read off report.csv; a ladder summary has none, a run of no step zeros.
    out = tmp_path / "out"
    cfg = parse_config(tiny_config(tmp_path, out_dir=str(out)))
    run_experiment(cfg)
    header, *rows = (out / "report.csv").read_text().splitlines()
    column = header.split(",").index("picard_iters")
    sweeps = [int(row.split(",")[column]) for row in rows]
    summary = json.loads((out / "summary.json").read_text())
    counts = summary["picard_sweeps"]
    assert counts.pop("total") == sum(sweeps) and counts.pop("max") == max(sweeps)
    assert [counts.pop("p50"), counts.pop("p90")] == pytest.approx(
        np.percentile(sweeps, [50, 90]), rel=1e-15
    )
    assert counts == {}
    empty = dataclasses.replace(cfg, scheme=dataclasses.replace(cfg.scheme, t_end=0.0))
    counts = run_experiment(empty).summary["picard_sweeps"]
    assert counts == {"total": 0, "p50": 0.0, "p90": 0.0, "max": 0}
    ladder = parse_config(tiny_config(tmp_path, **space_ladder([4, 8, 16], 32)))
    assert "picard_sweeps" not in run_experiment(ladder).summary


def test_fft_run_matches_direct_oracle(tmp_path, monkeypatch):
    # 24 cells is not a power of two; the run with the potentials swapped
    # for the direct double sum must end in the same state.
    cfg = parse_config(tiny_config(tmp_path, mesh={"extents": [[0.0, 1.0]], "cells": [24]}))
    fast = run_experiment(cfg).run_summary.final_state.u
    monkeypatch.setattr(DiscreteKernel, "potentials", direct_potentials)
    direct = run_experiment(cfg).run_summary.final_state.u
    gap = np.max(np.abs(fast - direct))
    assert gap <= 1e-12 * max(1.0, float(np.max(np.abs(fast))))


def test_dt_must_divide_t_end(tmp_path, capsys):
    ok = parse_config(tiny_config(tmp_path, scheme={"kappa": 0.05, "dt": 0.02, "t_end": 0.1}))
    assert ok.scheme.n_steps == 5
    path = tiny_config(tmp_path, scheme={"kappa": 0.05, "dt": 0.03, "t_end": 0.1})
    with pytest.raises(ConfigurationError, match="does not divide"):
        parse_config(path)
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "does not divide end time" in capsys.readouterr().err


def test_step_budget_rejected_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    path = tiny_config(tmp_path, scheme={"kappa": 0.05, "dt": 5e-8, "t_end": 1.0})
    with pytest.raises(ConfigurationError, match="step budget"):
        parse_config(path)
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "step budget exceeded" in capsys.readouterr().err
    assert not (out / "report.csv").exists()
    # The time ladder's reference step is the configured one, checked the same way.
    path = tiny_config(tmp_path, **time_ladder([4, 8, 16], 2**24))
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "step budget exceeded" in capsys.readouterr().err
    assert not out.exists()


LADDER = "at least 3 strictly increasing entries"
INTEGER = "must be an integer"
REAL = "must be a real number"


def space_ladder(cells, reference):
    return {"mode": "converge_space", "ladder": cells, **mesh_cells(reference)}


def time_ladder(divisors, reference):
    return {"mode": "converge_time", "ladder": divisors, **dt_divisor(reference)}


def trig(modes):
    return {"initial": [{"type": "trig", "fn": "sin", "modes": modes, "offset": 1.0}]}


def strengths(value):
    return {"kernel": {"shape": "gaussian", "eps": 0.5, "strengths": [[value]]}}


@pytest.mark.parametrize(
    "overrides,args,message",
    [
        ({"snapshot_times": [0.0]}, [], "not a positive multiple"),
        ({"snapshot_times": [-0.01]}, [], "not a positive multiple"),
        ({"snapshot_times": [0.025]}, [], "not a positive multiple"),
        ({"snapshot_times": [1e308]}, [], "not a positive multiple"),
        ({"snapshot_times": [0.06]}, [], "after t_end"),
        ({"diagnostics_every": -1}, [], "diagnostics_every"),
        ({**space_ladder([4, 8, 16], 32), "diagnostics_every": 1}, [], "diagnostics_every"),
        ({**time_ladder([1, 2, 4], 8), "diagnostics_every": 2}, [], "diagnostics_every"),
        ({"threads": 0}, [], "threads"),
        ({}, ["--threads", "0"], "threads"),
        # Keys that a run does not read, on the config or the command line.
        ({"threads": 4}, [], "threads is not used in mode run"),
        ({}, ["--threads", "3"], "threads is not used in mode run"),
        ({"ladder": [8, 16, 32]}, [], "ladder is not used in mode run"),
        ({**space_ladder([4, 8, 16], 32), "snapshot_times": [0.05]}, [], "snapshot_times"),
        ({**time_ladder([1, 2, 4], 8), "snapshot_times": [0.05]}, [], "snapshot_times"),
        # Ladders the rate fit cannot use: too short, repeated, coarsening or
        # reaching the reference.
        (space_ladder([8, 16], 64), [], LADDER),
        (space_ladder([8, 8, 16], 64), [], LADDER),
        (space_ladder([16, 8, 4], 64), [], LADDER),
        (time_ladder([2, 2, 4], 8), [], LADDER),
        (space_ladder([8, 16, 32], 32), [], LADDER),
        (time_ladder([2, 4, 8], 8), [], LADDER),
        # The reference of a space ladder is mesh.cells, one count for every axis.
        ({**space_ladder([2, 4, 8], 16), **mesh_cells(16, 8)}, [], "same on every axis"),
        # Keys and modes of the old format, whose values the config already has.
        ({**space_ladder([2, 4, 8], 16), "reference_cells": 16}, [], "'reference_cells'"),
        ({**time_ladder([1, 2, 4], 8), "reference_dt_divisor": 8}, [], "'reference_dt_divisor'"),
        ({"mode": "entropy"}, [], "unknown mode 'entropy'"),
        ({"space_ladder": [8, 16, 32]}, [], "'space_ladder'"),
        ({"dt_ladder_divisors": [1, 2, 4]}, [], "'dt_ladder_divisors'"),
        ({**space_ladder([4, 8, 16], 32), "dt_ladder_divisors": [1, 2, 4]}, [],
         "'dt_ladder_divisors'"),
        (dt_divisor(5, linear_solver={"max_iter": 1}), [], "'scheme.linear_solver.max_iter'"),
        # The quadrature order is the Gaussian's; a top-hat is averaged exactly.
        ({"kernel": {"shape": "top_hat", "radius": 0.25, "strengths": [[0.1]],
                     "quadrature_order": 8}}, [], "'kernel.quadrature_order'"),
        # Values that would run changed: a fraction truncated, NaN called asymmetric.
        (mesh_cells(16.7), [], f"mesh.cells {INTEGER}"),
        (dt_divisor(5.5), [], f"scheme.dt_divisor {INTEGER}"),
        (dt_divisor(5, picard_max_iter=2.5), [], f"scheme.picard_max_iter {INTEGER}"),
        ({"diagnostics_every": 1.5}, [], f"diagnostics_every {INTEGER}"),
        ({"threads": 1.5}, [], f"threads {INTEGER}"),
        (space_ladder([2, 4.5, 8], 16), [], f"ladder {INTEGER}"),
        (time_ladder([1, 2, 4.5], 8), [], f"ladder {INTEGER}"),
        (trig([1.5]), [], f"initial[0].modes {INTEGER}"),
        ({"kernel": {**strengths(0.1)["kernel"], "quadrature_order": 4.5}}, [],
         f"kernel.quadrature_order {INTEGER}"),
        # Strings and booleans are not real numbers, in any float field.
        (dt_divisor(5, kappa="0.05"), [], f"scheme.kappa {REAL}"),
        (dt_divisor(5, kappa=True), [], f"scheme.kappa {REAL}"),
        (dt_divisor(5, picard_tol=True), [], f"scheme.picard_tol {REAL}"),
        (strengths("0.1"), [], f"kernel.strengths {REAL}"),
        ({"mesh": {"extents": [["0", "1"]], "cells": [16]}}, [], f"mesh.extents {REAL}"),
        ({"initial": [{"type": "trig", "modes": [1], "offset": "1.0"}]}, [],
         f"initial[0].offset {REAL}"),
        (strengths(float("nan")), [], "strengths must be finite"),
        (strengths(float("inf")), [], "strengths must be finite"),
        (dt_divisor(5, kappa=float("nan")), [], "kappa must be positive and finite"),
        (dt_divisor(5, kappa=float("inf")), [], "kappa must be positive and finite"),
        (dt_divisor(5, picard_tol=float("nan")), [], "Picard tolerances"),
        (dt_divisor(5, linear_solver={"rel_tol": float("nan")}), [], "linear solver tolerances"),
        # An infinite tolerance would stop every solve at once and scale every
        # gate's tolerance to infinity, so no verdict could fail.
        (dt_divisor(5, picard_tol=float("inf")), [], "scheme.picard_tol is inf"),
        (dt_divisor(5, linear_solver={"rel_tol": float("inf")}), [],
         "scheme.linear_solver.rel_tol is inf"),
        # A width whose 1/eps**2 overflows (or whose eps**2 is 0) would fail in set-up.
        ({"kernel": {"shape": "gaussian", "eps": 1e-200, "strengths": [[0.1]]}}, [],
         "kernel.eps = 1e-200 is too small"),
        ({"kernel": {"shape": "gaussian", "eps": 1e-300, "strengths": [[0.1]]}}, [],
         "kernel.eps = 1e-300 is too small"),
        # A width whose eps**2 overflows would fail in set-up, on either extension.
        ({"kernel": {"shape": "gaussian", "eps": 1e200, "strengths": [[0.1]]}}, [],
         "kernel.eps = 1e+200 is too large"),
        ({"kernel": {"shape": "gaussian", "eps": 1e200, "strengths": [[0.1]],
                     "extension": "whole_space"}}, [], "kernel.eps = 1e+200 is too large"),
        # A periodic kernel far wider than its torus would sum ever more images
        # in set-up, and an extent whose length overflows would fail only at
        # step 1, after report.csv was written.
        ({"kernel": {"shape": "gaussian", "eps": 1e150, "strengths": [[0.1]]}}, [],
         "periodic kernel.eps = 1e+150 is more than 100 times the length 1.0 of axis 0"),
        ({"kernel": {"shape": "top_hat", "radius": 1e200, "strengths": [[0.1]]}}, [],
         "periodic kernel.radius = 1e+200 is more than 100 times the length 1.0 of axis 0"),
        ({"mesh": {"extents": [[0.0, 1e-300]], "cells": [16]}}, [],
         "periodic kernel.eps = 0.5 is more than 100 times the length 1e-300 of axis 0"),
        ({"mesh": {"extents": [[-1e308, 1e308]], "cells": [16]}}, [],
         "mesh.extents [-1e+308, 1e+308) must have finite ends a < b and a finite b - a"),
        # An infinite dt would run no step and report the full t_end; a NaN one
        # or a NaN t_end would fail to round, and a zero divisor to divide.
        ({"scheme": {"kappa": 0.05, "dt": float("inf"), "t_end": 1.0}}, [],
         "scheme.dt must be positive and finite"),
        ({"scheme": {"kappa": 0.05, "dt": float("nan"), "t_end": 0.05}}, [],
         "scheme.dt must be positive and finite"),
        ({"scheme": {"kappa": 0.05, "dt": 0.01, "t_end": float("nan")}}, [],
         "scheme.t_end must be finite"),
        (dt_divisor(0), [], f"scheme.dt_divisor {INTEGER} >= 1"),
        # A non-finite datum passes the positivity floor and would fail inside step 1.
        ({"initial": [{"type": "constant", "value": float("nan")}]}, [],
         "initial datum value must be finite"),
        ({"initial": [{"type": "box", "lo": [0.25], "hi": [0.5], "amplitude": float("nan")}]},
         [], "initial datum amplitude must be finite"),
        ({"initial": [{"type": "trig", "modes": [1], "offset": float("nan")}]}, [],
         "initial datum offset must be finite"),
        # A target mass of zero or less would floor every cell to the smallest
        # normal float and run from a mass of about 1e-308.
        ({"initial": [{"type": "trig", "modes": [1], "offset": 1.0, "normalize_to": -0.5}]},
         [], "normalize_to must be positive"),
        ({"initial": [{"type": "box", "lo": [0.25], "hi": [0.5], "normalize_to": 0.0}]},
         [], "normalize_to must be positive"),
        # A dt next to a divisor would run with dt and ignore the divisor.
        (dt_divisor(5, dt=0.01), [], "'dt' and 'dt_divisor'"),
    ],
    ids=[
        "snap-zero", "snap-negative", "snap-off-grid", "snap-huge", "snap-late", "diag",
        "diag-converge-space", "diag-converge-time",
        "threads", "--threads", "threads-in-run", "--threads-in-run", "ladder-in-run",
        "snap-converge-space", "snap-converge-time",
        "ladder-short", "ladder-repeated", "ladder-decreasing", "dt-ladder-repeated",
        "ladder-at-reference", "dt-ladder-at-reference", "ladder-non-uniform-mesh",
        "old-reference-cells", "old-reference-dt-divisor", "old-entropy-mode",
        "old-space-ladder", "old-dt-ladder", "old-dt-ladder-in-space-ladder",
        "old-linear-max-iter", "top-hat-quadrature-order",
        "fraction-cells", "fraction-dt-divisor", "fraction-picard-max-iter",
        "fraction-diag", "fraction-threads",
        "fraction-space-ladder", "fraction-dt-ladder", "fraction-modes",
        "fraction-quadrature-order", "string-kappa", "bool-kappa", "bool-picard-tol",
        "string-strength", "string-extent", "string-offset",
        "nan-strength", "inf-strength", "nan-kappa", "inf-kappa",
        "nan-picard-tol", "nan-rel-tol", "inf-picard-tol", "inf-rel-tol", "tiny-eps-1e-200",
        "tiny-eps-1e-300", "wide-eps-1e200", "whole-space-eps-1e200",
        "wide-eps-1e150", "wide-radius-1e200", "tiny-extent-1e-300",
        "overflow-extent", "inf-dt", "nan-dt", "nan-t-end", "zero-dt-divisor",
        "nan-constant", "nan-amplitude", "nan-offset",
        "negative-normalize-to", "zero-normalize-to", "dt-and-dt-divisor",
    ],
)
def test_ignored_values_rejected_before_any_output(tmp_path, capsys, overrides, args, message):
    # dt = 0.01, t_end = 0.05 unless overridden: each value would run ignored or
    # changed, or fail only after output was written.
    out = tmp_path / "out"
    path = tiny_config(tmp_path, **overrides)
    assert cli_main(["run", "--config", str(path), "--out", str(out)] + args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def experiment(**fields):
    """An ExperimentConfig built in code: one species, 16 cells, 8 steps."""
    return ExperimentConfig(
        mesh=MeshSpec(extents=((0.0, 1.0),), cells_per_axis=(16,)),
        kernel=KernelSpec(strengths=[[0.1]], shape=Gaussian(eps=0.5)),
        scheme=SchemeConfig(kappa=0.05, dt=0.01, t_end=0.08),
        initial=[ConstantIC(value=1.0)],
        **fields,
    )


# Each builds one config dataclass in code with `value` in one integer field,
# whose valid value is the second entry; the third is the key its errors name.
INTEGER_FIELDS = [
    (lambda v: MeshSpec(extents=((0.0, 1.0),), cells_per_axis=(v,)), 16, "mesh.cells"),
    (lambda v: Gaussian(eps=0.5, quadrature_order=v), 4, "kernel.quadrature_order"),
    (
        lambda v: SchemeConfig(kappa=0.05, dt=0.01, t_end=0.05, picard_max_iter=v),
        200, "scheme.picard_max_iter",
    ),
    (lambda v: TrigIC(modes=(v,)), 1, "modes"),
    (lambda v: experiment(diagnostics_every=v), 1, "diagnostics_every"),
    (lambda v: experiment(mode="converge_space", ladder=[2, 4, 8], threads=v), 2, "threads"),
]

# The one `ladder` key counts cells in converge_space and divisors of t_end in
# converge_time; each mode gets its own case, named by the ladder it runs.
LADDER_FIELDS = [
    pytest.param(
        lambda v: experiment(mode="converge_space", ladder=[2, 4, v]), 8, "ladder",
        id="space_ladder",
    ),
    pytest.param(
        lambda v: experiment(mode="converge_time", ladder=[1, 2, v]), 4, "ladder",
        id="dt_ladder_divisors",
    ),
]


@pytest.mark.parametrize(
    "build,valid,key", [pytest.param(*f, id=f[2]) for f in INTEGER_FIELDS] + LADDER_FIELDS
)
def test_config_dataclasses_enforce_the_parser_rules(build, valid, key):
    # The dataclasses, not the JSON parser, own the integer rule: code that
    # builds them gets the same errors, naming the same key paths.
    for bad in (2.5, True, valid + 0.7):
        with pytest.raises(ConfigurationError, match=re.escape(f"{key} must be an integer")):
            build(bad)
    for good in (valid, np.int64(valid), float(valid)):
        build(good)


def test_config_dataclasses_own_their_defaults_and_value_rules():
    assert MeshSpec(extents=((0, 1),), cells_per_axis=(np.int64(16),)).cells_per_axis == (16,)
    assert type(SchemeConfig(kappa=1, dt=1, t_end=2, picard_max_iter=5.0).picard_max_iter) is int
    with pytest.raises(ConfigurationError, match="mesh.cells must be an integer"):
        MeshSpec(extents=((0.0, 1.0),), cells_per_axis=(16.7,))
    with pytest.raises(ConfigurationError, match="initial datum amplitude must be finite"):
        BoxIC(lo=(0.25,), hi=(0.5,), amplitude=float("nan"))
    with pytest.raises(ConfigurationError, match="initial datum offset must be finite"):
        TrigIC(modes=(1,), offset=float("inf"))
    with pytest.raises(ConfigurationError, match="normalize_to must be positive"):
        TrigIC(modes=(1,), offset=1.0, normalize_to=0.0)
    trig = TrigIC(modes=[1], offset=1)
    assert (trig.fn, trig.modes, trig.offset) == ("sin", (1,), 1.0)
    # Float fields take real numbers only: not a string, not a boolean.
    for bad in ("0.05", True):
        with pytest.raises(ConfigurationError, match="scheme.kappa must be a real number"):
            SchemeConfig(kappa=bad, dt=0.01, t_end=0.05)
        with pytest.raises(ConfigurationError, match="kernel.eps must be a real number"):
            Gaussian(eps=bad)
        with pytest.raises(ConfigurationError, match="scale must be a real number"):
            TrigIC(modes=(1,), scale=bad)
    assert BoxIC(lo=[0], hi=[1]).lo == (0.0,)
    # diagnostics_every: unset means every step in run mode and none in the
    # ladders; a nonzero value in a ladder is an error.
    assert experiment().report_every == 1
    assert experiment(diagnostics_every=0).report_every == 0
    ladder = {"mode": "converge_time", "ladder": [1, 2, 4]}
    assert experiment(**ladder).report_every == 0
    assert experiment(**ladder, diagnostics_every=0).report_every == 0
    with pytest.raises(ConfigurationError, match="diagnostics_every is not used"):
        experiment(**ladder, diagnostics_every=1)


def strict_json(path):
    """Parse a JSON file, rejecting NaN and Infinity, which are not JSON."""

    def reject(token):
        raise ValueError(f"{path.name} holds {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_summary_json_writes_undefined_values_as_null(tmp_path):
    # Set-up only: every ladder error of constant data is exactly 0, so no
    # order can be fitted. The summary keeps NaN in memory and writes null.
    out = tmp_path / "ladder"
    path = tiny_config(
        tmp_path, **space_ladder([2, 4, 8], 16),
        scheme={"kappa": 0.05, "dt": 0.01, "t_end": 0.0},
        initial=[{"type": "constant", "value": 1.0}],
    )
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert strict_json(out / "summary.json")["orders_l1"] == [None]
    result = run_experiment(parse_config(path))
    assert np.isnan(result.summary["orders_l1"][0])
    # The Rao flag is null when fewer than two full reports were compared.
    for every, flag in ((0, None), (5, None), (1, True)):
        out = tmp_path / f"run{every}"
        path = tiny_config(tmp_path, diagnostics_every=every, out_dir=str(out))
        assert cli_main(["run", "--config", str(path)]) == 0
        assert strict_json(out / "summary.json")["h_rao_non_increasing"] is flag


def test_snapshot_times_on_the_grid_are_written(tmp_path):
    # Entries within the grid tolerance of a step, up to t_end itself.
    path = tiny_config(tmp_path, snapshot_times=[0.01, 0.03 + 1e-12, 0.05])
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.glob("snapshot_*.csv"))
    assert names == [f"snapshot_step{k:06d}.csv" for k in (1, 3, 5)]


def test_whole_space_psd_verdict_beyond_dense_size(tmp_path):
    # 2 species on a 96^2 whole-space mesh: the Rao gate stays on.
    path = tiny_config(
        tmp_path,
        mesh={"extents": [[-1.0, 1.0], [-1.0, 1.0]], "cells": [96, 96]},
        kernel={
            "shape": "gaussian",
            "eps": 0.3,
            "strengths": [[0.1, 0.05], [0.05, 0.1]],
            "extension": "whole_space",
        },
        scheme={"kappa": 0.05, "dt": 0.01, "t_end": 0.01},
        initial=[{"type": "constant", "value": 1.0}, {"type": "constant", "value": 0.5}],
    )
    result = run_experiment(parse_config(path))
    assert result.summary["psd"]["is_psd"] is True
    assert result.summary["n_steps"] == 1
    verdicts = result.run_summary.reports[-1].verdicts
    assert verdicts["rao"].gated and verdicts["rao"].passed


def test_error_table_csv_layout(tmp_path):
    import dataclasses

    cfg = parse_config(tiny_config(tmp_path, **space_ladder([8, 16, 32], 64)))
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "conv"))
    run_experiment(cfg)
    lines = (tmp_path / "conv" / "space_errors.csv").read_text().splitlines()
    assert lines[0] == "dx,Linf_u1,L1_u1"
    assert lines[-2].startswith("order_ls,")
    assert lines[-1].startswith("order_last,")
    assert len(lines) == 1 + 3 + 2


# ---------------------------------------------------------------------------
# CLI


def test_cli_success_and_exit_codes(tmp_path, capsys):
    path = tiny_config(tmp_path)
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "cli_out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "mode=run ok" in out
    assert (tmp_path / "cli_out" / "report.csv").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))
    assert cli_main(["run", "--config", str(bad)]) == 2


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_cli_unreadable_config_exit_code(tmp_path, capsys, name):
    path = tmp_path / name
    with pytest.raises(ConfigurationError, match="cannot read config"):
        parse_config(path)
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot read config" in err
    assert str(path) in err


def test_cli_step_failure_exit_code(tmp_path, capsys):
    # Strong attraction with a huge time step and a tiny Picard budget.
    path = tiny_config(
        tmp_path,
        mesh={"extents": [[-10.0, 10.0]], "cells": [64]},
        kernel={
            "shape": "top_hat",
            "radius": 1.0,
            "strengths": [[-50.0]],
            "extension": "periodic_wrap",
        },
        scheme={"kappa": 0.01, "dt": 1.0, "t_end": 2.0, "picard_max_iter": 2},
        initial=[{"type": "box", "lo": [-5.0], "hi": [5.0], "amplitude": 1.0}],
    )
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "fail_out")])
    assert code == 3
    summary = json.loads((tmp_path / "fail_out" / "summary.json").read_text())
    assert summary["failed_step"] == 1
    # Picard ran out of sweeps; every linear solve succeeded.
    assert len(summary["failure_picard_errors"]) == 2
    assert summary["failure_picard_errors"][-1] > 1e-10
    assert summary["failure_linear_residuals"] == []


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "ladder,entry",
    [
        ({**space_ladder([4, 8, 16], 32), "scheme": {"kappa": 0.05, "dt": 0.01, "t_end": 0.05}},
         {"cells": [4], "dt": 0.01}),
        (time_ladder([1, 2, 4], 8), {"cells": [16], "dt": 0.05}),
    ],
    ids=["space", "time"],
)
def test_failed_ladder_entry_writes_its_summary(tmp_path, ladder, entry, threads):
    # A one-sweep Picard budget fails every entry at step 1; the first entry
    # in ladder order is reported, with the fields of a failed run.
    ladder = {**ladder, "scheme": {**ladder["scheme"], "picard_max_iter": 1}}
    path = tiny_config(tmp_path, **ladder)
    out = tmp_path / "out"
    args = ["run", "--config", str(path), "--out", str(out), "--threads", str(threads)]
    assert cli_main(args) == 3
    assert [p.name for p in out.iterdir()] == ["summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary.pop("cells") == entry["cells"]
    assert summary.pop("dt") == pytest.approx(entry["dt"], rel=1e-15)
    assert summary.pop("failed_step") == 1
    assert len(summary.pop("failure_picard_errors")) == 1
    assert summary.pop("failure_linear_residuals") == []
    assert summary.pop("failure").startswith("step 1/")
    assert summary == {"name": "tiny", "mode": ladder["mode"]}


def test_numerical_error_in_a_step_reports_failed_step(tmp_path, capsys, monkeypatch):
    # A non-finite state found inside the first step.
    def fail(*args):
        raise NumericalStateError("potential must be finite")

    monkeypatch.setattr(scheme, "assemble", fail)
    path = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "step 1/5 failed" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_step"] == 1
    assert summary["failure_picard_errors"] == []
    assert len((out / "report.csv").read_text().splitlines()) == 1  # header only


def test_overflowing_peclet_number_steps_with_the_limit_flux(tmp_path):
    # |Dp|/kappa overflows to inf; the weight takes its limit kappa * B(inf) = 0.
    path = tiny_config(tmp_path, scheme={"kappa": 1e-320, "dt": 0.01, "t_end": 0.05})
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_steps"] == 5 and summary["gated_failures"] == 0
    assert summary["max_mass_drift"] <= 1e-10 and summary["min_density"] > 0


def test_2d_densities_far_below_the_normal_range_converge(tmp_path):
    # A second species of order 1e-159: unscaled, BiCGStab's inner products
    # underflow and it exhausts its iteration budget.
    path = tiny_config(
        tmp_path,
        mesh={"extents": [[0.0, 1.0], [0.0, 1.0]], "cells": [7, 10]},
        kernel={"shape": "gaussian", "eps": 0.5, "strengths": [[0.1, 0.05], [0.05, 0.1]]},
        scheme={"kappa": 0.05, "dt": 0.01, "t_end": 0.03},
        initial=[
            {"type": "trig", "fn": "sin", "modes": [1, 1], "scale": 0.2, "offset": 1.0},
            {"type": "trig", "fn": "cos", "modes": [1, 0], "scale": 1.4e-159, "offset": 0.0},
        ],
    )
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_steps"] == 3 and summary["min_density"] > 0
    assert summary["max_mass_drift"] <= 1e-10
    assert 0 < summary["final_masses"][1] < 1e-157


def test_solver_failure_reports_failed_step(tmp_path):
    path = tiny_config(
        tmp_path,
        scheme={"kappa": 0.05, "dt": 0.01, "t_end": 0.05, "linear_solver": {"rel_tol": 1e-30}},
    )
    cfg = dataclasses.replace(parse_config(path), out_dir=str(tmp_path / "api_out"))
    with pytest.raises(StepFailure) as excinfo:
        run_experiment(cfg)
    assert excinfo.value.step_index == 1
    summary = json.loads((tmp_path / "api_out" / "summary.json").read_text())
    assert summary["failed_step"] == 1
    # The first solve of the first sweep failed: no Picard error yet, and the
    # 1D direct solve's residuals, before and after its one correction step.
    assert summary["failure_picard_errors"] == []
    assert len(summary["failure_linear_residuals"]) == 2
    assert summary["failure_linear_residuals"] == excinfo.value.residual_history
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "cli_out")])
    assert code == 3
    assert json.loads((tmp_path / "cli_out" / "summary.json").read_text())["failed_step"] == 1


def test_exhausted_bicgstab_reports_failed_step(tmp_path, capsys, monkeypatch):
    # dim >= 2: a one-iteration budget cannot reach a tolerance of 1e-30, so
    # BiCGStab's first solve exhausts it and the step fails.
    monkeypatch.setattr(linsolve, "BICGSTAB_MAX_ITER", 1)
    path = tiny_config(
        tmp_path, **mesh_cells(8, 8),
        scheme={"kappa": 0.05, "dt": 0.01, "t_end": 0.05, "linear_solver": {"rel_tol": 1e-30}},
        initial=[{"type": "trig", "fn": "sin", "modes": [1, 1], "scale": 0.2, "offset": 1.0}],
    )
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "BiCGStab exhausted 1 iterations" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_step"] == 1
    assert summary["failure_picard_errors"] == []
    # The residual history: the initial residual and that of the one iteration.
    residuals = summary["failure_linear_residuals"]
    assert len(residuals) == 2 and all(r > 0 for r in residuals)


def test_cli_check_kernel(tmp_path, capsys):
    path = tiny_config(tmp_path)
    assert cli_main(["check-kernel", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "positive semidefinite" in out
    assert "c*" in out


@pytest.mark.parametrize(
    "args",
    [["check-kernel", "--out", "out"], ["check-kernel", "--threads", "2"],
     ["converge-space"], ["converge-time"]],
    ids=["check-kernel-out", "check-kernel-threads", "converge-space", "converge-time"],
)
def test_cli_rejects_flags_and_commands_that_do_nothing(tmp_path, capsys, args):
    # A kernel check writes nothing and runs no ladder; the mode is the config's.
    path = tiny_config(tmp_path, **space_ladder([8, 16, 32], 64))
    with pytest.raises(SystemExit) as excinfo:
        cli_main(args + ["--config", str(path)])
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "ladder,table",
    [(space_ladder([8, 16, 32], 64), "space_errors.csv"),
     (time_ladder([1, 2, 4], 8), "time_errors.csv")],
    ids=["space", "time"],
)
def test_cli_run_follows_the_config_mode(tmp_path, capsys, ladder, table):
    # The config's mode alone picks the experiment: `run` runs a ladder config's ladder.
    path = tiny_config(tmp_path, **ladder)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert f"mode={ladder['mode']} ok" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == sorted([table, "summary.json"])
