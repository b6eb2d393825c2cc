import json
import os
import re
import subprocess
import sys
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
    MeshSpec,
    StepFailure,
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
    mesh = build_mesh(MeshSpec(extents=((0, 1), (0, 1)), cells_per_axis=(8, 8)))
    field = project_initial(TrigIC(fn="sin", modes=(1, -1), scale=1.0, offset=0.0), mesh)

    def anti(x, y):
        # d^2/dxdy of sin(2 pi (x-y))/(4 pi^2) = sin(2 pi (x-y))
        return np.sin(2 * np.pi * (x - y)) / (4 * np.pi**2)

    dx = dy = 1 / 8
    for i in (0, 3, 5):
        for j in (1, 4, 7):
            x0, x1 = i * dx, (i + 1) * dx
            y0, y1 = j * dy, (j + 1) * dy
            integral = anti(x1, y1) - anti(x0, y1) - anti(x1, y0) + anti(x0, y0)
            assert field[i, j] == pytest.approx(integral / (dx * dy), rel=1e-12, abs=1e-13)


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


def test_1d_run_imports_no_scipy_lapack(tmp_path):
    # 1D transport systems are solved in numpy; importing scipy.linalg or
    # scipy.sparse.linalg would load a second BLAS and raise the peak RSS.
    code = f"""
import json, sys
from crossfv import parse_config, run_experiment
raw = json.loads({(CONFIG_DIR / "entropy_repulsive_1d.json").read_text()!r})
raw["scheme"].update(t_end=0.25, dt_divisor=8)
raw.update(snapshot_times=[], out_dir={str(tmp_path / "out")!r})
run_experiment(parse_config(raw))
print(json.dumps([m for m in ("scipy.linalg", "scipy.sparse.linalg") if m in sys.modules]))
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert (tmp_path / "out" / "report.csv").exists()


def test_converge_space_monotone_errors(tmp_path):
    cfg = parse_config(
        tiny_config(tmp_path, mode="converge_space", space_ladder=[8, 16, 32], **mesh_cells(128))
    )
    result = run_experiment(cfg)
    l1 = result.error_table.l1[:, 0]
    assert np.all(np.diff(l1) < 0)


def test_converge_space_rejects_bad_ladder(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config(
            tiny_config(tmp_path, mode="converge_space", space_ladder=[12], **mesh_cells(128))
        )


def test_threaded_ladder_matches_serial(tmp_path):
    import dataclasses

    base = parse_config(
        tiny_config(tmp_path, mode="converge_space", space_ladder=[8, 16, 32], **mesh_cells(64))
    )
    serial = run_experiment(base)
    threaded = run_experiment(dataclasses.replace(base, threads=3))
    assert np.array_equal(serial.error_table.l1, threaded.error_table.l1)
    assert np.array_equal(serial.error_table.linf, threaded.error_table.linf)


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
    path = tiny_config(
        tmp_path, mode="converge_time", dt_ladder_divisors=[4, 8, 16], **dt_divisor(2**24)
    )
    assert cli_main(["converge-time", "--config", str(path), "--out", str(out)]) == 2
    assert "step budget exceeded" in capsys.readouterr().err
    assert not out.exists()


LADDER = "at least 3 strictly increasing entries"
INTEGER = "must be an integer"


def space_ladder(cells, reference):
    return {"mode": "converge_space", "space_ladder": cells, **mesh_cells(reference)}


def time_ladder(divisors, reference):
    return {"mode": "converge_time", "dt_ladder_divisors": divisors, **dt_divisor(reference)}


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
        ({"threads": 0}, [], "threads"),
        ({}, ["--threads", "0"], "threads"),
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
        # Values that would run changed: a fraction truncated, NaN called asymmetric.
        (mesh_cells(16.7), [], f"mesh.cells {INTEGER}"),
        (dt_divisor(5.5), [], f"scheme.dt_divisor {INTEGER}"),
        (dt_divisor(5, picard_max_iter=2.5), [], f"scheme.picard_max_iter {INTEGER}"),
        (
            dt_divisor(5, linear_solver={"max_iter": 9.9}), [],
            f"scheme.linear_solver.max_iter {INTEGER}",
        ),
        ({"diagnostics_every": 1.5}, [], f"diagnostics_every {INTEGER}"),
        ({"threads": 1.5}, [], f"threads {INTEGER}"),
        (space_ladder([2, 4.5, 8], 16), [], f"space_ladder {INTEGER}"),
        (time_ladder([1, 2, 4.5], 8), [], f"dt_ladder_divisors {INTEGER}"),
        (trig([1.5]), [], f"initial[0].modes {INTEGER}"),
        ({"kernel": {**strengths(0.1)["kernel"], "quadrature_order": 4.5}}, [],
         f"kernel.quadrature_order {INTEGER}"),
        (strengths(float("nan")), [], "strengths must be finite"),
        (strengths(float("inf")), [], "strengths must be finite"),
        (dt_divisor(5, kappa=float("nan")), [], "kappa must be positive and finite"),
        (dt_divisor(5, kappa=float("inf")), [], "kappa must be positive and finite"),
        (dt_divisor(5, picard_tol=float("nan")), [], "Picard tolerances"),
        (dt_divisor(5, linear_solver={"rel_tol": float("nan")}), [], "linear solver tolerances"),
    ],
    ids=[
        "snap-zero", "snap-negative", "snap-off-grid", "snap-huge", "snap-late", "diag",
        "threads", "--threads", "snap-converge-space", "snap-converge-time",
        "ladder-short", "ladder-repeated", "ladder-decreasing", "dt-ladder-repeated",
        "ladder-at-reference", "dt-ladder-at-reference", "ladder-non-uniform-mesh",
        "old-reference-cells", "old-reference-dt-divisor", "old-entropy-mode",
        "fraction-cells", "fraction-dt-divisor", "fraction-picard-max-iter",
        "fraction-linear-max-iter", "fraction-diag", "fraction-threads",
        "fraction-space-ladder", "fraction-dt-ladder", "fraction-modes",
        "fraction-quadrature-order", "nan-strength", "inf-strength", "nan-kappa", "inf-kappa",
        "nan-picard-tol", "nan-rel-tol",
    ],
)
def test_ignored_values_rejected_before_any_output(tmp_path, capsys, overrides, args, message):
    # dt = 0.01, t_end = 0.05 unless overridden: each value would run ignored or
    # changed, or fail only after output was written.
    out = tmp_path / "out"
    path = tiny_config(tmp_path, **overrides)
    command = {"converge_space": "converge-space", "converge_time": "converge-time"}.get(
        overrides.get("mode"), "run"
    )
    assert cli_main([command, "--config", str(path), "--out", str(out)] + args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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

    cfg = parse_config(
        tiny_config(tmp_path, mode="converge_space", space_ladder=[8, 16, 32], **mesh_cells(64))
    )
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_numerical_error_in_a_step_reports_failed_step(tmp_path, capsys):
    # |Dp|/kappa overflows, so eval_B raises UsageError inside the first step.
    path = tiny_config(tmp_path, scheme={"kappa": 1e-320, "dt": 0.01, "t_end": 0.05})
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "step 1/5 failed" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_step"] == 1
    assert summary["failure_picard_errors"] == []
    assert len((out / "report.csv").read_text().splitlines()) == 1  # header only


def test_solver_failure_reports_failed_step(tmp_path):
    import dataclasses

    path = tiny_config(
        tmp_path,
        scheme={
            "kappa": 0.05,
            "dt": 0.01,
            "t_end": 0.05,
            "linear_solver": {"max_iter": 1, "rel_tol": 1e-30},
        },
    )
    cfg = dataclasses.replace(parse_config(path), out_dir=str(tmp_path / "api_out"))
    with pytest.raises(StepFailure) as excinfo:
        run_experiment(cfg)
    assert excinfo.value.step_index == 1
    summary = json.loads((tmp_path / "api_out" / "summary.json").read_text())
    assert summary["failed_step"] == 1
    # The first solve of the first sweep failed: no Picard error yet, and
    # the residual history of the one BiCGStab iteration allowed.
    assert summary["failure_picard_errors"] == []
    assert len(summary["failure_linear_residuals"]) == 2
    assert summary["failure_linear_residuals"] == excinfo.value.residual_history
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "cli_out")])
    assert code == 3
    assert json.loads((tmp_path / "cli_out" / "summary.json").read_text())["failed_step"] == 1


def test_cli_check_kernel(tmp_path, capsys):
    path = tiny_config(tmp_path)
    assert cli_main(["check-kernel", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "positive semidefinite" in out
    assert "c*" in out


def test_cli_mode_override(tmp_path):
    path = tiny_config(tmp_path, mode="run", space_ladder=[8, 16, 32], **mesh_cells(64))
    code = cli_main(
        ["converge-space", "--config", str(path), "--out", str(tmp_path / "ov")]
    )
    assert code == 0
    assert (tmp_path / "ov" / "space_errors.csv").exists()
    # Snapshots of a run config are rejected once the command makes it a ladder.
    path = tiny_config(
        tmp_path, mode="run", space_ladder=[8, 16, 32], snapshot_times=[0.05], **mesh_cells(64)
    )
    out = tmp_path / "ov2"
    assert cli_main(["converge-space", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
