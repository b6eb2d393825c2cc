"""Experiment harness: configs, convergence ladders, error norms, CSV output.

A single JSON document describes one experiment (mesh, kernel, scheme,
initial data, mode and refinement ladders). Modes:

  run            -- time-step once, emit per-step reports and snapshots
  converge_space -- mesh ladder at fixed dt against the configured mesh
  converge_time  -- dt ladder on a fixed mesh against the configured dt

All floating-point output is printed with 17 significant digits and every
reduction runs in a fixed order, so outputs are bit-identical across runs.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import ConfigurationError, StepFailure, UsageError
from .initial import BoxIC, ConstantIC, TrigIC, parse_descriptor, project_initial
from .kernels import (
    DiscreteKernel,
    Extension,
    Gaussian,
    KernelSpec,
    TopHat,
    c_star_report,
    check_psd,
    discretize,
)
from .mesh import Mesh, MeshSpec, build_mesh
from .scheme import (
    LinearSolverConfig,
    RunSummary,
    SchemeConfig,
    State,
    run,
)

logger = logging.getLogger(__name__)

_TINY = float(np.finfo(float).tiny)
_MODES = ("run", "converge_space", "converge_time")


@dataclass
class ExperimentConfig:
    name: str
    mesh: MeshSpec
    kernel: KernelSpec
    scheme: SchemeConfig
    initial: list
    mode: str = "run"
    space_ladder: list = dataclasses.field(default_factory=list)
    dt_ladder_divisors: list = dataclasses.field(default_factory=list)
    snapshot_times: list = dataclasses.field(default_factory=list)
    diagnostics_every: int = 1
    out_dir: str | None = None
    threads: int = 1

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}; expected one of {_MODES}")
        if len(self.initial) != self.kernel.n_species:
            raise ConfigurationError(
                "need exactly one initial datum per species "
                f"({self.kernel.n_species}), got {len(self.initial)}"
            )
        if self.mode in ("converge_space", "converge_time") and self.snapshot_times:
            raise ConfigurationError(f"snapshot_times are not written in mode {self.mode}")
        if self.mode == "converge_space":
            cells = self.mesh.cells_per_axis
            if len(set(cells)) != 1:
                raise ConfigurationError(
                    f"converge_space refines to mesh.cells, which must be the same on every "
                    f"axis, got {list(cells)}"
                )
            _check_ladder("space_ladder", self.space_ladder, cells[0])
        if self.mode == "converge_time":
            _check_ladder("dt_ladder_divisors", self.dt_ladder_divisors, self.scheme.n_steps)
        dt, n_steps = self.scheme.dt, self.scheme.n_steps
        for t in self.snapshot_times:
            steps = t / dt
            # Same relative grid tolerance as the dt-divides-t_end check.
            if not (t > 0 and np.isfinite(steps) and abs(round(steps) * dt - t) <= 1e-9 * t):
                raise ConfigurationError(f"snapshot time {t} is not a positive multiple of dt {dt}")
            # A run with t_end = 0 takes no step (set-up only) and writes no snapshot.
            if n_steps and round(steps) > n_steps:
                raise ConfigurationError(f"snapshot time {t} is after t_end {self.scheme.t_end}")
        if self.diagnostics_every < 0:
            raise ConfigurationError(
                f"diagnostics_every must be >= 0, got {self.diagnostics_every}"
            )
        if self.threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {self.threads}")


def _check_ladder(name: str, ladder: list, reference: int) -> None:
    """Reject a ladder the rate fit cannot use.

    The fit needs at least 3 entries, strictly increasing and below the
    reference: an entry equal to the reference has zero error and drops out.
    Each entry must nest under the reference by a power of two (exact
    coarsening).
    """
    values = list(ladder) + [reference]
    if len(values) < 4 or any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigurationError(
            f"{name} needs at least 3 strictly increasing entries below the reference "
            f"{reference}, got {ladder}"
        )
    for coarse in ladder:
        if coarse < 1 or reference % coarse != 0:
            raise ConfigurationError(f"{coarse} does not nest under reference {reference}")
        factor = reference // coarse
        if factor & (factor - 1):
            raise ConfigurationError(f"refinement factor {factor} is not a power of two")


def _integer(value, key: str) -> int:
    """An integer config value; a fraction is an error, never truncated."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def parse_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or a parsed dict."""
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source) as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    else:
        raw = dict(source)
    try:
        _reject_unknown(raw, _TOP_KEYS, "")
        _reject_unknown(raw["mesh"], _MESH_KEYS, "mesh.")
        for index, datum in enumerate(raw["initial"]):
            fields = _DATUM_KEYS.get(dict(datum).get("type"))
            if fields is not None:  # an unknown type is reported by parse_descriptor
                _reject_unknown(datum, fields | {"type"}, f"initial[{index}].")
                for k in datum.get("modes", ()):
                    _integer(k, f"initial[{index}].modes")
        mesh = MeshSpec(
            extents=tuple(tuple(e) for e in raw["mesh"]["extents"]),
            cells_per_axis=tuple(_integer(m, "mesh.cells") for m in raw["mesh"]["cells"]),
        )
        kernel = _parse_kernel(raw["kernel"])
        scheme = _parse_scheme(raw["scheme"])
        initial = [parse_descriptor(d) for d in raw["initial"]]
        return ExperimentConfig(
            name=str(raw.get("name", "experiment")),
            mesh=mesh,
            kernel=kernel,
            scheme=scheme,
            initial=initial,
            mode=str(raw.get("mode", "run")),
            space_ladder=[_integer(m, "space_ladder") for m in raw.get("space_ladder", [])],
            dt_ladder_divisors=[
                _integer(d, "dt_ladder_divisors") for d in raw.get("dt_ladder_divisors", [])
            ],
            snapshot_times=list(raw.get("snapshot_times", [])),
            diagnostics_every=_integer(raw.get("diagnostics_every", 1), "diagnostics_every"),
            out_dir=raw.get("out_dir"),
            threads=_integer(raw.get("threads", 1), "threads"),
        )
    except KeyError as exc:
        raise ConfigurationError(f"config is missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc


_TOP_KEYS = {
    "name", "description", "mesh", "kernel", "scheme", "initial", "mode",
    "space_ladder", "dt_ladder_divisors", "snapshot_times", "diagnostics_every",
    "out_dir", "threads",
}
_MESH_KEYS = {"extents", "cells"}
_KERNEL_KEYS = {"shape", "strengths", "extension", "quadrature_order"}
_SHAPE_KEYS = {"gaussian": {"eps"}, "top_hat": {"radius"}}
_SCHEME_KEYS = {
    "kappa", "dt", "dt_divisor", "t_end", "weight", "coupling",
    "picard_tol", "picard_max_iter", "linear_solver",
}
_LINEAR_KEYS = {"rel_tol", "max_iter"}
_DATUM_KEYS = {
    kind: {f.name for f in dataclasses.fields(cls)}
    for kind, cls in (("constant", ConstantIC), ("box", BoxIC), ("trig", TrigIC))
}


def _reject_unknown(raw: dict, allowed: set, prefix: str) -> None:
    """Raise on keys outside `allowed`, so a misspelt key never runs as a default."""
    if not isinstance(raw, dict):
        section = prefix.rstrip(".") or "root"
        raise ConfigurationError(f"config section {section!r} must be an object")
    unknown = sorted(set(raw) - allowed)
    if unknown:
        names = ", ".join(f"'{prefix}{key}'" for key in unknown)
        raise ConfigurationError(f"unknown config key {names}")


def _parse_kernel(raw: dict) -> KernelSpec:
    name = raw["shape"]
    if name not in _SHAPE_KEYS:
        raise ConfigurationError(f"unknown kernel shape {name!r}")
    _reject_unknown(raw, _KERNEL_KEYS | _SHAPE_KEYS[name], "kernel.")
    if name == "gaussian":
        shape = Gaussian(eps=float(raw["eps"]))
    else:
        shape = TopHat(radius=float(raw["radius"]))
    return KernelSpec(
        strengths=np.asarray(raw["strengths"], dtype=float),
        shape=shape,
        extension=Extension(raw.get("extension", "periodic_wrap")),
        quadrature_order=_integer(raw.get("quadrature_order", 4), "kernel.quadrature_order"),
    )


def _parse_scheme(raw: dict) -> SchemeConfig:
    _reject_unknown(raw, _SCHEME_KEYS, "scheme.")
    t_end = float(raw["t_end"])
    if "dt" in raw:
        dt = float(raw["dt"])
    elif "dt_divisor" in raw:
        dt = t_end / _integer(raw["dt_divisor"], "scheme.dt_divisor")
    else:
        raise ConfigurationError("scheme needs dt or dt_divisor")
    lin_raw = raw.get("linear_solver", {})
    _reject_unknown(lin_raw, _LINEAR_KEYS, "scheme.linear_solver.")
    linear = LinearSolverConfig(
        rel_tol=float(lin_raw.get("rel_tol", 1e-12)),
        max_iter=_integer(lin_raw.get("max_iter", 10000), "scheme.linear_solver.max_iter"),
    )
    return SchemeConfig(
        kappa=float(raw["kappa"]),
        dt=dt,
        t_end=t_end,
        weight=raw.get("weight", "bernoulli"),
        coupling=raw.get("coupling", "implicit"),
        picard_tol=float(raw.get("picard_tol", 1e-10)),
        picard_max_iter=_integer(raw.get("picard_max_iter", 200), "scheme.picard_max_iter"),
        linear=linear,
    )


def coarsen(fine: np.ndarray, coarse_shape: tuple) -> np.ndarray:
    """Measure-weighted average of the fine cells inside each coarse cell."""
    fine = np.asarray(fine, dtype=float)
    if fine.ndim != len(coarse_shape):
        raise UsageError("coarse shape must match the field dimension")
    factors = []
    for mf, mc in zip(fine.shape, coarse_shape):
        if mc < 1 or mf % mc != 0:
            raise UsageError(f"mesh {fine.shape} is not nested over {coarse_shape}")
        factor = mf // mc
        if factor & (factor - 1):
            raise UsageError(f"refinement factor {factor} is not a power of two")
        factors.append(factor)
    reshaped = fine.reshape(
        tuple(v for mc, f in zip(coarse_shape, factors) for v in (mc, f))
    )
    return reshaped.mean(axis=tuple(range(1, 2 * len(coarse_shape), 2)))


def error_norms(a: np.ndarray, b: np.ndarray, mesh: Mesh) -> dict:
    """Discrete max and L1 distances between two cell fields."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != mesh.shape or b.shape != mesh.shape:
        raise UsageError("fields must live on the given mesh")
    diff = np.abs(a - b)
    return {"Linf": float(diff.max()), "L1": float(mesh.cell_measure * diff.sum())}


def fit_rate(resolutions, errors) -> tuple:
    """(least-squares order, last-pair order) of log error vs log resolution.

    Zero error entries are excluded with a notice; at least three rows and
    strictly decreasing resolutions are required.
    """
    res = np.asarray(resolutions, dtype=float)
    err = np.asarray(errors, dtype=float)
    if res.size < 3:
        raise UsageError("rate fit needs at least 3 rows")
    if np.any(np.diff(res) >= 0):
        raise UsageError("resolutions must be strictly decreasing")
    if np.any(err < 0):
        raise UsageError("errors must be nonnegative")
    mask = err > 0
    if not np.all(mask):
        logger.info("fit_rate: excluding %d zero-error rows", int((~mask).sum()))
    res, err = res[mask], err[mask]
    if res.size < 2:
        return float("nan"), float("nan")
    slope = np.polyfit(np.log(res), np.log(err), 1)[0]
    last = np.log(err[-2] / err[-1]) / np.log(res[-2] / res[-1])
    return float(slope), float(last)


@dataclass
class ErrorTable:
    """Per-resolution errors per species and their fitted orders (see `fit_rate`)."""

    kind: str  # 'space' | 'time'
    resolutions: list
    linf: np.ndarray  # (rows, n_species)
    l1: np.ndarray
    orders_linf: np.ndarray = dataclasses.field(init=False)
    orders_l1: np.ndarray = dataclasses.field(init=False)
    last_orders_linf: np.ndarray = dataclasses.field(init=False)
    last_orders_l1: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        linf = np.array([fit_rate(self.resolutions, col) for col in self.linf.T])
        l1 = np.array([fit_rate(self.resolutions, col) for col in self.l1.T])
        self.orders_linf, self.last_orders_linf = linf[:, 0], linf[:, 1]
        self.orders_l1, self.last_orders_l1 = l1[:, 0], l1[:, 1]


def dominant_mode(field: np.ndarray) -> tuple:
    """Strongest nonzero Fourier mode of a profile: (modes, magnitude).

    Mode entries are folded to the symmetric range and normalized so the
    first nonzero entry is positive (a real wave and its mirror coincide).
    """
    spectrum = np.fft.fftn(field - field.mean())
    mag = np.abs(spectrum)
    mag.flat[0] = 0.0
    flat_idx = int(np.argmax(mag))
    modes = np.array(np.unravel_index(flat_idx, field.shape))
    for axis, m in enumerate(field.shape):
        if modes[axis] > m // 2:
            modes[axis] -= m
    nz = modes[modes != 0]
    if nz.size and nz[0] < 0:
        modes = -modes
    return tuple(int(k) for k in modes), float(mag.flat[flat_idx])


@dataclass
class ExperimentResult:
    name: str
    mode: str
    summary: dict
    error_table: ErrorTable | None = None
    run_summary: RunSummary | None = None
    files: list = dataclasses.field(default_factory=list)


def _build_problem(cfg: ExperimentConfig, cells=None, dt=None):
    """Mesh, kernel, scheme config and floored initial state for one solve."""
    mesh_spec = cfg.mesh
    if cells is not None:
        mesh_spec = MeshSpec(
            extents=cfg.mesh.extents,
            cells_per_axis=tuple([int(cells)] * len(cfg.mesh.extents)),
        )
    mesh = build_mesh(mesh_spec)
    kernel = discretize(cfg.kernel, mesh)
    scheme_cfg = cfg.scheme if dt is None else dataclasses.replace(cfg.scheme, dt=dt)
    u0 = np.stack([project_initial(d, mesh) for d in cfg.initial])
    # Positivity floor: indicator data projects to exact zeros outside its
    # support; the scheme and its entropy checks need u > 0, and a floor at
    # the smallest positive normal float is far below every tolerance.
    u0 = np.maximum(u0, _TINY)
    state = State(k=0, u=u0, mesh=mesh)
    return mesh, kernel, scheme_cfg, state


def _kernel_reports(cfg: ExperimentConfig, mesh: Mesh, kernel: DiscreteKernel, u0):
    psd = check_psd(kernel)
    psd_summary = {"is_psd": psd.is_psd, "min_eigenvalue": psd.min_eigenvalue}
    cstar = c_star_report(kernel.spec, u0, mesh, cfg.scheme.kappa, cfg.scheme.weight.alpha)
    cstar_summary = {
        "c_star": cstar.c_star,
        "threshold": cstar.threshold,
        "within_threshold": cstar.within_threshold,
    }
    return psd_summary, psd.is_psd, cstar_summary


class _ReportWriter:
    """Streams one CSV row per step so failed runs leave partial output."""

    def __init__(self, path: str, n_species: int):
        self.handle = open(path, "w")
        self.handle.write(diagnostics.report_csv_header(n_species) + "\n")

    def __call__(self, state, report):
        self.handle.write(diagnostics.report_csv_row(report) + "\n")
        self.handle.flush()

    def close(self):
        self.handle.close()


class _SnapshotWriter:
    def __init__(self, out_dir: str, mesh: Mesh, times, dt: float, files: list):
        self.out_dir = out_dir
        self.mesh = mesh
        self.steps = sorted({int(round(t / dt)) for t in times})
        self.files = files

    def __call__(self, state, report):
        if state.k in self.steps:
            path = os.path.join(self.out_dir, f"snapshot_step{state.k:06d}.csv")
            write_snapshot(path, self.mesh, state)
            self.files.append(path)


def write_snapshot(path: str, mesh: Mesh, state: State) -> None:
    n = state.n_species
    d = mesh.dim
    coords = np.meshgrid(*[mesh.axis_coordinates(ax) for ax in range(d)], indexing="ij")
    with open(path, "w") as handle:
        header = [f"x_{ax + 1}" for ax in range(d)] + [f"u_{i + 1}" for i in range(n)]
        handle.write(",".join(header) + "\n")
        flat_coords = [c.ravel() for c in coords]
        flat_u = [state.u[i].ravel() for i in range(n)]
        for row in range(mesh.n_cells):
            cells = [f"{c[row]:.17g}" for c in flat_coords]
            cells += [f"{u[row]:.17g}" for u in flat_u]
            handle.write(",".join(cells) + "\n")


def _write_error_table(path: str, table: ErrorTable, n_species: int) -> None:
    label = "dx" if table.kind == "space" else "dt"
    with open(path, "w") as handle:
        cols = [label]
        for i in range(n_species):
            cols += [f"Linf_u{i + 1}", f"L1_u{i + 1}"]
        handle.write(",".join(cols) + "\n")
        for row, res in enumerate(table.resolutions):
            cells = [f"{res:.17g}"]
            for i in range(n_species):
                cells += [f"{table.linf[row, i]:.17g}", f"{table.l1[row, i]:.17g}"]
            handle.write(",".join(cells) + "\n")
        for name, linf_vals, l1_vals in (
            ("order_ls", table.orders_linf, table.orders_l1),
            ("order_last", table.last_orders_linf, table.last_orders_l1),
        ):
            cells = [name]
            for i in range(n_species):
                cells += [f"{linf_vals[i]:.17g}", f"{l1_vals[i]:.17g}"]
            handle.write(",".join(cells) + "\n")


def _write_summary(out_dir: str | None, summary: dict, files: list) -> None:
    if out_dir is None:
        return
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    files.append(path)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute one experiment; writes artifact files when out_dir is set."""
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.mode == "run":
        return _run_mode(cfg)
    return _converge(cfg)


def _run_mode(cfg: ExperimentConfig) -> ExperimentResult:
    mesh, kernel, scheme_cfg, state = _build_problem(cfg)
    psd_summary, psd_ok, cstar_summary = _kernel_reports(cfg, mesh, kernel, state.u)
    files: list = []
    observers = []
    writer = None
    if cfg.out_dir is not None:
        report_path = os.path.join(cfg.out_dir, "report.csv")
        writer = _ReportWriter(report_path, kernel.n_species)
        files.append(report_path)
        observers.append(writer)
        if cfg.snapshot_times:
            observers.append(
                _SnapshotWriter(cfg.out_dir, mesh, cfg.snapshot_times, scheme_cfg.dt, files)
            )
    summary = {
        "name": cfg.name,
        "mode": cfg.mode,
        "cells": list(mesh.shape),
        "dt": scheme_cfg.dt,
        "t_end": scheme_cfg.t_end,
        "psd": psd_summary,
        "c_star": cstar_summary,
        "initial_masses": [float(m) for m in state.masses()],
    }
    try:
        run_summary = run(
            scheme_cfg,
            state,
            kernel,
            observers=tuple(observers),
            diagnostics_every=cfg.diagnostics_every,
            psd_ok=psd_ok,
        )
    except StepFailure as exc:
        summary["failed_step"] = exc.step_index
        summary["failure"] = str(exc)
        summary["failure_picard_errors"] = exc.error_history
        summary["failure_linear_residuals"] = exc.residual_history
        _write_summary(cfg.out_dir, summary, files)
        raise
    finally:
        if writer is not None:
            writer.close()

    gated_failures = 0
    rao_non_increasing = True
    prev_h_rao = None
    for report in run_summary.reports:
        if report.verdicts is not None:
            for verdict in report.verdicts.values():
                if verdict.gated and not verdict.passed:
                    gated_failures += 1
            if prev_h_rao is not None and report.h_rao > prev_h_rao:
                rao_non_increasing = False
            prev_h_rao = report.h_rao
    modes = [dominant_mode(u) for u in run_summary.final_state.u]
    summary.update(
        {
            "final_masses": [float(m) for m in run_summary.final_state.masses()],
            "max_mass_drift": run_summary.max_mass_drift,
            "min_density": run_summary.min_density,
            "n_steps": run_summary.n_steps,
            "gated_failures": gated_failures,
            "h_rao_non_increasing": rao_non_increasing,
            "dominant_modes": [
                {"species": i + 1, "modes": list(mode), "magnitude": magnitude}
                for i, (mode, magnitude) in enumerate(modes)
            ],
        }
    )
    _write_summary(cfg.out_dir, summary, files)
    return ExperimentResult(
        name=cfg.name,
        mode=cfg.mode,
        summary=summary,
        run_summary=run_summary,
        files=files,
    )


def _solve_final_state(cfg: ExperimentConfig, cells=None, dt=None) -> RunSummary:
    _, kernel, scheme_cfg, state = _build_problem(cfg, cells=cells, dt=dt)
    return run(scheme_cfg, state, kernel, diagnostics_every=0)


def _run_ladder(cfg: ExperimentConfig, jobs: list) -> list:
    """Solve independent ladder entries, optionally in a thread pool."""
    if cfg.threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = [pool.submit(_solve_final_state, cfg, **job) for job in jobs]
            return [future.result() for future in futures]
    return [_solve_final_state(cfg, **job) for job in jobs]


def _structure_summary(summaries: list) -> dict:
    return {
        "max_mass_drift": max(s.max_mass_drift for s in summaries),
        "min_density": min(s.min_density for s in summaries),
    }


def _converge(cfg: ExperimentConfig) -> ExperimentResult:
    """Ladder of coarse solves against the configured problem; the mode picks the ladder.

    Space coarsens the mesh at the configured dt, time coarsens dt on the
    configured mesh. The last solve, the reference, is the configured
    problem itself (`mesh.cells`, `scheme.dt`); it is averaged onto each
    coarse mesh, which in time is its own.
    """
    if cfg.mode == "converge_space":
        kind = "space"
        ladder = cfg.space_ladder
        jobs = [{"cells": cells} for cells in ladder]
        scale = cfg.mesh.extents[0][1] - cfg.mesh.extents[0][0]
    else:
        kind = "time"
        ladder = cfg.dt_ladder_divisors
        scale = cfg.scheme.t_end
        jobs = [{"dt": scale / div} for div in ladder]
    summaries = _run_ladder(cfg, jobs + [{}])
    ref_u = summaries[-1].final_state.u
    n = cfg.kernel.n_species
    rows_linf = np.zeros((len(ladder), n))
    rows_l1 = np.zeros((len(ladder), n))
    for row, summary in enumerate(summaries[:-1]):
        mesh = summary.final_state.mesh
        for i in range(n):
            ref = coarsen(ref_u[i], mesh.shape)
            norms = error_norms(summary.final_state.u[i], ref, mesh)
            rows_linf[row, i] = norms["Linf"]
            rows_l1[row, i] = norms["L1"]
    resolutions = [scale / m for m in ladder]
    table = ErrorTable(kind=kind, resolutions=resolutions, linf=rows_linf, l1=rows_l1)
    files: list = []
    summary = {
        "name": cfg.name,
        "mode": cfg.mode,
        "resolutions": [float(r) for r in table.resolutions],
        "orders_linf": [float(v) for v in table.orders_linf],
        "orders_l1": [float(v) for v in table.orders_l1],
        "last_orders_linf": [float(v) for v in table.last_orders_linf],
        "last_orders_l1": [float(v) for v in table.last_orders_l1],
    }
    summary.update(_structure_summary(summaries))
    if cfg.out_dir is not None:
        path = os.path.join(cfg.out_dir, f"{kind}_errors.csv")
        _write_error_table(path, table, n)
        files.append(path)
    _write_summary(cfg.out_dir, summary, files)
    return ExperimentResult(
        name=cfg.name, mode=cfg.mode, summary=summary, error_table=table, files=files
    )
