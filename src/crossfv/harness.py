"""Experiment harness: configs, convergence ladders, error norms, CSV output.

A single JSON document describes one experiment (mesh, kernel, scheme,
initial data, mode and refinement ladder); its mode alone picks what runs:

  run            -- time-step once, emit per-step reports and snapshots
  converge_space -- `ladder` of cell counts at fixed dt against the configured mesh
  converge_time  -- `ladder` of divisors of t_end on a fixed mesh against the configured dt

All floating-point output is printed with 17 significant digits and every
reduction runs in a fixed order, so outputs are bit-identical across runs.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import logging
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import (
    ConfigurationError,
    StepFailure,
    UsageError,
    _integer,
    _list,
    _real,
    _string,
)
from .initial import DATUM_TYPES, parse_descriptor, project_initial
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
_LADDERS = ("converge_space", "converge_time")
_MODES = ("run", *_LADDERS)
# The keys that only some modes read: the modes that read each, and the values
# the other modes run with (None: unset). There a key may hold only those values.
_MODE_KEYS = {
    "ladder": (_LADDERS, ([],)),
    "threads": (_LADDERS, (1,)),
    "snapshot_times": (("run",), ([],)),
    "diagnostics_every": (("run",), (None, 0)),
}


@dataclass
class ExperimentConfig:
    mesh: MeshSpec
    kernel: KernelSpec
    scheme: SchemeConfig
    initial: list
    name: str = "experiment"
    mode: str = "run"
    # Cell counts in converge_space, divisors of t_end in converge_time.
    ladder: list = dataclasses.field(default_factory=list)
    snapshot_times: list = dataclasses.field(default_factory=list)
    # None (unset): a full report every step in run mode, none in the ladders.
    diagnostics_every: int | None = None
    out_dir: str | None = None
    threads: int = 1

    def __post_init__(self):
        _string(self.name, "name")
        if self.out_dir is not None:
            _string(self.out_dir, "out_dir")
        self.ladder = [_integer(entry, "ladder") for entry in _list(self.ladder, "ladder")]
        self.snapshot_times = [
            _real(t, "snapshot_times") for t in _list(self.snapshot_times, "snapshot_times")
        ]
        if self.diagnostics_every is not None:
            every = _integer(self.diagnostics_every, "diagnostics_every", minimum=0)
            self.diagnostics_every = every
        self.threads = _integer(self.threads, "threads", minimum=1)
        if self.mode not in _MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}; expected one of {_MODES}")
        if len(self.initial) != self.kernel.n_species:
            raise ConfigurationError(
                "need exactly one initial datum per species "
                f"({self.kernel.n_species}), got {len(self.initial)}"
            )
        for key, (modes, unread) in _MODE_KEYS.items():
            if self.mode not in modes and getattr(self, key) not in unread:
                raise ConfigurationError(f"{key} is not used in mode {self.mode}")
        if self.mode == "converge_space":
            cells = self.mesh.cells_per_axis
            if len(set(cells)) != 1:
                raise ConfigurationError(
                    f"converge_space refines to mesh.cells, which must be the same on every "
                    f"axis, got {list(cells)}"
                )
            _check_ladder(self.ladder, cells[0])
        if self.mode == "converge_time":
            _check_ladder(self.ladder, self.scheme.n_steps)
        dt, n_steps = self.scheme.dt, self.scheme.n_steps
        for t in self.snapshot_times:
            steps = t / dt
            # Same relative grid tolerance as the dt-divides-t_end check.
            if not (t > 0 and np.isfinite(steps) and abs(round(steps) * dt - t) <= 1e-9 * t):
                raise ConfigurationError(f"snapshot time {t} is not a positive multiple of dt {dt}")
            # A run with t_end = 0 takes no step (set-up only) and writes no snapshot.
            if n_steps and round(steps) > n_steps:
                raise ConfigurationError(f"snapshot time {t} is after t_end {self.scheme.t_end}")
        if self.kernel.extension is Extension.PERIODIC_WRAP:
            # Caps image sums per axis at 1723 (Gaussian) or 203 (top-hat); wider is nearly flat.
            key = "eps" if isinstance(self.kernel.shape, Gaussian) else "radius"
            width = getattr(self.kernel.shape, key)
            for axis, (lo, hi) in enumerate(self.mesh.extents):
                if width > 100 * (hi - lo):
                    raise ConfigurationError(
                        f"periodic kernel.{key} = {width} is more than 100 times the length "
                        f"{hi - lo} of axis {axis} (mesh.extents[{axis}])"
                    )
        if self.mesh.dim >= 2:
            # Load the dim >= 2 solve's scipy.sparse (0.1-0.2 s) here, not in a timed run.
            import scipy.sparse

    @property
    def report_every(self) -> int:
        """Steps between full diagnostics reports; 0 for none."""
        if self.diagnostics_every is None:
            return 1 if self.mode == "run" else 0
        return self.diagnostics_every


def _check_ladder(ladder: list, reference: int) -> None:
    """Reject a ladder the rate fit cannot use.

    The fit needs at least 3 entries, strictly increasing and below the
    reference: an entry equal to the reference has zero error and drops out.
    Each entry must nest under the reference by a power of two (exact
    coarsening).
    """
    values = list(ladder) + [reference]
    if len(values) < 4 or any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigurationError(
            f"ladder needs at least 3 strictly increasing entries below the reference "
            f"{reference}, got {ladder}"
        )
    for coarse in ladder:
        if coarse < 1 or reference % coarse != 0:
            raise ConfigurationError(f"{coarse} does not nest under reference {reference}")
        factor = reference // coarse
        if factor & (factor - 1):
            raise ConfigurationError(f"refinement factor {factor} is not a power of two")


def parse_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or a parsed dict.

    Only the keys present are passed on: the config dataclasses own every
    default and value rule.
    """
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
        _reject_unknown(raw, _keys(ExperimentConfig) | {"description"}, "")
        _reject_unknown(raw["mesh"], {"extents", "cells"}, "mesh.")
        fields = {key: value for key, value in raw.items() if key != "description"}
        fields.update(
            mesh=MeshSpec(extents=raw["mesh"]["extents"], cells_per_axis=raw["mesh"]["cells"]),
            kernel=_parse_kernel(raw["kernel"]),
            scheme=_parse_scheme(raw["scheme"]),
            initial=[_parse_datum(datum, index) for index, datum in enumerate(raw["initial"])],
        )
        return ExperimentConfig(**fields)
    except KeyError as exc:
        raise ConfigurationError(f"config is missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc


_SHAPES = {"gaussian": Gaussian, "top_hat": TopHat}


def _keys(cls) -> set:
    """The JSON keys of a config section: the field names of its dataclass."""
    return {field.name for field in dataclasses.fields(cls)}


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
    if name not in _SHAPES:
        raise ConfigurationError(f"unknown kernel shape {name!r}")
    shape = _SHAPES[name]
    _reject_unknown(raw, _keys(KernelSpec) | _keys(shape), "kernel.")
    params = {key: raw[key] for key in _keys(shape) & raw.keys()}
    fields = {key: value for key, value in raw.items() if key not in params}
    return KernelSpec(**{**fields, "shape": shape(**params)})


def _parse_scheme(raw: dict) -> SchemeConfig:
    allowed = _keys(SchemeConfig) - {"linear"} | {"dt_divisor", "linear_solver"}
    _reject_unknown(raw, allowed, "scheme.")
    fields = dict(raw)
    divisor = fields.pop("dt_divisor", None)
    if ("dt" in fields) == (divisor is not None):
        raise ConfigurationError("scheme needs exactly one of 'dt' and 'dt_divisor'")
    if divisor is not None:
        t_end = _real(raw["t_end"], "scheme.t_end")
        fields["dt"] = t_end / _integer(divisor, "scheme.dt_divisor", minimum=1)
    linear = fields.pop("linear_solver", {})
    _reject_unknown(linear, _keys(LinearSolverConfig), "scheme.linear_solver.")
    return SchemeConfig(**fields, linear=LinearSolverConfig(**linear))


def _parse_datum(raw: dict, index: int):
    prefix = f"initial[{index}]."
    cls = DATUM_TYPES.get(dict(raw).get("type"))
    if cls is not None:  # an unknown type is reported by parse_descriptor
        _reject_unknown(raw, _keys(cls) | {"type"}, prefix)
    try:
        return parse_descriptor(raw)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{prefix}{exc}") from exc


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
            cells_per_axis=(cells,) * cfg.mesh.dim,
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


def _strict_json(value):
    """`value` with every non-finite float as None, which JSON writes as null."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict_json(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_summary(out_dir: str | None, summary: dict, files: list) -> None:
    if out_dir is None:
        return
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as handle:
        json.dump(_strict_json(summary), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    files.append(path)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute one experiment; writes artifact files when out_dir is set."""
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.mode == "run":
        return _run_mode(cfg)
    return _converge(cfg)


def _write_failure(out_dir: str | None, summary: dict, exc: StepFailure, files: list) -> None:
    """`summary` and the failed step's index, message and both histories, as summary.json."""
    summary.update(
        failed_step=exc.step_index, failure=str(exc), failure_picard_errors=exc.error_history,
        failure_linear_residuals=exc.residual_history,
    )
    _write_summary(out_dir, summary, files)


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
            diagnostics_every=cfg.report_every,
            psd_ok=psd_ok,
        )
    except StepFailure as exc:
        _write_failure(cfg.out_dir, summary, exc, files)
        raise
    finally:
        if writer is not None:
            writer.close()

    full_reports = [report for report in run_summary.reports if report.verdicts is not None]
    gated_failures = sum(
        1
        for report in full_reports
        for verdict in report.verdicts.values()
        if verdict.gated and not verdict.passed
    )
    h_rao = [report.h_rao for report in full_reports]
    # None (null) when fewer than two full reports leave nothing to compare.
    rao_non_increasing = (
        all(not later > earlier for earlier, later in zip(h_rao, h_rao[1:]))
        if len(h_rao) > 1 else None
    )
    modes = [dominant_mode(u) for u in run_summary.final_state.u]
    summary.update(
        {
            "picard_sweeps": _count_summary([r.picard_iters for r in run_summary.reports]),
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


def _count_summary(counts: list) -> dict:
    """Total, median, 90th percentile and maximum of counts; all 0 when there are none.

    The percentiles interpolate linearly between the sorted counts, as
    numpy's default does (numpy's own call would load more of the library).
    """
    if not counts:
        return {"total": 0, "p50": 0.0, "p90": 0.0, "max": 0}
    ranked = sorted(counts)

    def percentile(q):
        pos = q * (len(ranked) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ranked) - 1)
        return float(ranked[lo] + (ranked[hi] - ranked[lo]) * (pos - lo))

    return {"total": sum(ranked), "p50": percentile(0.5), "p90": percentile(0.9), "max": ranked[-1]}


def _solve_final_state(cfg: ExperimentConfig, cells=None, dt=None) -> RunSummary:
    """One ladder entry; its final state keeps only `u`, all the error table reads.

    A StepFailure leaves with the entry's `cells` and `dt` as its `entry`.
    """
    mesh, kernel, scheme_cfg, state = _build_problem(cfg, cells=cells, dt=dt)
    try:
        summary = run(scheme_cfg, state, kernel, diagnostics_every=cfg.report_every)
    except StepFailure as exc:
        exc.entry = {"cells": list(mesh.shape), "dt": scheme_cfg.dt}
        raise
    summary.final_state = dataclasses.replace(summary.final_state, p=None, levels=())
    return summary


def _run_ladder(cfg: ExperimentConfig, jobs: list) -> list:
    """Solve independent ladder entries, optionally in a thread pool.

    In the pool the results are read in ladder order, so the first entry
    that fails in that order is raised. After a failure no entry starts:
    the queued ones are cancelled, and one that a freed worker takes before
    the cancel is skipped; only entries already running are waited for.
    """
    if cfg.threads > 1:
        failed = threading.Event()

        def solve(job):
            if failed.is_set():
                return None
            try:
                return _solve_final_state(cfg, **job)
            except BaseException:
                failed.set()
                raise

        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = [pool.submit(solve, job) for job in jobs]
            try:
                return [future.result() for future in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
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
    coarse mesh, which in time is its own. When an entry fails, the first
    in ladder order, its cells, dt, failed step and histories go to
    `summary.json` before the StepFailure propagates.
    """
    ladder = cfg.ladder
    if cfg.mode == "converge_space":
        kind = "space"
        jobs = [{"cells": cells} for cells in ladder]
        scale = cfg.mesh.extents[0][1] - cfg.mesh.extents[0][0]
    else:
        kind = "time"
        scale = cfg.scheme.t_end
        jobs = [{"dt": scale / div} for div in ladder]
    try:
        summaries = _run_ladder(cfg, jobs + [{}])
    except StepFailure as exc:
        _write_failure(cfg.out_dir, {"name": cfg.name, "mode": cfg.mode, **exc.entry}, exc, [])
        raise
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
