"""Outside-in tracing of a crossfv run.

Each hook wraps one public name of the package where its caller looks it
up, records a span (layer, parent, start, end) and, for some hooks, a count
taken from the call's arguments or result. Spans stay in memory until the
run ends. A hook whose target a refactor removed is listed as missing and
its layer's metrics are left out of the result, never reported as zero or
undercounted from the layer's other hooks.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time


def _potential_flops(args, kwargs, out):
    """Computed flop count of one DiscreteKernel.potentials call (a model)."""
    kernel = args[0]
    n = kernel.n_species
    cells = math.prod(kernel.mesh.shape)
    use_fast = getattr(kernel, "_use_fast", lambda: True)()
    if not use_fast:
        # Direct sum: one multiply-add per (target, source) cell pair.
        return 2.0 * n * n * cells * cells
    length = cells if kernel.extension.value == "periodic_wrap" else cells * 2 ** kernel.mesh.dim
    transforms = 2 * n * 2.5 * length * math.log2(length)
    return transforms + 8.0 * n * n * (length / 2 + 1)


def _clamped(args, kwargs, out):
    return out[1].clamped


def _sweeps(args, kwargs, out):
    return out[1].picard_iters


def _full_report(args, kwargs, out):
    return bool(kwargs.get("full"))


def _bicgstab(args, kwargs, out):
    """(iterations, computed bytes moved by the CSR matvecs)."""
    matrix = args[0]
    iters = len(out[1]) - 1
    if not hasattr(matrix, "indices"):  # not a CSR matrix: no byte model
        return iters, None
    rows = matrix.shape[0]
    per_matvec = (
        matrix.nnz * (matrix.data.itemsize + matrix.indices.itemsize)
        + (rows + 1) * matrix.indptr.itemsize
        + 2 * rows * 8
    )
    # One residual matvec, two per iteration and one true-residual check.
    return iters, (2 + 2 * iters) * per_matvec


# (module, name as the caller looks it up, layer, count extractor)
HOOKS = (
    ("crossfv.harness", "discretize", "kernels.discretize", None),
    ("crossfv.harness", "check_psd", "kernels.check_psd", None),
    ("crossfv.harness", "c_star_report", "kernels.c_star", None),
    ("crossfv.harness", "project_initial", "initial.project", None),
    ("crossfv.kernels", "DiscreteKernel.potentials", "kernels.potential", _potential_flops),
    ("crossfv.harness", "run", "scheme.run", None),
    ("crossfv.scheme", "advance", "scheme.advance", _sweeps),
    ("crossfv.scheme", "assemble", "scheme.assemble", None),
    ("crossfv.scheme", "solve_linear", "scheme.solve_linear", _clamped),
    ("crossfv.scheme", "eval_B_kappa", "weights.eval", None),
    ("crossfv.diagnostics", "eval_B_kappa", "weights.eval", None),
    ("crossfv.linsolve", "bicgstab", "linsolve.bicgstab", _bicgstab),
    ("crossfv.linsolve", "jacobi_positive_polish", "linsolve.polish", None),
    ("crossfv.diagnostics", "build_report", "diagnostics.report", _full_report),
    # The output writers have no public name; these four cover every file
    # the harness writes.
    ("crossfv.harness", "_ReportWriter.__call__", "harness.output", None),
    ("crossfv.harness", "write_snapshot", "harness.output", None),
    ("crossfv.harness", "_write_summary", "harness.output", None),
    ("crossfv.harness", "_write_error_table", "harness.output", None),
)

# Per-layer metrics each layer provides, in BENCHMARK.json order.
LAYER_METRICS = {
    "kernels.potential": (
        "kernels.potential_s", "kernels.potential_calls", "kernels.potential_flops_computed",
    ),
    "kernels.discretize": ("kernels.discretize_s",),
    "kernels.check_psd": ("kernels.check_psd_s",),
    "kernels.c_star": ("kernels.c_star_s",),
    "initial.project": ("initial.project_s",),
    "scheme.run": ("scheme.run_s",),
    "scheme.advance": (
        "scheme.advance_s", "scheme.picard_sweeps",
        "scheme.sweeps_per_step_p50", "scheme.sweeps_per_step_max",
    ),
    "scheme.assemble": ("scheme.assemble_s", "scheme.assemble_calls"),
    "scheme.solve_linear": ("scheme.solve_linear_s", "scheme.clamped"),
    "weights.eval": ("weights.eval_s", "weights.eval_calls"),
    "linsolve.bicgstab": (
        "linsolve.bicgstab_s", "linsolve.iters", "linsolve.iters_per_solve",
        "linsolve.matvec_bytes_computed",
    ),
    "linsolve.polish": ("linsolve.polish_s", "linsolve.polish_calls"),
    "diagnostics.report": (
        "diagnostics.report_s", "diagnostics.full_reports", "diagnostics.potentials_per_report",
    ),
    "harness.output": ("harness.output_s",),
}

ROOT = "harness.run_experiment"


class Tracer:
    """Span recorder; spans are [layer, parent index, start, end, count]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.installed: set = set()
        self.missing: list = []

    def wrap(self, fn, layer: str, extract=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if extract is not None:
                rec[4] = extract(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every hook; a layer counts as installed only if all its hooks are."""
        lost = set()
        for module_name, attr_path, layer, extract in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                target = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr_path}")
                lost.add(layer)
                continue
            setattr(owner, attr, self.wrap(target, layer, extract))
            self.installed.add(layer)
        self.installed -= lost

    def call(self, fn, *args, **kwargs):
        """Run fn as the root span and return (result, wall seconds)."""
        root = len(self.spans)
        out = self.wrap(fn, ROOT)(*args, **kwargs)
        return out, self.spans[root][3] - self.spans[root][2]


def self_times(spans: list) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children: dict = {}
    for idx, rec in enumerate(spans):
        children.setdefault(rec[1], []).append(idx)
    out = []
    for idx, rec in enumerate(spans):
        covered = 0.0
        reach = -math.inf
        for child in sorted(children.get(idx, ()), key=lambda c: spans[c][2]):
            start, end = spans[child][2], spans[child][3]
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(rec[3] - rec[2] - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    spans = tracer.spans
    selfs = self_times(spans)
    time_s: dict = {}
    calls: dict = {}
    for rec, own in zip(spans, selfs):
        time_s[rec[0]] = time_s.get(rec[0], 0.0) + own
        calls[rec[0]] = calls.get(rec[0], 0) + 1

    def of(layer):
        return [rec for rec in spans if rec[0] == layer]

    sweeps = [rec[4] for rec in of("scheme.advance")]
    bicg = [rec[4] for rec in of("linsolve.bicgstab")]
    iters = sum(c[0] for c in bicg)
    reports = {idx for idx, rec in enumerate(spans) if rec[0] == "diagnostics.report" and rec[4]}
    in_full_report = 0
    for rec in of("kernels.potential"):
        parent = rec[1]
        while parent >= 0 and spans[parent][0] != "diagnostics.report":
            parent = spans[parent][1]
        in_full_report += parent in reports
    metrics = {
        "kernels.potential_calls": calls.get("kernels.potential", 0),
        "kernels.potential_flops_computed": sum(rec[4] for rec in of("kernels.potential")),
        "scheme.assemble_calls": calls.get("scheme.assemble", 0),
        "scheme.clamped": sum(rec[4] for rec in of("scheme.solve_linear")),
        "scheme.picard_sweeps": sum(sweeps),
        "scheme.sweeps_per_step_p50": statistics.median(sweeps) if sweeps else 0,
        "scheme.sweeps_per_step_max": max(sweeps, default=0),
        "weights.eval_calls": calls.get("weights.eval", 0),
        "linsolve.iters": iters,
        "linsolve.iters_per_solve": iters / len(bicg) if bicg else 0.0,
        "linsolve.polish_calls": calls.get("linsolve.polish", 0),
        "diagnostics.full_reports": len(reports),
        "diagnostics.potentials_per_report": in_full_report / len(reports) if reports else 0.0,
    }
    if all(c[1] is not None for c in bicg):
        metrics["linsolve.matvec_bytes_computed"] = sum(c[1] for c in bicg)
    for layer in LAYER_METRICS:
        metrics[f"{layer}_s"] = time_s.get(layer, 0.0)
    metrics["harness.other_s"] = time_s.get(ROOT, 0.0)
    kept = {"harness.other_s": metrics["harness.other_s"]}
    for layer, names in LAYER_METRICS.items():
        if layer in tracer.installed:
            kept.update((name, metrics[name]) for name in names if name in metrics)
    return kept
