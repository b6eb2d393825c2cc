"""One benchmark sample: a fresh process that runs one experiment and checks it.

Reads a job (JSON) on stdin: the repository root, the generated config,
the workload's extra checks, the pinned fingerprint with its tolerance,
whether to trace and whether to run the set-up only. Prints one JSON result
line on stdout. The program sees only the generated config (with zero steps
for a set-up-only sample).

Every sample is the first run of the package in its process, so its set-up
pays every lazy cache a user run pays; set-up is timed only here.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time



def _output_bytes(out_dir: str) -> int:
    total = 0
    for base, _, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def fingerprint(result) -> list:
    """Final-state values that a different problem or a looser solve moves.

    Convergence ladders: the L1 error of every (mesh, species) row. Runs:
    per species the L2 norm, the maximum and the centroid along each axis
    measured from the domain's lower corner.
    """
    import numpy as np

    if result.error_table is not None:
        return [float(v) for v in result.error_table.l1.ravel()]
    state = result.run_summary.final_state
    mesh = state.mesh
    out = []
    for u in state.u:
        out.append(math.sqrt(mesh.cell_measure * float(np.sum(u * u))))
        out.append(float(u.max()))
        for axis in range(mesh.dim):
            profile = u.sum(axis=tuple(a for a in range(mesh.dim) if a != axis))
            offset = mesh.axis_coordinates(axis) - mesh.spec.extents[axis][0]
            out.append(float(profile @ offset) / float(profile.sum()))
    return out


def check(result, job: dict, got: list) -> list:
    """Names of the failed correctness checks (empty when all pass)."""
    summary = result.summary
    failed = []
    if not summary["max_mass_drift"] <= 1e-10:
        failed.append(f"max_mass_drift {summary['max_mass_drift']:.3e} > 1e-10")
    if not summary["min_density"] > 0:
        failed.append(f"min_density {summary['min_density']:.3e} <= 0")
    if summary.get("gated_failures", 0) != 0:
        failed.append(f"{summary['gated_failures']} gated verdict failures")
    if "h_rao_non_increasing" in job["checks"] and not summary["h_rao_non_increasing"]:
        failed.append("H_R increased")
    if "l1_order" in job["checks"]:
        lo, hi = job["l1_order_band"]
        if not all(lo <= v <= hi for v in summary["orders_l1"]):
            failed.append(f"L1 orders {summary['orders_l1']} outside [{lo}, {hi}]")
    pin = job["pin"]
    if pin is not None:
        want, rtol = pin["values"], pin["rtol"]
        if len(got) != len(want) or any(
            not abs(g - w) <= rtol * abs(w) for g, w in zip(got, want)
        ):
            failed.append(f"fingerprint {got} differs from pinned {want} (rtol {rtol:g})")
    return failed


def machine_facts() -> dict:
    import numpy
    import scipy

    def blas(config):
        return config["Build Dependencies"]["blas"].get("version")

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config(mode="dicts")),
        "openblas_scipy": blas(scipy.show_config(mode="dicts")),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def zero_steps(raw: dict, dt: float) -> dict:
    """The config with the same step size and no steps: set-up only."""
    scheme = {k: v for k, v in raw["scheme"].items() if k != "dt_divisor"}
    scheme.update(dt=dt, t_end=0.0)
    return dict(raw, scheme=scheme)


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import crossfv
    import crossfv.harness as harness

    if not os.path.abspath(crossfv.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"crossfv imported from {crossfv.__file__}, not {src}", file=sys.stderr)
        return 2
    cfg = harness.parse_config(job["config"])
    if job["setup_only"]:
        cfg = harness.parse_config(zero_steps(job["config"], cfg.scheme.dt))

    # Set-up is the time from entering run_experiment to each time loop,
    # summed over ladder entries: wrap the time loop's entry and exit.
    marks = []
    run_loop = harness.run

    def setup_since(begin: float) -> float:
        bounds = [begin] + marks
        return sum(bounds[i + 1] - bounds[i] for i in range(0, len(bounds) - 1, 2))

    def timed_run(*args, **kwargs):
        marks.append(time.perf_counter())
        try:
            return run_loop(*args, **kwargs)
        finally:
            marks.append(time.perf_counter())

    harness.run = timed_run

    out = {"failed": []}
    tracer = None
    if job["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        if tracer is None:
            result = harness.run_experiment(cfg)
            wall = time.perf_counter() - start
        else:
            result, wall = tracer.call(harness.run_experiment, cfg)
    except crossfv.CrossFVError as exc:
        out["failed"].append(f"{type(exc).__name__}: {exc}")
        print(json.dumps(out))
        return 0
    if tracer is None:
        out["setup_s"] = setup_since(start)
    if job["setup_only"]:
        print(json.dumps(out))
        return 0
    out["wall_s"] = wall
    out["fingerprint"] = fingerprint(result)
    out["failed"] = check(result, job, out["fingerprint"])
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        out["layers"]["harness.output_bytes"] = _output_bytes(cfg.out_dir)
        out["missing_hooks"] = tracer.missing
        with open(job["spans_path"], "w") as handle:
            json.dump(tracer.spans, handle)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["machine"] = machine_facts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
