"""crossfv benchmark: time-to-solution of four recipe workloads.

    python3 bench/run.py --workload picard_1d --seed 0 --seconds 30 --trace 0

Each sample is a fresh process (``child.py``) that calls ``run_experiment``
on a config generated from ``--seed`` and checks its output. With
``--trace 0`` the run repeats untraced samples, then set-up-only samples
(zero steps) for a fifth of ``--seconds``, and reports the medians of wall
time and peak memory over the untraced samples and of set-up time over
all of them. With
``--trace 1`` it runs two traced samples, which must agree on every count,
and untraced samples for the tracing overhead, and reports per-layer
metrics. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 120
# A run ends within this many seconds even when samples hang.
RUN_BUDGET_S = 170
MIN_UNTRACED = 3
# Share of an untraced run spent on set-up-only samples, and their minimum.
SETUP_SHARE = 0.2
MIN_SETUP = 5
# Traced wall that no layer covers must stay under this share.
MAX_UNCOVERED = 0.05
# Threads are pinned so that samples do not contend for the two cores.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def load_pins() -> dict:
    with open(os.path.join(BENCH_DIR, "pins.json")) as handle:
        return json.load(handle)


def run_child(
    name: str, seed: int, trace: bool, pin, tag: str, deadline=math.inf, setup_only=False
) -> dict:
    """One fresh-process sample; returns its result dict (with 'failed')."""
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        return {"failed": ["no time left in the run budget"]}
    out_dir = os.path.join(OUT_DIR, f"{name}-{tag}")
    shutil.rmtree(out_dir, ignore_errors=True)
    workload = workloads.WORKLOADS[name]
    job = {
        "root": ROOT,
        "config": workloads.make_config(ROOT, name, seed, out_dir),
        "checks": list(workload.checks),
        "l1_order_band": workloads.L1_ORDER_BAND,
        "pin": pin,
        "trace": trace,
        "setup_only": setup_only,
        "spans_path": os.path.join(OUT_DIR, f"spans-{name}-{tag}.json"),
    }
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "child.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"failed": [f"sample exceeded {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"failed": [f"sample exited {proc.returncode}: " + " | ".join(tail)]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pin_for(pins: dict, name: str, seed: int):
    values = pins["fingerprints"][name][str(workloads.variant_of(seed))]
    return {"values": values, "rtol": pins["rtol"][name]}


def untraced_samples(name, seed, pin, seconds, minimum, tag, deadline) -> list:
    """Untraced samples until the next one would end after `seconds`."""
    samples = []
    start = time.monotonic()
    last = 0.0
    while time.monotonic() < deadline and (
        len(samples) < minimum or time.monotonic() - start + last <= seconds
    ):
        t0 = time.monotonic()
        samples.append(run_child(name, seed, False, pin, f"{tag}{len(samples)}", deadline))
        last = time.monotonic() - t0
    return samples


def setup_samples(name, seed, seconds, deadline) -> list:
    """Set-up-only samples (zero steps) until `seconds` have passed."""
    samples = []
    stop = min(time.monotonic() + seconds, deadline)
    while len(samples) < MIN_SETUP or time.monotonic() < stop:
        samples.append(
            run_child(name, seed, False, None, f"s{len(samples)}", deadline, setup_only=True)
        )
        if time.monotonic() >= deadline:
            break
    return samples


def report_samples(samples: list) -> None:
    for i, s in enumerate(samples):
        if s["failed"]:
            print(f"sample {i}: FAILED {'; '.join(s['failed'])}")
            continue
        parts = [f"setup {s['setup_s']:.4f} s"] if "setup_s" in s else []
        if "wall_s" in s:
            parts += [f"wall {s['wall_s']:.4f} s", f"peak_rss_mb {s['peak_rss_mb']:.1f}"]
        print(f"sample {i}: {', '.join(parts)}")


def end_to_end(samples: list) -> dict:
    """Median of each end-to-end metric over the samples that passed."""
    good = [s for s in samples if not s["failed"]]
    runs = [s for s in good if "wall_s" in s]
    series = {
        ("wall_s", "s"): [s["wall_s"] for s in runs],
        ("setup_s", "s"): [s["setup_s"] for s in good],
        ("peak_rss_mb", "MB"): [s["peak_rss_mb"] for s in runs],
    }
    metrics = {}
    for (name, unit), values in series.items():
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(
                f"{name} = {metrics[name]['value']:.4f} {unit} (median of {len(values)}, "
                f"min {min(values):.4f}, max {max(values):.4f})"
            )
    return metrics


def per_layer(traced: list, untraced: list) -> tuple:
    """(metrics, problems) of a traced run: two traced and some untraced samples."""
    problems = []
    first, second = traced
    counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    counts_again = {k: v for k, v in second["layers"].items() if not k.endswith("_s")}
    if counts != counts_again:
        diff = {k: (counts.get(k), counts_again.get(k)) for k in counts | counts_again
                if counts.get(k) != counts_again.get(k)}
        problems.append(f"counts differ between two traced samples: {diff}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    traced_wall = statistics.mean(s["wall_s"] for s in traced)
    untraced_wall = statistics.median(s["wall_s"] for s in untraced)
    metrics = {}
    for key, value in first["layers"].items():
        if key.endswith("_s"):
            value = statistics.mean(s["layers"][key] for s in traced)
        metrics[key] = value
    metrics["trace.wall_s"] = traced_wall
    metrics["trace_overhead"] = traced_wall / untraced_wall
    uncovered = metrics["harness.other_s"] / traced_wall
    print(f"traced wall {traced_wall:.4f} s; untraced median {untraced_wall:.4f} s")
    print(f"self-time shares of traced wall (uncovered {uncovered:.2%}):")
    for key in sorted((k for k in metrics if k.endswith("_s") and k != "trace.wall_s"),
                      key=lambda k: -metrics[k]):
        print(f"  {key:28s} {metrics[key]:10.4f} s  {metrics[key] / traced_wall:7.2%}")
    if uncovered >= MAX_UNCOVERED:
        problems.append(f"layers cover only {1 - uncovered:.2%} of the traced wall")
    missing = sorted(set(units) - set(metrics))
    if first["missing_hooks"] or missing:
        print(f"missing hooks: {first['missing_hooks']}; missing layer metrics: {missing}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units}, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    recipe = workloads.WORKLOADS[args.workload].recipe
    for needed in ("src/crossfv/__init__.py", f"configs/{recipe}.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"benchmark needs {needed} in the checkout at {ROOT}", file=sys.stderr)
            return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    pin = pin_for(load_pins(), args.workload, args.seed)
    print(
        f"workload {args.workload} (recipe {recipe}) seed {args.seed} "
        f"variant {workloads.variant_of(args.seed)} trace {args.trace}"
    )

    if args.trace:
        traced = [
            run_child(args.workload, args.seed, True, pin, f"t{i}", deadline) for i in range(2)
        ]
        untraced = untraced_samples(
            args.workload, args.seed, pin, args.seconds / 2, 1, "u", deadline
        )
        samples = traced + untraced
    else:
        samples = untraced_samples(
            args.workload, args.seed, pin, args.seconds * (1 - SETUP_SHARE), MIN_UNTRACED, "u",
            deadline,
        )
        samples += setup_samples(args.workload, args.seed, args.seconds * SETUP_SHARE, deadline)
    report_samples(samples)
    machine = next((s["machine"] for s in samples if "machine" in s), None)
    print(f"machine: nproc={os.cpu_count()} {json.dumps(machine)}")
    failed = sum(1 for s in samples if s["failed"])
    problems = []
    if args.trace:
        if failed:
            metrics = {}
        else:
            metrics, problems = per_layer(traced, untraced)
    else:
        metrics = end_to_end(samples)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"fail_ratio {failed}/{len(samples)}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
