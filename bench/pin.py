"""Pin the final-state fingerprint of every workload variant.

    python3 bench/pin.py

Runs each workload once per variant on two workers, untraced and without
the fingerprint check, and writes the fingerprints to pins.json. The
relative tolerance per workload is kept from the existing pins file;
README.md records how it was chosen.
Every other correctness check must pass, or nothing is written.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import sys

import run
import workloads


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    pins = run.load_pins()
    jobs = [(name, v) for name in workloads.WORKLOADS for v in range(workloads.N_VARIANTS)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        futures = {
            job: pool.submit(run.run_child, job[0], job[1], False, None, f"pin{job[1]}")
            for job in jobs
        }
        results = {job: future.result() for job, future in futures.items()}
    failed = {f"{n}/{v}": r["failed"] for (n, v), r in results.items() if r["failed"]}
    if failed:
        print(json.dumps(failed, indent=1), file=sys.stderr)
        return 1
    pins["fingerprints"] = {
        name: {str(v): results[(name, v)]["fingerprint"] for v in range(workloads.N_VARIANTS)}
        for name in workloads.WORKLOADS
    }
    with open(os.path.join(run.BENCH_DIR, "pins.json"), "w") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
