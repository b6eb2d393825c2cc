#!/usr/bin/env python3
"""Run the repulsive and attractive entropy-evolution studies.

Writes each run's per-step entropy trajectory (the H_B and H_R columns of
its report.csv) and prints whether the per-step structure checks held: for
the repulsive Gaussian pair all three gating inequalities must pass, while
the attractive top-hat run keeps its interaction energy non-increasing step
by step.
"""

import argparse
import dataclasses
import pathlib
import sys

from crossfv import parse_config, run_experiment

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
RECIPES = ["entropy_repulsive_1d", "entropy_attractive_1d"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/entropy")
    args = parser.parse_args(argv)

    for recipe in RECIPES:
        cfg = parse_config(CONFIG_DIR / f"{recipe}.json")
        cfg = dataclasses.replace(cfg, out_dir=str(pathlib.Path(args.out) / recipe))
        result = run_experiment(cfg)
        s = result.summary
        print(f"== {recipe} ==")
        print(f"  steps: {s['n_steps']}, mass drift: {s['max_mass_drift']:.3e}")
        print(f"  PSD kernel: {s['psd']['is_psd']}")
        print(f"  gated inequality failures: {s['gated_failures']}")
        print(f"  interaction energy non-increasing: {s['h_rao_non_increasing']}")
        first, last = result.run_summary.reports[0], result.run_summary.reports[-1]
        print(f"  H_B: {first.h_boltzmann:.6f} -> {last.h_boltzmann:.6f}")
        print(f"  H_R: {first.h_rao:.6f} -> {last.h_rao:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
