"""Command-line entry point: `run` runs a config in its own mode, `check-kernel` checks its kernel.

Exit codes: 0 on success, 2 on configuration errors, 3 on step or solver
failures (partial outputs are left in the output directory).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .errors import ConfigurationError, CrossFVError, StepFailure
from .harness import _build_problem, _kernel_reports, parse_config, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crossfv",
        description="Finite-volume solver for nonlocal cross-diffusion population systems",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    run_parser = subparsers.add_parser("run", help="run the experiment in the config's mode")
    kernel_parser = subparsers.add_parser("check-kernel", help="report the kernel's PSD and c*")
    for sub in (run_parser, kernel_parser):
        sub.add_argument("--config", required=True, help="path to the JSON experiment config")
    run_parser.add_argument("--out", default=None, help="output directory (overrides config)")
    run_parser.add_argument("--threads", type=int, default=None, help="ladder-entry parallelism")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            overrides = {"out_dir": args.out, "threads": args.threads}
            cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "check-kernel":
            return _check_kernel(cfg)
        result = run_experiment(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except StepFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except CrossFVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    print(f"{result.name}: mode={result.mode} ok")
    for key in ("orders_l1", "orders_linf", "max_mass_drift", "gated_failures"):
        if key in result.summary:
            print(f"  {key}: {result.summary[key]}")
    for path in result.files:
        print(f"  wrote {path}")
    return 0


def _check_kernel(cfg) -> int:
    mesh, kernel, _, state = _build_problem(cfg)
    psd, _, cstar = _kernel_reports(cfg, mesh, kernel, state.u)
    print(f"{cfg.name}: kernel check on {mesh.shape} cells")
    print(f"  positive semidefinite: {psd['is_psd']} (min eigenvalue {psd['min_eigenvalue']:.6e})")
    print(
        f"  c* = {cstar['c_star']:.6e}, small-mass threshold = {cstar['threshold']:.6e}, "
        f"within threshold: {cstar['within_threshold']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
