"""Command-line entry point.

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


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to the JSON experiment config")
    sub.add_argument("--out", default=None, help="output directory (overrides config)")
    sub.add_argument("--threads", type=int, default=None, help="ladder-entry parallelism")


_MODE_BY_COMMAND = {
    "run": "run",
    "converge-space": "converge_space",
    "converge-time": "converge_time",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crossfv",
        description="Finite-volume solver for nonlocal cross-diffusion population systems",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in (*_MODE_BY_COMMAND, "check-kernel"):
        sub = subparsers.add_parser(command)
        _add_common(sub)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = parse_config(args.config)
        overrides = {}
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.threads is not None:
            overrides["threads"] = args.threads
        if args.command in _MODE_BY_COMMAND:
            overrides["mode"] = _MODE_BY_COMMAND[args.command]
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
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
