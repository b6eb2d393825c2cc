"""Small configs drawn at random and run end to end through the command line.

Every accepted input, run or refined by either ladder, must run or fail
cleanly: exit 0 (success), 2 (bad config) or 3 (step failure), never a
traceback, with a strict-JSON `summary.json` after every success and after
every step failure, which names the failed step. A config spoiled by a value the checks must
reject exits 2, and so does one that gives a key its mode does not read
(`ladder` or `threads` 2 in a run). A successful run keeps the structure the scheme
guarantees: positive densities, conserved masses and the Boltzmann entropy
inequality, which holds unconditionally. Its summary counts the Picard
sweeps of its step rows, none of them over the budget.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from crossfv import parse_config
from crossfv.cli import main as cli_main


def _zero_target_mass(raw):
    dim = len(raw["mesh"]["extents"])
    raw["initial"][0] = {"type": "trig", "modes": [0] * dim, "offset": 1.0, "normalize_to": 0.0}


def _tiny_gaussian(raw):
    raw["kernel"].pop("radius", None)
    raw["kernel"].update(shape="gaussian", eps=1e-200)


def _wide_periodic_gaussian(raw):
    raw["kernel"].pop("radius", None)
    raw["kernel"].update(shape="gaussian", eps=1e200, extension="periodic_wrap")


def _wide_whole_space_gaussian(raw):
    raw["kernel"].pop("radius", None)
    raw["kernel"].update(shape="gaussian", eps=1e200, extension="whole_space")


def _overflowing_extent(raw):
    raw["mesh"]["extents"] = [[-1e308, 1e308]] * len(raw["mesh"]["extents"])


def _string_extents(raw):
    raw["mesh"]["extents"] = [[str(a), str(b)] for a, b in raw["mesh"]["extents"]]


def _string_strengths(raw):
    raw["kernel"]["strengths"] = [[str(v) for v in row] for row in raw["kernel"]["strengths"]]


def _string_offset(raw):
    dim = len(raw["mesh"]["extents"])
    raw["initial"][0] = {"type": "trig", "modes": [1] * dim, "offset": "1.0"}


# Each spoils a valid config in one place: the first with a Picard budget of
# one sweep, which a step may exhaust (exit 3), the others with a key or value
# that the config checks must reject (exit 2).
BAD_VALUES = [
    lambda raw: raw["scheme"].update(picard_max_iter=1),
    lambda raw: raw.update(unknown_key=1),
    lambda raw: raw["scheme"].update(dt_divisr=4),
    lambda raw: raw["scheme"].update(dt=-raw["scheme"]["dt"]),
    lambda raw: raw["scheme"].update(dt=float("inf")),
    lambda raw: raw["scheme"].update(dt_divisor=0) or raw["scheme"].pop("dt"),
    lambda raw: raw["scheme"].update(kappa=float("nan")),
    lambda raw: raw["scheme"].update(picard_tol=float("inf")),
    lambda raw: raw["scheme"].update(linear_solver={"rel_tol": float("inf")}),
    _tiny_gaussian,
    lambda raw: raw["mesh"].update(cells=[c + 0.5 for c in raw["mesh"]["cells"]]),
    lambda raw: raw["mesh"].update(cells=[1] * len(raw["mesh"]["cells"])),
    lambda raw: raw["kernel"].update(strengths=[[1.0, 2.0]]),
    lambda raw: raw["initial"].pop(),
    lambda raw: raw["initial"][0].update(type="constant", value=float("nan")),
    lambda raw: raw.update(snapshot_times=[raw["scheme"]["t_end"] * 2]),
    _zero_target_mass,
    _wide_periodic_gaussian,
    _wide_whole_space_gaussian,
    _overflowing_extent,
    lambda raw: raw["scheme"].update(kappa=str(raw["scheme"]["kappa"])),
    lambda raw: raw["scheme"].update(kappa=True),
    lambda raw: raw["scheme"].update(picard_tol=True),
    _string_extents,
    _string_strengths,
    _string_offset,
    lambda raw: raw["mesh"].update(cells=str(raw["mesh"]["cells"][0])),
    lambda raw: raw.update(name=[raw["name"]]),
    lambda raw: raw.update(out_dir=5),
    lambda raw: raw["kernel"].update(quadrature_order=4),
]


@st.composite
def initial_datum(draw, extents):
    kind = draw(st.sampled_from(["constant", "box", "trig"]))
    if kind == "constant":
        return {"type": kind, "value": draw(st.floats(0.05, 2.0))}
    if kind == "box":
        lo, hi = [], []
        for a, b in extents:
            start = draw(st.floats(0.0, 0.8))
            width = draw(st.floats(0.1, 1.0 - start))
            lo.append(a + start * (b - a))
            hi.append(a + (start + width) * (b - a))
        datum = {"type": kind, "lo": lo, "hi": hi, "amplitude": draw(st.floats(0.1, 2.0))}
    else:
        datum = {
            "type": kind,
            "fn": draw(st.sampled_from(["sin", "cos"])),
            "modes": draw(
                st.lists(st.integers(-2, 2), min_size=len(extents), max_size=len(extents))
            ),
            "scale": draw(st.floats(-1.0, 1.0)),
            "offset": draw(st.floats(0.0, 2.0)),
        }
    if draw(st.booleans()):
        datum["normalize_to"] = draw(st.floats(0.01, 2.0))
    return datum


@st.composite
def configs(draw):
    mode = draw(st.sampled_from(["run", "converge_space", "converge_time"]))
    dim = draw(st.integers(1, 2))
    length = draw(st.sampled_from([1.0, 2.0, 8.0]))
    extents = [[-length / 2, length / 2]] * dim
    if mode == "converge_space":
        cells = [16] * dim
    else:
        cells = draw(st.lists(st.integers(2, 16), min_size=dim, max_size=dim))
    n = draw(st.integers(1, 3))
    upper = draw(st.lists(st.floats(-10.0, 10.0), min_size=n * n, max_size=n * n))
    strengths = [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    kernel = {
        "shape": draw(st.sampled_from(["gaussian", "top_hat"])),
        "strengths": strengths,
        "extension": draw(st.sampled_from(["periodic_wrap", "whole_space"])),
    }
    # Log-uniform from 1e-3 to 1 times the length: from far below one cell to the whole axis.
    kernel["eps" if kernel["shape"] == "gaussian" else "radius"] = 10.0 ** draw(
        st.floats(-3.0, 0.0)
    ) * length
    dt = draw(st.sampled_from([1e-3, 1e-2, 5e-2]))
    # t_end = 0 runs the set-up only; a time ladder's reference takes 8 steps.
    steps = draw(st.sampled_from([0, 8]) if mode == "converge_time" else st.integers(0, 4))
    raw = {
        "name": "fuzz",
        "mesh": {"extents": extents, "cells": cells},
        "kernel": kernel,
        "scheme": {
            "kappa": draw(st.floats(0.01, 1.0)),
            "dt": dt,
            "t_end": dt * steps,
            "weight": draw(st.sampled_from(["upwind", "bernoulli", "sigmoid", "geometric_mean"])),
            "coupling": draw(st.sampled_from(["implicit", "midpoint"])),
        },
        "initial": [draw(initial_datum(extents)) for _ in range(n)],
        "mode": mode,
    }
    # A ladder in cells or in divisors of t_end; a run reads none and is given one now and then.
    if mode != "run" or draw(st.sampled_from([False] * 7 + [True])):
        raw["ladder"] = [1, 2, 4] if mode == "converge_time" else [2, 4, 8]
    # Only the ladders read threads; a run takes only its implicit 1.
    threads = draw(st.sampled_from([None, None, 1, 2]))
    if threads is not None:
        raw["threads"] = threads
    # Unset, it is 1 in run mode and 0 in the ladders, which take no other value.
    every = draw(st.sampled_from([None, 0, 1, 2] if mode == "run" else [None, 0]))
    if every is not None:
        raw["diagnostics_every"] = every
    unread = mode == "run" and ("ladder" in raw or threads == 2)
    spoiler = None
    if draw(st.sampled_from([False, False, False, True])):
        spoiler = draw(st.sampled_from(BAD_VALUES))
        spoiler(raw)
    return raw, spoiler, unread


def _not_json(token):
    raise ValueError(f"summary.json holds {token}, which is not JSON")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=configs())
def test_drawn_configs_run_or_fail_cleanly(case):
    raw, spoiler, unread = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(["run", "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if unread or spoiler not in (None, BAD_VALUES[0]):
            assert code == 2, err.getvalue()
        if code in (0, 3):
            summary = json.loads((out / "summary.json").read_text(), parse_constant=_not_json)
        if code == 3:
            assert summary["failed_step"] >= 1, err.getvalue()
        if code == 0:
            assert summary["min_density"] > 0
            assert summary["max_mass_drift"] <= 1e-10
        if code == 0 and raw["mode"] == "run":
            report = (out / "report.csv").read_text()
            assert "boltzmann:FAIL" not in report
            # The summary's sweep counts are those of the step rows, each within budget.
            rows = list(csv.DictReader(io.StringIO(report)))
            counts = summary["picard_sweeps"]
            assert counts["total"] == sum(int(row["picard_iters"]) for row in rows)
            assert counts["max"] <= parse_config(raw).scheme.picard_max_iter
