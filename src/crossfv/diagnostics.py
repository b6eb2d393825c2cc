"""Discrete entropies, production terms and per-step structural checks.

All reductions run in a fixed lexicographic cell/edge order so repeated
runs produce bit-identical diagnostics. `build_report` reads each state's
carried potential `State.p` and, when set, its entropy `State.h_b`; the
from-scratch references it is tested against are in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .kernels import DiscreteKernel
from .mesh import axis_difference, roll
from .scheme import Coupling, SchemeConfig, State, coupling_potential
from .weights import eval_B_kappa


@dataclass
class ProductionTerms:
    p_b: float
    p_r: float
    cross: float
    fisher: float


@dataclass
class Verdict:
    passed: bool
    slack: float
    gated: bool  # asserted (True) vs merely reported (False)


@dataclass
class StepReport:
    """Per-step diagnostics; entropy fields are NaN when not computed."""

    step: int
    time: float
    masses: np.ndarray
    picard_iters: int
    picard_errors: list
    linear_iters: int
    linear_residual: float
    clamped: int
    min_density: float
    h_boltzmann: float = np.nan
    h_rao: float = np.nan
    fisher: float = np.nan
    p_b: float = np.nan
    p_r: float = np.nan
    cross: float = np.nan
    verdicts: dict | None = None


def entropy_boltzmann(state: State) -> float:
    """sum_i sum_K m(K) u (log u - 1); requires strictly positive cells."""
    u = state.u
    if np.any(u <= 0):
        raise UsageError("Boltzmann entropy requires strictly positive densities")
    return float(state.mesh.cell_measure * np.sum(u * (np.log(u) - 1.0)))


def _rao(state: State, p: np.ndarray) -> float:
    """H_R = (1/2) sum m(K) u p from the state's potential p = W*u."""
    return float(0.5 * state.mesh.cell_measure * np.sum(state.u * p))


def productions(state: State, p: np.ndarray, cfg: SchemeConfig) -> ProductionTerms:
    """Entropy production terms of one step evaluated at (u, p).

    The Boltzmann production carries one factor of the scaled weight:
    P_B = 4 sum tau B_kappa(|Dp|) |D sqrt(u)|^2, which is the quantity the
    entropy and Fisher inequalities are stated in.
    """
    u = state.u
    if np.any(u <= 0):
        raise UsageError("production terms require strictly positive densities")
    mesh = state.mesh
    root = np.sqrt(u)
    p_b = p_r = cross = fisher = 0.0
    for axis in range(1, mesh.dim + 1):  # axis 0 is the species
        tau = mesh.tau(axis - 1)
        u_next = roll(u, -1, axis)
        du = u_next - u
        dp = axis_difference(p, axis)
        droot = axis_difference(root, axis)
        upwind = np.where(dp >= 0, u_next, u)
        bk = eval_B_kappa(cfg.weight, cfg.kappa, np.abs(dp))
        p_b += 4.0 * tau * float(np.sum(bk * droot * droot))
        p_r += tau * float(np.sum(upwind * dp * dp))
        cross += tau * float(np.sum(dp * du))
        fisher += tau * float(np.sum(droot * droot))
    return ProductionTerms(p_b=p_b, p_r=p_r, cross=cross, fisher=fisher)


def tolerance_scale(cfg: SchemeConfig, h_b: float, h_r: float) -> float:
    """First-order propagation of solver truncation into entropy differences."""
    base = cfg.picard_tol / cfg.dt + cfg.linear.rel_tol
    return 100.0 * base * max(1.0, abs(h_b), abs(h_r))


def _verdicts(
    terms: ProductionTerms, prev_h: tuple, curr_h: tuple, cfg: SchemeConfig, psd_ok
) -> dict:
    """The three verdicts from the step's productions and (H_B, H_R) pairs.

    Inequalities are evaluated as LHS <= RHS + tol_scale and the recorded
    slack is (RHS + tol_scale) - LHS, so nonnegative slack means pass.
    The Rao check is only gating for mid-point coupling or a positively
    verified kernel; the other two hold for every built-in weight.
    """
    h_b_prev, h_r_prev = prev_h
    h_b_curr, h_r_curr = curr_h
    tol = tolerance_scale(cfg, h_b_curr, h_r_curr)
    alpha = cfg.weight.alpha
    kappa = cfg.kappa

    slack_hb = (-terms.cross + tol) - ((h_b_curr - h_b_prev) / cfg.dt + terms.p_b)
    slack_hr = (-kappa * terms.cross + tol) - (
        (h_r_curr - h_r_prev) / cfg.dt + (1.0 - alpha) * terms.p_r
    )
    slack_fisher = (
        0.25 * terms.p_b + (alpha / kappa) * terms.p_r - alpha * terms.cross + tol
    ) - kappa * (1.0 - alpha) * terms.fisher

    gate_rao = cfg.coupling is Coupling.MIDPOINT or bool(psd_ok)
    return {
        "boltzmann": Verdict(passed=bool(slack_hb >= 0), slack=slack_hb, gated=True),
        "rao": Verdict(passed=bool(slack_hr >= 0), slack=slack_hr, gated=gate_rao),
        "fisher": Verdict(passed=bool(slack_fisher >= 0), slack=slack_fisher, gated=True),
    }


def build_report(
    prev: State,
    curr: State,
    kernel: DiscreteKernel,
    cfg: SchemeConfig,
    picard_iters: int,
    picard_errors: list,
    linear_residual: float,
    clamped: int,
    psd_ok: bool | None,
    full: bool,
    linear_iters: int = 0,
) -> StepReport:
    """Step report; with `full`, entropies, productions and verdicts too.

    A full report takes H_R from the carried `prev.p` and `curr.p`, H_B of
    `prev` from `prev.h_b` when a previous full report set it, and the
    productions from `curr.p` (implicit) or one `coupling_potential` call
    (mid-point): one convolution under mid-point coupling, none otherwise.
    `linear_iters` is the step's linear iterations summed over sweeps and
    species.
    """
    report = StepReport(
        step=curr.k,
        time=curr.k * cfg.dt,
        masses=curr.masses(),
        picard_iters=picard_iters,
        picard_errors=list(picard_errors),
        linear_iters=linear_iters,
        linear_residual=linear_residual,
        clamped=clamped,
        min_density=float(curr.u.min()),
    )
    if full:
        if prev.p is None or curr.p is None:
            raise UsageError("a full report needs the potential State.p of both states")
        p = curr.p
        if cfg.coupling is Coupling.MIDPOINT:
            p = coupling_potential(kernel, curr.u, prev.u, cfg.coupling)
        terms = productions(curr, p, cfg)
        h_b_prev = entropy_boltzmann(prev) if prev.h_b is None else prev.h_b
        prev_h = (h_b_prev, _rao(prev, prev.p))
        curr_h = (entropy_boltzmann(curr), _rao(curr, curr.p))
        report.h_boltzmann, report.h_rao = curr_h
        report.fisher = terms.fisher
        report.p_b = terms.p_b
        report.p_r = terms.p_r
        report.cross = terms.cross
        report.verdicts = _verdicts(terms, prev_h, curr_h, cfg, psd_ok)
    return report


def report_csv_header(n_species: int) -> str:
    cols = ["step", "time"]
    cols += [f"mass_{i + 1}" for i in range(n_species)]
    cols += ["H_B", "H_R", "fisher", "P_B", "P_R", "X", "picard_iters"]
    cols += ["linear_iters", "linear_residual", "clamped", "min_density"]
    cols += ["slack_HB", "slack_HR", "slack_fisher", "verdicts"]
    return ",".join(cols)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def report_csv_row(report: StepReport) -> str:
    cells = [str(report.step), _fmt(report.time)]
    cells += [_fmt(m) for m in report.masses]
    cells += [
        _fmt(report.h_boltzmann),
        _fmt(report.h_rao),
        _fmt(report.fisher),
        _fmt(report.p_b),
        _fmt(report.p_r),
        _fmt(report.cross),
        str(report.picard_iters),
        str(report.linear_iters),
        _fmt(report.linear_residual),
        str(report.clamped),
        _fmt(report.min_density),
    ]
    if report.verdicts is None:
        cells += ["nan", "nan", "nan", ""]
    else:
        v = report.verdicts
        cells += [
            _fmt(v["boltzmann"].slack),
            _fmt(v["rao"].slack),
            _fmt(v["fisher"].slack),
            ";".join(
                f"{name}:{'pass' if verdict.passed else 'FAIL'}"
                for name, verdict in v.items()
            ),
        ]
    return ",".join(cells)
