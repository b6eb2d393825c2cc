"""Weight functions modulating the diffusive part of the numerical flux.

All built-in weights satisfy 0 < B(s) <= 1, B(0) = 1 and the coercivity
bound B(s) >= 1 - alpha*s on [0, 1/alpha] with the alpha exposed per kind.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigurationError, UsageError

# Switchover points for the numerically stable Bernoulli evaluation.
_TAYLOR_CUT = 1e-5
_EXP_CUT = 30.0

_MAX_FLOAT = float(np.finfo(float).max)


class WeightKind(str, enum.Enum):
    UPWIND = "upwind"
    BERNOULLI = "bernoulli"
    SIGMOID = "sigmoid"
    GEOMETRIC_MEAN = "geometric_mean"

    @property
    def alpha(self) -> float:
        """Coercivity constant: B(s) >= 1 - alpha*s for 0 <= s <= 1/alpha."""
        return _ALPHA[self]


# Sigmoid has B'(0) = -1/2 and is convex on [0, inf), so alpha = 1/2 is the
# tightest constant; upwind is constant so alpha = 0.
_ALPHA = {
    WeightKind.UPWIND: 0.0,
    WeightKind.BERNOULLI: 0.5,
    WeightKind.SIGMOID: 0.5,
    WeightKind.GEOMETRIC_MEAN: 0.5,
}


def bernoulli_signed(s):
    """Bernoulli function s/(e^s - 1) on the whole real line.

    The signed extension exists to test the reflection identity
    B(-s) = B(s) + s; the flux itself only evaluates at s >= 0.
    Stable across the full range: Taylor series near 0, exponential
    rewrite for large |s| (no overflow, correct underflow).
    """
    s = np.asarray(s, dtype=float)
    small = np.abs(s) < _TAYLOR_CUT
    big = s > _EXP_CUT
    mid = ~(small | big)
    out = np.empty_like(s)
    ss = s[small]
    out[small] = 1.0 - ss / 2.0 + ss * ss / 12.0
    sm = s[mid]
    out[mid] = sm / np.expm1(sm)
    sb = s[big]
    # s*e^-s/(1 - e^-s); e^-s underflows gracefully for huge s.
    out[big] = sb * np.exp(-sb) / (-np.expm1(-sb))
    return out if out.ndim else float(out)


def _sigmoid(s):
    # 2/(e^s + 1) written overflow-free for s >= 0.
    es = np.exp(-np.asarray(s, dtype=float))
    return 2.0 * es / (1.0 + es)


def eval_B(kind: WeightKind, s):
    """Evaluate the weight at s >= 0. Returns values in (0, 1]."""
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise UsageError("weight argument must be finite and nonnegative")
    kind = WeightKind(kind)
    if kind is WeightKind.UPWIND:
        out = np.ones_like(arr)
    elif kind is WeightKind.BERNOULLI:
        out = np.asarray(bernoulli_signed(arr))
    elif kind is WeightKind.SIGMOID:
        out = _sigmoid(arr)
    else:
        out = np.exp(-arr / 2.0)
    return out if arr.ndim else float(out)


def eval_B_kappa(kind: WeightKind, kappa: float, s):
    """Scaled weight kappa * B(s / kappa), continuous in both arguments.

    Where s / kappa overflows, the value is its limit kappa * B(inf): 0, or
    kappa for upwind, which the largest finite argument already gives.
    """
    if not np.isfinite(kappa) or kappa <= 0:
        raise ConfigurationError(f"kappa must be positive, got {kappa}")
    with np.errstate(over="ignore"):
        scaled = np.minimum(np.asarray(s, dtype=float) / kappa, _MAX_FLOAT)
    return kappa * eval_B(kind, scaled)
