"""Weight functions modulating the diffusive part of the numerical flux.

All built-in weights satisfy 0 < B(s) <= 1, B(0) = 1 and the coercivity
bound B(s) >= 1 - alpha*s on [0, 1/alpha] with the alpha exposed per kind.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigurationError, UsageError


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


def eval_B_kappa(kind: WeightKind, kappa: float, s):
    """Scaled weight kappa * B(s / kappa) at s >= 0, in closed form with x = s / kappa.

    Bernoulli s / expm1(x) (kappa at x = 0; formed in place, as a species
    stack makes every temporary n times larger), sigmoid 2 kappa / (1 + e^x),
    geometric mean kappa e^(-x/2), upwind kappa. Where x overflows (or s is
    inf), the value is its limit kappa * B(inf): 0, or kappa for upwind.
    """
    if not 0 < kappa < np.inf:
        raise ConfigurationError(f"kappa must be positive, got {kappa}")
    kind = WeightKind(kind)
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isnan(np.sum(s)):
            raise UsageError("weight argument must not be NaN")
        if kind is WeightKind.UPWIND:
            out = np.full_like(s, kappa)
        elif kind is WeightKind.BERNOULLI:
            x = np.minimum(np.divide(s, kappa), np.finfo(float).max, out=np.empty_like(s))
            out = np.expm1(x, out=np.empty_like(x))
            np.divide(x, out, out=out)
            out *= kappa
            out[x == 0] = kappa
        elif kind is WeightKind.SIGMOID:
            out = 2.0 * kappa / (1.0 + np.exp(s / kappa))
        else:
            out = kappa * np.exp(-0.5 * (s / kappa))
    return out if out.ndim else float(out)
