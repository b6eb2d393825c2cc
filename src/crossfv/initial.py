"""Initial-datum descriptors and their exact cell-average projection.

Every datum has closed-form cell averages: constants are their own, box
data average by per-axis overlap fractions and trigonometric data by their
centre value damped by one sinc factor per axis. A datum may be rescaled to
a positive target mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _integer, _real
from .mesh import Mesh


@dataclass(frozen=True)
class ConstantIC:
    value: float

    def __post_init__(self):
        _store_finite(self, "value")


@dataclass(frozen=True)
class BoxIC:
    """amplitude * indicator of the box [lo, hi], projected by exact overlap."""

    lo: tuple
    hi: tuple
    amplitude: float = 1.0
    normalize_to: float | None = None

    def __post_init__(self):
        _store_finite(self, "lo", "hi", "amplitude", "normalize_to")


@dataclass(frozen=True)
class TrigIC:
    """scale * fn(2 pi sum_l k_l (x_l - a_l) / L_l) + offset.

    Integer modes k_l make the profile periodic on the domain; the 2D
    recipes use mode vectors like (1, -1) for waves along the diagonals.
    """

    modes: tuple
    fn: str = "sin"  # 'sin' | 'cos'
    scale: float = 1.0
    offset: float = 0.0
    normalize_to: float | None = None

    def __post_init__(self):
        if self.fn not in ("sin", "cos"):
            raise ConfigurationError(f"trig fn must be sin or cos, got {self.fn}")
        object.__setattr__(self, "modes", tuple(_integer(k, "modes") for k in self.modes))
        _store_finite(self, "scale", "offset", "normalize_to")


def _store_finite(datum, *names: str) -> None:
    """Store the named fields of a frozen datum as finite floats (box bounds: tuples of them).

    NaN or inf would pass the positivity floor and fail inside the first step; a
    target mass (`normalize_to`, None: keep the mass) of zero or less would floor
    every cell to the smallest normal float.
    """
    for name in names:
        value = getattr(datum, name)
        if name == "normalize_to" and value is None:
            continue
        bounds = name in ("lo", "hi")
        stored = tuple(_real(v, name) for v in value) if bounds else _real(value, name)
        if not np.all(np.isfinite(stored)):
            raise ConfigurationError(f"initial datum {name} must be finite, got {value}")
        if name == "normalize_to" and stored <= 0:
            raise ConfigurationError(f"initial datum normalize_to must be positive, got {value}")
        object.__setattr__(datum, name, stored)


DATUM_TYPES = {"constant": ConstantIC, "box": BoxIC, "trig": TrigIC}


def parse_descriptor(raw: dict):
    """The datum of a JSON object: its "type" picks the class, its other keys are the fields."""
    fields = dict(raw)
    kind = fields.pop("type", None)
    if kind not in DATUM_TYPES:
        raise ConfigurationError(f"unknown initial-datum type {kind!r}")
    return DATUM_TYPES[kind](**fields)


def project_initial(descriptor, mesh: Mesh) -> np.ndarray:
    """Cell averages u_K = m(K)^-1 int_K u0.

    Box data is integrated by exact per-axis overlap fractions;
    trigonometric data by the closed form: the profile at the cell centre,
    its oscillating part damped by sinc(k_l / M_l) on each axis.
    """
    if isinstance(descriptor, ConstantIC):
        field = np.full(mesh.shape, descriptor.value)
    elif isinstance(descriptor, BoxIC):
        field = _project_box(descriptor, mesh)
    elif isinstance(descriptor, TrigIC):
        field = _project_trig(descriptor, mesh)
    else:
        raise ConfigurationError(f"unsupported initial-datum descriptor {descriptor!r}")
    if not np.all(np.isfinite(field)) or not np.any(field > 0):
        # Floored to the smallest normal float, a datum with no positive cell
        # leaves a linear system whose residual target underflows.
        raise ConfigurationError("initial datum needs finite cell averages and a positive cell")
    target = getattr(descriptor, "normalize_to", None)
    if target is not None:
        mass = mesh.cell_measure * float(field.sum())
        if mass <= 0:
            raise ConfigurationError("cannot mass-normalize a nonpositive datum")
        field = field * (target / mass)
    return field


def _project_box(descriptor: BoxIC, mesh: Mesh) -> np.ndarray:
    if len(descriptor.lo) != mesh.dim or len(descriptor.hi) != mesh.dim:
        raise ConfigurationError("box bounds must match the mesh dimension")
    fractions = []
    for axis in range(mesh.dim):
        a, b = mesh.spec.extents[axis]
        lo, hi = descriptor.lo[axis], descriptor.hi[axis]
        if not (a <= lo < hi <= b):
            raise ConfigurationError(
                f"box [{lo}, {hi}] lies outside the domain [{a}, {b}) on axis {axis}"
            )
        # Index-space overlap: exact when box faces align with cell faces.
        m = mesh.shape[axis]
        lo_idx = (lo - a) * m / (b - a)
        hi_idx = (hi - a) * m / (b - a)
        k = np.arange(m)
        overlap = np.minimum(k + 1.0, hi_idx) - np.maximum(k.astype(float), lo_idx)
        fractions.append(np.clip(overlap, 0.0, 1.0))
    field = fractions[0]
    for axis in range(1, mesh.dim):
        field = np.multiply.outer(field, fractions[axis])
    return descriptor.amplitude * field


def _project_trig(descriptor: TrigIC, mesh: Mesh) -> np.ndarray:
    if len(descriptor.modes) != mesh.dim:
        raise ConfigurationError("trig mode vector must match the mesh dimension")
    fn = np.sin if descriptor.fn == "sin" else np.cos
    # The average of exp(i 2 pi k (x - a) / L) over a cell of width L / M is
    # its centre value times sinc(k / M), so each axis adds its centre phase
    # and multiplies in its sinc factor.
    phase = 0.0
    damping = 1.0
    for axis, (k, m) in enumerate(zip(descriptor.modes, mesh.shape)):
        shape = [1] * mesh.dim
        shape[axis] = m
        phase = phase + (2.0 * np.pi * k * (np.arange(m) + 0.5) / m).reshape(shape)
        damping *= np.sinc(k / m)
    return descriptor.scale * damping * fn(phase) + descriptor.offset
