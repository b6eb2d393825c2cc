"""Interaction kernels, their cell-pair-averaged discretization and potentials.

Every species pair shares one shape, W_ij = alpha_ij * w, and the cell-pair
average of w is a product of per-axis factors, so the interaction form is
the Kronecker product of alpha and the per-axis factor matrices. The
discrete kernel stores alpha, those factors and one unit-strength offset
table of w: on the torus (periodic extension) it is circulant and indexed
by the cell offset modulo M; for whole-space kernels the raw center
difference matters, so the table covers signed offsets (Toeplitz
structure). Potentials mix the species by alpha and convolve the mix with
w by one batched FFT on every grid: circulant on the torus, zero-padded 2M
circulant embedding for whole-space kernels; both are exact to round-off
for any cell count.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
# numpy loads these two on first use; load them with the package, not in a run's set-up.
import numpy.fft
import numpy.polynomial

from .errors import ConfigurationError, UsageError, _integer, _real
from .mesh import Mesh


@dataclass(frozen=True)
class Gaussian:
    """exp(-|z|^2 / (2 eps^2)) / sqrt(2 pi eps^2), scaled by the pair strength."""

    eps: float
    quadrature_order: int = 4  # Gauss-Legendre nodes per cell and axis of the cell-pair averages

    def __post_init__(self):
        object.__setattr__(self, "eps", _real(self.eps, "kernel.eps"))
        order = _integer(self.quadrature_order, "kernel.quadrature_order", minimum=1)
        object.__setattr__(self, "quadrature_order", order)
        if not np.isfinite(self.eps) or self.eps <= 0:
            raise ConfigurationError(f"Gaussian width must be positive, got {self.eps}")
        # The exponent divides by eps**2: below about 7.5e-155, 1/eps**2 overflows,
        # and above about 1.3e154 eps**2 itself does.
        eps2 = float(self.eps) * float(self.eps)  # `**` would raise on overflow
        if eps2 == 0.0 or not math.isfinite(1.0 / eps2):
            raise ConfigurationError(
                f"Gaussian width kernel.eps = {self.eps} is too small: 1/eps**2 is not finite"
            )
        if not math.isfinite(eps2):
            raise ConfigurationError(
                f"Gaussian width kernel.eps = {self.eps} is too large: eps**2 is not finite"
            )

    @property
    def normalization(self) -> float:
        return 1.0 / np.sqrt(2.0 * np.pi * self.eps**2)


@dataclass(frozen=True)
class TopHat:
    """Indicator of the box [-R, R]^d scaled by 1/(2R); R is the detection radius."""

    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", _real(self.radius, "kernel.radius"))
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ConfigurationError(f"top-hat radius must be positive, got {self.radius}")

    @property
    def normalization(self) -> float:
        return 1.0 / (2.0 * self.radius)


class Extension(str, enum.Enum):
    WHOLE_SPACE = "whole_space"
    PERIODIC_WRAP = "periodic_wrap"


@dataclass
class KernelSpec:
    """One kernel shape for every species pair and signed strengths (alpha_ij > 0 repels).

    W_ij = alpha_ij * w with ``shape`` a `Gaussian` or a `TopHat`; an exactly
    symmetric strength matrix and the even shapes give the kernel symmetry
    hypothesis.
    """

    strengths: np.ndarray
    shape: Gaussian | TopHat
    extension: Extension = Extension.PERIODIC_WRAP

    def __post_init__(self):
        entries = np.asarray(self.strengths, dtype=object)
        self.strengths = np.array(
            [_real(v, "kernel.strengths") for v in entries.flat], dtype=float
        ).reshape(entries.shape)
        if self.strengths.ndim != 2 or self.strengths.shape[0] != self.strengths.shape[1]:
            raise ConfigurationError("strength matrix must be square")
        if not np.all(np.isfinite(self.strengths)):
            raise ConfigurationError("kernel strengths must be finite")
        if not np.array_equal(self.strengths, self.strengths.T):
            raise ConfigurationError("strength matrix must be exactly symmetric")
        self.extension = Extension(self.extension)
        if not isinstance(self.shape, (Gaussian, TopHat)):
            raise ConfigurationError(f"kernel shape must be Gaussian or TopHat, got {self.shape!r}")

    @property
    def n_species(self) -> int:
        return self.strengths.shape[0]


@dataclass
class PsdReport:
    is_psd: bool
    min_eigenvalue: float


@dataclass
class CStarReport:
    c_star: float
    threshold: float
    within_threshold: bool


@dataclass
class DiscreteKernel:
    """Offset-indexed cell-pair averages of the unit-strength kernel w.

    For PERIODIC_WRAP the table covers torus offsets and w_KJ =
    table[(K - J) mod M]; for WHOLE_SPACE it covers signed offsets delta in
    [-(M-1), M-1] per axis and w_KJ = table[K - J]. The table is
    normalization times the outer product of ``axis_factors``, and the pair
    kernel is W_KJ^{ij} = alpha_ij * w_KJ with alpha = ``spec.strengths``.
    """

    mesh: Mesh
    spec: KernelSpec
    table: np.ndarray  # unit strength, (M_1, ..., M_d) or (2M_1 - 1, ...)
    axis_factors: tuple  # one 1D factor per axis

    @property
    def n_species(self) -> int:
        return self.spec.n_species

    @property
    def extension(self) -> Extension:
        return self.spec.extension

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """rfftn of the table as a circulant on the FFT grid."""
        return _spectrum(self.table, self.mesh.shape, self.extension)

    def potentials(self, fields: np.ndarray) -> np.ndarray:
        """p_i = sum_j m(J) * alpha_ij * (w convolved with fields_j)."""
        fields = np.asarray(fields, dtype=float)
        if fields.shape != (self.n_species,) + self.mesh.shape:
            raise UsageError(
                f"fields shape {fields.shape} does not match "
                f"{(self.n_species,) + self.mesh.shape}"
            )
        mixed = (self.spec.strengths @ fields.reshape(self.n_species, -1)).reshape(fields.shape)
        return self.mesh.cell_measure * _fft_apply(self.spectrum, mixed, self.extension)


def discretize(spec: KernelSpec, mesh: Mesh) -> DiscreteKernel:
    """Cell-pair-averaged unit-strength kernel via per-axis tensor quadrature.

    The double cell average of each built-in shape factorizes per axis, so
    a 1D averaged factor is computed per axis, at all nonnegative offsets in
    one array pass (exact piecewise integration for top-hat shapes,
    Gauss-Legendre of the Gaussian's ``quadrature_order`` otherwise), and the
    offset table is their outer product. Factors are mirrored from
    nonnegative offsets, making the discrete symmetry exact.
    """
    factors = tuple(_axis_table(spec.shape, mesh, ax, spec.extension) for ax in range(mesh.dim))
    table = spec.shape.normalization * functools.reduce(np.multiply.outer, factors)
    return DiscreteKernel(mesh=mesh, spec=spec, table=table, axis_factors=factors)


def _axis_table(shape, mesh: Mesh, axis: int, extension: Extension) -> np.ndarray:
    """Per-axis averaged factor over nonnegative offsets, mirrored."""
    m = mesh.shape[axis]
    dx = mesh.dx[axis]
    length = mesh.spec.extents[axis][1] - mesh.spec.extents[axis][0]
    periodic = extension is Extension.PERIODIC_WRAP
    half = m // 2 if periodic else m - 1
    centers = np.arange(half + 1) * dx

    if isinstance(shape, TopHat):
        if periodic:
            # Image sum: exact for any support radius.
            n_img = max(1, int(np.ceil((shape.radius + dx) / length)))
            images = np.arange(-n_img, n_img + 1) * length
        else:
            images = np.zeros(1)
        pos = sum(_tophat_axis_average(centers + img, shape.radius, dx) for img in images)
    else:
        nodes, wts = np.polynomial.legendre.leggauss(shape.quadrature_order)
        nodes = 0.5 * dx * (nodes + 1.0)
        wts = 0.5 * dx * wts
        # One row of (quadrature order)^2 node differences per offset.
        z = np.add.outer(centers, np.subtract.outer(nodes, nodes).ravel())
        if periodic:
            z -= length * np.round(z / length)
            # Image sum to full double accuracy: terms beyond
            # |m| > 8.6 eps / L are below 2^-53 relative to the peak.
            images = _gaussian_images(shape.eps, length)
        else:
            images = np.zeros(1)
        inv_eps2 = 1.0 / (2.0 * shape.eps**2)
        acc = sum(np.exp(-np.square(z + img) * inv_eps2) for img in images)
        pos = (np.multiply.outer(wts, wts).ravel() * acc).sum(axis=1) / (dx * dx)

    if periodic:
        return np.concatenate((pos, pos[1 : m - half][::-1]))
    return np.concatenate((pos[:0:-1], pos))


def _gaussian_images(eps: float, length: float) -> np.ndarray:
    n_img = max(1, int(np.ceil(8.6 * eps / length)) + 1)
    return np.arange(-n_img, n_img + 1) * length


def _tophat_axis_average(c: np.ndarray, radius: float, dx: float) -> np.ndarray:
    """Exact (1/dx^2) * int over two cells of 1{|c + x - y| <= R}, at every offset c.

    Reduces to integrating the tent (dx - |t|) over the band |c + t| <= R;
    where the band misses the tent, hi is clamped to lo and the integral is 0.
    """
    lo = np.maximum(-dx, -radius - c)
    hi = np.maximum(np.minimum(dx, radius - c), lo)

    def tent_antideriv(t: np.ndarray) -> np.ndarray:
        return dx * t - np.sign(t) * t * t / 2.0

    return (tent_antideriv(hi) - tent_antideriv(lo)) / (dx * dx)


def _embed_circulant(w: np.ndarray, shape: tuple) -> np.ndarray:
    """Embed a signed-offset (Toeplitz) table into a 2M circulant table."""
    pad = tuple(2 * m for m in shape)
    c = np.zeros(pad)
    c[tuple(slice(0, 2 * m - 1) for m in shape)] = w
    return np.roll(c, shift=tuple(-(m - 1) for m in shape), axis=tuple(range(len(shape))))


def _spectrum(w: np.ndarray, shape: tuple, extension: Extension) -> np.ndarray:
    """rfftn of an offset table as a circulant on the FFT grid."""
    if extension is Extension.WHOLE_SPACE:
        w = _embed_circulant(w, shape)
    return np.fft.rfftn(w)


def _fft_apply(spectrum: np.ndarray, fields: np.ndarray, extension: Extension) -> np.ndarray:
    """g_i = w convolved with f_i for every row of ``fields``, without the cell measure.

    ``spectrum`` is the rfftn of w from ``_spectrum`` and ``fields`` is
    (n, *mesh shape), transformed in one batch. The FFT grid is the mesh on
    the torus and its zero-padded 2M embedding for whole-space kernels,
    whose result is cropped back to the mesh.
    """
    shape = fields.shape[1:]
    grid = shape if extension is Extension.PERIODIC_WRAP else tuple(2 * m for m in shape)
    axes = tuple(range(1, len(shape) + 1))
    crop = (slice(None),) + tuple(slice(0, m) for m in shape)
    f_hat = np.fft.rfftn(fields, s=grid, axes=axes)
    # In place: one batch-sized temporary less (at 256^2 the out-of-place
    # product made the potential slower than per-species transforms).
    f_hat *= spectrum
    return np.fft.irfftn(f_hat, s=grid, axes=axes)[crop]


def check_psd(kernel: DiscreteKernel) -> PsdReport:
    """Positive semidefiniteness of the discrete interaction quadratic form.

    Its operator m(K) W is m(K) * normalization * (alpha (x) T_1 (x) ... (x)
    T_d), with T_l axis l's factor matrix: circulant on the torus (eigenvalues:
    its DFT), symmetric Toeplitz for whole-space kernels (dense M_l x M_l
    eigensolve). Its eigenvalues are the products of one eigenvalue per factor
    (Horn & Johnson, Topics in Matrix Analysis, Thm 4.2.12), so the smallest
    is a product of per-factor extremes. ``min_eigenvalue`` is that of m(K) W;
    the verdict allows 1e-12 of the largest magnitude, or of 1 if smaller.
    """
    eigs = [np.linalg.eigvalsh(kernel.spec.strengths)]
    for factor in kernel.axis_factors:
        if kernel.extension is Extension.PERIODIC_WRAP:
            eigs.append(np.fft.rfft(factor).real)
        else:
            m = (factor.size + 1) // 2
            idx = np.arange(m)
            eigs.append(np.linalg.eigvalsh(factor[np.subtract.outer(idx, idx) + (m - 1)]))
    weight = kernel.mesh.cell_measure * kernel.spec.shape.normalization
    extremes = [(e.min(), e.max()) for e in eigs]
    products = [float(weight * math.prod(c)) for c in itertools.product(*extremes)]
    min_eig = min(products)
    tol = 1e-12 * max(1.0, max(abs(p) for p in products))
    return PsdReport(is_psd=bool(min_eig >= -tol), min_eigenvalue=min_eig)


def sup_norm(shape, extension: Extension, mesh: Mesh) -> float:
    """Essential sup of the realized (possibly periodized) unit-strength kernel."""
    norm = shape.normalization
    if extension is Extension.WHOLE_SPACE:
        return norm
    if isinstance(shape, Gaussian):
        # Periodized Gaussian peaks at 0: product over axes of image sums.
        peak = 1.0
        for axis in range(mesh.dim):
            a, b = mesh.spec.extents[axis]
            images = _gaussian_images(shape.eps, b - a)
            peak *= float(np.sum(np.exp(-images * images / (2.0 * shape.eps**2))))
        return norm * peak
    # On an axis of length L the images of [-R, R] overlap ceil(2R/L)-fold on
    # a set of positive measure, and more only on a null set.
    count = 1.0
    for a, b in mesh.spec.extents:
        count *= math.ceil(2.0 * shape.radius / (b - a))
    return norm * count


def c_star(spec: KernelSpec, u0_fields: np.ndarray, mesh: Mesh) -> float:
    """Small-mass constant max_j sum_i ||W_ij||_inf * ||u_i^0||_L1."""
    u0_fields = np.asarray(u0_fields, dtype=float)
    n = spec.n_species
    if u0_fields.shape[0] != n:
        raise UsageError("initial fields must have one entry per species")
    masses = mesh.cell_measure * np.abs(u0_fields).reshape(n, -1).sum(axis=1)
    sups = np.abs(spec.strengths) * sup_norm(spec.shape, spec.extension, mesh)
    return float(max(sups[:, j] @ masses for j in range(n)))


def small_mass_threshold(kappa: float, alpha: float) -> float:
    """Smallness bound kappa (1-alpha)^2 / (4 (alpha (1-alpha) + 1))."""
    return 0.25 * kappa * (1.0 - alpha) ** 2 / (alpha * (1.0 - alpha) + 1.0)


def c_star_report(spec: KernelSpec, u0_fields, mesh, kappa: float, alpha: float) -> CStarReport:
    value = c_star(spec, u0_fields, mesh)
    threshold = small_mass_threshold(kappa, alpha)
    return CStarReport(c_star=value, threshold=threshold, within_threshold=bool(value <= threshold))
