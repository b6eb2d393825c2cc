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

from .errors import ConfigurationError, UsageError, _real
from .mesh import Mesh


@dataclass(frozen=True)
class Gaussian:
    """exp(-|z|^2 / (2 eps^2)) / sqrt(2 pi eps^2), scaled by the pair strength."""

    eps: float

    def __post_init__(self):
        object.__setattr__(self, "eps", _real(self.eps, "kernel.eps"))
        if not np.isfinite(self.eps) or self.eps <= 0:
            raise ConfigurationError(f"Gaussian width must be positive, got {self.eps}")
        # The normalization squares eps: below about 7.5e-155, 1/eps**2 overflows,
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
    """Cell-pair-averaged unit-strength kernel, one averaged factor per axis.

    The double cell average of each built-in shape factorizes per axis, so
    a 1D averaged factor is computed per axis, at all nonnegative offsets in
    one array pass (``_axis_table``), and the offset table is their outer
    product. Factors are mirrored from nonnegative offsets, making the
    discrete symmetry exact.
    """
    factors = tuple(_axis_table(spec.shape, mesh, ax, spec.extension) for ax in range(mesh.dim))
    table = spec.shape.normalization * functools.reduce(np.multiply.outer, factors)
    return DiscreteKernel(mesh=mesh, spec=spec, table=table, axis_factors=factors)


def _axis_table(shape, mesh: Mesh, axis: int, extension: Extension) -> np.ndarray:
    """Per-axis averaged factor over nonnegative offsets, mirrored.

    At offset c, (1/dx^2) int (dx - |t|) w(c + t) dt over the tent |t| <= dx
    clipped to the band |c + t| <= B (``_band``), summed on the torus over
    the images within B + dx. Closed-form for the top-hat; for the Gaussian,
    exact to round-off at any width: 8-node Gauss-Legendre on each side of
    the kink t = 0, cut in n = ceil(min(dx, 2B) / eps) pieces.
    """
    m = mesh.shape[axis]
    dx = mesh.dx[axis]
    length = mesh.spec.extents[axis][1] - mesh.spec.extents[axis][0]
    periodic = extension is Extension.PERIODIC_WRAP
    half = m // 2 if periodic else m - 1
    centers = np.arange(half + 1) * dx
    band = _band(shape)
    images = _images(band + dx, length) if periodic else np.zeros(1)
    # Gaussian images whose band covers the tent at every offset share one node set.
    full = isinstance(shape, Gaussian) & (images - dx >= -band)
    full &= images + centers[-1] + dx <= band
    shift = np.add.outer(images[~full], centers)
    lo = np.maximum(-dx, -band - shift)  # the clipped tent [lo, hi]; lo == hi where it misses
    hi = np.maximum(np.minimum(dx, band - shift), lo)

    if isinstance(shape, TopHat):
        def antiderivative(t):  # of the tent, across its kink too
            return dx * t - np.sign(t) * t * t / 2.0
        pos = ((antiderivative(hi) - antiderivative(lo)) / (dx * dx)).sum(axis=0)
    else:
        x, w = np.polynomial.legendre.leggauss(8)
        n = math.ceil(min(dx, 2.0 * band) / shape.eps)
        frac = ((np.arange(n)[:, None] + 0.5 * (x + 1.0)) / n).ravel()
        wfrac = np.tile(0.5 * w / n, n)

        def nodes(lo, kink, hi) -> tuple:  # of [lo, kink] and [kink, hi], tent-weighted weights
            a, b = np.stack((lo, kink), -1)[..., None], np.stack((kink, hi), -1)[..., None]
            t = a + (b - a) * frac
            flat = (*t.shape[:-2], 2 * frac.size)
            return t.reshape(flat), ((b - a) * wfrac * (dx - np.abs(t))).reshape(flat)

        t, wt = nodes(-dx, 0.0, dx)
        scaled = np.add.outer(centers, t) / shape.eps
        shared = sum(np.exp(-0.5 * np.square(scaled + s / shape.eps)) for s in images[full]) * wt
        live = hi > lo
        shift, lo, hi = shift[live], lo[live], hi[live]
        t, wt = nodes(lo, np.clip(0.0, lo, hi), hi)
        clipped = (wt * np.exp(-0.5 * np.square((shift[:, None] + t) / shape.eps))).sum(axis=-1)
        pos = (shared.sum(axis=-1) + np.bincount(live.nonzero()[1], clipped, half + 1)) / (dx * dx)

    if periodic:
        return np.concatenate((pos, pos[1 : m - half][::-1]))
    return np.concatenate((pos[:0:-1], pos))


def _band(shape) -> float:
    """Half-width B beyond which w is 0 (top-hat) or below 2^-53 of its peak (Gaussian)."""
    return shape.radius if isinstance(shape, TopHat) else 8.6 * shape.eps


def _images(reach: float, length: float) -> np.ndarray:
    """Shifts k*L of the periodic images that come within ``reach`` of [0, L/2]."""
    n_img = math.ceil(reach / length)
    return np.arange(-n_img, n_img + 1) * length


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
    its DFT), symmetric Toeplitz for whole-space kernels (two half-size
    eigensolves, ``_toeplitz_eigvalsh``). Its eigenvalues are the products of
    one eigenvalue per factor (Horn & Johnson, Topics in Matrix Analysis, Thm
    4.2.12), so the smallest is a product of per-factor extremes.
    ``min_eigenvalue`` is that of m(K) W; the verdict allows 1e-12 of the
    largest magnitude, or of 1 if smaller.
    """
    eigs = [np.linalg.eigvalsh(kernel.spec.strengths)]
    for factor in kernel.axis_factors:
        if kernel.extension is Extension.PERIODIC_WRAP:
            eigs.append(np.fft.rfft(factor).real)
        else:
            eigs.append(_toeplitz_eigvalsh(factor))
    weight = kernel.mesh.cell_measure * kernel.spec.shape.normalization
    extremes = [(e.min(), e.max()) for e in eigs]
    products = [float(weight * math.prod(c)) for c in itertools.product(*extremes)]
    min_eig = min(products)
    tol = 1e-12 * max(1.0, max(abs(p) for p in products))
    return PsdReport(is_psd=bool(min_eig >= -tol), min_eigenvalue=min_eig)


def _toeplitz_eigvalsh(factor: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric Toeplitz matrix T_ij = factor[i - j + m - 1].

    T commutes with the exchange matrix J, so the orthogonal basis of even
    (Jx = x) and odd (Jx = -x) vectors splits it into two symmetric blocks
    of half the size (Cantoni & Butler, Linear Algebra Appl. 13, 1976).
    With k = m // 2, A = T[:k, :k] and H = T[:k, m-k:] J: the odd block is
    A - H and the even block A + H, bordered for odd m by the middle row,
    sqrt(2) T[:k, k], and the corner T[k, k]. The blocks are built from the
    factor's windows; T itself is never formed.
    """
    m = (factor.size + 1) // 2
    k = m // 2
    windows = np.lib.stride_tricks.sliding_window_view(factor, k)  # [s, j] = factor[s + j]
    toep = windows[m - k : m, ::-1]  # [i, j] = factor[m - 1 + i - j]
    hank = windows[:k]  # [i, j] = factor[i + j]
    odd = np.linalg.eigvalsh(toep - hank)
    even = np.empty((m - k, m - k))
    np.add(toep, hank, out=even[:k, :k])
    if m % 2:
        even[:k, k] = even[k, :k] = math.sqrt(2.0) * factor[k : 2 * k]
        even[k, k] = factor[m - 1]
    return np.concatenate((odd, np.linalg.eigvalsh(even)))


def sup_norm(shape, extension: Extension, mesh: Mesh) -> float:
    """Essential sup of the realized (possibly periodized) unit-strength kernel."""
    norm = shape.normalization
    if extension is Extension.WHOLE_SPACE:
        return norm
    if isinstance(shape, Gaussian):
        # Periodized Gaussian peaks at 0: product over axes of image sums.
        for a, b in mesh.spec.extents:
            images = _images(_band(shape), b - a)
            norm *= float(np.sum(np.exp(-0.5 * np.square(images / shape.eps))))
        return norm
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
