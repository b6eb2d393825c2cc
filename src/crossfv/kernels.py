"""Interaction kernels, their cell-pair-averaged discretization and potentials.

The discrete kernel stores one offset table per species pair: on the torus
(periodic extension) tables are circulant and indexed by the cell offset
modulo M; for whole-space kernels the raw center difference matters, so the
table covers signed offsets (Toeplitz structure). Convolution is FFT on
every grid: circulant on the torus, zero-padded 2M circulant embedding for
whole-space tables; both are exact to round-off for any cell count.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .mesh import Mesh

_DENSE_PSD_LIMIT = 8192


@dataclass(frozen=True)
class Gaussian:
    """exp(-|z|^2 / (2 eps^2)) / sqrt(2 pi eps^2), scaled by the pair strength."""

    eps: float

    def __post_init__(self):
        if not np.isfinite(self.eps) or self.eps <= 0:
            raise ConfigurationError(f"Gaussian width must be positive, got {self.eps}")

    @property
    def normalization(self) -> float:
        return 1.0 / np.sqrt(2.0 * np.pi * self.eps**2)

    @property
    def support_radius(self) -> float:
        return np.inf


@dataclass(frozen=True)
class TopHat:
    """Indicator of the box [-R, R]^d scaled by 1/(2R); R is the detection radius."""

    radius: float

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ConfigurationError(f"top-hat radius must be positive, got {self.radius}")

    @property
    def normalization(self) -> float:
        return 1.0 / (2.0 * self.radius)

    @property
    def support_radius(self) -> float:
        return self.radius


class Extension(str, enum.Enum):
    WHOLE_SPACE = "whole_space"
    PERIODIC_WRAP = "periodic_wrap"


@dataclass
class KernelSpec:
    """Per-pair kernel shapes and signed strengths (alpha_ij > 0 repels).

    ``shapes`` is either a single shape applied to every pair or an n x n
    nested list; symmetry of strengths and shapes enforces the kernel
    symmetry hypothesis for the built-in even shapes.
    """

    strengths: np.ndarray
    shapes: object
    extension: Extension = Extension.PERIODIC_WRAP
    quadrature_order: int = 4

    def __post_init__(self):
        self.strengths = np.asarray(self.strengths, dtype=float)
        if self.strengths.ndim != 2 or self.strengths.shape[0] != self.strengths.shape[1]:
            raise ConfigurationError("strength matrix must be square")
        if not np.array_equal(self.strengths, self.strengths.T):
            raise ConfigurationError("strength matrix must be exactly symmetric")
        self.extension = Extension(self.extension)
        if self.quadrature_order < 1:
            raise ConfigurationError("quadrature order must be >= 1")
        n = self.strengths.shape[0]
        if isinstance(self.shapes, (Gaussian, TopHat)):
            self.shapes = [[self.shapes] * n for _ in range(n)]
        else:
            self.shapes = [list(row) for row in self.shapes]
            if len(self.shapes) != n or any(len(row) != n for row in self.shapes):
                raise ConfigurationError("per-pair shapes must form an n x n table")
            for i in range(n):
                for j in range(n):
                    if self.shapes[i][j] != self.shapes[j][i]:
                        raise ConfigurationError("shape table must be symmetric")

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
    """Offset-indexed cell-pair averages of the interaction kernels.

    For PERIODIC_WRAP the table w[delta] covers torus offsets and
    W_KJ = w[(K - J) mod M]; for WHOLE_SPACE it covers signed offsets
    delta in [-(M-1), M-1] per axis and W_KJ = w[K - J].
    """

    mesh: Mesh
    spec: KernelSpec
    tables: np.ndarray  # (n, n, *table_shape)

    @property
    def n_species(self) -> int:
        return self.spec.n_species

    @property
    def extension(self) -> Extension:
        return self.spec.extension

    def value(self, i: int, j: int, cell_k, cell_j) -> float:
        """W_KJ^{ij} for explicit cell pairs (reference accessor for tests)."""
        k = np.asarray(cell_k, dtype=int)
        jj = np.asarray(cell_j, dtype=int)
        m = np.asarray(self.mesh.shape, dtype=int)
        if self.extension is Extension.PERIODIC_WRAP:
            delta = tuple((k - jj) % m)
        else:
            delta = tuple((k - jj) + (m - 1))
        return float(self.tables[(i, j) + delta])

    @functools.cached_property
    def _spectra(self) -> np.ndarray:
        """rfftn of each pair's table as a circulant on the FFT grid."""
        return np.array(
            [[_spectrum(w, self.mesh.shape, self.extension) for w in row] for row in self.tables]
        )

    def potentials(self, fields: np.ndarray) -> np.ndarray:
        """p_i = sum_j m(J) * (w_ij convolved with fields_j)."""
        fields = np.asarray(fields, dtype=float)
        if fields.shape != (self.n_species,) + self.mesh.shape:
            raise UsageError(
                f"fields shape {fields.shape} does not match "
                f"{(self.n_species,) + self.mesh.shape}"
            )
        return self.mesh.cell_measure * _fft_apply(self._spectra, fields, self.extension)


def discretize(spec: KernelSpec, mesh: Mesh) -> DiscreteKernel:
    """Cell-pair-averaged kernels via per-axis tensor quadrature.

    The double cell average of each built-in shape factorizes per axis, so
    a 1D averaged table is computed per axis (exact piecewise integration
    for top-hat shapes, Gauss-Legendre of the configured order otherwise)
    and the full offset table is their outer product. Tables are mirrored
    from nonnegative offsets, making the discrete symmetry exact.
    """
    n = spec.n_species
    axis_cache: dict = {}
    table_shape = _table_shape(mesh, spec.extension)
    tables = np.empty((n, n) + table_shape)
    for i in range(n):
        for j in range(n):
            shape_ij = spec.shapes[i][j]
            key = shape_ij
            if key not in axis_cache:
                axis_cache[key] = [
                    _axis_table(shape_ij, mesh, axis, spec.extension, spec.quadrature_order)
                    for axis in range(mesh.dim)
                ]
            factors = axis_cache[key]
            full = factors[0]
            for ax in range(1, mesh.dim):
                full = np.multiply.outer(full, factors[ax])
            tables[i, j] = spec.strengths[i, j] * shape_ij.normalization * full
    return DiscreteKernel(mesh=mesh, spec=spec, tables=tables)


def _table_shape(mesh: Mesh, extension: Extension) -> tuple:
    if extension is Extension.PERIODIC_WRAP:
        return mesh.shape
    return tuple(2 * m - 1 for m in mesh.shape)


def _axis_table(shape, mesh: Mesh, axis: int, extension: Extension, q: int) -> np.ndarray:
    """Per-axis averaged factor over nonnegative offsets, mirrored."""
    m = mesh.shape[axis]
    dx = mesh.dx[axis]
    length = mesh.spec.extents[axis][1] - mesh.spec.extents[axis][0]
    periodic = extension is Extension.PERIODIC_WRAP

    if isinstance(shape, TopHat):
        if periodic:
            # Image sum: exact for any support radius.
            n_img = max(1, int(np.ceil((shape.radius + dx) / length)))
            images = np.arange(-n_img, n_img + 1) * length
        else:
            images = np.zeros(1)

        def avg(c: float) -> float:
            return sum(_tophat_axis_average(c + img, shape.radius, dx) for img in images)

    else:
        nodes, wts = np.polynomial.legendre.leggauss(q)
        nodes = 0.5 * dx * (nodes + 1.0)
        wts = 0.5 * dx * wts
        diff = np.subtract.outer(nodes, nodes)
        wmat = np.multiply.outer(wts, wts)
        inv_eps2 = 1.0 / (2.0 * shape.eps**2)
        if periodic:
            # Image sum to full double accuracy: terms beyond
            # |m| > 8.6 eps / L are below 2^-53 relative to the peak.
            images = _gaussian_images(shape.eps, length)
        else:
            images = np.zeros(1)

        def avg(c: float) -> float:
            z = c + diff
            if periodic:
                z = z - length * np.round(z / length)
            acc = np.zeros_like(z)
            for img in images:
                zz = z + img
                acc += np.exp(-zz * zz * inv_eps2)
            return float(np.sum(wmat * acc)) / (dx * dx)

    half = m // 2 if periodic else m - 1
    pos = np.array([avg(delta * dx) for delta in range(half + 1)])
    if periodic:
        out = np.empty(m)
        out[: half + 1] = pos
        for delta in range(half + 1, m):
            out[delta] = out[m - delta]
    else:
        out = np.empty(2 * m - 1)
        out[m - 1 :] = pos
        out[: m - 1] = pos[1:][::-1]
    return out


def _gaussian_images(eps: float, length: float) -> np.ndarray:
    n_img = max(1, int(np.ceil(8.6 * eps / length)) + 1)
    return np.arange(-n_img, n_img + 1) * length


def _tophat_axis_average(c: float, radius: float, dx: float) -> float:
    """Exact (1/dx^2) * int over two cells of 1{|c + x - y| <= R}.

    Reduces to integrating the tent (dx - |t|) over the band |c + t| <= R.
    """
    lo = max(-dx, -radius - c)
    hi = min(dx, radius - c)
    if hi <= lo:
        return 0.0

    def tent_antideriv(t: float) -> float:
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


def _fft_apply(spectra: np.ndarray, fields: np.ndarray, extension: Extension) -> np.ndarray:
    """g_i = sum_j w_ij * f_j without the cell measure.

    ``spectra`` is (n_out, n_in, *rfft shape) from ``_spectrum`` and
    ``fields`` is (n_in, *mesh shape). The FFT grid is the mesh on the
    torus and its zero-padded 2M embedding for whole-space tables, whose
    result is cropped back to the mesh.
    """
    shape = fields.shape[1:]
    grid = shape if extension is Extension.PERIODIC_WRAP else tuple(2 * m for m in shape)
    axes = tuple(range(len(shape)))
    crop = tuple(slice(0, m) for m in shape)
    f_hat = np.stack([np.fft.rfftn(f, s=grid, axes=axes) for f in fields])
    out = np.empty((len(spectra),) + shape)
    for i, row in enumerate(spectra):
        out[i] = np.fft.irfftn((row * f_hat).sum(axis=0), s=grid, axes=axes)[crop]
    return out


def convolve(
    w: np.ndarray,
    f: np.ndarray,
    mesh: Mesh,
    extension: Extension = Extension.PERIODIC_WRAP,
) -> np.ndarray:
    """g_K = sum_J m(J) * w[K - J] * f_J by FFT on any cell count.

    Circulant on the torus; signed-offset (whole-space) tables are embedded
    in a zero-padded 2M circulant and the result is cropped to the mesh.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != mesh.shape:
        raise UsageError(f"field shape {f.shape} does not match mesh {mesh.shape}")
    extension = Extension(extension)
    if w.shape != _table_shape(mesh, extension):
        raise UsageError(f"offset table shape {w.shape} unexpected for {extension}")
    spectrum = _spectrum(w, mesh.shape, extension)
    return mesh.cell_measure * _fft_apply(spectrum[None, None], f[None], extension)[0]


def check_psd(kernel: DiscreteKernel) -> PsdReport:
    """Positive semidefiniteness of the discrete interaction quadratic form.

    On the torus the form diagonalizes per discrete frequency: it is PSD iff
    the Hermitian-symmetrized n x n symbol matrix (DFT of m(J) w_ij) is PSD
    at every frequency. Whole-space tables lack circulant structure, so the
    dense symmetric pair matrix is checked directly (desk scale only).
    """
    n = kernel.n_species
    mesh = kernel.mesh
    m_cell = mesh.cell_measure
    if kernel.extension is Extension.PERIODIC_WRAP:
        n_freq = mesh.n_cells
        symbols = np.empty((n, n, n_freq), dtype=complex)
        for i in range(n):
            for j in range(n):
                symbols[i, j] = (m_cell * np.fft.fftn(kernel.tables[i, j])).ravel()
        mats = np.transpose(symbols, (2, 0, 1))
        mats = 0.5 * (mats + np.conj(np.transpose(mats, (0, 2, 1))))
        eigs = np.linalg.eigvalsh(mats)
        min_eig = float(eigs.min())
        scale = max(1.0, float(np.abs(symbols).max()))
    else:
        size = n * mesh.n_cells
        if size > _DENSE_PSD_LIMIT:
            raise UsageError(
                f"dense PSD check needs a {size}x{size} matrix; "
                "use a smaller mesh or a periodic kernel"
            )
        big = np.empty((size, size))
        idx = np.arange(mesh.n_cells)
        multi = np.array(np.unravel_index(idx, mesh.shape))  # (d, N)
        diff = tuple(
            np.subtract.outer(multi[ax], multi[ax]) + (mesh.shape[ax] - 1)
            for ax in range(mesh.dim)
        )
        for i in range(n):
            for j in range(n):
                block = kernel.tables[i, j][diff]
                big[
                    i * mesh.n_cells : (i + 1) * mesh.n_cells,
                    j * mesh.n_cells : (j + 1) * mesh.n_cells,
                ] = block
        big *= m_cell * m_cell
        big = 0.5 * (big + big.T)
        eigs = np.linalg.eigvalsh(big)
        min_eig = float(eigs.min())
        scale = max(1.0, float(np.abs(big).max()))
    tol = 1e-12 * scale
    return PsdReport(is_psd=bool(min_eig >= -tol), min_eigenvalue=min_eig)


def quadratic_form(kernel: DiscreteKernel, fields: np.ndarray) -> float:
    """sum_ij sum_KJ m(K) m(J) W_KJ^{ij} v_i,K v_j,J (brute-force oracle aid)."""
    fields = np.asarray(fields, dtype=float)
    pots = kernel.potentials(fields)
    return float(kernel.mesh.cell_measure * np.sum(fields * pots))


def sup_norm(shape, extension: Extension, mesh: Mesh, axis_samples: int = 4096) -> float:
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
    count = 1.0
    for axis in range(mesh.dim):
        a, b = mesh.spec.extents[axis]
        length = b - a
        z = (np.arange(axis_samples) + 0.5) / axis_samples * length - length / 2
        n_img = max(1, int(np.ceil((shape.radius + length) / length)))
        images = np.arange(-n_img, n_img + 1) * length
        counts = np.zeros_like(z)
        for img in images:
            counts += (np.abs(z + img) <= shape.radius).astype(float)
        count *= counts.max()
    return norm * count


def c_star(kernel_or_spec, u0_fields: np.ndarray, mesh: Mesh) -> float:
    """Small-mass constant max_j sum_i ||W_ij||_inf * ||u_i^0||_L1."""
    if isinstance(kernel_or_spec, DiscreteKernel):
        spec = kernel_or_spec.spec
        mesh = kernel_or_spec.mesh
    else:
        spec = kernel_or_spec
    u0_fields = np.asarray(u0_fields, dtype=float)
    n = spec.n_species
    if u0_fields.shape[0] != n:
        raise UsageError("initial fields must have one entry per species")
    masses = mesh.cell_measure * np.abs(u0_fields).reshape(n, -1).sum(axis=1)
    sups = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            sups[i, j] = abs(spec.strengths[i, j]) * sup_norm(
                spec.shapes[i][j], spec.extension, mesh
            )
    return float(max(sups[:, j] @ masses for j in range(n)))


def small_mass_threshold(kappa: float, alpha: float) -> float:
    """Smallness bound kappa (1-alpha)^2 / (4 (alpha (1-alpha) + 1))."""
    return 0.25 * kappa * (1.0 - alpha) ** 2 / (alpha * (1.0 - alpha) + 1.0)


def c_star_report(kernel_or_spec, u0_fields, mesh, kappa: float, alpha: float) -> CStarReport:
    value = c_star(kernel_or_spec, u0_fields, mesh)
    threshold = small_mass_threshold(kappa, alpha)
    return CStarReport(c_star=value, threshold=threshold, within_threshold=bool(value <= threshold))
