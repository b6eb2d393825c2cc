"""Reference computations for ``crossfv.kernels``.

The direct sums return sum_J w[K - J] * f_J without the cell measure, by an
O(M^2) loop over table offsets: on the torus the offset is taken modulo the
cell count; for whole-space (signed-offset) tables sources outside the mesh
are dropped. ``convolve`` applies one offset table through the package's FFT
path. ``kernel_value``, ``quadratic_form`` and ``dense_form_eigenvalues``
read the kernel cell pair by cell pair or as one dense matrix; they are the
brute-force references for the potentials and for ``check_psd``.
"""

import numpy as np

from crossfv import Extension
from crossfv.kernels import _fft_apply, _spectrum


def direct_circular(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    g = np.zeros_like(f)
    axes = tuple(range(f.ndim))
    for delta in np.ndindex(w.shape):
        g += w[delta] * np.roll(f, shift=delta, axis=axes)
    return g


def direct_linear(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    shape = f.shape
    g = np.zeros_like(f)
    for off in np.ndindex(w.shape):
        wv = w[off]
        if wv == 0.0:
            continue
        src, dst = [], []
        for axis, o in enumerate(off):
            delta = o - (shape[axis] - 1)
            if delta >= 0:
                dst.append(slice(delta, shape[axis]))
                src.append(slice(0, shape[axis] - delta))
            else:
                dst.append(slice(0, shape[axis] + delta))
                src.append(slice(-delta, shape[axis]))
        g[tuple(dst)] += wv * f[tuple(src)]
    return g


def direct_convolve(w, f, mesh, extension=Extension.PERIODIC_WRAP) -> np.ndarray:
    """Oracle for ``convolve``: g_K = sum_J m(J) * w[K - J] * f_J."""
    f = np.asarray(f, dtype=float)
    if Extension(extension) is Extension.PERIODIC_WRAP:
        return mesh.cell_measure * direct_circular(w, f)
    return mesh.cell_measure * direct_linear(w, f)


def direct_potentials(kernel, fields) -> np.ndarray:
    """Oracle for ``DiscreteKernel.potentials``: p_i = sum_j m(J) * (w_ij conv f_j)."""
    fields = np.asarray(fields, dtype=float)
    out = np.zeros_like(fields)
    for i in range(kernel.n_species):
        for j in range(kernel.n_species):
            out[i] += direct_convolve(kernel.tables[i, j], fields[j], kernel.mesh, kernel.extension)
    return out


def convolve(w, f, mesh, extension=Extension.PERIODIC_WRAP) -> np.ndarray:
    """g_K = sum_J m(J) * w[K - J] * f_J by the package FFT on any cell count.

    Circulant on the torus; signed-offset (whole-space) tables are embedded
    in a zero-padded 2M circulant and the result is cropped to the mesh.
    """
    f = np.asarray(f, dtype=float)
    extension = Extension(extension)
    spectrum = _spectrum(w, mesh.shape, extension)
    return mesh.cell_measure * _fft_apply(spectrum[None, None], f[None], extension)[0]


def kernel_value(kernel, i, j, cell_k, cell_j) -> float:
    """W_KJ^{ij} for explicit cell pairs."""
    k = np.asarray(cell_k, dtype=int)
    jj = np.asarray(cell_j, dtype=int)
    m = np.asarray(kernel.mesh.shape, dtype=int)
    if kernel.extension is Extension.PERIODIC_WRAP:
        delta = tuple((k - jj) % m)
    else:
        delta = tuple((k - jj) + (m - 1))
    return float(kernel.tables[(i, j) + delta])


def quadratic_form(kernel, fields) -> float:
    """sum_ij sum_KJ m(K) m(J) W_KJ^{ij} v_i,K v_j,J through the potentials."""
    fields = np.asarray(fields, dtype=float)
    pots = kernel.potentials(fields)
    return float(kernel.mesh.cell_measure * np.sum(fields * pots))


def dense_form_eigenvalues(kernel) -> np.ndarray:
    """Eigenvalues of m(K) W as one dense (n N)^2 matrix: O((n N)^3), small meshes only."""
    n = kernel.n_species
    mesh = kernel.mesh
    size = n * mesh.n_cells
    big = np.empty((size, size))
    multi = np.array(np.unravel_index(np.arange(mesh.n_cells), mesh.shape))  # (d, N)
    if kernel.extension is Extension.PERIODIC_WRAP:
        diff = tuple(
            np.subtract.outer(multi[ax], multi[ax]) % mesh.shape[ax] for ax in range(mesh.dim)
        )
    else:
        diff = tuple(
            np.subtract.outer(multi[ax], multi[ax]) + (mesh.shape[ax] - 1)
            for ax in range(mesh.dim)
        )
    for i in range(n):
        for j in range(n):
            big[
                i * mesh.n_cells : (i + 1) * mesh.n_cells,
                j * mesh.n_cells : (j + 1) * mesh.n_cells,
            ] = kernel.tables[i, j][diff]
    big *= mesh.cell_measure
    return np.linalg.eigvalsh(0.5 * (big + big.T))
