"""Reference direct sums for the FFT convolution in ``crossfv.kernels``.

Both return sum_J w[K - J] * f_J without the cell measure, by an O(M^2)
loop over table offsets: on the torus the offset is taken modulo the cell
count; for whole-space (signed-offset) tables sources outside the mesh are
dropped.
"""

import numpy as np

from crossfv import Extension


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
    """Oracle for ``crossfv.convolve``: g_K = sum_J m(J) * w[K - J] * f_J."""
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
