"""Reference computations the package is tested against.

Kernels: the direct sums return sum_J w[K - J] * f_J without the cell
measure, by an O(M^2) loop over table offsets: on the torus the offset is
taken modulo the cell count; for whole-space (signed-offset) tables sources
outside the mesh are dropped. ``convolve`` applies one offset table through
the package's FFT path. The pair (i, j) table is ``alpha_ij * kernel.table``;
``direct_potentials``, ``kernel_value``, ``quadratic_form`` and
``dense_form_eigenvalues`` read it pair by pair, cell pair by cell pair or
as one dense matrix; they are the brute-force references for the
potentials and for ``check_psd``.

Flux: ``edges``, ``neighbor`` and ``edge_cells`` walk the mesh edge by
edge, an edge being a plain ``(owner cell, positive 1-based axis)`` tuple.
``edge_flux``, ``axis_fluxes``, ``flux_divergence`` and ``scheme_residual``
evaluate the scheme's flux outside the matrix that ``assemble`` builds, and
``assembled_fluxes`` reads it back off that matrix.

Solves: ``bicgstab_polished`` runs BiCGStab and the positivity polish of
``solve_linear``'s dim >= 2 path on any matrix, so that the iterative path
stays covered on 1D meshes, whose systems ``solve_linear`` solves directly.

Entropies: ``entropy_rao``, ``fisher_information`` and ``verify_step``
compute from scratch what ``build_report`` reads off the carried
``State.p`` and ``State.h_b``.
"""

import numpy as np

from crossfv import Extension, UsageError, entropy_boltzmann, linsolve, productions
from crossfv.diagnostics import _rao, _verdicts
from crossfv.kernels import _fft_apply, _spectrum
from crossfv.mesh import axis_difference
from crossfv.scheme import coupling_potential
from crossfv.weights import eval_B_kappa


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
            w = pair_table(kernel, i, j)
            out[i] += direct_convolve(w, fields[j], kernel.mesh, kernel.extension)
    return out


def convolve(w, f, mesh, extension=Extension.PERIODIC_WRAP) -> np.ndarray:
    """g_K = sum_J m(J) * w[K - J] * f_J by the package FFT on any cell count.

    Circulant on the torus; signed-offset (whole-space) tables are embedded
    in a zero-padded 2M circulant and the result is cropped to the mesh.
    """
    f = np.asarray(f, dtype=float)
    extension = Extension(extension)
    spectrum = _spectrum(w, mesh.shape, extension)
    return mesh.cell_measure * _fft_apply(spectrum, f[None], extension)[0]


def pair_table(kernel, i, j) -> np.ndarray:
    """Offset table of W^{ij} = alpha_ij * w."""
    return kernel.spec.strengths[i, j] * kernel.table


def kernel_value(kernel, i, j, cell_k, cell_j) -> float:
    """W_KJ^{ij} for explicit cell pairs."""
    k = np.asarray(cell_k, dtype=int)
    jj = np.asarray(cell_j, dtype=int)
    m = np.asarray(kernel.mesh.shape, dtype=int)
    if kernel.extension is Extension.PERIODIC_WRAP:
        delta = tuple((k - jj) % m)
    else:
        delta = tuple((k - jj) + (m - 1))
    return float(kernel.spec.strengths[i, j] * kernel.table[delta])


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
            ] = pair_table(kernel, i, j)[diff]
    big *= mesh.cell_measure
    return np.linalg.eigvalsh(0.5 * (big + big.T))


def _as_cell(cell, dim) -> tuple:
    cell = (int(cell),) if np.isscalar(cell) else tuple(int(i) for i in cell)
    if len(cell) != dim:
        raise UsageError(f"cell {cell} does not match mesh dimension {dim}")
    return cell


def neighbor(mesh, cell, signed_axis) -> tuple:
    """Cell one step along a signed 1-based axis, with periodic wrap."""
    if signed_axis == 0 or abs(signed_axis) > mesh.dim:
        raise UsageError(f"signed axis must be in +-1..{mesh.dim}, got {signed_axis}")
    out = list(_as_cell(cell, mesh.dim))
    axis = abs(signed_axis) - 1
    out[axis] = (out[axis] + (1 if signed_axis > 0 else -1)) % mesh.shape[axis]
    return tuple(out)


def edges(mesh):
    """All undirected edges, each exactly once, as (owner cell, +axis)."""
    for cell in np.ndindex(mesh.shape):
        for axis in range(1, mesh.dim + 1):
            yield cell, axis


def edge_cells(mesh, edge) -> tuple:
    """(owner K, neighbor L) cells of an edge."""
    cell, axis = edge
    return _as_cell(cell, mesh.dim), neighbor(mesh, cell, axis)


def edge_flux(mesh, u, p, edge, cfg) -> float:
    """F = -tau * (B_kappa(|Dp|) * Du + u_upwind * Dp) through one edge, seen from its owner.

    The upwind value is the neighbor's when Dp >= 0 (the drift term vanishes
    at the tie); seen from the neighbor the flux is exactly the negation.
    """
    cell_k, cell_l = edge_cells(mesh, edge)
    du = u[cell_l] - u[cell_k]
    dp = p[cell_l] - p[cell_k]
    upwind = u[cell_l] if dp >= 0 else u[cell_k]
    tau = mesh.tau(edge[1] - 1)
    return float(-tau * (eval_B_kappa(cfg.weight, cfg.kappa, abs(dp)) * du + upwind * dp))


def axis_fluxes(mesh, u, p, cfg) -> list:
    """Owner-side fluxes for all edges, one array per axis."""
    out = []
    for axis in range(mesh.dim):
        du = axis_difference(u, axis)
        dp = axis_difference(p, axis)
        upwind = np.where(dp >= 0, np.roll(u, -1, axis=axis), u)
        bk = eval_B_kappa(cfg.weight, cfg.kappa, np.abs(dp))
        out.append(-mesh.tau(axis) * (bk * du + upwind * dp))
    return out


def flux_divergence(mesh, fluxes) -> np.ndarray:
    """sum over edges of K of F_{K,sigma} (the +axis flux minus its shift)."""
    div = np.zeros(mesh.shape)
    for axis, f in enumerate(fluxes):
        div += f - np.roll(f, 1, axis=axis)
    return div


def scheme_residual(mesh, u_prev, u_curr, p, cfg) -> np.ndarray:
    """Per-cell residual of the implicit Euler balance for each species."""
    res = np.empty_like(u_curr)
    for i in range(u_curr.shape[0]):
        div = flux_divergence(mesh, axis_fluxes(mesh, u_curr[i], p[i], cfg))
        res[i] = mesh.cell_measure * (u_curr[i] - u_prev[i]) / cfg.dt + div
    return res


def assembled_fluxes(system, u) -> list:
    """Owner-side fluxes read off A: F_{K,K+e} = A[K,K+e] u_{K+e} - A[K+e,K] u_K.

    Exact on axes of at least 3 cells; on a 2-cell axis the K+e and K-e
    entries of a row fall on one column.
    """
    mesh = system.mesh
    a = system.matrix.toarray()
    idx = np.arange(mesh.n_cells).reshape(mesh.shape)
    out = []
    for axis in range(mesh.dim):
        nxt = np.roll(idx, -1, axis=axis)
        out.append(a[idx, nxt] * np.roll(u, -1, axis=axis) - a[nxt, idx] * u)
    return out


def bicgstab_polished(matrix, rhs, cfg):
    """BiCGStab to the target of `solve_linear`, then the positivity polish.

    Returns (solution, polish residual history); the polish returns at once
    when BiCGStab's iterate is nonnegative and meets the target.
    """
    target = cfg.linear.rel_tol * max(float(np.abs(rhs).max()), float(np.finfo(float).tiny))
    x, _ = linsolve.bicgstab(matrix, rhs, None, target, cfg.linear.max_iter)
    return linsolve.jacobi_positive_polish(matrix.__matmul__, matrix.diagonal(), rhs, x, target)


def entropy_rao(state, kernel) -> float:
    """(1/2) sum_ij sum_KJ m(K) m(J) W_KJ^{ij} u_i,K u_j,J via a fresh convolution."""
    return _rao(state, kernel.potentials(state.u))


def fisher_information(u, mesh) -> float:
    """sum_i sum_sigma tau_sigma |D_sigma sqrt(u)|^2."""
    root = np.sqrt(u)
    total = 0.0
    for axis in range(mesh.dim):
        diff = np.roll(root, -1, axis=axis + 1) - root
        total += mesh.tau(axis) * float(np.sum(diff * diff))
    return total


def verify_step(prev, curr, kernel, cfg, psd_ok=None) -> dict:
    """The verdicts of a full report, from entropies and potentials computed afresh."""
    p = coupling_potential(kernel, curr.u, prev.u, cfg.coupling)
    return _verdicts(
        productions(curr, p, cfg),
        (entropy_boltzmann(prev), entropy_rao(prev, kernel)),
        (entropy_boltzmann(curr), entropy_rao(curr, kernel)),
        cfg,
        psd_ok,
    )
