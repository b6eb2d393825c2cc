"""Reference computations the package is tested against.

Kernels: the direct sums return sum_J w[K - J] * f_J without the cell
measure, by an O(M^2) loop over table offsets: on the torus the offset is
taken modulo the cell count; for whole-space (signed-offset) tables sources
outside the mesh are dropped. ``convolve`` applies one offset table through
the package's FFT path. The pair (i, j) table is ``alpha_ij * kernel.table``;
``direct_potentials``, ``kernel_value``, ``quadratic_form`` and
``dense_form_eigenvalues`` read it pair by pair, cell pair by cell pair or
as one dense matrix; they are the brute-force references for the
potentials and for ``check_psd``; ``toeplitz_eigenvalues`` is the dense
eigensolve of one whole-space factor matrix. ``axis_table`` builds a
kernel's per-axis factor one offset and one image at a time, the reference
for ``discretize``'s array pass; ``gaussian_tent_average`` is the exact
cell-pair average of the Gaussian, in 40-digit arithmetic, the reference
for the rule itself.

Weights: ``eval_B`` evaluates a weight B(s) itself on finite s >= 0, as the
package's scaled weight kappa * B(s / kappa) at kappa = 1; the weight
properties are stated for B.

Flux: ``bernoulli_signed`` is B(s) = s/(e^s - 1) on the whole real line,
so the flux can be checked against its two-sided Scharfetter-Gummel form.
``edges``, ``neighbor`` and ``edge_cells`` walk the mesh edge by
edge, an edge being a plain ``(owner cell, positive 1-based axis)`` tuple.
``edge_flux``, ``axis_fluxes``, ``flux_divergence`` and ``scheme_residual``
evaluate the scheme's flux outside the stencil that ``assemble`` builds.
``system_matrix`` turns one system of that stencil into a CSR matrix by
walking the mesh cell by cell, and ``assembled_fluxes`` reads the flux back
off that matrix.

Solves: ``bicgstab_polished`` runs BiCGStab and the positivity polish of
``solve_linear``'s dim >= 2 path on any matrix, so that the iterative path
stays covered on 1D meshes, whose systems ``solve_linear`` solves directly;
``csr_polish`` is that polish with the CSR matvec.

Entropies: ``entropy_rao``, ``fisher_information`` and ``verify_step``
compute from scratch what ``build_report`` reads off the carried
``State.p`` and ``State.h_b``: ``verify_step`` convolves both states afresh
and couples those potentials by the scheme's rule ``coupled``.

Steps: ``plain_picard_advance`` is ``scheme.advance`` without Anderson
mixing: every iterate is the last sweep's solve. It takes and returns what
``advance`` does, so a test can run it in ``run``'s place.
``anderson_iterate`` is the type-II Anderson iterate of a sweep history by
a dense least-squares solve, the reference for ``scheme._Anderson``.
"""

import dataclasses

import mpmath
import numpy as np
import scipy.sparse as sp

from crossfv import (
    Extension, SolverFailure, State, StepFailure, UsageError, assemble, entropy_boltzmann,
    linsolve, productions, solve_linear,
)
from crossfv.diagnostics import _rao, _verdicts, build_report
from crossfv.kernels import TopHat, _fft_apply, _spectrum
from crossfv.mesh import axis_difference
from crossfv.scheme import _START_ORDER, coupled, picard_start
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


def toeplitz_eigenvalues(factor) -> np.ndarray:
    """Eigenvalues of the dense M x M matrix T_ij = factor[i - j + M - 1], ascending."""
    m = (factor.size + 1) // 2
    idx = np.arange(m)
    return np.linalg.eigvalsh(factor[np.subtract.outer(idx, idx) + (m - 1)])


def axis_table(shape, mesh, axis, extension) -> np.ndarray:
    """Oracle for the axis factors of ``discretize``, one offset and one image at a time.

    The tent (dx - |t|), |t| <= dx, is clipped to the band |c + t| <= B (B =
    R, or 8.6 eps for the Gaussian) and, on the torus, summed over the
    images within B + dx. A Gaussian image whose band covers the tent at
    every offset is sampled on the fixed nodes of [-dx, 0] and [0, dx]; any
    other is sampled on its clipped sides, split at t = 0.
    """
    m = mesh.shape[axis]
    dx = mesh.dx[axis]
    length = mesh.spec.extents[axis][1] - mesh.spec.extents[axis][0]
    periodic = Extension(extension) is Extension.PERIODIC_WRAP
    half = m // 2 if periodic else m - 1
    band = shape.radius if isinstance(shape, TopHat) else 8.6 * shape.eps
    n_img = max(1, int(np.ceil((band + dx) / length))) if periodic else 0
    images = np.arange(-n_img, n_img + 1) * length

    if isinstance(shape, TopHat):

        def avg(c: float) -> float:
            return sum(_tophat_average(c + img, shape.radius, dx) for img in images)

    else:
        eps = shape.eps
        x, w = np.polynomial.legendre.leggauss(8)
        n = int(np.ceil(min(dx, 2.0 * band) / eps))
        frac = ((np.arange(n)[:, None] + 0.5 * (x + 1.0)) / n).ravel()
        wfrac = np.tile(0.5 * w / n, n)

        def sides(lo: float, kink: float, hi: float) -> tuple:
            t, wt = [], []
            for a, b in ((lo, kink), (kink, hi)):
                t.append(a + (b - a) * frac)
                wt.append((b - a) * wfrac * (dx - np.abs(t[-1])))
            return np.concatenate(t), np.concatenate(wt)

        t_full, w_full = sides(-dx, 0.0, dx)

        def avg(c: float) -> float:
            acc, clipped = 0.0, 0.0
            for img in images:
                if img - dx >= -band and img + half * dx + dx <= band:
                    acc = acc + np.exp(-0.5 * np.square((c + t_full) / eps + img / eps))
                    continue
                shift = c + img
                lo = max(-dx, -band - shift)
                hi = max(min(dx, band - shift), lo)
                if hi > lo:
                    t, wt = sides(lo, min(max(0.0, lo), hi), hi)
                    clipped += np.sum(wt * np.exp(-0.5 * np.square((shift + t) / eps)))
            return (np.sum(acc * w_full) + clipped) / (dx * dx)

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


def gaussian_tent_average(offset: float, eps: float, dx: float, length=None) -> float:
    """(1/dx^2) * int_{-dx}^{dx} (dx - |t|) w(offset + t) dt for the unit Gaussian factor.

    The factor is exp(-z^2 / (2 eps^2)), without its normalization, the
    entry of ``discretize``'s axis factor at that offset. Each side of the
    tent is integrated in closed form by erf in 40-digit arithmetic; with a
    ``length`` the images offset + k * length are summed until they are
    below 1e-30 of the peak.
    """
    with mpmath.workdps(40):
        c, eps, dx = mpmath.mpf(offset), mpmath.mpf(eps), mpmath.mpf(dx)
        root2 = mpmath.sqrt(2) * eps

        def primitive(z, a, b):
            """An antiderivative of (a + b z) exp(-z^2 / (2 eps^2)) in z."""
            return (a * eps * mpmath.sqrt(mpmath.pi / 2) * mpmath.erf(z / root2)
                    - b * eps**2 * mpmath.exp(-((z / root2) ** 2)))

        reach = 0 if length is None else int(mpmath.ceil((12 * eps + dx) / length)) + 1
        total = mpmath.mpf(0)
        for k in range(-reach, reach + 1):
            s = c + k * mpmath.mpf(0 if length is None else length)
            # With z = s + t the tent weight is dx - s + z on t <= 0 and dx + s - z on t >= 0.
            total += primitive(s, dx - s, 1) - primitive(s - dx, dx - s, 1)
            total += primitive(s + dx, dx + s, -1) - primitive(s, dx + s, -1)
        return float(total / dx**2)


def _tophat_average(c: float, radius: float, dx: float) -> float:
    """(1/dx^2) * int over two cells of 1{|c + x - y| <= R}, by the tent (dx - |t|)."""
    lo = max(-dx, -radius - c)
    hi = min(dx, radius - c)
    if hi <= lo:
        return 0.0

    def tent_antideriv(t: float) -> float:
        return dx * t - np.sign(t) * t * t / 2.0

    return (tent_antideriv(hi) - tent_antideriv(lo)) / (dx * dx)


def eval_B(kind, s):
    """The weight B(s) at finite s >= 0, in (0, 1]: the scaled weight at kappa = 1."""
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise UsageError("weight argument must be finite and nonnegative")
    return eval_B_kappa(kind, 1.0, arr)


def bernoulli_signed(s):
    """Bernoulli function s/(e^s - 1) on the whole real line.

    Stable across the full range: Taylor series near 0, exponential rewrite
    for large s (no overflow, correct underflow).
    """
    s = np.asarray(s, dtype=float)
    small = np.abs(s) < 1e-5
    big = s > 30.0
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


def system_matrix(system, index=()) -> sp.csr_matrix:
    """The system at `index` of a stack as a CSR matrix, read off its stencil cell by cell.

    Row K lists K, then K+e and K-e for each axis, with the stencil slot of
    each, in slot order; the neighbors are found by walking the mesh
    (``neighbor``). On a 2-cell axis K+e and K-e are one cell, so the row
    holds that column twice; CSR products, ``toarray`` and ``sum`` add the
    two entries.
    """
    mesh = system.mesh
    stencil = system.stencil[index]
    data, cols = [], []
    for cell in np.ndindex(mesh.shape):
        neighbors = [cell]
        for axis in range(1, mesh.dim + 1):
            neighbors += [neighbor(mesh, cell, axis), neighbor(mesh, cell, -axis)]
        for slot, col in enumerate(neighbors):
            data.append(stencil[cell + (slot,)])
            cols.append(np.ravel_multi_index(col, mesh.shape))
    width = 2 * mesh.dim + 1
    indptr = np.arange(0, width * mesh.n_cells + 1, width)
    n = mesh.n_cells
    return sp.csr_matrix((np.array(data), np.array(cols), indptr), shape=(n, n))


def assembled_fluxes(system, u) -> list:
    """Owner-side fluxes read off A: F_{K,K+e} = A[K,K+e] u_{K+e} - A[K+e,K] u_K.

    Exact on axes of at least 3 cells; on a 2-cell axis the K+e and K-e
    entries of a row fall on one column.
    """
    mesh = system.mesh
    a = system_matrix(system).toarray()
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
    x, _ = linsolve.bicgstab(matrix, matrix.diagonal(), rhs, None, target)
    return csr_polish(matrix, rhs, x, target)


def csr_polish(matrix, rhs, x, target):
    """The positivity polish of ``solve_linear`` from `x`, with the CSR matvec."""
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
    p = coupled(kernel.potentials(curr.u), kernel.potentials(prev.u), cfg.coupling)
    return _verdicts(
        productions(curr, p, cfg),
        (entropy_boltzmann(prev), entropy_rao(prev, kernel)),
        (entropy_boltzmann(curr), entropy_rao(curr, kernel)),
        cfg,
        psd_ok,
    )


def plain_picard_advance(state, kernel, cfg, psd_ok=None, compute_diagnostics=True):
    """One implicit Euler step by plain Picard sweeps, from the start ``advance`` takes."""
    u_n = state.u
    p_n = kernel.potentials(u_n) if state.p is None else state.p
    u_iter, w_iter = picard_start(u_n, p_n, state.levels)
    p = coupled(w_iter, p_n, cfg.coupling)
    errors, residual, clamped, linear_iters = [], 0.0, 0, 0
    while True:
        system = assemble(u_n, p, cfg, state.mesh)
        try:
            u_new, info = solve_linear(system, cfg, x0=u_iter.reshape(system.rhs.shape))
        except SolverFailure as exc:
            raise StepFailure(str(exc), error_history=errors) from exc
        residual = max(residual, info.residual)
        clamped += info.clamped
        linear_iters += info.iterations
        errors.append(float(np.abs(u_new - u_iter).max()))
        u_iter = u_new
        if errors[-1] <= cfg.picard_tol:
            break
        if len(errors) == cfg.picard_max_iter:
            raise StepFailure("Picard budget exhausted", error_history=errors)
        p = coupled(kernel.potentials(u_iter), p_n, cfg.coupling)
    kept = _START_ORDER if state.mesh.dim == 1 else 1
    new_state = State(
        k=state.k + 1, u=u_iter, mesh=state.mesh, p=kernel.potentials(u_iter),
        levels=((u_n, p_n),) + state.levels[: kept - 1],
    )
    report = build_report(
        prev=dataclasses.replace(state, p=p_n), curr=new_state, cfg=cfg, picard_errors=errors,
        linear_residual=residual, clamped=clamped, psd_ok=psd_ok, full=compute_diagnostics,
        linear_iters=linear_iters,
    )
    if compute_diagnostics:
        new_state.h_b = report.h_boltzmann
    return new_state, report


def anderson_iterate(gs: list, fs: list, depth: int = 3) -> np.ndarray:
    """g - dG gamma with gamma = argmin ||f - dF gamma||_2, from the last depth + 1 sweeps.

    `gs` and `fs` hold every sweep's map value and residual, oldest first;
    the columns of dF and dG are the differences of consecutive entries.
    With one sweep there is no column and the iterate is g itself.
    """
    g, f = gs[-1].ravel(), fs[-1].ravel()
    if len(gs) == 1:
        return gs[-1]
    d_g = np.diff([x.ravel() for x in gs[-depth - 1:]], axis=0).T
    d_f = np.diff([x.ravel() for x in fs[-depth - 1:]], axis=0).T
    gamma = np.linalg.lstsq(d_f, f, rcond=None)[0]
    return (g - d_g @ gamma).reshape(gs[-1].shape)
