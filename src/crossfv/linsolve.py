"""Solvers for the per-species transport systems.

The assembled systems are M-matrices, strictly diagonally dominant by
columns. On the 1D torus they are periodic tridiagonal and
`cyclic_tridiagonal` solves every species' system in one direct call from
the stencil slots, in numpy only; for dim >= 2 Jacobi-scaled BiCGStab is
the solver, one system at a time, on a matrix and its diagonal slot. When
round-off drives a result below zero, `jacobi_positive_polish` repairs it
on any matvec: Jacobi sweeps from a clipped start converge and keep every
iterate nonnegative. All stopping tests use the max norm of the true
residual, which is what the mass-conservation and positivity contracts are
stated in.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailure

_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
# The iteration budget of one BiCGStab solve, far above what any recipe's solves take.
BICGSTAB_MAX_ITER = 10_000


def _chain_pcr(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Parallel cyclic reduction of open tridiagonal chains of n rows, stacked on leading axes.

    Row i of a chain reads sub[..., i-1] x[i-1] + diag[..., i] x[i] +
    sup[..., i] x[i+1] = rhs[:, ..., i] (`sub` and `sup` have n-1 entries;
    `rhs` holds one right-hand side per row of its first axis). Each level
    eliminates the neighbors at distance s from every row at once, leaving
    couplings at distance 2s; after ceil(log2 n) levels every row stands
    alone. The couplings left shrink relative to the diagonal, at least
    quadratically once the rows are dominant (Heller, SIAM J. Numer. Anal.
    13, 1976). Before each level rho = 2 max(-sub, -sup) / diag over all
    rows bounds their row sums over the diagonal (for an M-matrix), and
    the reduction stops once rho is below the unit round-off: dropping the
    couplings then moves x by at most that fraction of max |x|, chain by
    chain. The chains of the stack lie end to end, so each level is one
    pass over all of them: the end rows of a chain have no coupling across
    it, and by induction no row ever gains one. They sit between two
    margins of n decoupled identity rows, in two buffers (read one, write
    the other), so the shifted views need no bounds. The buffers hold the
    negated off-diagonals: for an M-matrix they stay nonnegative, and a
    nonnegative right-hand side stays nonnegative because it is only ever
    increased by products of nonnegative numbers.
    """
    n = diag.shape[-1]
    size = diag.size
    cur, nxt = np.zeros((2, rhs.shape[0] + 3, size + 2 * n))  # rows: -sub, -sup, diag, rhs...
    cur[2] = nxt[2] = 1.0
    mid = cur[:, n : n + size]
    np.negative(sub, out=mid[0].reshape(diag.shape)[..., 1:])
    np.negative(sup, out=mid[1].reshape(diag.shape)[..., :-1])
    mid[2] = diag.reshape(size)
    mid[3:] = rhs.reshape(rhs.shape[0], size)
    s = 1
    while s < n and 2.0 * float((mid[:2] / mid[2]).max()) > _UNIT_ROUNDOFF:
        lo = cur[:, n - s : n - s + size]
        hi = cur[:, n + s : n + s + size]
        new = nxt[:, n : n + size]
        left = mid[0] / lo[2]
        right = mid[1] / hi[2]
        np.multiply(left, lo[0], out=new[0])
        np.multiply(right, hi[1], out=new[1])
        np.subtract(mid[2], left * lo[1], out=new[2])
        new[2] -= right * hi[0]
        np.add(mid[3:], left * lo[3:], out=new[3:])
        new[3:] += right * hi[3:]
        cur, nxt, mid = nxt, cur, new
        s *= 2
    return (mid[3:] / mid[2]).reshape(rhs.shape)


def cyclic_tridiagonal(
    diag: np.ndarray, upper: np.ndarray, lower: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Direct solve of periodic tridiagonal systems of M >= 2 rows, stacked on leading axes.

    Row K reads lower[K] x[K-1] + diag[K] x[K] + upper[K] x[K+1] = rhs[K],
    indices mod M, along the last axis of every argument; any leading axes
    (the species) index independent systems, all solved in one reduction.
    For M = 2 both neighbors are one cell and its two coefficients add.
    Cell 0 is eliminated, which is the rank-one corner correction of the
    cyclic Thomas method (Numerical Recipes §2.7) taken as a border: the
    open chain of cells 1..M-1 is solved for the right-hand side and for
    minus column 0, y and w (indexed by cell), and then x[1:] = y + x[0] w
    with
        x[0] = (rhs[0] - upper[0] y[1] - lower[0] y[M-1])
               / (diag[0] + upper[0] w[1] + lower[0] w[M-1]).
    For an M-matrix with a nonnegative right-hand side y, w and the
    numerator are nonnegative and every sum adds nonnegative terms, so the
    result is nonnegative by construction. Each system is solved for its
    right-hand side scaled by the power of two that brings its maximum
    near 2^512 (or as near as 2^1023 reaches): exact, and it keeps
    densities far below the normal range out of subnormal arithmetic,
    which is slow and loses precision.
    """
    exponent = np.frexp(np.abs(rhs).max(axis=-1, keepdims=True))[1]
    scale = np.ldexp(1.0, np.minimum(512 - exponent, 1023))
    rhs = rhs * scale
    col0 = np.zeros(diag.shape[:-1] + (diag.shape[-1] - 1,))  # minus column 0 below the diagonal
    col0[..., 0] -= lower[..., 1]
    col0[..., -1] -= upper[..., -1]
    y, w = _chain_pcr(
        lower[..., 2:], diag[..., 1:], upper[..., 1:-1], np.stack([rhs[..., 1:], col0])
    )
    x0 = (rhs[..., :1] - upper[..., :1] * y[..., :1] - lower[..., :1] * y[..., -1:]) / (
        diag[..., :1] + upper[..., :1] * w[..., :1] + lower[..., :1] * w[..., -1:]
    )
    return np.concatenate((x0, y + x0 * w), axis=-1) / scale


def bicgstab(matrix, diag, rhs: np.ndarray, x0: np.ndarray | None, atol: float):
    """Jacobi-scaled BiCGStab; stops when ||rhs - A x||_inf <= atol.

    `matrix` is A, read only through `matrix @ x`; `diag` is its diagonal,
    which the caller holds already (slot 0 of a stencil). Returns
    (solution, residual_history). Raises SolverFailure when the
    iteration budget `BICGSTAB_MAX_ITER` runs out or the recurrence
    breaks down irrecoverably.
    Where max |rhs| lies outside [2^-256, 2^256], the inner products can
    underflow or overflow (densities of order 1e-159 stall it), so the
    iteration runs on rhs, x0 and atol scaled by the power of two that
    brings max |rhs| into [1/2, 1), and x and the residual history are
    scaled back. The scaling is exact; a system in that range is solved
    unscaled.
    """
    exponent = int(np.frexp(np.max(np.abs(rhs)))[1])
    scale = 2.0 ** min(max(-exponent, -1022), 1022) if abs(exponent) > 256 else 1.0
    if scale != 1.0:
        rhs, atol = rhs * scale, atol * scale
        x0 = None if x0 is None else x0 * scale

    def unscaled(x, history):
        if scale == 1.0:
            return x, history
        return x / scale, [h / scale for h in history]

    inv_d = 1.0 / diag
    # Row-scaled system: (D^-1 A) x = D^-1 b. The recursive residual of the
    # scaled system maps back exactly via multiplication by D.
    b = rhs * inv_d

    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r = b - inv_d * (matrix @ x)
    history = [float(np.abs(diag * r).max())]
    if history[-1] <= atol:
        return unscaled(x, history)
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)
    for _ in range(BICGSTAB_MAX_ITER):
        rho_new = float(r0 @ r)
        if rho_new == 0.0 or omega == 0.0:
            # Breakdown: restart from the current iterate.
            r = b - inv_d * (matrix @ x)
            r0 = r.copy()
            rho = alpha = omega = 1.0
            v[:] = 0.0
            p[:] = 0.0
            rho_new = float(r0 @ r)
            if rho_new == 0.0:
                break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        v = inv_d * (matrix @ p)
        denom = float(r0 @ v)
        if denom == 0.0:
            omega = 0.0
            continue
        alpha = rho / denom
        s = r - alpha * v
        t = inv_d * (matrix @ s)
        tt = float(t @ t)
        omega = float(t @ s) / tt if tt > 0.0 else 0.0
        x = x + alpha * p + omega * s
        r = s - omega * t
        history.append(float(np.abs(diag * r).max()))
        if history[-1] <= atol:
            # Confirm against the true residual (the recurrence can drift).
            true_res = float(np.abs(rhs - matrix @ x).max())
            history[-1] = true_res
            if true_res <= atol:
                return unscaled(x, history)
            r = (rhs - matrix @ x) * inv_d
            r0 = r.copy()
            rho = alpha = omega = 1.0
            v[:] = 0.0
            p[:] = 0.0
    _, history = unscaled(x, history)
    raise SolverFailure(
        f"BiCGStab exhausted {BICGSTAB_MAX_ITER} iterations (residual {history[-1]:.3e}, "
        f"target {atol / scale:.3e})",
        residual_history=history,
    )


def jacobi_positive_polish(apply, diag, rhs, x, atol, max_iter=2000):
    """Vectorized Jacobi sweeps from a clipped nonnegative start.

    `apply(x)` is the product A x and `diag` the diagonal of A. With
    nonpositive off-diagonal entries and a nonnegative right-hand side,
    every sweep maps nonnegative vectors to nonnegative vectors, so the
    result converges to the (positive) solution without undershooting zero.
    """
    x = np.maximum(x, 0.0)
    history = []
    for _ in range(max_iter):
        res = rhs - apply(x)
        history.append(float(np.abs(res).max()))
        if history[-1] <= atol:
            return x, history
        x = np.maximum(x + res / diag, 0.0)
    raise SolverFailure(
        f"positivity polish stalled (residual {history[-1]:.3e}, target {atol:.3e})",
        residual_history=history,
    )
