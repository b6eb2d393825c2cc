"""Iterative solvers for the per-species transport systems.

The assembled matrices are M-matrices that are strictly diagonally dominant
by columns. Jacobi-scaled BiCGStab is the solver and converges quickly.
When round-off drives its result below zero, `jacobi_positive_polish`
repairs it: Jacobi sweeps from a clipped start are guaranteed to converge
and keep every iterate nonnegative. All stopping tests use the max norm of
the true residual, which is what the mass-conservation and positivity
contracts are stated in.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailure


def bicgstab(matrix, rhs: np.ndarray, x0: np.ndarray | None, atol: float, max_iter: int):
    """Jacobi-scaled BiCGStab; stops when ||rhs - A x||_inf <= atol.

    Returns (solution, residual_history). Raises SolverFailure when the
    iteration budget runs out or the recurrence breaks down irrecoverably.
    """
    diag = np.asarray(matrix.diagonal())
    inv_d = 1.0 / diag
    # Row-scaled system: (D^-1 A) x = D^-1 b. The recursive residual of the
    # scaled system maps back exactly via multiplication by D.
    b = rhs * inv_d

    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r = b - inv_d * (matrix @ x)
    history = [float(np.abs(diag * r).max())]
    if history[-1] <= atol:
        return x, history
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)
    for _ in range(max_iter):
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
                return x, history
            r = (rhs - matrix @ x) * inv_d
            r0 = r.copy()
            rho = alpha = omega = 1.0
            v[:] = 0.0
            p[:] = 0.0
    raise SolverFailure(
        f"BiCGStab exhausted {max_iter} iterations (residual {history[-1]:.3e}, "
        f"target {atol:.3e})",
        residual_history=history,
    )


def jacobi_positive_polish(matrix, rhs, x, atol, max_iter=2000):
    """Vectorized Jacobi sweeps from a clipped nonnegative start.

    With nonpositive off-diagonal entries and a nonnegative right-hand side,
    every sweep maps nonnegative vectors to nonnegative vectors, so the
    result converges to the (positive) solution without undershooting zero.
    """
    diag = np.asarray(matrix.diagonal())
    x = np.maximum(x, 0.0)
    history = []
    for _ in range(max_iter):
        res = rhs - matrix @ x
        history.append(float(np.abs(res).max()))
        if history[-1] <= atol:
            return x, history
        x = np.maximum(x + res / diag, 0.0)
    raise SolverFailure(
        f"positivity polish stalled (residual {history[-1]:.3e}, target {atol:.3e})",
        residual_history=history,
    )
