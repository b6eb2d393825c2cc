"""Implicit Euler finite-volume scheme with the generalized upwind flux.

The flux F = -tau * (B_kappa(|Dp|) * Du + u_upwind * Dp) exists only as the
stencil slots of `assemble`. Each time step freezes the nonlocal potential,
solves one decoupled linear transport system per species (an M-matrix solve
that preserves positivity and mass exactly up to the linear tolerance) and
iterates the potential to a fixed point. On the 1D torus the system is
periodic tridiagonal and is solved directly from its slots; for dim >= 2
BiCGStab runs on the CSR matrix built from them. Each accepted state
carries its own potential p = W*u, computed once and read by the next step
and by the diagnostics, and after a full report its Boltzmann entropy H_B.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
import scipy.sparse as sp

from . import linsolve
from .errors import (
    ConfigurationError, CrossFVError, NumericalStateError, SolverFailure, StepFailure, UsageError
)
from .kernels import DiscreteKernel
from .mesh import Mesh, axis_difference, roll
from .weights import WeightKind, eval_B_kappa

_TINY = float(np.finfo(float).tiny)
MAX_STEPS = 10**7


class Coupling(str, enum.Enum):
    IMPLICIT = "implicit"
    MIDPOINT = "midpoint"


@dataclass
class LinearSolverConfig:
    rel_tol: float = 1e-12
    max_iter: int = 10000

    def __post_init__(self):
        if not self.rel_tol > 0 or self.max_iter < 1:
            raise ConfigurationError("linear solver tolerances must be positive")


@dataclass
class SchemeConfig:
    kappa: float
    dt: float
    t_end: float
    weight: WeightKind = WeightKind.BERNOULLI
    coupling: Coupling = Coupling.IMPLICIT
    picard_tol: float = 1e-10
    picard_max_iter: int = 200
    linear: LinearSolverConfig = dc_field(default_factory=LinearSolverConfig)

    def __post_init__(self):
        self.weight = WeightKind(self.weight)
        self.coupling = Coupling(self.coupling)
        if not 0 < self.kappa < np.inf:
            raise ConfigurationError(f"kappa must be positive and finite, got {self.kappa}")
        if self.dt <= 0 or self.t_end < 0:
            raise ConfigurationError("time step and end time must be positive")
        steps = self.t_end / self.dt
        if steps > MAX_STEPS + 0.5:  # round(steps) > MAX_STEPS, without overflow on inf
            raise ConfigurationError(f"step budget exceeded: {steps:.0f} steps > {MAX_STEPS}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ConfigurationError(
                f"time step {self.dt} does not divide end time {self.t_end}"
            )
        if not self.picard_tol > 0 or self.picard_max_iter < 1:
            raise ConfigurationError("Picard tolerances must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class State:
    """Per-species cell averages at one time level and their potential W*u."""

    k: int
    u: np.ndarray  # (n_species, *mesh.shape)
    mesh: Mesh
    p: np.ndarray | None = None  # kernel.potentials(u), set by advance; None until then
    h_b: float | None = None  # entropy_boltzmann(self), set by advance after a full report

    @property
    def n_species(self) -> int:
        return self.u.shape[0]

    def masses(self) -> np.ndarray:
        return self.mesh.cell_measure * self.u.reshape(self.n_species, -1).sum(axis=1)


@dataclass
class LinearSystem:
    """A x = rhs, with A held as its stencil slots on the mesh.

    `slots` are the diagonal, then the +e and -e off-diagonals of each
    axis: row K reads slots[0][K] x[K] + sum over axes of
    slots[2a+1][K] x[K+e_a] + slots[2a+2][K] x[K-e_a].
    """

    slots: tuple
    rhs: np.ndarray
    mesh: Mesh

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """A as one CSR matrix on the cached stencil pattern, built on first access.

        Columns are unsorted. On an axis of 2 cells K+e and K-e are the same
        cell, so a row holds that column twice; CSR products, `diagonal()`,
        `toarray()` and `sum()` all add duplicate entries, so the matrix is
        still the right one.
        """
        indices, indptr = _csr_pattern(self.mesh)
        data = np.stack(self.slots, axis=-1).ravel()
        n = self.mesh.n_cells
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))


@dataclass
class SolveInfo:
    residual: float
    iterations: int
    clamped: int


@functools.lru_cache(maxsize=32)
def _csr_pattern(mesh: Mesh) -> tuple:
    """Column indices and row pointers of the (2d+1)-point periodic stencil.

    Row K lists K, then K+e and K-e for each axis, in the slot order of
    `assemble`; columns are left unsorted. Both arrays are int32 so the
    CSR constructor takes them without a copy, and read-only because every
    assembled matrix shares them: scipy's in-place `sort_indices` and
    `sum_duplicates` (called by `tolil` and `spsolve`) raise on them
    instead of reordering the cached pattern. Copy the matrix first.
    """
    idx = np.arange(mesh.n_cells, dtype=np.int32).reshape(mesh.shape)
    cols = [idx]
    for axis in range(mesh.dim):
        cols += [np.roll(idx, -1, axis=axis), np.roll(idx, 1, axis=axis)]
    width = 2 * mesh.dim + 1
    indices = np.stack(cols, axis=-1).ravel()
    indptr = np.arange(0, width * mesh.n_cells + 1, width, dtype=np.int32)
    indices.setflags(write=False)
    indptr.setflags(write=False)
    return indices, indptr


def assemble(u_prev_i: np.ndarray, p_i: np.ndarray, cfg: SchemeConfig, mesh: Mesh) -> LinearSystem:
    """Per-species transport system A(p) x = S(u_prev), as stencil slots.

    A has positive diagonal, nonpositive off-diagonal entries and exact
    column sums m(K)/dt, which is what makes the solve mass-conservative
    and inverse-positive. The slots are the only copy of the flux in the
    package; the CSR matrix is built from them only where BiCGStab needs
    it (dim >= 2).
    """
    u_prev_i = np.asarray(u_prev_i, dtype=float)
    p_i = np.asarray(p_i, dtype=float)
    if u_prev_i.shape != mesh.shape or p_i.shape != mesh.shape:
        raise UsageError("field shapes must match the mesh")
    if np.any(u_prev_i < 0) or not np.any(u_prev_i > 0):
        raise ConfigurationError(
            "previous density must be nonnegative with at least one positive cell"
        )
    if not np.all(np.isfinite(p_i)):
        raise NumericalStateError("potential must be finite")

    m_over_dt = mesh.cell_measure / cfg.dt
    diag = np.full(mesh.shape, m_over_dt)
    slots = [diag]
    for axis in range(mesh.dim):
        dp = axis_difference(p_i, axis)
        bk = eval_B_kappa(cfg.weight, cfg.kappa, np.abs(dp))
        tau = mesh.tau(axis)
        g_plus = tau * (bk + np.maximum(dp, 0.0))
        g_minus = tau * (bk + np.maximum(-dp, 0.0))
        diag += g_minus + roll(g_plus, 1, axis)
        slots += [-g_plus, -roll(g_minus, 1, axis)]
    rhs = m_over_dt * u_prev_i.ravel()
    return LinearSystem(slots=tuple(slots), rhs=rhs, mesh=mesh)


def _stencil_apply(slots: tuple, x: np.ndarray) -> np.ndarray:
    """A x for the three-term periodic stencil of a 1D system."""
    diag, upper, lower = slots
    y = diag * x
    y[:-1] += upper[:-1] * x[1:]
    y[-1] += upper[-1] * x[0]
    y[1:] += lower[1:] * x[:-1]
    y[0] += lower[0] * x[-1]
    return y


def _solve_direct(system: LinearSystem, target: float) -> tuple:
    """Direct periodic tridiagonal solve with at most one correction step.

    Returns (solution, residual_history); raises SolverFailure when the
    corrected residual still misses the target.
    """
    diag, upper, lower = system.slots
    x = linsolve.cyclic_tridiagonal(diag, upper, lower, system.rhs)
    res = system.rhs - _stencil_apply(system.slots, x)
    history = [float(np.abs(res).max())]
    if history[-1] > target:
        x = x + linsolve.cyclic_tridiagonal(diag, upper, lower, res)
        history.append(float(np.abs(system.rhs - _stencil_apply(system.slots, x)).max()))
        if history[-1] > target:
            raise SolverFailure(
                f"direct solve missed its target after one correction (residual "
                f"{history[-1]:.3e}, target {target:.3e})",
                residual_history=history,
            )
    return x, history


def solve_linear(
    system: LinearSystem, cfg: SchemeConfig, x0: np.ndarray | None = None
) -> tuple:
    """Solve A u = S to ||residual||_inf <= rel_tol * ||S||_inf, positively.

    In 1D the periodic tridiagonal system is solved directly and no matrix
    is built (`x0` is unused); at most one correction step with the same
    solve is taken. For dim >= 2 Jacobi-scaled BiCGStab runs on the CSR
    matrix from `x0`. The exact solution is strictly positive
    (inverse-positive M-matrix); entries driven negative or to zero by
    roundoff within 1e-15 * max(u) are clamped to the smallest positive
    normal float and counted. Larger undershoots trigger a
    positivity-preserving Jacobi polish, whose iterates are nonnegative by
    construction.
    """
    target = cfg.linear.rel_tol * max(float(np.abs(system.rhs).max()), _TINY)
    if system.mesh.dim == 1:
        x, history = _solve_direct(system, target)
    else:
        x, history = linsolve.bicgstab(system.matrix, system.rhs, x0, target, cfg.linear.max_iter)
    if np.any(x < -1e-15 * max(float(x.max()), _TINY)):
        if system.mesh.dim == 1:
            apply = functools.partial(_stencil_apply, system.slots)
        else:
            apply = system.matrix.__matmul__
        diag = system.slots[0].ravel()
        x, polish_hist = linsolve.jacobi_positive_polish(apply, diag, system.rhs, x, target)
        history = history + polish_hist
    nonpos = x <= 0.0
    clamped = int(np.count_nonzero(nonpos))
    if clamped:
        x = np.where(nonpos, _TINY, x)
    info = SolveInfo(residual=history[-1], iterations=len(history) - 1, clamped=clamped)
    return x.reshape(system.mesh.shape), info


def coupling_potential(
    kernel: DiscreteKernel, curr: np.ndarray, prev: np.ndarray, coupling: Coupling
) -> np.ndarray:
    """Potential at curr (implicit) or at the mean of curr and prev (mid-point)."""
    if np.shape(curr) != np.shape(prev):
        raise UsageError("current and previous fields must have matching shapes")
    if coupling is Coupling.IMPLICIT:
        return kernel.potentials(curr)
    return kernel.potentials(0.5 * (np.asarray(curr, dtype=float) + prev))


def advance(
    state: State,
    kernel: DiscreteKernel,
    cfg: SchemeConfig,
    psd_ok: bool | None = None,
    compute_diagnostics: bool = True,
):
    """One implicit Euler step via Picard iteration on the potential.

    The first sweep uses `state.p` (both couplings at u = u_prev); each
    later one rebuilds the coupling potential from the latest iterate, and
    the step is accepted once consecutive iterates agree in the max norm.
    s sweeps cost s convolutions, the last for the new state's `p` (one
    more when `state.p` is None; `state` itself is never modified). A full
    report's H_B of the new state is kept as its `h_b`.
    Returns the new state and its step report. An exhausted Picard budget
    or a failed linear solve raises StepFailure with the Picard errors so
    far and the failed solve's residual history.
    """
    from . import diagnostics  # local import to keep module deps acyclic

    mesh = state.mesh
    u_prev = state.u
    p_prev = kernel.potentials(u_prev) if state.p is None else state.p
    u_iter, p = u_prev, p_prev
    errors = []
    residual = 0.0
    clamped = 0
    linear_iters = 0
    while True:
        u_new = np.empty_like(u_iter)
        for i in range(state.n_species):
            system = assemble(u_prev[i], p[i], cfg, mesh)
            try:
                u_new[i], info = solve_linear(system, cfg, x0=u_iter[i].ravel())
            except SolverFailure as exc:
                raise StepFailure(
                    str(exc), error_history=errors, residual_history=exc.residual_history
                ) from exc
            residual = max(residual, info.residual)
            clamped += info.clamped
            linear_iters += info.iterations
        err = float(np.abs(u_new - u_iter).max())
        errors.append(err)
        u_iter = u_new
        if err <= cfg.picard_tol:
            break
        if len(errors) == cfg.picard_max_iter:
            raise StepFailure(
                f"Picard iteration did not converge within {cfg.picard_max_iter} "
                f"sweeps (last error {err:.3e}, tol {cfg.picard_tol:.3e})",
                error_history=errors,
            )
        p = coupling_potential(kernel, u_iter, u_prev, cfg.coupling)
    new_state = State(k=state.k + 1, u=u_iter, mesh=mesh, p=kernel.potentials(u_iter))
    report = diagnostics.build_report(
        prev=replace(state, p=p_prev),
        curr=new_state,
        kernel=kernel,
        cfg=cfg,
        picard_iters=len(errors),
        picard_errors=errors,
        linear_residual=residual,
        clamped=clamped,
        psd_ok=psd_ok,
        full=compute_diagnostics,
        linear_iters=linear_iters,
    )
    if compute_diagnostics:
        new_state.h_b = report.h_boltzmann
    return new_state, report


@dataclass
class RunSummary:
    final_state: State
    reports: list
    initial_masses: np.ndarray
    max_mass_drift: float
    min_density: float
    n_steps: int


def run(
    cfg: SchemeConfig,
    initial: State,
    kernel: DiscreteKernel,
    observers: tuple = (),
    diagnostics_every: int = 1,
    psd_ok: bool | None = None,
) -> RunSummary:
    """Advance N = round(t_end/dt) steps, invoking observers per step.

    Any solver error in a step is raised as a StepFailure with its index.
    """
    n_steps = cfg.n_steps
    state = initial
    reports = []
    masses0 = initial.masses()
    mass_scale = np.maximum(np.abs(masses0), _TINY)
    max_drift = 0.0
    min_density = float(initial.u.min()) if initial.u.size else np.inf
    for k in range(1, n_steps + 1):
        full = diagnostics_every > 0 and (k % diagnostics_every == 0 or k == n_steps)
        try:
            state, report = advance(state, kernel, cfg, psd_ok, compute_diagnostics=full)
        except CrossFVError as exc:  # a StepFailure from advance carries its histories
            raise StepFailure(
                f"step {k}/{n_steps} failed: {exc}", step_index=k,
                error_history=getattr(exc, "error_history", None),
                residual_history=getattr(exc, "residual_history", None),
            ) from exc
        drift = float(np.max(np.abs(state.masses() - masses0) / mass_scale))
        max_drift = max(max_drift, drift)
        min_density = min(min_density, float(state.u.min()))
        reports.append(report)
        for obs in observers:
            obs(state, report)
    return RunSummary(
        final_state=state,
        reports=reports,
        initial_masses=masses0,
        max_mass_drift=max_drift,
        min_density=min_density,
        n_steps=n_steps,
    )
