"""Implicit Euler finite-volume scheme with the generalized upwind flux.

The flux F = -tau * (B_kappa(|Dp|) * Du + u_upwind * Dp) exists only as
the stencil that `assemble` returns. Each time step freezes the nonlocal
potential, solves the decoupled linear transport systems of all species
(M-matrix solves that preserve positivity and mass exactly up to the
linear tolerance) and iterates the potential to a fixed point. A Picard
sweep is one `assemble` and one `solve_linear` call on the whole species
stack: on the 1D torus the periodic tridiagonal systems are solved
directly from the stencil in one batched reduction; for dim >= 2
BiCGStab runs on each species' CSR matrix, built from its stencil as the
solver's operand and nowhere else. That operand is scipy's only use:
`scipy.sparse` is imported inside `solve_linear`'s dim >= 2 branch (and
loaded ahead by `harness.ExperimentConfig` once a config's mesh has
dim >= 2), so a 1D run never imports scipy. `apply_stencil` is the one
matvec of the residual checks and the positivity polish in every
dimension. Each species keeps its own tolerance, correction step and positivity polish.
Each accepted state carries its own potential p = W*u, computed once and
read by the next step and by the diagnostics, after a full report its
Boltzmann entropy H_B, and the earlier levels' u and p (`levels`), from
which the next step's Picard iteration starts at a polynomial extrapolation
in time (`picard_start`): of order 3 in 1D, where it lets most steps stop
after one sweep, and the linear 2u^n - u^(n-1) for dim >= 2, where the start
is also BiCGStab's initial guess (see `picard_start`). One rule,
`coupled`, forms every coupling potential from potentials alone: W*x at
an iterate x (implicit) or, by linearity of W,
W*((x + u^n)/2) = (W*x + p^n)/2 (mid-point), so a sweep convolves only its
iterate and a step report convolves nothing. One loop runs the sweeps:
each one's map value and residual join a type-II Anderson history
(`_Anderson`) from sweep 1 on, and the iterate that feeds the next
potential is mixed from the last three sweeps, plain with an empty history
(sweep 1's, or after a growing Picard error dropped it); the accepted state
is always a raw M-matrix solve (see `advance`).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import linsolve
from .errors import (
    ConfigurationError, CrossFVError, NumericalStateError, SolverFailure, StepFailure, UsageError,
    _integer, _real,
)
from .kernels import DiscreteKernel
from .mesh import Mesh, axis_difference, roll
from .weights import WeightKind, eval_B_kappa

_TINY = float(np.finfo(float).tiny)
MAX_STEPS = 10**7
# Anderson mixing of the Picard sweeps; `advance` states why these values.
_ANDERSON_DEPTH = 3
_ANDERSON_MIN_SINE = 1e-4
# Time levels a 1D step extrapolates its Picard start from; `picard_start` states why.
_START_ORDER = 3


class Coupling(str, enum.Enum):
    IMPLICIT = "implicit"
    MIDPOINT = "midpoint"


@dataclass
class LinearSolverConfig:
    rel_tol: float = 1e-12

    def __post_init__(self):
        self.rel_tol = _real(self.rel_tol, "scheme.linear_solver.rel_tol")
        if not 0 < self.rel_tol < np.inf:
            raise ConfigurationError(
                "linear solver tolerances must be positive and finite: "
                f"scheme.linear_solver.rel_tol is {self.rel_tol}"
            )


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
        for key in ("kappa", "dt", "t_end", "picard_tol"):
            setattr(self, key, _real(getattr(self, key), f"scheme.{key}"))
        self.picard_max_iter = _integer(self.picard_max_iter, "scheme.picard_max_iter", minimum=1)
        self.weight = WeightKind(self.weight)
        self.coupling = Coupling(self.coupling)
        if not 0 < self.kappa < np.inf:
            raise ConfigurationError(f"kappa must be positive and finite, got {self.kappa}")
        # Before n_steps: an infinite dt would run no step, a NaN one would not round.
        if not 0 <= self.t_end < np.inf:
            raise ConfigurationError(f"scheme.t_end must be finite and >= 0, got {self.t_end}")
        if not 0 < self.dt < np.inf:
            raise ConfigurationError(f"scheme.dt must be positive and finite, got {self.dt}")
        steps = self.t_end / self.dt
        if steps > MAX_STEPS + 0.5:  # round(steps) > MAX_STEPS, without overflow on inf
            raise ConfigurationError(f"step budget exceeded: {steps:.0f} steps > {MAX_STEPS}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ConfigurationError(
                f"time step {self.dt} does not divide end time {self.t_end}"
            )
        if not 0 < self.picard_tol < np.inf:
            raise ConfigurationError(
                f"Picard tolerances must be positive and finite: scheme.picard_tol is "
                f"{self.picard_tol}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class State:
    """Per-species cell averages at one time level, their potential W*u and earlier levels.

    `levels` holds the (u, p) pairs of earlier time levels, newest first: the
    arrays themselves, not copies. `advance` keeps at most `_START_ORDER` of
    them in 1D and one for dim >= 2, and the next step extrapolates its
    Picard start from them (`picard_start`); a state with none, such as a
    run's first, starts its step from u.
    """

    k: int
    u: np.ndarray  # (n_species, *mesh.shape)
    mesh: Mesh
    p: np.ndarray | None = None  # kernel.potentials(u), set by advance; None until then
    h_b: float | None = None  # entropy_boltzmann(self), set by advance after a full report
    levels: tuple = ()

    @property
    def n_species(self) -> int:
        return self.u.shape[0]

    def masses(self) -> np.ndarray:
        return self.mesh.cell_measure * self.u.reshape(self.n_species, -1).sum(axis=1)


@dataclass
class LinearSystem:
    """A x = rhs, with A held as its stencil on the mesh; a stack of them when batched.

    `stencil` has shape (..., *mesh.shape, 2 dim + 1): per cell, contiguous,
    the diagonal, then the +e and -e off-diagonals of each axis, so row K
    reads slot 0 times x[K] plus, for each axis a, slot 2a+1 times x[K+e_a]
    and slot 2a+2 times x[K-e_a] (`apply_stencil`): a single system's
    stencil is its CSR values on `_csr_pattern` as they stand. `rhs` has
    shape (..., n_cells); the leading axes, if any, index a stack.
    """

    stencil: np.ndarray
    rhs: np.ndarray
    mesh: Mesh


@dataclass
class SolveInfo:
    residual: float
    iterations: int
    clamped: int


@functools.lru_cache(maxsize=32)
def _csr_pattern(mesh: Mesh) -> tuple:
    """Column indices and row pointers of BiCGStab's CSR operand on the stencil.

    Row K lists K, then K+e and K-e for each axis, in slot order, unsorted;
    on a 2-cell axis it holds that column twice, and CSR products add both.
    int32, so the CSR constructor takes them without a copy, and read-only,
    because every matrix shares them: scipy's in-place `sort_indices` and
    `sum_duplicates` raise on them instead of reordering the cached pattern.
    """
    idx = np.arange(mesh.n_cells, dtype=np.int32).reshape(mesh.shape)
    cols = [idx] + [np.roll(idx, s, axis=a) for a in range(mesh.dim) for s in (-1, 1)]
    indices = np.stack(cols, axis=-1).ravel()
    indptr = np.arange(0, indices.size + 1, len(cols), dtype=np.int32)
    for array in (indices, indptr):
        array.setflags(write=False)
    return indices, indptr


def assemble(u_prev: np.ndarray, p: np.ndarray, cfg: SchemeConfig, mesh: Mesh) -> LinearSystem:
    """Transport systems A(p_i) x_i = S(u_prev_i) of a species stack, as one stencil.

    `u_prev` and `p` have shape (..., *mesh.shape); the leading axes (the
    species, or none for a single system) lead in the stencil and in
    `rhs`, which has shape (..., n_cells). The weight is evaluated once per
    axis for the whole stack. A has positive diagonal, nonpositive
    off-diagonal entries and exact column sums m(K)/dt, which is what makes
    the solve mass-conservative and inverse-positive. The stencil is the
    only copy of the flux in the package.
    """
    u_prev = np.asarray(u_prev, dtype=float)
    p = np.asarray(p, dtype=float)
    lead = u_prev.shape[: u_prev.ndim - mesh.dim]
    if u_prev.shape != lead + mesh.shape or p.shape != u_prev.shape:
        raise UsageError("field shapes must match the mesh")
    flat = u_prev.reshape(lead + (-1,))
    if (u_prev < 0).any() or not (flat.max(axis=-1) > 0).all():
        raise ConfigurationError(
            "previous density must be nonnegative with at least one positive cell"
        )
    if not np.isfinite(p).all():
        raise NumericalStateError("potential must be finite")

    m_over_dt = mesh.cell_measure / cfg.dt
    stencil = np.empty(u_prev.shape + (2 * mesh.dim + 1,))
    diag = stencil[..., 0]
    diag[...] = m_over_dt
    for a in range(mesh.dim):
        axis = len(lead) + a  # mesh axis a of the stacked fields
        dp = axis_difference(p, axis)
        bk = eval_B_kappa(cfg.weight, cfg.kappa, np.abs(dp))
        g_plus = mesh.tau(a) * (bk + np.maximum(dp, 0.0))
        g_minus = mesh.tau(a) * (bk + np.maximum(-dp, 0.0))
        diag += g_minus + roll(g_plus, 1, axis)
        np.negative(g_plus, out=stencil[..., 2 * a + 1])
        np.negative(roll(g_minus, 1, axis), out=stencil[..., 2 * a + 2])
    return LinearSystem(stencil=stencil, rhs=m_over_dt * flat, mesh=mesh)


def apply_stencil(stencil: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for every system of a stencil stack, on a mesh of any dimension.

    `x` holds one value per cell of each system, shaped like the stencil
    without its slot axis or flattened to (..., n_cells); A x comes back in
    the shape of `x`. The entries are added in CSR row order (diagonal, then
    +e and -e per axis), so the product is bitwise that of the CSR matrix
    on `_csr_pattern`.
    """
    dim = (stencil.shape[-1] - 1) // 2
    cells = x.reshape(stencil.shape[:-1])
    y = stencil[..., 0] * cells
    for a in range(dim):
        axis = cells.ndim - dim + a
        y += stencil[..., 2 * a + 1] * roll(cells, -1, axis)
        y += stencil[..., 2 * a + 2] * roll(cells, 1, axis)
    return y.reshape(x.shape)


def _solve_direct(system: LinearSystem, target: np.ndarray) -> tuple:
    """Direct periodic tridiagonal solve of every system, with at most one correction each.

    The correction is solved only for the systems whose residual misses
    their own target, so the others keep their first solution bitwise.
    Returns (solution, residual, corrections), the last two per system;
    raises SolverFailure when a corrected residual still misses its target.
    """
    diag, upper, lower = (system.stencil[..., k] for k in range(3))
    x = linsolve.cyclic_tridiagonal(diag, upper, lower, system.rhs)
    res = system.rhs - apply_stencil(system.stencil, x)
    first = np.abs(res).max(axis=-1)
    missed = first > target
    if not missed.any():
        return x, first, missed
    pick = np.nonzero(missed) if missed.ndim else ()
    x[pick] += linsolve.cyclic_tridiagonal(diag[pick], upper[pick], lower[pick], res[pick])
    residual = np.abs(system.rhs - apply_stencil(system.stencil, x)).max(axis=-1)
    failed = residual > target
    if failed.any():
        worst = np.unravel_index(np.argmax(failed), np.shape(failed))
        history = [float(first[worst]), float(residual[worst])]
        raise SolverFailure(
            f"direct solve missed its target after one correction (residual "
            f"{history[-1]:.3e}, target {float(target[worst]):.3e})",
            residual_history=history,
        )
    return x, residual, missed


def solve_linear(
    system: LinearSystem, cfg: SchemeConfig, x0: np.ndarray | None = None
) -> tuple:
    """Solve each stacked A_i u_i = S_i to ||residual||_inf <= rel_tol * ||S_i||_inf, positively.

    In 1D every periodic tridiagonal system of the stack is solved by one
    direct call from the stencil (`x0` is unused); each system whose
    residual misses its own target takes one correction step with the same
    solve. For dim >= 2 Jacobi-scaled BiCGStab runs on each system in turn,
    from `x0` (shaped like `rhs`), with the system's CSR matrix on the
    cached pattern as its operand: the one place a matrix is built, and
    the one place scipy is imported (1D never imports it). The
    exact solution is strictly positive (inverse-positive M-matrix); entries
    driven negative or to zero by roundoff within 1e-15 * max(u_i) are
    clamped to the smallest positive normal float and counted. Larger
    undershoots trigger a positivity-preserving Jacobi polish of that system
    alone, on `apply_stencil`, whose iterates are nonnegative by
    construction. Returns the solutions, shaped (..., *mesh.shape), and one
    SolveInfo for the stack: the largest final residual, and iterations and
    clamps summed over the systems.
    """
    lead = system.rhs.shape[:-1]
    target = cfg.linear.rel_tol * np.maximum(np.abs(system.rhs).max(axis=-1), _TINY)
    if system.mesh.dim == 1:
        x, residual, corrected = _solve_direct(system, target)
        residual, iterations = np.array(residual), np.array(corrected, dtype=int)
    else:
        import scipy.sparse as sp

        indices, indptr = _csr_pattern(system.mesh)
        n = system.mesh.n_cells
        x = np.empty_like(system.rhs)
        residual, iterations = np.empty(lead), np.empty(lead, dtype=int)
        for i in np.ndindex(lead):
            stencil = system.stencil[i]
            matrix = sp.csr_matrix((stencil.ravel(), indices, indptr), shape=(n, n))
            start = None if x0 is None else x0[i]
            x[i], history = linsolve.bicgstab(
                matrix, stencil[..., 0].ravel(), system.rhs[i], start, target[i]
            )
            residual[i], iterations[i] = history[-1], len(history) - 1
    floor = -1e-15 * np.maximum(x.max(axis=-1), _TINY)
    undershot = x.min(axis=-1) < floor
    if undershot.any():
        for i in zip(*np.nonzero(undershot)) if lead else [()]:
            stencil = system.stencil[i]
            x[i], history = linsolve.jacobi_positive_polish(
                functools.partial(apply_stencil, stencil), stencil[..., 0].ravel(),
                system.rhs[i], x[i], target[i],
            )
            residual[i] = history[-1]
            iterations[i] += len(history)
    nonpos = x <= 0.0
    clamped = int(np.count_nonzero(nonpos))
    if clamped:
        x = np.where(nonpos, _TINY, x)
    info = SolveInfo(
        residual=float(residual.max()), iterations=int(iterations.sum()), clamped=clamped
    )
    return x.reshape(lead + system.mesh.shape), info


def coupled(w_x: np.ndarray, p_n: np.ndarray, coupling: Coupling) -> np.ndarray:
    """The coupling potential of a step at x, from W*x and the step's own p^n = W*u^n.

    W*x (implicit) or W*((x + u^n)/2) = (W*x + p^n)/2 (mid-point), exact by
    linearity of W, so forming it convolves nothing.
    """
    if coupling is Coupling.IMPLICIT:
        return w_x
    return 0.5 * (w_x + p_n)


def picard_start(u_n: np.ndarray, p_n: np.ndarray, levels: tuple) -> tuple:
    """x_0 and W*x_0 of a step, extrapolated in time from u^n and q stored levels.

    x_0 = sum_{j=0..q} (-1)^j C(q+1, j+1) u^(n-j) is the value at t^(n+1)
    of the polynomial of degree q through u^n and `levels` (newest first),
    with an O(dt^(q+1)) error: u^n at q = 0 (the arrays themselves),
    2u^n - u^(n-1) at q = 1 (bitwise as written), (3, -3, 1) at q = 2 and
    (4, -6, 4, -1) at q = 3. W*x_0 is the same combination of the stored
    potentials, exact by linearity of W, so the start convolves nothing. A
    coefficient of 1 is added without a product, so the linear start
    allocates one array per field.

    `advance` keeps q <= `_START_ORDER` = 3 in 1D. Total Picard sweeps of
    the eight 1D recipes at q = 1 to 5: 61 198, 41 962, 34 396, 32 296 and
    31 855. Order 3 is the knee: order 4 cuts 3 more points of the q = 1
    count and doubles the gain on round-off in the levels (the sum of
    |coefficients|, 31 against 15). For dim >= 2 q stays 1: there the start
    is also BiCGStab's initial guess, and a higher-order one lies within
    twice the solver's target, so about half the solves would accept it
    with no iteration, at the edge of the linear tolerance. That moves the
    2D ladders' L1 errors by about 2e-7 relative, and 2D steps already take
    one sweep, so a higher order would save them none.
    """
    if not levels:
        return u_n, p_n
    q = len(levels)
    x, w = (q + 1.0) * u_n, (q + 1.0) * p_n
    for j, (u, p) in enumerate(levels, start=1):
        c = math.comb(q + 1, j + 1)
        du, dp = (u, p) if c == 1 else (c * u, c * p)
        if j % 2:
            x -= du
            w -= dp
        else:
            x += du
            w += dp
    return x, w


def _gram_solve(gram: list, rhs: list) -> list | None:
    """gamma with gram @ gamma = rhs by a column-scaled Cholesky, or None if ill-conditioned.

    `gram` is dF^T dF and `rhs` is dF^T f, as nested lists of k <= depth
    entries with the oldest column first. Scaling column j by
    1/sqrt(gram[j][j]) makes pivot j the sine of the angle between column j
    and the span of the older ones; the factor is refused (None) when a
    pivot falls below `_ANDERSON_MIN_SINE` or a column is zero or not finite.
    """
    k = len(rhs)
    scale, low, y = [], [], []
    for j in range(k):
        gram_j = gram[j]
        scale_j = math.sqrt(gram_j[j])
        scale.append(scale_j)
        row = []
        for i in range(j):
            low_i = low[i]
            s = gram_j[i] / (scale_j * scale[i])
            for t in range(i):
                s -= row[t] * low_i[t]
            row.append(s / low_i[i])
        pivot = 1.0
        for v in row:
            pivot -= v * v
        if not (scale_j > 0 and pivot > _ANDERSON_MIN_SINE**2):  # False on NaN too
            return None
        diag = math.sqrt(pivot)
        s = rhs[j] / scale_j
        for t in range(j):
            s -= row[t] * y[t]
        row.append(diag)
        low.append(row)
        y.append(s / diag)
    z = [0.0] * k
    for j in range(k - 1, -1, -1):
        s = y[j]
        for t in range(j + 1, k):
            s -= low[t][j] * z[t]
        z[j] = s / low[j][j]
    return [z[j] / scale[j] for j in range(k)]


class _Anderson:
    """Type-II Anderson mixing of the Picard map G (Walker & Ni 2011, with m = `_ANDERSON_DEPTH`).

    `mix(g, f, err)` takes one sweep's map value g = G(x), its residual
    f = g - x and err = ||f||_inf, and returns the next iterate g - dG gamma:
    the columns of dF and dG are the differences of consecutive residuals
    and map values, at most m of each, kept flattened oldest first, and
    gamma minimizes ||f - dF gamma||_2. Each call forms the Gram matrix
    dF^T dF and dF^T f afresh and solves by a Cholesky factor of at most
    m x m entries (`_gram_solve`). With no history (the first call, or after
    a growing err dropped it) the next iterate is g itself; an
    ill-conditioned Gram matrix drops its oldest column until the factor is
    accepted.
    """

    def __init__(self):
        self.df: list = []
        self.dg: list = []
        self.g = self.f = None
        self.err = math.inf

    def mix(self, g: np.ndarray, f: np.ndarray, err: float) -> np.ndarray:
        g_flat, f_flat = g.reshape(-1), f.reshape(-1)
        if err > self.err:
            self.df, self.dg = [], []
        elif self.g is not None:
            self.df = self.df[1 - _ANDERSON_DEPTH:] + [f_flat - self.f]
            self.dg = self.dg[1 - _ANDERSON_DEPTH:] + [g_flat - self.g]
        self.g, self.f, self.err = g_flat, f_flat, err
        while self.df:
            df = np.array(self.df)
            gamma = _gram_solve(df.dot(df.T).tolist(), df.dot(f_flat).tolist())
            if gamma is not None:
                return (g_flat - np.dot(gamma, self.dg)).reshape(g.shape)
            del self.df[0], self.dg[0]
        return g


def advance(
    state: State,
    kernel: DiscreteKernel,
    cfg: SchemeConfig,
    psd_ok: bool | None = None,
    compute_diagnostics: bool = True,
):
    """One implicit Euler step: the fixed point u = G(u) by Anderson-accelerated Picard sweeps.

    One sweep evaluates the Picard map G at an iterate x: the coupling
    potential `coupled(W*x, p^n)`, then the batched M-matrix solves with it
    frozen. The first iterate x_0 is `picard_start`'s extrapolation from
    `state.levels`: of order 3 in 1D once three earlier levels are stored,
    the linear 2u^n - u^(n-1) for dim >= 2, and u^n itself on a state with
    none. Its W*x_0 is the same combination of the stored potentials, exact
    by linearity of W and so free of convolution (`state.p` when there is
    no level). Every later sweep convolves its iterate once, under
    either coupling. Sweep k records
    err = ||G(x_k) - x_k||_inf (one entry per sweep in the report's and a
    StepFailure's error history; `picard_max_iter` bounds the sweeps), and
    the step is accepted at the first err <= picard_tol with the new state
    G(x_k), the raw solve and never a mixed iterate, so positivity and exact
    mass come from the M-matrix whatever x_k was.

    Every sweep passes G(x_k) and its residual to one `_Anderson`, whose
    history starts at sweep 1, and takes the next iterate from it. With
    that history still empty, x_1 = G(x_0) is plain Picard, so a step that
    converges within two sweeps, as every 2D recipe's does, runs bit for
    bit as without mixing; x_2 mixes one column, and each later iterate is
    the type-II Anderson iterate of the last three sweeps. A mixed
    iterate only feeds the next potential, so s sweeps still cost s
    convolutions, the last for the new state's `p` (one more when
    `state.p` is None; `state` itself is never modified), and the step
    report none. The mixing has fixed constants and no setting:
    - depth 3 (`_ANDERSON_DEPTH`): on the first 96 steps of
      entropy_attractive_1d, plain Picard takes 1890 sweeps, depth 3 takes
      1406, depth 4 1357, depth 5 1317 and depth 8 1279. Depth 3 is the
      smallest window that saves a quarter, and each further column adds
      about 5 us of mixing to a sweep of about 700 us (M = 512, 2 species)
      for a few per cent fewer sweeps;
    - a growing err drops the whole history, so the next iterate is G(x_k)
      itself: mixing is known to help only where the map contracts (Toth &
      Kelley 2015), and a growing residual says the history no longer
      describes the map near the iterate;
    - a Gram-matrix pivot below `_ANDERSON_MIN_SINE` = 1e-4 drops the
      oldest column. The pivot is the sine of the angle between the newest
      residual difference and the span of the older ones; a smaller one
      amplifies gamma by about its inverse and leaves the normal equations
      too few correct digits (about 16 + 2 log10(sine)). At 1e-4 they keep
      about 8, and on that run no factor was refused at any threshold from
      1e-6 to 1e-3.

    The new state keeps `state.u` and its potential as its newest level,
    ahead of at most `_START_ORDER` - 1 of `state.levels` in 1D and none of
    them for dim >= 2, and a full report's H_B as its `h_b`. Returns the
    new state and its step report. An exhausted Picard budget or a failed
    linear solve raises StepFailure with the Picard errors so far and the
    failed solve's residual history.
    """
    from . import diagnostics  # local import to keep module deps acyclic

    mesh = state.mesh
    u_n = state.u
    p_n = kernel.potentials(u_n) if state.p is None else state.p
    u_iter, w_iter = picard_start(u_n, p_n, state.levels)
    p = coupled(w_iter, p_n, cfg.coupling)
    errors = []
    residual = 0.0
    clamped = 0
    linear_iters = 0
    mixing = _Anderson()
    while True:
        system = assemble(u_n, p, cfg, mesh)
        try:
            u_new, info = solve_linear(system, cfg, x0=u_iter.reshape(system.rhs.shape))
        except SolverFailure as exc:
            raise StepFailure(
                str(exc), error_history=errors, residual_history=exc.residual_history
            ) from exc
        residual = max(residual, info.residual)
        clamped += info.clamped
        linear_iters += info.iterations
        f = u_new - u_iter
        err = float(np.abs(f).max())
        errors.append(err)
        if err <= cfg.picard_tol:
            # Free the last iterate and the history before the new state's potential:
            # in 2D a longer-lived field costs time in heap trimming.
            del u_iter, f, mixing
            break
        if len(errors) == cfg.picard_max_iter:
            raise StepFailure(
                f"Picard iteration did not converge within {cfg.picard_max_iter} "
                f"sweeps (last error {err:.3e}, tol {cfg.picard_tol:.3e})",
                error_history=errors,
            )
        u_iter = mixing.mix(u_new, f, err)
        p = coupled(kernel.potentials(u_iter), p_n, cfg.coupling)
    kept = _START_ORDER if mesh.dim == 1 else 1
    new_state = State(
        k=state.k + 1, u=u_new, mesh=mesh, p=kernel.potentials(u_new),
        levels=((u_n, p_n),) + state.levels[: kept - 1],
    )
    report = diagnostics.build_report(
        prev=replace(state, p=p_n),
        curr=new_state,
        cfg=cfg,
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
        drift = float(np.max(np.abs(report.masses - masses0) / mass_scale))
        max_drift = max(max_drift, drift)
        min_density = min(min_density, report.min_density)
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
