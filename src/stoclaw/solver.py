"""Implicit time discretization of the viscous problem: one nonlinear
elliptic solve per step by chord Newton, driven by windowed compensated
jump increments, plus the discrete energy terms.

The diffusion terms are second-order central differences on the cell
centers of the periodic torus that truncates R^d; div f(u) is the
Engquist-Osher flux splitting of the one flux law on every axis.  A
residual evaluates phi and the flux halves once per field.  A step
LU-factors its Newton matrix with LAPACK ``dgbtrf`` on one folded band
layout for every dimension, and reuses the factors while the residual
keeps falling ``1 / CHORD_RATE``-fold per iteration; a slower chord step
refreshes them.  A path carries the factors from each step to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu, spsolve  # for perfbench's tracer only

from .model import Grid, ProblemSpec, discretize_initial
from .noise import JumpPath, compensated_increment

__all__ = [
    "StepFailureError", "StepStats", "Trajectory", "implicit_step",
    "solve_path", "discrete_energy_report",
    "lemma_ratios", "cell_integral", "l2_sq", "norm_l2", "norm_l1", "grad_sq",
    "mass_outside",
]

NEWTON_MAX_ITER = 50
ARMIJO_FLOOR = 1e-9
# a chord step is kept only when it cuts the residual norm to this share
# of its value; a slower one refreshes the Jacobian
CHORD_RATE = 0.1


class StepFailureError(RuntimeError):
    """The Newton solve of a step failed: singular matrix, stalled line
    search or iteration cap. Carries the residual history, initial
    residual first."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = list(history)

    def __reduce__(self):
        # rebuilt from both arguments, so it crosses a process pool intact
        return type(self), (str(self), self.history)


# ---------------------------------------------------------------------------
# Grid operators

def cell_integral(v: np.ndarray, grid: Grid):
    """Midpoint integral over the cells of one field, or of each field of a
    stack: sums the last ``grid.dim`` axes and scales by the cell volume."""
    return np.sum(v, axis=tuple(range(-grid.dim, 0))) * grid.cell_volume


def grad_sq(u: np.ndarray, grid: Grid):
    """Face-summed squared gradient matching the summation-by-parts
    identity, of one field or of each field of a stack."""
    flat = u.reshape(u.shape[:u.ndim - grid.dim] + (-1,))
    total = 0.0
    for cols_p, _ in _stencil(grid)[0]:
        d = (flat[..., cols_p] - flat) / grid.h
        total = total + cell_integral((d * d).reshape(u.shape), grid)
    return total


def l2_sq(u: np.ndarray, grid: Grid):
    """||u||^2 of one field, or of each field of a stack."""
    return cell_integral(u * u, grid)


def norm_l2(u: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(l2_sq(u, grid)))


def norm_l1(u: np.ndarray, grid: Grid) -> float:
    return float(cell_integral(np.abs(u), grid))


def mass_outside(u: np.ndarray, grid: Grid):
    """L1 mass in the margin shell next to the truncation boundary, of one
    field or of each field of a stack."""
    shell = np.max(np.abs(grid.coords()), axis=-1) > \
        grid.half_width - grid.margin
    # C order: each row sums its cells pairwise, like one field's np.sum
    mass = np.abs(np.ascontiguousarray(u[..., shell])).sum(axis=-1)
    return mass * grid.cell_volume


# ---------------------------------------------------------------------------
# Nonlinear step

_STENCIL_CACHE: dict = {}


def _stencil(grid: Grid):
    """Neighbour indices per axis and the band layout of I - dt J, per grid.

    ``axes[ax] = (cols_p, cols_m)``: flat index of the +1 and -1 neighbour
    of every cell, wrapping around the torus.  Band positions ``pos``
    (inverse ``order``) fold each axis of m cells, cell i to 2i if 2i < m
    else 2(m-i)-1, so neighbours are at most ``k`` apart; coefficients
    stacked as [diag, plus_0, minus_0, ...] go to flat ``slot`` of LAPACK's
    band storage transposed to ``(n, 3k+1)``.
    """
    key = (grid.dim, grid.cells)
    if key not in _STENCIL_CACHE:
        idx = np.arange(grid.cells ** grid.dim).reshape(grid.shape)
        axes = []
        cols = [idx.ravel()]
        for ax in range(grid.dim):
            cols_p = np.roll(idx, -1, axis=ax).ravel()
            cols_m = np.roll(idx, +1, axis=ax).ravel()
            axes.append((cols_p, cols_m))
            cols += [cols_p, cols_m]
        i = np.arange(grid.cells)
        i = np.where(2 * i < grid.cells, 2 * i, 2 * (grid.cells - i) - 1)
        pos = np.ravel_multi_index(i[np.indices(grid.shape)],
                                   grid.shape).ravel()
        rows = pos[np.tile(idx.ravel(), len(cols))]
        cols = pos[np.concatenate(cols)]
        k = int(np.max(np.abs(rows - cols)))
        # at least 4 cells per axis, so no two entries share a slot
        slot = cols * (3 * k + 1) + 2 * k + rows - cols
        # stable sort: the default quicksort maps 0.25 MB more numpy code
        order = np.argsort(pos, kind="stable")
        _STENCIL_CACHE[key] = (axes, (k, pos, order, slot))
    return _STENCIL_CACHE[key]


def _operator_jacobian(u: np.ndarray, spec: ProblemSpec, grid: Grid):
    """Stencil coefficients of the Jacobian of u -> lap phi(u) + eps lap u
    + div f(u).

    Returns ``(diag, [(plus, minus), ...])``: row i of the Jacobian holds
    ``diag[i]`` on the diagonal and, per axis, ``plus[i]`` / ``minus[i]`` in
    the columns ``cols_p[i]`` / ``cols_m[i]`` of :func:`_stencil`.
    """
    axes, _ = _stencil(grid)
    h = grid.h
    h2 = h * h
    eps = spec.epsilon
    uf = u.ravel()
    dphi = np.asarray(spec.phi.dphi(uf), dtype=float)
    dfp = np.asarray(spec.flux.dfplus(uf), dtype=float)
    dfm = np.asarray(spec.flux.dfminus(uf), dtype=float)

    diag = np.zeros(uf.size)
    coefs = []
    for cols_p, cols_m in axes:
        diag += -2.0 * (dphi + eps) / h2
        diag += (dfp - dfm) / h
        plus = (dphi[cols_p] + eps) / h2 + dfm[cols_p] / h
        minus = (dphi[cols_m] + eps) / h2 - dfp[cols_m] / h
        coefs.append((plus, minus))
    return diag, coefs


def _factor_newton_matrix(diag, coefs, grid: Grid, dt: float) -> Callable:
    """LU-factor I - dt J with ``dgbtrf`` on the folded band of
    :func:`_stencil`, in every dimension (half-bandwidth 2 in 1D, 2 * cells
    in 2D); return the function solving (I - dt J) x = rhs with those
    factors by ``dgbtrs``."""
    _, (k, pos, order, slot) = _stencil(grid)
    ab = np.zeros((pos.size, 3 * k + 1))
    ab.flat[slot] = np.concatenate(
        [1.0 - dt * diag] + [-dt * c for pair in coefs for c in pair])
    lu, piv, info = dgbtrf(ab.T, k, k, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError("dgbtrf: singular matrix, info %d" % info)

    def solve(rhs):
        return dgbtrs(lu, k, k, rhs[order], piv)[0][pos]
    return solve


def _step_operator(u: np.ndarray, spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """lap phi(u) + eps lap u + div f(u), div f in the Engquist-Osher form
    ``(f+(u_i) + f-(u_{i+1}) - f+(u_{i-1}) - f-(u_i)) / h`` on every axis,
    from one evaluation of phi, f+ and f-. Every catalog phi and flux is
    elementwise, so gathering the neighbours from those values is bitwise
    the same as evaluating them on the neighbours of u."""
    axes, _ = _stencil(grid)
    h = grid.h
    h2 = h ** 2
    uf = u.ravel()
    pf = np.asarray(spec.phi.phi(uf), dtype=float)
    fp, fm = spec.flux.fplus(uf), spec.flux.fminus(uf)
    lap_phi, lap_u, div = np.zeros((3, uf.size))
    for cols_p, cols_m in axes:
        lap_phi += (pf[cols_p] + pf[cols_m] - 2.0 * pf) / h2
        lap_u += (uf[cols_p] + uf[cols_m] - 2.0 * uf) / h2
        div += (fp + fm[cols_p] - fp[cols_m] - fm) / h
    return (lap_phi + spec.epsilon * lap_u + div).reshape(u.shape)


@dataclass
class StepStats:
    """How the nonlinear solve of one step went: accepted Newton steps,
    Jacobian factorizations and the final residual norm. Path 0's steps are
    the rows of ``fields/stats_path0000.csv``, next to :func:`lemma_ratios`."""

    newton_iterations: int
    jacobians: int
    residual: float
    used_fallback = False  # not a field; perfbench/tracing.py reads it


def _lemma_check(u: np.ndarray, x_rhs: np.ndarray, spec: ProblemSpec,
                 grid: Grid) -> float:
    """lhs / ||X||^2 in the one-step elliptic estimate
    ||u||^2 + ||phi(u)||_{H1}^2 + eps ||grad u||^2 <= C(dt) ||X||^2.

    Testing the step with u itself gives C(dt) = 2 (3 + 2 c_phi^2 +
    c_phi / dt) when dt c_f^2 <= eps / 2 (or the flux is absent).
    """
    x_sq = l2_sq(x_rhs, grid)
    phi_u = np.asarray(spec.phi.phi(u), dtype=float)
    lhs = (l2_sq(u, grid) + l2_sq(phi_u, grid) + grad_sq(phi_u, grid)
           + spec.epsilon * grad_sq(u, grid))
    if x_sq == 0.0:
        return 0.0 if lhs == 0.0 else np.inf
    return lhs / x_sq


def implicit_step(spec: ProblemSpec, grid: Grid, u_n: np.ndarray,
                  noise_inc: np.ndarray, dt: float,
                  solve: Optional[Callable] = None):
    """Solve u - dt*(lap phi(u) + eps lap u + div f(u)) = u_n + noise_inc,
    returning ``(u, StepStats, solve)``: ``solve`` is the factored Newton
    matrix the step ended with.

    Chord Newton (Kelley, Solving Nonlinear Equations with Newton's
    Method, 5.4) on an analytic stencil Jacobian: the Newton matrix is
    assembled and LU-factored by :func:`_factor_newton_matrix` (``dgbtrf``
    on the folded band of :func:`_stencil`, in 1D and 2D alike), at u_n
    unless the factors of an earlier step are passed as ``solve``, and
    every later iteration reuses the factors for a full step.
    A chord step that does not cut the residual norm to ``CHORD_RATE``
    times its value is discarded, and the Jacobian is refreshed and
    factored at the current iterate, so stale factors cost one trial.
    Only a step on fresh factors is damped, by Armijo halving of its
    length. The accepted state satisfies ||F(u)||_2 <= 1e-10 (1 + ||u_n||_2)
    in the discrete L2 norm; ``StepStats.jacobians`` counts the
    factorizations the step made, 0 when the passed factors sufficed.

    Raises
    ------
    StepFailureError
        When the Newton matrix is singular, the line search stalls, or
        ``NEWTON_MAX_ITER`` iterations leave the residual above the
        tolerance; the error carries the residual history.
    """
    x_rhs = u_n + noise_inc
    tol = 1e-10 * (1.0 + norm_l2(u_n, grid))

    def residual(u):
        return u - dt * _step_operator(u, spec, grid) - x_rhs

    def failure(reason):
        return StepFailureError(
            "%s: residual %.3e (tolerance %.3e, dt %.3e)"
            % (reason, res_norm, tol, dt), history)

    u = u_n.copy()
    res = residual(u)
    res_norm = norm_l2(res, grid)
    history = [res_norm]
    newton_iters = jacobians = 0
    while not res_norm <= tol:  # a NaN residual never converges
        if newton_iters == NEWTON_MAX_ITER:
            raise failure("no convergence in %d Newton iterations"
                          % NEWTON_MAX_ITER)
        if solve is not None:
            trial = u - solve(res.ravel()).reshape(u.shape)
            trial_res = residual(trial)
            trial_norm = norm_l2(trial_res, grid)
            if not trial_norm <= CHORD_RATE * res_norm:
                solve = None  # refresh at u; the chord step is discarded
                continue
        else:
            diag, coefs = _operator_jacobian(u, spec, grid)
            try:
                solve = _factor_newton_matrix(diag, coefs, grid, dt)
            except np.linalg.LinAlgError as err:
                raise failure("singular Newton matrix (%s)" % err) from err
            jacobians += 1
            delta = solve(-res.ravel()).reshape(u.shape)
            lam = 1.0
            while True:
                trial = u + lam * delta
                trial_res = residual(trial)
                trial_norm = norm_l2(trial_res, grid)
                if np.isfinite(trial_norm) and \
                        trial_norm <= (1.0 - 1e-4 * lam) * res_norm:
                    break
                lam *= 0.5
                if lam < ARMIJO_FLOOR:
                    raise failure("line search stalled")
        u, res, res_norm = trial, trial_res, trial_norm
        newton_iters += 1
        history.append(res_norm)

    return u, StepStats(newton_iterations=newton_iters,
                        jacobians=jacobians, residual=res_norm), solve


# ---------------------------------------------------------------------------
# Whole-path solve

@dataclass
class Trajectory:
    """States u_0..u_N, the compensated increments (step n solved against
    ``fields[n] + increments[n]``) and the per-step solver stats.

    Arrays are owned by the trajectory and must not be mutated.
    """

    fields: np.ndarray        # (N+1, *shape)
    increments: np.ndarray    # (N, *shape)
    dt: float
    grid: Grid
    spec: ProblemSpec
    stats: list

    @property
    def n_steps(self) -> int:
        return self.fields.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def solve_path(spec: ProblemSpec, grid: Grid, n_steps: int, path: JumpPath,
               u0_field: Optional[np.ndarray] = None) -> Trajectory:
    """March the implicit scheme over [0, T] along one jump path.

    Deterministic: identical (spec, grid, n_steps, path) reproduce the
    trajectory bitwise. Noise windows use the state at the left knot. Each
    step starts on the Newton factors the previous step ended with; they
    never leave this call.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dt = spec.horizon / n_steps
    u = discretize_initial(spec, grid) if u0_field is None else np.array(
        u0_field, dtype=float)
    gx = None if spec.silent else spec.eta.g(grid.coords())
    fields = np.empty((n_steps + 1,) + grid.shape)
    fields[0] = u
    increments = np.empty((n_steps,) + grid.shape)
    stats = []
    solve = None
    for n in range(n_steps):
        inc = compensated_increment(path, spec, grid, u, n * dt, (n + 1) * dt,
                                    gx=gx)
        try:
            u, st, solve = implicit_step(spec, grid, u, inc, dt, solve)
        except StepFailureError as err:
            raise StepFailureError(
                "step %d of %d failed: %s" % (n + 1, n_steps, err),
                err.history) from err
        fields[n + 1] = u
        increments[n] = inc
        stats.append(st)
    return Trajectory(fields=fields, increments=increments, dt=dt, grid=grid,
                      spec=spec, stats=stats)


def lemma_ratios(traj: Trajectory) -> list:
    """:func:`_lemma_check` of every step of ``traj``, each against the
    right-hand side u_n plus the increment the step drew."""
    return [_lemma_check(u, x_rhs, traj.spec, traj.grid) for u, x_rhs in
            zip(traj.fields[1:], traj.fields[:-1] + traj.increments)]


# ---------------------------------------------------------------------------
# Energy terms

def discrete_energy_report(traj: Trajectory,
                           kirchhoff_fn: Callable) -> Dict[str, np.ndarray]:
    """Every term of the step-energy identity along a trajectory, by name:
    ``u_norm_sq`` ||u_k||^2 and ``grad_g_sq`` ||grad G(u_k)||^2 at k = 0..N,
    ``increment_sq`` ||u_{k+1} - u_k||^2, and ``grad_phi_sq`` and
    ``grad_u_sq`` (||grad phi(u)||^2 and ||grad u||^2) at u_{k+1}, k < N.

    Each term is one reduction over the trajectory's field stack; G is
    evaluated once on all N+1 fields and phi once on u_1..u_N.
    """
    grid = traj.grid
    u = traj.fields
    g_vals = kirchhoff_fn(u.reshape(len(u), -1)).reshape(u.shape)
    return {
        "u_norm_sq": l2_sq(u, grid),
        "increment_sq": l2_sq(u[1:] - u[:-1], grid),
        "grad_phi_sq": grad_sq(
            np.asarray(traj.spec.phi.phi(u[1:]), dtype=float), grid),
        "grad_u_sq": grad_sq(u[1:], grid),
        "grad_g_sq": grad_sq(g_vals, grid),
    }
