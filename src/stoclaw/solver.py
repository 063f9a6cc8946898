"""Implicit time discretization of the viscous problem: one nonlinear
elliptic solve per step, driven by windowed compensated jump increments,
plus the discrete energy bookkeeping.

Spatial operators are second-order central differences on cell centers;
div f(u) optionally switches to an Engquist-Osher monotone form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import splu, spsolve

from .model import Grid, ProblemSpec
from .noise import JumpPath, compensated_increment

__all__ = [
    "StepFailureError", "StepStats", "Trajectory", "implicit_step",
    "solve_path", "discrete_energy_report", "EnergyReport",
    "l2_sq", "norm_l2", "norm_l1", "grad_sq", "laplacian", "divergence",
    "mass_outside",
]

NEWTON_MAX_ITER = 50
PICARD_MAX_ITER = 500
ARMIJO_FLOOR = 1e-9


class StepFailureError(RuntimeError):
    """Nonlinear solve failed; carries the residual history."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = list(history)

    def __reduce__(self):
        # rebuilt from both arguments, so it crosses a process pool intact
        return type(self), (str(self), self.history)


# ---------------------------------------------------------------------------
# Grid operators

def _neighbor(u: np.ndarray, axis: int, step: int, grid: Grid) -> np.ndarray:
    """Value of the +1 (step > 0) or -1 neighbour of every cell along axis."""
    cols_p, cols_m, ghost_p, ghost_m = _stencil(grid)[0][axis]
    cols, ghost = (cols_p, ghost_p) if step > 0 else (cols_m, ghost_m)
    uf = u.ravel()
    nb = uf[cols]
    if grid.bc == "dirichlet":
        nb[ghost] = -uf[ghost]  # odd reflection: zero value at the boundary face
    return nb.reshape(u.shape)


def laplacian(u: np.ndarray, grid: Grid) -> np.ndarray:
    out = np.zeros_like(u)
    h2 = grid.h ** 2
    for ax in range(grid.dim):
        out += (_neighbor(u, ax, +1, grid) + _neighbor(u, ax, -1, grid)
                - 2.0 * u) / h2
    return out


def divergence(u: np.ndarray, spec: ProblemSpec, grid: Grid) -> np.ndarray:
    out = np.zeros_like(u)
    h = grid.h
    for ax, comp in enumerate(spec.flux.components):
        if spec.flux_form == "central":
            out += (comp.f(_neighbor(u, ax, +1, grid))
                    - comp.f(_neighbor(u, ax, -1, grid))) / (2.0 * h)
        else:
            out += (comp.fplus(u) + comp.fminus(_neighbor(u, ax, +1, grid))
                    - comp.fplus(_neighbor(u, ax, -1, grid))
                    - comp.fminus(u)) / h
    return out


def grad_sq(u: np.ndarray, grid: Grid) -> float:
    """Face-summed squared gradient matching the summation-by-parts identity."""
    total = 0.0
    h = grid.h
    vol = grid.cell_volume
    for ax in range(grid.dim):
        if grid.bc == "periodic":
            d = (_neighbor(u, ax, +1, grid) - u) / h
            total += float(np.sum(d * d)) * vol
        else:
            d = np.diff(u, axis=ax) / h
            total += float(np.sum(d * d)) * vol
            for edge in (0, -1):
                sl = [slice(None)] * u.ndim
                sl[ax] = edge
                ue = u[tuple(sl)]
                total += 2.0 * float(np.sum(ue * ue)) / h ** 2 * vol
    return total


def l2_sq(u: np.ndarray, grid: Grid) -> float:
    return float(np.sum(u * u)) * grid.cell_volume


def norm_l2(u: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(l2_sq(u, grid)))


def norm_l1(u: np.ndarray, grid: Grid) -> float:
    return float(np.sum(np.abs(u))) * grid.cell_volume


def mass_outside(u: np.ndarray, grid: Grid) -> float:
    """L1 mass in the margin shell next to the truncation boundary."""
    shell = np.max(np.abs(grid.coords()), axis=-1) > \
        grid.half_width - grid.margin
    return float(np.sum(np.abs(u[shell]))) * grid.cell_volume


# ---------------------------------------------------------------------------
# Nonlinear step

_STENCIL_CACHE: dict = {}


def _stencil(grid: Grid):
    """Neighbour indices per axis and the CSC pattern of I - dt J, per grid.

    ``axes[ax] = (cols_p, cols_m, ghost_p, ghost_m)``: flat index of the +1
    and -1 neighbour of every cell (wrapping), and the Dirichlet cells whose
    neighbour on that side is the odd-reflection ghost.  The pattern holds
    the diagonal and every non-ghost neighbour entry; ``perm`` gathers its
    values, column by column with sorted rows, from the coefficients stacked
    as [diag, plus_0, minus_0, plus_1, minus_1, ...].
    """
    key = (grid.dim, grid.cells, grid.bc)
    if key not in _STENCIL_CACHE:
        n = grid.cells ** grid.dim
        idx = np.arange(n).reshape(grid.shape)
        axes = []
        cols = [idx.ravel()]
        keep = [np.ones(n, dtype=bool)]
        for ax in range(grid.dim):
            cols_p = np.roll(idx, -1, axis=ax).ravel()
            cols_m = np.roll(idx, +1, axis=ax).ravel()
            ghost_p = np.zeros(grid.shape, dtype=bool)
            ghost_m = np.zeros(grid.shape, dtype=bool)
            if grid.bc == "dirichlet":
                sl = [slice(None)] * grid.dim
                sl[ax] = -1
                ghost_p[tuple(sl)] = True
                sl[ax] = 0
                ghost_m[tuple(sl)] = True
            axes.append((cols_p, cols_m, ghost_p.ravel(), ghost_m.ravel()))
            cols += [cols_p, cols_m]
            keep += [~ghost_p.ravel(), ~ghost_m.ravel()]
        rows = np.tile(idx.ravel(), len(cols))
        cols = np.concatenate(cols)
        kept = np.flatnonzero(np.concatenate(keep))
        # at least 4 cells per axis, so no two entries share a slot
        perm = kept[np.lexsort((rows[kept], cols[kept]))]
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(cols[perm], minlength=n))])
        _STENCIL_CACHE[key] = (axes, (rows[perm], indptr, perm))
    return _STENCIL_CACHE[key]


def _operator_jacobian(u: np.ndarray, spec: ProblemSpec, grid: Grid,
                       viscous_only: bool = False):
    """Stencil coefficients of the Jacobian of u -> lap phi(u) + eps lap u
    + div f(u).

    Returns ``(diag, [(plus, minus), ...])``: row i of the Jacobian holds
    ``diag[i]`` on the diagonal and, per axis, ``plus[i]`` / ``minus[i]`` in
    the columns ``cols_p[i]`` / ``cols_m[i]`` of :func:`_stencil` (zero
    where that neighbour is a Dirichlet ghost, which folds into the diagonal).
    """
    axes, _ = _stencil(grid)
    h = grid.h
    h2 = h * h
    eps = spec.epsilon
    uf = u.ravel()
    dirichlet = grid.bc == "dirichlet"

    if viscous_only:
        dphi = np.zeros_like(uf)
        dphi_ghost = dphi
        with_flux = False
    else:
        dphi = np.asarray(spec.phi.dphi(uf), dtype=float)
        dphi_ghost = (np.asarray(spec.phi.dphi(-uf), dtype=float)
                      if dirichlet else None)
        with_flux = spec.flux.c_f > 0.0

    diag = np.zeros(uf.size)
    coefs = []
    for ax, (cols_p, cols_m, ghost_p, ghost_m) in enumerate(axes):
        plus = (dphi[cols_p] + eps) / h2
        minus = (dphi[cols_m] + eps) / h2
        diag += -2.0 * (dphi + eps) / h2
        if dirichlet:
            ghost_coef = -(dphi_ghost + eps) / h2
            diag += np.where(ghost_p, ghost_coef, 0.0)
            diag += np.where(ghost_m, ghost_coef, 0.0)
            plus = np.where(ghost_p, 0.0, plus)
            minus = np.where(ghost_m, 0.0, minus)

        if with_flux:
            comp = spec.flux.components[ax]
            if spec.flux_form == "central":
                fp = np.asarray(comp.df(uf[cols_p]), dtype=float) / (2.0 * h)
                fm = -np.asarray(comp.df(uf[cols_m]), dtype=float) / (2.0 * h)
                if dirichlet:
                    dg = np.asarray(comp.df(-uf), dtype=float)
                    diag += np.where(ghost_p, -dg / (2.0 * h), 0.0)
                    diag += np.where(ghost_m, dg / (2.0 * h), 0.0)
                    fp = np.where(ghost_p, 0.0, fp)
                    fm = np.where(ghost_m, 0.0, fm)
            else:
                dfp = np.asarray(comp.dfplus(uf), dtype=float)
                dfm = np.asarray(comp.dfminus(uf), dtype=float)
                diag += (dfp - dfm) / h
                fp = np.asarray(comp.dfminus(uf[cols_p]), dtype=float) / h
                fm = -np.asarray(comp.dfplus(uf[cols_m]), dtype=float) / h
                if dirichlet:
                    diag += np.where(
                        ghost_p, -np.asarray(comp.dfminus(-uf), dtype=float) / h,
                        0.0)
                    diag += np.where(
                        ghost_m, np.asarray(comp.dfplus(-uf), dtype=float) / h,
                        0.0)
                    fp = np.where(ghost_p, 0.0, fp)
                    fm = np.where(ghost_m, 0.0, fm)
            plus = plus + fp
            minus = minus + fm
        coefs.append((plus, minus))
    return diag, coefs


def _shifted_matrix(diag, coefs, grid: Grid, dt: float) -> sp.csc_matrix:
    """I - dt J as a CSC matrix on the cached pattern of :func:`_stencil`."""
    _, (indices, indptr, perm) = _stencil(grid)
    stacked = np.concatenate(
        [1.0 - dt * diag] + [-dt * c for pair in coefs for c in pair])
    n = diag.size
    return sp.csc_matrix((stacked[perm], indices, indptr), shape=(n, n))


def _solve_tridiagonal(d, up, lo, rhs, periodic: bool) -> np.ndarray:
    """Solve lo[i] x[i-1] + d[i] x[i] + up[i] x[i+1] = rhs[i] with LAPACK
    ``dgtsv`` (Gaussian elimination with partial pivoting).

    With ``periodic`` the indices wrap, so ``lo[0]`` and ``up[-1]`` are the
    corner entries; they are removed by a Sherman-Morrison correction
    (Numerical Recipes 2.7) whose second right-hand side rides in the same
    ``dgtsv`` call.  Otherwise ``lo[0]`` and ``up[-1]`` are ignored.
    """
    if not periodic:
        _, _, _, x, info = dgtsv(lo[1:], d, up[:-1], rhs)
    else:
        # A = T + w v^T, w = (gamma, 0.., alpha), v = (1, 0.., beta/gamma).
        # gamma opposes d[0] in sign and |gamma| >= |d[0]| + |beta|, so t[0]
        # cannot cancel and |alpha beta / gamma| <= |alpha|.
        alpha, beta = up[-1], lo[0]
        gamma = -np.copysign(abs(d[0]) + abs(alpha) + abs(beta), d[0])
        t = d.copy()
        t[0] -= gamma
        t[-1] -= alpha * beta / gamma
        b = np.zeros((d.size, 2), order="F")
        b[:, 0] = rhs
        b[0, 1] = gamma
        b[-1, 1] = alpha
        _, _, _, yz, info = dgtsv(lo[1:], t, up[:-1], b)
        y, z = yz[:, 0], yz[:, 1]
        x = y - ((y[0] + beta * y[-1] / gamma)
                 / (1.0 + z[0] + beta * z[-1] / gamma)) * z
    if info != 0:
        raise np.linalg.LinAlgError(
            "tridiagonal Newton matrix is singular (dgtsv info %d)" % info)
    return x


def _newton_direction(diag, coefs, grid: Grid, dt: float,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (I - dt J) x = rhs: banded LAPACK in 1D, SuperLU otherwise."""
    if grid.dim == 1:
        plus, minus = coefs[0]
        return _solve_tridiagonal(1.0 - dt * diag, -dt * plus, -dt * minus,
                                  rhs, grid.bc == "periodic")
    return spsolve(_shifted_matrix(diag, coefs, grid, dt), rhs)


def _step_operator(u: np.ndarray, spec: ProblemSpec, grid: Grid) -> np.ndarray:
    return (laplacian(np.asarray(spec.phi.phi(u), dtype=float), grid)
            + spec.epsilon * laplacian(u, grid)
            + divergence(u, spec, grid))


@dataclass
class StepStats:
    newton_iterations: int
    picard_iterations: int
    residual: float
    used_fallback: bool
    lemma_ratio: float
    lemma_bound: float
    lemma_applicable: bool
    lemma_passed: bool


def _lemma_check(u: np.ndarray, x_rhs: np.ndarray, spec: ProblemSpec,
                 grid: Grid, dt: float) -> tuple:
    """Discrete form of the one-step elliptic estimate
    ||u||^2 + ||phi(u)||_{H1}^2 + eps ||grad u||^2 <= C(dt) ||X||^2.

    The explicit constant follows from testing the step with u itself and is
    only claimed when dt c_f^2 <= eps / 2 (or the flux is absent).
    """
    x_sq = l2_sq(x_rhs, grid)
    phi_u = np.asarray(spec.phi.phi(u), dtype=float)
    lhs = (l2_sq(u, grid) + l2_sq(phi_u, grid) + grad_sq(phi_u, grid)
           + spec.epsilon * grad_sq(u, grid))
    if x_sq == 0.0:
        return (0.0 if lhs == 0.0 else np.inf), 0.0, True, lhs <= 1e-24
    ratio = lhs / x_sq
    applicable = spec.c_f == 0.0 or (
        spec.epsilon > 0.0 and dt <= spec.epsilon / (2.0 * spec.c_f ** 2))
    bound = 2.0 * (3.0 + 2.0 * spec.c_phi ** 2 + spec.c_phi / dt)
    passed = (ratio <= bound) if applicable else True
    return ratio, bound, applicable, passed


def implicit_step(spec: ProblemSpec, grid: Grid, u_n: np.ndarray,
                  noise_inc: np.ndarray, dt: float,
                  return_stats: bool = False):
    """Solve u - dt*(lap phi(u) + eps lap u + div f(u)) = u_n + noise_inc.

    Damped Newton with an analytic stencil Jacobian, solved as a (cyclic)
    tridiagonal system in 1D and by SuperLU on a cached CSC pattern
    otherwise; a Picard sweep on the factorized viscous operator is the
    fallback. The accepted state satisfies
    ||F(u)||_2 <= 1e-10 (1 + ||u_n||_2) in the discrete L2 norm.

    Raises
    ------
    StepFailureError
        When both Newton and the fallback stall above the tolerance; the
        error carries the residual history so the caller may halve dt.
    """
    x_rhs = u_n + noise_inc
    tol = 1e-10 * (1.0 + norm_l2(u_n, grid))

    def residual(u):
        return u - dt * _step_operator(u, spec, grid) - x_rhs

    history = []
    u = u_n.copy()
    res = residual(u)
    res_norm = norm_l2(res, grid)
    history.append(res_norm)
    newton_iters = 0
    converged = res_norm <= tol

    while not converged and newton_iters < NEWTON_MAX_ITER:
        diag, coefs = _operator_jacobian(u, spec, grid)
        lam = 1.0
        accepted = False
        try:
            delta = _newton_direction(diag, coefs, grid, dt,
                                      -res.ravel()).reshape(u.shape)
        except np.linalg.LinAlgError:
            lam = 0.0  # singular Newton matrix: go to the fallback
        while lam >= ARMIJO_FLOOR:
            trial = u + lam * delta
            trial_res = residual(trial)
            trial_norm = norm_l2(trial_res, grid)
            if np.isfinite(trial_norm) and trial_norm <= (1.0 - 1e-4 * lam) * res_norm:
                u, res, res_norm = trial, trial_res, trial_norm
                accepted = True
                break
            lam *= 0.5
        newton_iters += 1
        history.append(res_norm)
        if not accepted:
            break
        if res_norm <= tol:
            converged = True

    picard_iters = 0
    used_fallback = False
    if not converged:
        used_fallback = True
        diag, coefs = _operator_jacobian(u, spec, grid, viscous_only=True)
        lu = splu(_shifted_matrix(diag, coefs, grid, dt))
        u = u_n.copy()
        for picard_iters in range(1, PICARD_MAX_ITER + 1):
            rhs = x_rhs + dt * (
                laplacian(np.asarray(spec.phi.phi(u), dtype=float), grid)
                + divergence(u, spec, grid))
            u = lu.solve(rhs.ravel()).reshape(u.shape)
            res = residual(u)
            res_norm = norm_l2(res, grid)
            history.append(res_norm)
            if res_norm <= tol:
                converged = True
                break
            if not np.isfinite(res_norm) or res_norm > 1e9 * (1.0 + history[0]):
                break

    if not converged:
        raise StepFailureError(
            "nonlinear step stalled at residual %.3e (tolerance %.3e, dt %.3e)"
            % (res_norm, tol, dt), history)

    if not return_stats:
        return u
    ratio, bound, applicable, passed = _lemma_check(u, x_rhs, spec, grid, dt)
    stats = StepStats(
        newton_iterations=newton_iters, picard_iterations=picard_iters,
        residual=res_norm, used_fallback=used_fallback,
        lemma_ratio=ratio, lemma_bound=bound, lemma_applicable=applicable,
        lemma_passed=passed)
    return u, stats


# ---------------------------------------------------------------------------
# Whole-path solve and interpolants

@dataclass
class Trajectory:
    """States u_0..u_N with the per-step noise increments and solver stats.

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
    def horizon(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def solve_path(spec: ProblemSpec, grid: Grid, n_steps: int, path: JumpPath,
               u0_field: Optional[np.ndarray] = None) -> Trajectory:
    """March the implicit scheme over [0, T] along one jump path.

    Deterministic: identical (spec, grid, n_steps, path) reproduce the
    trajectory bitwise. Noise windows use the state at the left knot.
    """
    from .model import discretize_initial

    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dt = spec.horizon / n_steps
    u = discretize_initial(spec, grid) if u0_field is None else np.array(
        u0_field, dtype=float)
    gx = None if spec.eta.is_zero else spec.eta.g(grid.coords())
    fields = np.empty((n_steps + 1,) + grid.shape)
    incs = np.zeros((n_steps,) + grid.shape)
    fields[0] = u
    stats = []
    for n in range(n_steps):
        inc = compensated_increment(path, spec, grid, u, n * dt, (n + 1) * dt,
                                    gx=gx)
        incs[n] = inc
        try:
            u, st = implicit_step(spec, grid, u, inc, dt, return_stats=True)
        except StepFailureError as err:
            raise StepFailureError(
                "step %d of %d failed: %s" % (n + 1, n_steps, err),
                err.history) from err
        fields[n + 1] = u
        stats.append(st)
    return Trajectory(fields=fields, increments=incs, dt=dt, grid=grid,
                      spec=spec, stats=stats)


# ---------------------------------------------------------------------------
# Energy bookkeeping

@dataclass
class EnergyReport:
    """Per-step terms of the discrete energy estimate and a Gronwall fit.

    ``energy(n)`` = ||u_n||^2 + sum_{k<n} ||u_{k+1}-u_k||^2
    + (dt/c_phi) sum_{k<n} ||grad phi(u_{k+1})||^2
    + eps dt sum_{k<n} ||grad u_{k+1}||^2, which the scheme keeps below
    C1 + C2 dt sum_{k<n} ||u_k||^2 with the reported empirical constants.
    """

    u_norm_sq: np.ndarray       # (N+1,)
    increment_sq: np.ndarray    # (N,)
    grad_phi_sq: np.ndarray     # (N,)  at u_{k+1}
    grad_u_sq: np.ndarray       # (N,)  at u_{k+1}
    grad_g_sq: Optional[np.ndarray]  # (N+1,) Kirchhoff gradient, if requested
    dt: float
    epsilon: float
    c_phi: float
    gronwall_c1: float
    gronwall_c2: float
    passed: bool
    monotone: bool

    def energy(self, n: int) -> float:
        phi_term = 0.0
        if self.c_phi > 0.0:
            phi_term = self.dt / self.c_phi * float(np.sum(self.grad_phi_sq[:n]))
        return (float(self.u_norm_sq[n])
                + float(np.sum(self.increment_sq[:n]))
                + phi_term
                + self.epsilon * self.dt * float(np.sum(self.grad_u_sq[:n])))

    @property
    def final_energy(self) -> float:
        return self.energy(len(self.increment_sq))


def discrete_energy_report(traj: Trajectory,
                           kirchhoff_fn: Optional[Callable] = None
                           ) -> EnergyReport:
    """Evaluate every term of the step-energy identity along a trajectory."""
    grid = traj.grid
    n = traj.n_steps
    u_norm_sq = np.array([l2_sq(traj.fields[k], grid) for k in range(n + 1)])
    inc_sq = np.array([l2_sq(traj.fields[k + 1] - traj.fields[k], grid)
                       for k in range(n)])
    phi_vals = [np.asarray(traj.spec.phi.phi(traj.fields[k + 1]), dtype=float)
                for k in range(n)]
    grad_phi = np.array([grad_sq(p, grid) for p in phi_vals])
    grad_u = np.array([grad_sq(traj.fields[k + 1], grid) for k in range(n)])
    grad_g = None
    if kirchhoff_fn is not None:
        g_vals = kirchhoff_fn(traj.fields.reshape(n + 1, -1)).reshape(
            traj.fields.shape)
        grad_g = np.array([grad_sq(g_vals[k], grid) for k in range(n + 1)])

    c1 = float(u_norm_sq[0])
    c2 = 0.0
    dt = traj.dt
    for m in range(1, n + 1):
        denom = dt * float(np.sum(u_norm_sq[:m]))
        phi_term = (dt / traj.spec.c_phi * float(np.sum(grad_phi[:m]))
                    if traj.spec.c_phi > 0.0 else 0.0)
        lhs = (float(u_norm_sq[m]) + float(np.sum(inc_sq[:m])) + phi_term
               + traj.spec.epsilon * dt * float(np.sum(grad_u[:m])))
        if denom > 0.0 and lhs > c1:
            c2 = max(c2, (lhs - c1) / denom)
    passed = bool(np.all(np.isfinite(u_norm_sq)) and np.isfinite(c2))
    monotone = bool(np.all(np.diff(u_norm_sq) <= 1e-12 * (1.0 + u_norm_sq[:-1])))
    return EnergyReport(
        u_norm_sq=u_norm_sq, increment_sq=inc_sq, grad_phi_sq=grad_phi,
        grad_u_sq=grad_u, grad_g_sq=grad_g, dt=dt, epsilon=traj.spec.epsilon,
        c_phi=traj.spec.c_phi, gronwall_c1=c1, gronwall_c2=c2,
        passed=passed, monotone=monotone)
