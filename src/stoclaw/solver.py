"""Implicit time discretization of the viscous problem: one nonlinear
elliptic solve per step, driven by windowed compensated jump increments,
plus the discrete energy terms.

Spatial operators are second-order central differences on the cell
centers of the periodic torus that truncates R^d; div f(u) optionally
switches to an Engquist-Osher monotone form.  Newton matrices go to LAPACK:
a cyclic ``dgtsv`` solve in 1D, ``dgbsv`` on a folded band in 2D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np
from scipy.linalg.lapack import dgbsv, dgbtrf, dgbtrs, dgtsv
from scipy.sparse.linalg import splu, spsolve  # for perfbench's tracer only

from .model import Grid, ProblemSpec
from .noise import JumpPath, compensated_increment

__all__ = [
    "StepFailureError", "StepStats", "Trajectory", "implicit_step",
    "solve_path", "discrete_energy_report",
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
    cols_p, cols_m = _stencil(grid)[0][axis]
    return u.ravel()[cols_p if step > 0 else cols_m].reshape(u.shape)


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
        d = (_neighbor(u, ax, +1, grid) - u) / h
        total += float(np.sum(d * d)) * vol
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


def _operator_jacobian(u: np.ndarray, spec: ProblemSpec, grid: Grid,
                       viscous_only: bool = False):
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

    if viscous_only:
        dphi = np.zeros_like(uf)
        with_flux = False
    else:
        dphi = np.asarray(spec.phi.dphi(uf), dtype=float)
        with_flux = spec.flux.c_f > 0.0

    diag = np.zeros(uf.size)
    coefs = []
    for ax, (cols_p, cols_m) in enumerate(axes):
        plus = (dphi[cols_p] + eps) / h2
        minus = (dphi[cols_m] + eps) / h2
        diag += -2.0 * (dphi + eps) / h2

        if with_flux:
            comp = spec.flux.components[ax]
            if spec.flux_form == "central":
                fp = np.asarray(comp.df(uf[cols_p]), dtype=float) / (2.0 * h)
                fm = -np.asarray(comp.df(uf[cols_m]), dtype=float) / (2.0 * h)
            else:
                dfp = np.asarray(comp.dfplus(uf), dtype=float)
                dfm = np.asarray(comp.dfminus(uf), dtype=float)
                diag += (dfp - dfm) / h
                fp = np.asarray(comp.dfminus(uf[cols_p]), dtype=float) / h
                fm = -np.asarray(comp.dfplus(uf[cols_m]), dtype=float) / h
            plus = plus + fp
            minus = minus + fm
        coefs.append((plus, minus))
    return diag, coefs


def _band_matrix(diag, coefs, grid: Grid, dt: float):
    """``(k, pos, order, ab)``: I - dt J in the band of :func:`_stencil`."""
    _, (k, pos, order, slot) = _stencil(grid)
    ab = np.zeros((pos.size, 3 * k + 1))
    ab.flat[slot] = np.concatenate(
        [1.0 - dt * diag] + [-dt * c for pair in coefs for c in pair])
    return k, pos, order, ab.T


def _solve_tridiagonal(d, up, lo, rhs) -> np.ndarray:
    """Solve lo[i] x[i-1] + d[i] x[i] + up[i] x[i+1] = rhs[i], indices
    wrapping cyclically, with LAPACK ``dgtsv`` (Gaussian elimination with
    partial pivoting).

    The corner entries ``lo[0]`` and ``up[-1]`` are removed by a
    Sherman-Morrison correction (Numerical Recipes 2.7) whose second
    right-hand side rides in the same ``dgtsv`` call.
    """
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
    if info != 0:
        raise np.linalg.LinAlgError(
            "tridiagonal Newton matrix is singular (dgtsv info %d)" % info)
    y, z = yz[:, 0], yz[:, 1]
    return y - ((y[0] + beta * y[-1] / gamma)
                / (1.0 + z[0] + beta * z[-1] / gamma)) * z


def _newton_direction(diag, coefs, grid: Grid, dt: float,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (I - dt J) x = rhs: ``dgtsv`` in 1D, else ``dgbsv``."""
    if grid.dim == 1:
        plus, minus = coefs[0]
        return _solve_tridiagonal(1.0 - dt * diag, -dt * plus, -dt * minus,
                                  rhs)
    k, pos, order, ab = _band_matrix(diag, coefs, grid, dt)
    _, _, x, info = dgbsv(k, k, ab, rhs[order], overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError("dgbsv: singular matrix, info %d" % info)
    return x[pos]


def _step_operator(u: np.ndarray, spec: ProblemSpec, grid: Grid) -> np.ndarray:
    return (laplacian(np.asarray(spec.phi.phi(u), dtype=float), grid)
            + spec.epsilon * laplacian(u, grid)
            + divergence(u, spec, grid))


@dataclass
class StepStats:
    """One step's row of ``fields/stats_path0000.csv``."""

    newton_iterations: int
    picard_iterations: int
    residual: float
    used_fallback: bool
    lemma_ratio: float


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
                  noise_inc: np.ndarray, dt: float):
    """Solve u - dt*(lap phi(u) + eps lap u + div f(u)) = u_n + noise_inc,
    returning ``(u, StepStats)``.

    Damped Newton with an analytic stencil Jacobian, solved by LAPACK
    (``dgtsv`` in 1D, ``dgbsv`` on the folded band of :func:`_stencil` in
    2D); the fallback is a Picard sweep on the viscous operator, band-
    factored once by ``dgbtrf``. The accepted state satisfies
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
        k, pos, order, ab = _band_matrix(diag, coefs, grid, dt)
        lu, piv, _ = dgbtrf(ab, k, k, overwrite_ab=1)  # M-matrix: info 0
        u = u_n.copy()
        for picard_iters in range(1, PICARD_MAX_ITER + 1):
            rhs = x_rhs + dt * (
                laplacian(np.asarray(spec.phi.phi(u), dtype=float), grid)
                + divergence(u, spec, grid))
            u = dgbtrs(lu, k, k, rhs.ravel()[order], piv)[0][pos].reshape(
                u.shape)
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

    return u, StepStats(
        newton_iterations=newton_iters, picard_iterations=picard_iters,
        residual=res_norm, used_fallback=used_fallback,
        lemma_ratio=_lemma_check(u, x_rhs, spec, grid))


# ---------------------------------------------------------------------------
# Whole-path solve and interpolants

@dataclass
class Trajectory:
    """States u_0..u_N with the per-step solver stats.

    Arrays are owned by the trajectory and must not be mutated.
    """

    fields: np.ndarray        # (N+1, *shape)
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
    fields[0] = u
    stats = []
    for n in range(n_steps):
        inc = compensated_increment(path, spec, grid, u, n * dt, (n + 1) * dt,
                                    gx=gx)
        try:
            u, st = implicit_step(spec, grid, u, inc, dt)
        except StepFailureError as err:
            raise StepFailureError(
                "step %d of %d failed: %s" % (n + 1, n_steps, err),
                err.history) from err
        fields[n + 1] = u
        stats.append(st)
    return Trajectory(fields=fields, dt=dt, grid=grid, spec=spec,
                      stats=stats)


# ---------------------------------------------------------------------------
# Energy terms

def discrete_energy_report(traj: Trajectory,
                           kirchhoff_fn: Callable) -> Dict[str, np.ndarray]:
    """Every term of the step-energy identity along a trajectory, by name:
    ``u_norm_sq`` ||u_k||^2 and ``grad_g_sq`` ||grad G(u_k)||^2 at k = 0..N,
    ``increment_sq`` ||u_{k+1} - u_k||^2, and ``grad_phi_sq`` and
    ``grad_u_sq`` (||grad phi(u)||^2 and ||grad u||^2) at u_{k+1}, k < N.
    """
    grid = traj.grid
    n = traj.n_steps
    g_vals = kirchhoff_fn(traj.fields.reshape(n + 1, -1)).reshape(
        traj.fields.shape)
    return {
        "u_norm_sq": np.array([l2_sq(traj.fields[k], grid)
                               for k in range(n + 1)]),
        "increment_sq": np.array([
            l2_sq(traj.fields[k + 1] - traj.fields[k], grid)
            for k in range(n)]),
        "grad_phi_sq": np.array([
            grad_sq(np.asarray(traj.spec.phi.phi(traj.fields[k + 1]),
                               dtype=float), grid) for k in range(n)]),
        "grad_u_sq": np.array([grad_sq(traj.fields[k + 1], grid)
                               for k in range(n)]),
        "grad_g_sq": np.array([grad_sq(g_vals[k], grid)
                               for k in range(n + 1)]),
    }
