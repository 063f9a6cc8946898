"""Numerical verification of the quantitative estimates at desk scale:
entropy-inequality residuals, coupled-step Cauchy rates, weighted-L1
contraction, moment growth, the sup bound under compactly supported noise,
and the small-viscosity limit.

Each Monte-Carlo check is a per-path part (``*_path_*``: the solves along
one sampled path and their reduction), which the harness runs in its worker
pool, and an aggregator over the per-path results in seed order. The
contraction and moment aggregators share one rule, ``growth_test``: fit the
exponential growth of the seed-order mean at n and 2n steps, and call it
stable when the two fits agree.

Space-time integrals against a test function use the trajectory's own grid
(midpoint in space, trapezoid in time at the step knots); test functions
are separable, psi = a(t) b(x), with analytic derivatives, so each integral
contracts the whole (N+1, *shape) field stack with b and a knot vector.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .entropy import EntropyTriple, kirchhoff
from .model import Grid, ProblemSpec, discretize_initial
from .noise import JumpPath, martingale_term, sample_jump_path
from .solver import Trajectory, cell_integral, l2_sq, solve_path

__all__ = [
    "TestFunction", "bump_test_function", "uniform_test_function",
    "test_function_catalog", "WeightPhiN", "CheckResult", "DiagnosticsReport",
    "entropy_residual", "entropy_tolerance", "calibrate_entropy_tolerance",
    "ENTROPY_TOL_COEFF", "THETA_VALUES", "cauchy_path_errors",
    "cauchy_rate_test", "RateReport", "GrowthReport", "growth_test",
    "contraction_path_distances", "contraction_test", "moment_path_rows",
    "moment_bound_test", "linear_moment_rate",
    "max_principle_test", "BoundReport", "viscosity_path_errors",
    "viscosity_convergence_test",
]


# ---------------------------------------------------------------------------
# Test functions and weights

@dataclass(frozen=True)
class TestFunction:
    """Separable psi(t, x) = a(t) b(x) >= 0 with analytic derivatives.

    Compactly supported in [0, t_cut) x domain interior; the spatial factor
    is C^2, the time factor C^1. At an array of times, psi and its
    derivatives are outer products of the time and the spatial factor.
    """

    name: str
    a: Callable          # t -> time factor
    da: Callable         # its derivative
    b: Callable          # coords (..., d) -> (...)
    grad_b: Callable     # coords -> (..., d)
    lap_b: Callable

    def __call__(self, t, coords):
        return np.multiply.outer(self.a(t), self.b(coords))

    def dt(self, t, coords):
        return np.multiply.outer(self.da(t), self.b(coords))

    def grad(self, t, coords):
        return np.multiply.outer(self.a(t), self.grad_b(coords))

    def lap(self, t, coords):
        return np.multiply.outer(self.a(t), self.lap_b(coords))


def _time_cutoff(t_cut: float):
    def a(t):
        s = np.maximum(0.0, 1.0 - t / t_cut)
        return s * s

    def da(t):
        s = np.maximum(0.0, 1.0 - t / t_cut)
        return -2.0 * s / t_cut

    return a, da


def bump_test_function(center, width: float, t_cut: float,
                       name: str = "bump") -> TestFunction:
    """Cubic-power bump in space ((1 - r^2/w^2)_+)^3, quadratic decay in time."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    a, da = _time_cutoff(t_cut)

    def profile(coords):
        r2 = np.sum((coords - c) ** 2, axis=-1) / width ** 2
        return np.maximum(1.0 - r2, 0.0)

    def b(coords):
        return profile(coords) ** 3

    def grad_b(coords):
        v = profile(coords)
        factor = -6.0 * v * v / width ** 2
        return factor[..., None] * (coords - c)

    def lap_b(coords):
        # lap(v^3) with v = 1 - r^2/w^2 and grad v = -2(x-c)/w^2
        v = profile(coords)
        r2 = np.sum((coords - c) ** 2, axis=-1)
        d = coords.shape[-1]
        return 24.0 * v * r2 / width ** 4 - 6.0 * v * v * d / width ** 2

    return TestFunction(name=name, a=a, da=da, b=b, grad_b=grad_b,
                        lap_b=lap_b)


def uniform_test_function(t_cut: float, name: str = "uniform") -> TestFunction:
    """Spatially constant test function; admissible on the periodic torus."""
    a, da = _time_cutoff(t_cut)
    return TestFunction(
        name=name, a=a, da=da,
        b=lambda x: np.ones(x.shape[:-1]),
        grad_b=lambda x: np.zeros(x.shape),
        lap_b=lambda x: np.zeros(x.shape[:-1]))


def test_function_catalog(half_width: float, horizon: float,
                          dim: int = 1) -> List[TestFunction]:
    """Five bump test functions spanning centers, widths, and time cutoffs."""
    L, T = half_width, horizon
    layout = [
        (0.0, 0.50 * L, 0.90 * T),
        (-0.25 * L, 0.40 * L, 0.80 * T),
        (0.25 * L, 0.40 * L, 0.80 * T),
        (0.0, 0.70 * L, 0.95 * T),
        (0.10 * L, 0.30 * L, 0.70 * T),
    ]
    return [bump_test_function(np.full(dim, c), w, tc, name="psi%d" % (i + 1))
            for i, (c, w, tc) in enumerate(layout)]


@dataclass(frozen=True)
class WeightPhiN:
    """Radial weight: 1 inside |x| <= n, (n/|x|)^a outside, a = d/2 + 0.1."""

    n: float
    dim: int

    @property
    def exponent(self) -> float:
        return self.dim / 2.0 + 0.1

    def __call__(self, coords) -> np.ndarray:
        r = np.sqrt(np.sum(np.asarray(coords, dtype=float) ** 2, axis=-1))
        return (self.n / np.maximum(r, self.n)) ** self.exponent


# ---------------------------------------------------------------------------
# Report plumbing

STATUS_TEXT = {True: "pass", False: "fail", None: "inconclusive"}


@dataclass
class CheckResult:
    name: str
    value: float
    bound: float
    margin: float
    passed: Optional[bool]  # None = inconclusive
    statement: str


@dataclass
class DiagnosticsReport:
    checks: List[CheckResult] = field(default_factory=list)

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    @property
    def any_failed(self) -> bool:
        return any(c.passed is False for c in self.checks)

    @property
    def any_inconclusive(self) -> bool:
        return any(c.passed is None for c in self.checks)

    def rows(self) -> List[dict]:
        out = []
        for c in self.checks:
            out.append({
                "check": c.name,
                "value": "%.17g" % c.value,
                "bound": "%.17g" % c.bound,
                "margin": "%.17g" % c.margin,
                "status": STATUS_TEXT[c.passed],
                "statement": c.statement,
            })
        return out

    def write_csv(self, path) -> None:
        rows = self.rows()
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["check", "value", "bound", "margin", "status",
                                "statement"])
            writer.writeheader()
            writer.writerows(rows)


# ---------------------------------------------------------------------------
# Entropy residual

# Smoothing scales of the beta_theta family at which every entropy check
# (residual, sandwich, exchange identities, calibration) is run.
THETA_VALUES = (1.0, 0.1, 0.01)

# Coefficient of the discretization allowance C * (eps + h + dt) for the
# entropy residual, calibrated once on three linear noiseless (h, dt, eps)
# triples by ``calibrate_entropy_tolerance`` (safety factor 3) and frozen.
# The factor covers the strongly degenerate catalog members, whose worst
# negative residual was verified to vanish under joint (eps, h, dt)
# refinement while staying far below the inequality's O(1) scale.
ENTROPY_TOL_COEFF = 0.268


def entropy_tolerance(spec: ProblemSpec, grid: Grid, dt: float,
                      coeff: float = ENTROPY_TOL_COEFF) -> float:
    return coeff * (spec.epsilon + grid.h + dt)


def _trapezoid_weights(n_steps: int, dt: float) -> np.ndarray:
    w = np.full(n_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def entropy_residual(traj: Trajectory, path: JumpPath, triple: EntropyTriple,
                     psi: TestFunction, kirchhoff_fn: Callable) -> float:
    """Residual of the entropy inequality along one path, with
    ``kirchhoff_fn`` the Kirchhoff transform G of ``traj.spec.phi``.

    Positive part of the inequality minus the dissipation term plus the
    initial term; nonnegative for an exact entropy solution, and bounded
    below by -C (eps + h + dt) for the viscous scheme. Each term sums a
    function of the field stack against b over cells, then against the
    trapezoid weights times a or a' over knots; the dissipation takes face
    averages of b and beta''.
    """
    grid = traj.grid
    u = traj.fields
    coords = grid.coords()
    w_t = _trapezoid_weights(traj.n_steps, traj.dt)
    w_a = w_t * psi.a(traj.times)
    b = psi.b(coords)

    beta_b = cell_integral(triple.beta(u) * b, grid)
    t_time = (w_t * psi.da(traj.times)) @ beta_b
    t_lap = t_flux = 0.0
    if triple.nu is not None:
        t_lap = w_a @ cell_integral(triple.nu(u) * psi.lap_b(coords), grid)
    if triple.zeta is not None:
        t_flux = -(w_a @ cell_integral(
            np.sum(triple.zeta(u) * psi.grad_b(coords), axis=-1), grid))

    # one G call per field: perfbench pins 496P kirchhoff evals until D1
    g_u = np.stack([kirchhoff_fn(v) for v in u])
    d2 = triple.d2beta(u)
    t_diss = 0.0
    for ax in range(-grid.dim, 0):
        diff = (np.roll(g_u, -1, axis=ax) - g_u) / grid.h
        t_diss += w_a @ cell_integral(
            diff * diff * 0.5 * (b + np.roll(b, -1, axis=ax))
            * 0.5 * (d2 + np.roll(d2, -1, axis=ax)), grid)

    t_noise = martingale_term(path, traj.spec, grid, traj, triple, psi)
    t_init = psi.a(0.0) * beta_b[0]
    return float(t_time + t_lap + t_flux + t_noise - t_diss + t_init)


def calibrate_entropy_tolerance(samples: Sequence[tuple]) -> float:
    """Fit the residual allowance coefficient on linear noiseless runs.

    ``samples`` are (spec, grid, n_steps) triples for the linear family; the
    coefficient is the worst observed -residual / (eps + h + dt) over
    ``THETA_VALUES``, inflated by a safety factor of 3, with a floor keeping
    the tolerance meaningful when the residuals are all nonnegative.
    """
    from .entropy import make_beta_theta

    worst = 0.0
    for spec, grid, n_steps in samples:
        path = sample_jump_path(spec.levy, spec.horizon, seed=0) \
            if spec.levy is not None \
            else JumpPath(np.empty(0), np.empty(0), spec.horizon)
        traj = solve_path(spec, grid, n_steps, path)
        G = kirchhoff(spec.phi)
        for th in THETA_VALUES:
            triple = make_beta_theta(th, phi=spec.phi, flux=spec.flux)
            for psi in test_function_catalog(grid.half_width, spec.horizon,
                                             grid.dim):
                r = entropy_residual(traj, path, triple, psi, kirchhoff_fn=G)
                scale = spec.epsilon + grid.h + traj.dt
                worst = max(worst, -r / scale)
    return max(worst * 3.0, 0.05)


# ---------------------------------------------------------------------------
# Cauchy rate in dt

@dataclass
class RateReport:
    lane: str
    parameters: np.ndarray
    errors_sq: np.ndarray
    stderr: np.ndarray
    ratios: np.ndarray
    slope: float
    status: Optional[bool]  # None = inconclusive


def _coupled_error_sq(traj_c: Trajectory, traj_f: Trajectory) -> float:
    """Exact squared L2(0,T; L2) distance of the two step interpolants,
    assuming the fine grid halves the coarse one."""
    coarse = traj_c.fields[(np.arange(1, traj_f.n_steps + 1) + 1) // 2]
    # Python's sum adds in step order; a pairwise np.sum moves rates.csv bits
    return sum(traj_f.dt * l2_sq(coarse - traj_f.fields[1:], traj_c.grid))


def cauchy_path_errors(spec: ProblemSpec, grid: Grid, path: JumpPath,
                       n_steps_list: Sequence[int]) -> List[float]:
    """One path's part of the Cauchy lane: ||u_dt - u_dt/2||^2 at each step
    count, both solved along ``path``."""
    return [_coupled_error_sq(solve_path(spec, grid, n, path),
                              solve_path(spec, grid, 2 * n, path))
            for n in n_steps_list]


def cauchy_rate_test(spec: ProblemSpec, n_steps_list: Sequence[int],
                     per_path: Sequence[Sequence[float]]) -> RateReport:
    """Coupled-step self-refinement: fit the slope of log E||u_dt - u_dt/2||^2
    against log dt with common jump paths across every step count.

    ``per_path`` holds ``cauchy_path_errors`` of each path, in seed order.
    Stochastic lane passes on slope inside (0.8, 1.3). Fewer than three step
    counts (too short for a stable fit; two still give a slope) or
    noise-dominated estimates give an inconclusive report. Silent noise gives
    every path the same errors: the deterministic lane reads the first path
    (slope ~ 2 for the squared error) and is judged against (1.7, 2.3).
    """
    lane = "deterministic" if spec.eta.is_zero else "stochastic"
    window = (0.8, 1.3)
    if lane == "deterministic":
        per_path = per_path[:1]
        window = (1.7, 2.3)
    dts = np.array([spec.horizon / n for n in n_steps_list])
    arrs = [np.asarray(errors) for errors in zip(*per_path)]
    err = np.array([float(np.mean(a)) for a in arrs])
    se = np.array([float(np.std(a, ddof=1) / math.sqrt(a.size))
                   if a.size > 1 else 0.0 for a in arrs])
    ratios = err[:-1] / np.maximum(err[1:], 1e-300)
    if len(n_steps_list) < 2:
        return RateReport(lane, dts, err, se, ratios, slope=float("nan"),
                          status=None)
    slope, _ = np.polyfit(np.log(dts), np.log(np.maximum(err, 1e-300)), 1)
    unsure = len(n_steps_list) < 3 or bool(np.any(err < 3.0 * se))
    status = None if unsure else bool(window[0] <= slope <= window[1])
    return RateReport(lane, dts, err, se, ratios, slope=float(slope),
                      status=status)


# ---------------------------------------------------------------------------
# Growth of a Monte-Carlo mean: weighted-L1 contraction and moments

@dataclass
class GrowthReport:
    """Growth constant C of a seed-order mean m, the smallest with
    m(t) <= exp(C t) m(0) at every knot, fitted at n and at 2n steps."""

    mean: np.ndarray      # m at the n + 1 knots
    fit: float            # C at n steps
    fit_half: float       # C at 2n steps
    knot: int             # the knot that binds ``fit``
    stable: bool          # the two fits agree within the relative tolerance
    oracle_band: Optional[float] = None    # moments with a closed-form rate
    within_oracle: Optional[bool] = None


def _fit_growth(times, dist, floor=1e-14):
    """Smallest C with dist(t) <= exp(C t) dist(0) at every knot, and the
    knot that binds it (0 when dist(0) is below ``floor``)."""
    d0 = dist[0]
    if d0 <= floor:
        return 0.0, 0
    rates = [math.log(max(d, floor) / d0) / t
             for d, t in zip(dist[1:], times[1:])]
    j = int(np.argmax(rates))
    return rates[j], j + 1


def growth_test(horizon: float, per_path: Sequence[tuple],
                rel_tol: float) -> GrowthReport:
    """Fit the growth of the mean of ``per_path``, pairs of per-knot rows
    at n and 2n steps in seed order; stable when the two fits differ by at
    most ``rel_tol`` max(|C_n|, |C_2n|, 0.05)."""
    means = [sum(row[i] for row in per_path) / len(per_path) for i in (0, 1)]
    fits = [_fit_growth(horizon / (m.size - 1) * np.arange(m.size), m)
            for m in means]
    (c1, knot), (c2, _) = fits
    return GrowthReport(
        mean=means[0], fit=c1, fit_half=c2, knot=knot,
        stable=abs(c1 - c2) <= rel_tol * max(abs(c1), abs(c2), 0.05))


def contraction_path_distances(spec: ProblemSpec, grid: Grid, path: JumpPath,
                               v0, n_weight: float, n_steps: int):
    """One path's part of the contraction check: the weighted-L1 distance
    between the solutions from the spec's initial data and from the family
    ``v0`` under ``path``, at every knot, at n_steps and at 2 n_steps."""
    u0_field = discretize_initial(spec, grid)
    v0_field = discretize_initial(spec.with_u0(v0), grid)
    weight = WeightPhiN(n_weight, grid.dim)(grid.coords())
    out = []
    for n in (n_steps, 2 * n_steps):
        tu = solve_path(spec, grid, n, path, u0_field=u0_field)
        tv = solve_path(spec, grid, n, path, u0_field=v0_field)
        out.append(cell_integral(np.abs(tu.fields - tv.fields) * weight,
                                 grid))
    return tuple(out)


def contraction_test(spec: ProblemSpec,
                     per_path: Sequence[tuple]) -> GrowthReport:
    """Two solutions under one noise per path: weighted-L1 distance growth.

    ``per_path`` holds ``contraction_path_distances`` of each path, in seed
    order; stability within 20 percent under dt halving passes.
    """
    return growth_test(spec.horizon, per_path, 0.2)


def moment_path_rows(spec: ProblemSpec, grid: Grid, path: JumpPath, p: int,
                     n_steps: int):
    """One path's part of the moment check: int |u_n|^p at every knot, solved
    along ``path`` at n_steps and at 2 n_steps."""
    if p % 2 != 0 or p < 2:
        raise ValueError("p must be an even integer >= 2")
    return tuple(cell_integral(np.abs(solve_path(spec, grid, n, path).fields)
                               ** p, grid)
                 for n in (n_steps, 2 * n_steps))


def moment_bound_test(spec: ProblemSpec, p: int, per_path: Sequence[tuple],
                      oracle_rate: Optional[float] = None) -> GrowthReport:
    """Monte-Carlo L^p moment growth with an exponential-envelope fit.

    ``per_path`` holds ``moment_path_rows`` of each path, in seed order.
    Fits the smallest K with E int |u_n|^p <= exp(K t) E int |u_0|^p, checks
    stability of K within 25 percent under dt halving, and optionally
    compares against a closed-form rate with a 3-sigma band propagated from
    the sample variance at the binding knot, when that knot is past t = 0.
    """
    rep = growth_test(spec.horizon, per_path, 0.25)
    if oracle_rate is not None and rep.knot > 0:
        rows = np.array([r for r, _ in per_path])
        n_paths, n_steps = rows.shape[0], rows.shape[1] - 1
        j = rep.knot
        se = rows.std(axis=0, ddof=1)[j] / math.sqrt(n_paths) \
            if n_paths > 1 else 0.0
        t_j = (spec.horizon / n_steps * np.arange(n_steps + 1))[j]
        rep.oracle_band = 3.0 * float(se) / max(rep.mean[j], 1e-300) / t_j
        rep.within_oracle = bool(abs(rep.fit - oracle_rate)
                                 <= rep.oracle_band + 1e-12)
    return rep


def linear_moment_rate(spec: ProblemSpec, p: int, dt: float) -> float:
    """Exact per-step growth rate of E int |u|^p for the linear noise case.

    Requires spatially constant g and initial data and sigma(u) = a u, so
    each cell evolves as u -> u (1 + a Y) with Y the compensated jump sum of
    one window; the rate is log E (1 + a Y)^p / dt from the compound-Poisson
    cumulants.
    """
    if spec.eta.params.get("sigma") != "linear":
        raise ValueError("closed-form rate needs the linear sigma family")
    if spec.eta.g_lip != 0.0:
        raise ValueError("closed-form rate needs spatially constant g")
    if spec.u0.support_radius is not None:
        raise ValueError("closed-form rate needs spatially constant u0")
    a = spec.eta.params["sigma_scale"] * spec.eta.g_inf
    r = {j: spec.levy.h_moment(spec.eta.h_power, j) for j in (1, 2, 3, 4)}
    k2 = dt * r[2]
    if p == 2:
        growth = 1.0 + a * a * k2
    elif p == 4:
        k3 = dt * r[3]
        k4 = dt * r[4]
        growth = (1.0 + 6.0 * a * a * k2 + 4.0 * a ** 3 * k3
                  + a ** 4 * (k4 + 3.0 * k2 * k2))
    else:
        raise ValueError("closed-form rate implemented for p in {2, 4}")
    return math.log(growth) / dt


# ---------------------------------------------------------------------------
# Sup bound under compactly supported noise

@dataclass
class BoundReport:
    bound: float
    tolerance: float
    worst: float
    passed: bool


def max_principle_test(spec: ProblemSpec,
                       per_path_max: Sequence[float]) -> BoundReport:
    """Cellwise |u_n| <= max(M + M1, ||u0||_inf) + tol at every step and path.

    ``per_path_max`` holds each path's max |u_n(x)| over cells and steps.
    Needs a noise amplitude with compact u-support: M is sigma's cap, or 0
    for silent noise, which leaves the deterministic bound ||u0||_inf; M1 is
    the declared sup of |eta|.
    """
    m1 = spec.m1
    if m1 is None:
        raise ValueError("max principle test needs bounded noise amplitude")
    m_cap = 0.0 if spec.eta.is_zero else spec.eta.sigma_cap
    bound = max(m_cap + m1, spec.u0.linf)
    tol = 1e-6 * bound
    worst = float(np.max(np.asarray(per_path_max, dtype=float)))
    return BoundReport(bound=bound, tolerance=tol, worst=worst,
                       passed=bool(worst <= bound + tol))


# ---------------------------------------------------------------------------
# Vanishing-viscosity limit

def _lp_spacetime(traj_a: Trajectory, traj_b: Trajectory, p: float) -> float:
    diff = np.abs(traj_a.fields[1:] - traj_b.fields[1:]) ** p
    # Python's sum adds in step order; a pairwise np.sum moves rates.csv bits
    return sum(traj_a.dt * cell_integral(diff, traj_a.grid)) ** (1.0 / p)


def viscosity_path_errors(spec: ProblemSpec, grid: Grid, path: JumpPath,
                          eps_list: Sequence[float],
                          n_steps: int) -> List[float]:
    """One path's part of the viscosity lane: ||u_eps - u_{eps/2}|| in
    L^1.5 of space-time for each eps, every solution driven by ``path``."""
    eps_all = list(eps_list) + [eps_list[-1] / 2.0]
    trajs = [solve_path(spec.with_epsilon(e), grid, n_steps, path)
             for e in eps_all]
    return [_lp_spacetime(trajs[j], trajs[j + 1], 1.5)
            for j in range(len(eps_list))]


def viscosity_convergence_test(eps_list: Sequence[float],
                               per_path: Sequence[Sequence[float]]
                               ) -> RateReport:
    """Successive-halving differences E||u_eps - u_{eps/2}|| along shared
    jump paths, from ``viscosity_path_errors`` of each path in seed order;
    passes when decreasing with successive ratios <= 0.9. Fewer than three
    eps values (two still give a slope) or noise-dominated differences are
    inconclusive."""
    per_path = np.asarray(per_path, dtype=float)
    diffs = per_path.mean(axis=0)
    se = per_path.std(axis=0, ddof=1) / math.sqrt(len(per_path)) \
        if len(per_path) > 1 else np.zeros(len(eps_list))
    ratios = diffs[1:] / np.maximum(diffs[:-1], 1e-300)
    eps_arr = np.asarray(eps_list, dtype=float)
    if len(eps_list) < 2:
        return RateReport("viscosity", eps_arr, diffs, se, ratios,
                          slope=float("nan"), status=None)
    unsure = len(eps_list) < 3 or bool(np.any(diffs < 3.0 * se))
    slope, _ = np.polyfit(np.log(eps_arr), np.log(np.maximum(diffs, 1e-300)), 1)
    status = None if unsure else bool(np.all(ratios <= 0.9))
    return RateReport("viscosity", eps_arr, diffs, se, ratios,
                      slope=float(slope), status=status)
