"""Compensated Poisson random measure on O x R*: catalog intensities with
closed-form size moments, exact path sampling, windowed compensated
increments, and the entropy inequality's noise term for a single path.

Paths are continuous-time objects (sorted events), so the same path drives
every time discretization; that is the common-random-numbers contract all
coupled studies rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "SizeMeasure", "LevyIntensity", "JumpPath",
    "TruncationRequiredError", "sample_jump_path", "compensated_increment",
    "martingale_term",
]


class TruncationRequiredError(ValueError):
    """The requested intensity has infinite total mass."""


@dataclass(frozen=True)
class SizeMeasure:
    """Jump-size intensity on R* (zero excluded).

    kind = "atoms": finite sum of point masses; kind = "uniform": constant
    density on an interval away from 0; kind = "alpha_stable": density
    c |v|^(-1-alpha) restricted to z_min <= |v| <= v_max on both sides. The
    restriction keeps the total mass finite so events can be simulated
    exactly.
    """

    kind: str
    atoms: tuple = ()
    lo: float = 0.0
    hi: float = 1.0
    mass: float = 1.0
    alpha: float = 0.5
    z_min: float = 0.0
    v_max: float = 1.0
    strength: float = 1.0

    def __post_init__(self):
        if self.kind == "atoms":
            if not self.atoms:
                raise ValueError("atom size measure needs at least one atom")
            for v, m in self.atoms:
                if v == 0.0 or not np.isfinite(v):
                    raise ValueError("size_atoms values must be finite and "
                                     "avoid 0")
                if not 0.0 <= m < np.inf:
                    raise ValueError("size_atoms masses must be finite and "
                                     ">= 0")
        elif self.kind == "uniform":
            if not self.hi > self.lo:
                raise ValueError("uniform size measure needs hi > lo")
            if self.lo < 0.0 < self.hi:
                raise ValueError("uniform size support must avoid 0")
            if not 0.0 <= self.mass < np.inf:
                raise ValueError("size_mass must be finite and >= 0, got %r"
                                 % (self.mass,))
        elif self.kind == "alpha_stable":
            if not 0.0 < self.alpha < 2.0:
                raise ValueError("alpha must lie in (0, 2)")
            if not self.z_min > 0.0:
                raise ValueError("alpha_stable requires a positive z_min")
            if not np.isfinite(self.v_max) or self.v_max <= self.z_min:
                raise TruncationRequiredError(
                    "alpha_stable needs a finite mark window z_min < v_max")
            if not 0.0 <= self.strength < np.inf:
                raise ValueError("strength must be finite and >= 0, got %r"
                                 % (self.strength,))
        else:
            raise ValueError("unknown size measure %r" % (self.kind,))

    @property
    def total_mass(self) -> float:
        if self.kind == "atoms":
            return float(sum(m for _, m in self.atoms))
        if self.kind == "uniform":
            return float(self.mass)
        a = self.alpha
        return 2.0 * self.strength * (self.z_min ** -a - self.v_max ** -a) / a

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "atoms":
            masses = np.array([m for _, m in self.atoms])
            vals = np.array([v for v, _ in self.atoms])
            idx = rng.choice(len(vals), size=n, p=masses / masses.sum())
            return vals[idx]
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, n)
        a = self.alpha
        sgn = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        u = rng.uniform(size=n)
        lo_a, hi_a = self.z_min ** -a, self.v_max ** -a
        return sgn * (lo_a - u * (lo_a - hi_a)) ** (-1.0 / a)

    def moment(self, j: int) -> float:
        """int v^j dmu over the truncated support, in closed form."""
        if self.kind == "atoms":
            return float(sum(m * v ** j for v, m in self.atoms))
        if self.kind == "uniform":
            dens = self.mass / (self.hi - self.lo)
            return dens * (self.hi ** (j + 1) - self.lo ** (j + 1)) / (j + 1)
        if j % 2:
            return 0.0  # the density is symmetric in v
        p = j - self.alpha  # never 0: alpha lies in (0, 2)
        return 2.0 * self.strength * (self.v_max ** p - self.z_min ** p) / p

    def sup_abs(self, p: int) -> float:
        """sup |v|^p over the truncated support, in closed form: at its
        largest |v|, an atom, an end of the interval, or v_max."""
        ends = ([v for v, _ in self.atoms] if self.kind == "atoms"
                else (self.lo, self.hi) if self.kind == "uniform"
                else (self.v_max,))
        return float(max(abs(v) ** p for v in ends))


@dataclass(frozen=True)
class LevyIntensity:
    """Product intensity m = lambda x mu on E = O x R*.

    The catalog amplitude never reads the jump position, so the position
    measure lambda enters only through its total mass lambda(O).
    """

    position_mass: float
    size: SizeMeasure

    def __post_init__(self):
        if self.position_mass < 0.0 or not np.isfinite(self.position_mass):
            raise ValueError("position mass must be finite and nonnegative")

    @property
    def total_mass(self) -> float:
        return self.position_mass * self.size.total_mass

    def h_moment(self, h_power: int, j: int = 1) -> float:
        """lambda(O) int h(v)^j mu(dv) for the catalog h(v) = v^h_power.

        At j = 1 this is the compensator rate of the jump sum of h.
        """
        return self.position_mass * self.size.moment(h_power * j)


@dataclass(frozen=True)
class JumpPath:
    """One realization of the Poisson random measure: sorted marked events.

    The path lives in continuous time; it carries no time grid, so solving
    with different step counts on one path uses identical events.
    """

    times: np.ndarray
    sizes: np.ndarray
    horizon: float
    intensity: LevyIntensity = field(compare=False)

    @property
    def count(self) -> int:
        return self.times.size

    def window(self, t0: float, t1: float) -> slice:
        i0 = int(np.searchsorted(self.times, t0, side="left"))
        i1 = int(np.searchsorted(self.times, t1, side="left"))
        return slice(i0, i1)


def sample_jump_path(intensity: LevyIntensity, horizon: float,
                     seed: int) -> JumpPath:
    """Exact simulation: Poisson count, i.i.d. uniform times, inverse-CDF marks.

    Reproducible: identical (intensity, horizon, seed) give identical paths.
    """
    lam = intensity.total_mass
    if not np.isfinite(lam):
        raise TruncationRequiredError(
            "total intensity mass is not finite; truncate the size measure")
    rng = np.random.default_rng(seed)
    if lam == 0.0:
        return JumpPath(np.empty(0), np.empty(0), horizon, intensity)
    n = int(rng.poisson(lam * horizon))
    times = np.sort(rng.uniform(0.0, horizon, n))
    vs = intensity.size.sample(rng, n)
    return JumpPath(times, vs, horizon, intensity)


def compensated_increment(path: JumpPath, spec, grid, u_n: np.ndarray,
                          t0: float, t1: float,
                          gx: Optional[np.ndarray] = None) -> np.ndarray:
    """Windowed compensated noise, evaluated at the previous iterate.

    Returns sum_{t_j in [t0, t1)} eta(x, u_n(x); z_j) minus
    (t1 - t0) * int_E eta(x, u_n(x); z) m(dz) on the grid cells.
    """
    if not (0.0 <= t0 <= t1 <= path.horizon + 1e-12):
        raise ValueError("window [%g, %g) outside [0, %g]" % (t0, t1, path.horizon))
    if spec.silent:
        return np.zeros_like(u_n)
    if gx is None:
        gx = spec.eta.g(grid.coords())
    sig = spec.eta.sigma(u_n)
    jump_factor = float(np.sum(spec.eta.h(path.sizes[path.window(t0, t1)])))
    rate = path.intensity.h_moment(spec.eta.h_power)
    return gx * sig * (jump_factor - (t1 - t0) * rate)


def martingale_term(path: JumpPath, traj, triple, psi) -> float:
    """Noise term of the entropy inequality along one path: the compensated
    jump integral plus the Ito correction.

    In their sum the compensator's beta(u + eta) terms cancel, leaving the
    jump sum of beta(u_n + eta_j) - beta(u_n) against psi(t_j), with u_n the
    state of the step window [n dt, (n+1) dt) containing event j (events at
    t >= N dt fall in no window), minus the linear compensator
    dt x rate x sum_n g sigma(u_n) beta'(u_n) psibar_n, where psibar_n is
    the trapezoid average of psi over step n and rate is the
    lambda(O) int h dmu that ``compensated_increment`` subtracts. Both sums
    are one array expression each, over (events, cells) and (N, cells).
    """
    spec, grid = traj.spec, traj.grid
    if spec.silent:
        return 0.0
    coords = grid.coords()
    vol = grid.cell_volume
    u = traj.fields[:-1]
    amp_u = spec.eta.g(coords) * spec.eta.sigma(u)
    rate = path.intensity.h_moment(spec.eta.h_power)

    # each event's step: the solver's window path.window(n dt, (n+1) dt)
    step = np.searchsorted(traj.times, path.times, side="right") - 1
    inside = step < traj.n_steps
    step, t_j = step[inside], path.times[inside]
    h_j = spec.eta.h(path.sizes[inside]).reshape((-1,) + (1,) * grid.dim)
    u_j = u[step]
    jumps = float(np.sum((triple.beta(u_j + amp_u[step] * h_j)
                          - triple.beta(u_j)) * psi(t_j, coords))) * vol

    a = psi.a(traj.times)
    comp = (0.5 * (a[:-1] + a[1:])) @ np.sum(
        amp_u * triple.dbeta(u) * psi.b(coords), axis=tuple(range(1, u.ndim)))
    return float(jumps - traj.dt * rate * comp * vol)
