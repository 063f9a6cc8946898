"""Compensated Poisson random measure on O x R*: catalog intensities,
exact path sampling, windowed compensated increments, and the entropy
inequality's stochastic integral for a single path.

Paths are continuous-time objects (sorted events), so the same path drives
every time discretization; that is the common-random-numbers contract all
coupled studies rely on.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .quadrature import adaptive_simpson

__all__ = [
    "SizeMeasure", "LevyIntensity", "JumpPath",
    "TruncationRequiredError", "sample_jump_path", "compensated_increment",
    "martingale_term", "write_events", "read_events",
]

_GL64 = np.polynomial.legendre.leggauss(64)
_GL16 = np.polynomial.legendre.leggauss(16)


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
                if v == 0.0:
                    raise ValueError("size atoms must avoid 0")
                if m < 0.0:
                    raise ValueError("atom masses must be nonnegative")
        elif self.kind == "uniform":
            if not self.hi > self.lo:
                raise ValueError("uniform size measure needs hi > lo")
            if self.lo < 0.0 < self.hi:
                raise ValueError("uniform size support must avoid 0")
        elif self.kind == "alpha_stable":
            if not 0.0 < self.alpha < 2.0:
                raise ValueError("alpha must lie in (0, 2)")
            if not self.z_min > 0.0:
                raise ValueError("alpha_stable requires a positive z_min")
            if not np.isfinite(self.v_max) or self.v_max <= self.z_min:
                raise TruncationRequiredError(
                    "alpha_stable needs a finite mark window z_min < v_max")
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

    def integral(self, fn: Callable) -> float:
        """int fn(v) d(mu restricted to the truncated support)."""
        if self.kind == "atoms":
            return float(sum(m * float(np.asarray(fn(np.asarray([v])))[0])
                             for v, m in self.atoms))
        if self.kind == "uniform":
            dens = self.mass / (self.hi - self.lo)
            return dens * adaptive_simpson(fn, self.lo, self.hi, tol=1e-12)
        a, c = self.alpha, self.strength
        total = 0.0
        for sgn in (1.0, -1.0):
            total += adaptive_simpson(
                lambda v: fn(sgn * v) * c * v ** (-1.0 - a),
                self.z_min, self.v_max, tol=1e-12)
        return total

    def quad_nodes(self, n: int = 64) -> tuple:
        """Nodes and weights with sum(w_q fn(v_q)) ~ int fn dmu."""
        if self.kind == "atoms":
            return (np.array([v for v, _ in self.atoms]),
                    np.array([m for _, m in self.atoms]))
        s, w = _GL64 if n >= 64 else _GL16
        if self.kind == "uniform":
            dens = self.mass / (self.hi - self.lo)
            mid, half = 0.5 * (self.hi + self.lo), 0.5 * (self.hi - self.lo)
            return mid + half * s, dens * half * w
        a, c = self.alpha, self.strength
        nodes, weights = [], []
        for sgn in (1.0, -1.0):
            mid = 0.5 * (self.v_max + self.z_min)
            half = 0.5 * (self.v_max - self.z_min)
            v = mid + half * s
            nodes.append(sgn * v)
            weights.append(c * v ** (-1.0 - a) * half * w)
        return np.concatenate(nodes), np.concatenate(weights)

    def sup_abs(self, fn: Callable) -> float:
        """sup |fn| over the support (dense probe for continuous kinds)."""
        if self.kind == "atoms":
            return float(max(abs(float(np.asarray(fn(np.asarray([v])))[0]))
                             for v, _ in self.atoms))
        if self.kind == "uniform":
            probe = np.linspace(self.lo, self.hi, 4097)
        else:
            half = np.linspace(self.z_min, self.v_max, 4097)
            probe = np.concatenate([-half, half])
        return float(np.max(np.abs(fn(probe))))


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

    def sample_sizes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.size.sample(rng, n)

    def compensator_rate(self, h: Callable) -> float:
        """lambda-mass times int h(v) mu(dv) over the truncated support."""
        return self.position_mass * self.size.integral(h)


@dataclass(frozen=True)
class JumpPath:
    """One realization of the Poisson random measure: sorted marked events.

    The path lives in continuous time; it carries no time grid, so solving
    with different step counts on one path uses identical events.
    """

    times: np.ndarray
    sizes: np.ndarray
    seed: int
    horizon: float
    intensity: Optional[LevyIntensity] = field(default=None, compare=False)

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
        return JumpPath(np.empty(0), np.empty(0), seed, horizon, intensity)
    n = int(rng.poisson(lam * horizon))
    times = np.sort(rng.uniform(0.0, horizon, n))
    vs = intensity.size.sample(rng, n)
    return JumpPath(times, vs, seed, horizon, intensity)


def compensated_increment(path: JumpPath, spec, grid, u_n: np.ndarray,
                          t0: float, t1: float,
                          gx: Optional[np.ndarray] = None) -> np.ndarray:
    """Windowed compensated noise, evaluated at the previous iterate.

    Returns sum_{t_j in [t0, t1)} eta(x, u_n(x); z_j) minus
    (t1 - t0) * int_E eta(x, u_n(x); z) m(dz) on the grid cells.
    """
    if not (0.0 <= t0 <= t1 <= path.horizon + 1e-12):
        raise ValueError("window [%g, %g) outside [0, %g]" % (t0, t1, path.horizon))
    if spec.eta.is_zero:
        return np.zeros_like(u_n)
    if gx is None:
        gx = spec.eta.g(grid.coords())
    sig = spec.eta.sigma(u_n)
    sl = path.window(t0, t1)
    jump_factor = float(np.sum(spec.eta.h(path.sizes[sl]))) if sl.stop > sl.start else 0.0
    rate = path.intensity.compensator_rate(spec.eta.h)
    return gx * sig * (jump_factor - (t1 - t0) * rate)


def _entropy_jump(beta, u, amp):
    # int_0^1 amp * beta'(u + theta * amp) dtheta, integrated exactly
    return beta(u + amp) - beta(u)


def _entropy_jump_gl16(dbeta, u, amp):
    s, w = _GL16
    theta = 0.5 * (s + 1.0)
    acc = np.zeros_like(u)
    for t, wt in zip(theta, 0.5 * w):
        acc = acc + wt * amp * dbeta(u + t * amp)
    return acc


def martingale_term(path: JumpPath, spec, grid, traj, triple, psi,
                    theta_rule: str = "exact") -> float:
    """Stochastic integral of the entropy inequality along one path.

    Jump sum of the theta-averaged entropy increment against psi (noise
    evaluated at the state of the step window containing each event), minus
    the dt x m(dz) compensator with trapezoidal time weights at the knots.

    ``theta_rule``: "exact" integrates the theta average in closed form
    (the increment is a full Taylor remainder of beta); "gl16" uses a fixed
    16-point Gauss rule for cross-checking.
    """
    if spec.eta.is_zero:
        return 0.0
    coords = grid.coords()
    gx = spec.eta.g(coords)
    vol = grid.cell_volume
    dt = traj.dt
    n_steps = traj.fields.shape[0] - 1
    if theta_rule == "exact":
        jump = lambda u, amp: _entropy_jump(triple.beta, u, amp)
    elif theta_rule == "gl16":
        jump = lambda u, amp: _entropy_jump_gl16(triple.dbeta, u, amp)
    else:
        raise ValueError("theta_rule must be 'exact' or 'gl16'")

    total = 0.0
    for n in range(n_steps):
        # the window the solver's compensated_increment used for step n
        sl = path.window(n * dt, (n + 1) * dt)
        u = traj.fields[n]
        for t_j, v_j in zip(path.times[sl], path.sizes[sl]):
            amp = gx * spec.eta.sigma(u) * float(np.asarray(spec.eta.h(np.asarray([v_j])))[0])
            total += float(np.sum(jump(u, amp) * psi(t_j, coords))) * vol

    nodes, weights = path.intensity.size.quad_nodes()
    pos_mass = path.intensity.position_mass
    comp = 0.0
    for n in range(n_steps):
        u = traj.fields[n]
        t0, t1 = n * dt, (n + 1) * dt
        psi_bar = 0.5 * (psi(t0, coords) + psi(t1, coords))
        sig = spec.eta.sigma(u)
        step_val = 0.0
        for v_q, w_q in zip(nodes, weights):
            amp = gx * sig * float(np.asarray(spec.eta.h(np.asarray([v_q])))[0])
            step_val += w_q * float(np.sum(jump(u, amp) * psi_bar))
        comp += dt * pos_mass * step_val * vol
    return total - comp


# ---------------------------------------------------------------------------
# Event-file replay format: one "t v" line (time, mark size) per event,
# 17 significant digits.

def write_events(path: JumpPath, stream) -> None:
    own = isinstance(stream, str)
    fh = open(stream, "w") if own else stream
    try:
        fh.write("# jump path: seed=%d horizon=%.17g count=%d\n"
                 % (path.seed, path.horizon, path.count))
        for t, v in zip(path.times, path.sizes):
            fh.write("%.17g %.17g\n" % (t, v))
    finally:
        if own:
            fh.close()


def read_events(stream, intensity: Optional[LevyIntensity] = None) -> JumpPath:
    own = isinstance(stream, str)
    fh = open(stream, "r") if own else stream
    try:
        header = fh.readline()
        meta = dict(part.split("=") for part in header.replace("#", "")
                    .replace("jump path:", "").split())
        rows = [line.split() for line in fh if line.strip()]
    finally:
        if own:
            fh.close()
    if rows:
        arr = np.asarray(rows, dtype=float)
        if arr.shape[1] != 2:
            # files with a position column predate position_mass
            raise ValueError("event lines must read 't v', got %d columns"
                             % arr.shape[1])
        times, vs = arr[:, 0], arr[:, 1]
    else:
        times = vs = np.empty(0)
    return JumpPath(times, vs, int(meta["seed"]), float(meta["horizon"]),
                    intensity)


def path_to_text(path: JumpPath) -> str:
    buf = io.StringIO()
    write_events(path, buf)
    return buf.getvalue()
