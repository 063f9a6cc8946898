"""Problem catalog: coefficient families, grids and initial data, with the
structural constants the assumption rows (``diagnostics.validate_assumptions``)
judge each family against.

Coefficients come from a closed set of named analytic families selected by
name, never from user code, so every run is reproducible from its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .noise import LevyIntensity

__all__ = [
    "InvalidSpecError", "DomainTooSmallError",
    "PhiFamily", "FluxFamily", "EtaFamily", "InitFamily",
    "Grid", "ProblemSpec",
    "phi_family", "flux_family", "eta_family", "init_family",
    "discretize_initial", "VALIDATION_RANGE",
]

# Sampling box for the coefficient validators; Lipschitz constants of the
# unbounded families are declared over this range.
VALIDATION_RANGE = 10.0


class InvalidSpecError(ValueError):
    """A coefficient family violates its structural requirements."""


class DomainTooSmallError(InvalidSpecError):
    """Initial data support reaches the truncation margin."""


@dataclass(frozen=True)
class PhiFamily:
    name: str
    phi: Callable
    dphi: Callable
    c_phi: float
    kinks: tuple = ()


@dataclass(frozen=True)
class FluxFamily:
    """Convective flux: one scalar law f applied on every axis, so the flux
    vector of the problem is (f(u), ..., f(u)) in any dimension."""

    name: str
    f: Callable
    df: Callable
    fplus: Callable   # primitive of max(f', 0), anchored at 0
    fminus: Callable  # primitive of min(f', 0), anchored at 0
    dfplus: Callable
    dfminus: Callable
    c_f: float
    kinks: tuple = ()


@dataclass(frozen=True)
class EtaFamily:
    """Noise amplitude eta(x, u; z) = g(x) * sigma(u) * h(v).

    The structural constants are declared for the validator: sup |g| and
    the Lipschitz constants of g and sigma, and sup |sigma| over the
    sampling box, from which ``ProblemSpec`` derives ``lambda_star``,
    ``k_x`` and ``m1``. ``sigma_kind`` and ``sigma_scale`` name the sigma
    law, for the checks with a closed form in it.
    """

    name: str
    g: Callable
    g_inf: float
    g_lip: float
    sigma: Callable
    sigma_kind: str
    sigma_scale: float
    sigma_lip: float
    sigma_sup_box: float
    sigma_cap: Optional[float]  # sigma vanishes for |u| > cap, if not None
    h: Callable
    h_power: Optional[int]  # h(v) = v^h_power; None for the zero family


@dataclass(frozen=True)
class InitFamily:
    name: str
    u0: Callable  # coords (..., d) -> values (...), in any dimension d
    support_radius: Optional[float]  # None = covers the whole domain
    linf: float


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on the periodic torus [-L, L)^d, the one
    truncation of R^d."""

    dim: int
    half_width: float
    cells: int
    bc = "periodic"  # not a field; perfbench/tracing.py reads it

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidSpecError("dim must be 1 or 2, got %r" % (self.dim,))
        if self.cells < 4:
            raise InvalidSpecError("need at least 4 cells per axis")
        if not 0.0 < self.half_width < math.inf:
            raise InvalidSpecError("half_width must be finite and positive")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.cells

    @property
    def shape(self) -> tuple:
        return (self.cells,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def margin(self) -> float:
        return self.half_width / 8.0

    def axis_centers(self) -> np.ndarray:
        L, h = self.half_width, self.h
        return -L + (np.arange(self.cells) + 0.5) * h

    def coords(self) -> np.ndarray:
        x = self.axis_centers()
        return np.stack(np.meshgrid(*(x,) * self.dim, indexing="ij"), axis=-1)


# ---------------------------------------------------------------------------
# Families

def _as_float(name, value):
    v = float(value)
    if not math.isfinite(v):
        raise InvalidSpecError("%s must be finite, got %r" % (name, value))
    return v


def phi_family(name: str, scale: float = 1.0) -> PhiFamily:
    """Degenerate diffusion nonlinearities: zero | linear | stefan | porous."""
    s = _as_float("phi scale", scale)
    if s < 0.0:
        raise InvalidSpecError("phi scale must be nonnegative")
    if name == "zero":
        z = lambda u: np.zeros_like(np.asarray(u, dtype=float))
        return PhiFamily("zero", z, z, c_phi=0.0)
    if name == "linear":
        return PhiFamily(
            "linear",
            phi=lambda u: s * np.asarray(u, dtype=float),
            dphi=lambda u: np.full_like(np.asarray(u, dtype=float), s),
            c_phi=s)
    if name == "stefan":
        def phi(u):
            u = np.asarray(u, dtype=float)
            return s * np.sign(u) * np.maximum(np.abs(u) - 1.0, 0.0)

        def dphi(u):
            u = np.asarray(u, dtype=float)
            return np.where(np.abs(u) > 1.0, s, 0.0)

        return PhiFamily("stefan", phi, dphi, c_phi=s, kinks=(-1.0, 1.0))
    if name == "porous":
        # cubic growth clipped to slope s beyond |u| = 1
        def phi(u):
            u = np.asarray(u, dtype=float)
            inner = u ** 3 / 3.0
            outer = np.sign(u) * (np.abs(u) - 2.0 / 3.0)
            return s * np.where(np.abs(u) <= 1.0, inner, outer)

        def dphi(u):
            u = np.asarray(u, dtype=float)
            return s * np.minimum(u * u, 1.0)

        return PhiFamily("porous", phi, dphi, c_phi=s,
                         kinks=(-1.0, 0.0, 1.0))
    raise InvalidSpecError("unknown phi family %r" % (name,))


def _linear_flux(name: str, a: float) -> FluxFamily:
    ap, am = max(a, 0.0), min(a, 0.0)
    return FluxFamily(
        name,
        f=lambda u: a * np.asarray(u, dtype=float),
        df=lambda u: np.full_like(np.asarray(u, dtype=float), a),
        fplus=lambda u: ap * np.asarray(u, dtype=float),
        fminus=lambda u: am * np.asarray(u, dtype=float),
        dfplus=lambda u: np.full_like(np.asarray(u, dtype=float), ap),
        dfminus=lambda u: np.full_like(np.asarray(u, dtype=float), am),
        c_f=abs(a))


def flux_family(name: str, scale: float = 1.0) -> FluxFamily:
    """Convective fluxes: zero | linear | burgers, one law on every axis."""
    s = _as_float("flux scale", scale)
    if name == "zero":
        return _linear_flux("zero", 0.0)
    if name == "linear":
        return _linear_flux("linear", s)
    if name == "burgers":
        if s <= 0.0:
            raise InvalidSpecError("burgers scale must be positive")
        # f- is the primitive of min(f', 0): positive for u < 0, decreasing
        return FluxFamily(
            "burgers",
            f=lambda u: 0.5 * s * np.asarray(u, dtype=float) ** 2,
            df=lambda u: s * np.asarray(u, dtype=float),
            fplus=lambda u: 0.5 * s * np.maximum(
                np.asarray(u, dtype=float), 0.0) ** 2,
            fminus=lambda u: 0.5 * s * np.minimum(
                np.asarray(u, dtype=float), 0.0) ** 2,
            dfplus=lambda u: s * np.maximum(np.asarray(u, dtype=float), 0.0),
            dfminus=lambda u: s * np.minimum(np.asarray(u, dtype=float), 0.0),
            c_f=s * VALIDATION_RANGE, kinks=(0.0,))
    raise InvalidSpecError("unknown flux family %r" % (name,))


_BUMP_DMAX = 8.0 / (3.0 * math.sqrt(3.0))  # max |d/ds (1-s^2)^2| on [-1,1]


def _bump_profile(height, center, width):
    """height (1 - |x - c|^2 / width^2)_+^2 with c = (center, ..., center),
    in the dimension of the coordinates it is given."""

    def g(x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum((x - center) ** 2, axis=-1) / width ** 2
        v = np.maximum(1.0 - r2, 0.0)
        return height * v * v

    return g


def _sigma_compact_profile(scale, cap):
    def sigma(u):
        u = np.asarray(u, dtype=float)
        t = u / cap
        v = np.maximum(1.0 - t * t, 0.0)
        return scale * u * v * v

    # max |u (1-(u/cap)^2)^2| is attained at u = cap/sqrt(5)
    sup = abs(scale) * cap * (1.0 / math.sqrt(5.0)) * (0.8) ** 2
    return sigma, sup


def eta_family(name: str, *, g_kind: str = "const", g_height: float = 1.0,
               g_center: float = 0.0, g_width: float = 1.0,
               sigma_kind: str = "const", sigma_scale: float = 1.0,
               sigma_cap: float = 1.0,
               h_kind: str = "identity") -> EtaFamily:
    """Separable noise amplitudes; ``zero`` is silent (g_inf = 0)."""
    if name == "zero":
        zf = lambda x: np.zeros(np.asarray(x, dtype=float).shape[:-1])
        zu = lambda u: np.zeros_like(np.asarray(u, dtype=float))
        return EtaFamily("zero", g=zf, g_inf=0.0, g_lip=0.0,
                         sigma=zu, sigma_kind="zero", sigma_scale=0.0,
                         sigma_lip=0.0, sigma_sup_box=0.0, sigma_cap=None,
                         h=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
                         h_power=None)
    if name != "separable":
        raise InvalidSpecError("unknown eta family %r" % (name,))

    if g_kind == "const":
        gh = _as_float("eta g height", g_height)
        g = lambda x: np.full(np.asarray(x, dtype=float).shape[:-1], gh)
        g_inf, g_lip = abs(gh), 0.0
    elif g_kind == "bump":
        gh = _as_float("eta g height", g_height)
        gw = _as_float("eta g width", g_width)
        if gw <= 0.0:
            raise InvalidSpecError("eta g width must be positive")
        g = _bump_profile(gh, _as_float("eta g center", g_center), gw)
        g_inf, g_lip = abs(gh), abs(gh) * _BUMP_DMAX / gw
    else:
        raise InvalidSpecError("unknown eta g kind %r" % (g_kind,))

    s = _as_float("eta sigma scale", sigma_scale)
    cap = _as_float("eta sigma cap", sigma_cap)
    if sigma_kind == "const":
        sigma = lambda u: np.full_like(np.asarray(u, dtype=float), s)
        lip, sup_box, support = 0.0, abs(s), None
    elif sigma_kind == "linear":
        sigma = lambda u: s * np.asarray(u, dtype=float)
        lip, sup_box, support = abs(s), abs(s) * VALIDATION_RANGE, None
    elif sigma_kind == "compact":
        if cap <= 0.0:
            raise InvalidSpecError("eta sigma cap must be positive")
        sigma, sup = _sigma_compact_profile(s, cap)
        lip, sup_box, support = abs(s), sup, cap
    elif sigma_kind == "bump":
        if cap <= 0.0:
            raise InvalidSpecError("eta sigma cap must be positive")

        def sigma(u, _s=s, _c=cap):
            t2 = (np.asarray(u, dtype=float) / _c) ** 2
            v = np.maximum(1.0 - t2, 0.0)
            return _s * v * v

        lip = abs(s) * _BUMP_DMAX / cap
        sup_box, support = abs(s), cap
    else:
        raise InvalidSpecError("unknown eta sigma kind %r" % (sigma_kind,))

    if h_kind == "identity":
        h, h_power = lambda v: np.asarray(v, dtype=float), 1
    elif h_kind == "const":
        h, h_power = lambda v: np.ones_like(np.asarray(v, dtype=float)), 0
    else:
        raise InvalidSpecError("unknown eta h kind %r" % (h_kind,))

    return EtaFamily(
        "separable:%s*%s*%s" % (g_kind, sigma_kind, h_kind),
        g=g, g_inf=g_inf, g_lip=g_lip,
        sigma=sigma, sigma_kind=sigma_kind, sigma_scale=s, sigma_lip=lip,
        sigma_sup_box=sup_box, sigma_cap=support, h=h, h_power=h_power)


def init_family(name: str, *, height: float = 1.0, center: float = 0.0,
                width: float = 1.0) -> InitFamily:
    """Initial data: zero | bump | constant."""
    if name == "zero":
        return InitFamily(
            "zero", lambda x: np.zeros(np.asarray(x, dtype=float).shape[:-1]),
            support_radius=0.0, linf=0.0)
    hgt = _as_float("u0 height", height)
    if name == "constant":
        return InitFamily(
            "constant",
            lambda x: np.full(np.asarray(x, dtype=float).shape[:-1], hgt),
            support_radius=None, linf=abs(hgt))
    w = _as_float("u0 width", width)
    if w <= 0.0:
        raise InvalidSpecError("u0 width must be positive")
    c = _as_float("u0 center", center)
    if name == "bump":
        u0 = _bump_profile(hgt, c, w)
        radius = abs(c) + w
        return InitFamily("bump", u0, support_radius=radius, linf=abs(hgt))
    raise InvalidSpecError("unknown u0 family %r" % (name,))


# ---------------------------------------------------------------------------
# The assembled problem

@dataclass(frozen=True)
class ProblemSpec:
    """Complete continuous problem: coefficients, noise, viscosity, horizon.

    Every field holds in any dimension; the dimension is the grid's.
    """

    phi: PhiFamily
    flux: FluxFamily
    eta: EtaFamily
    u0: InitFamily
    levy: LevyIntensity
    epsilon: float
    horizon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon < math.inf:
            raise InvalidSpecError(
                "epsilon must be finite and >= 0, got %r" % (self.epsilon,))
        if not 0.0 < self.horizon < math.inf:
            raise InvalidSpecError(
                "horizon must be finite and > 0, got %r" % (self.horizon,))

    @property
    def silent(self) -> bool:
        """Whether the noise vanishes identically: no jump ever arrives, or
        eta = g sigma h has a zero factor. The one rule by which every
        solve and check treats the problem as deterministic."""
        return (self.levy.total_mass == 0.0
                or self.eta.g_inf * self.eta.sigma_sup_box == 0.0)

    def h_max(self) -> float:
        """sup |h(v)| over the truncated mark support, 0 for silent noise."""
        if self.silent:
            return 0.0
        return self.levy.size.sup_abs(self.eta.h_power)

    @property
    def lambda_star(self) -> float:
        return self.eta.g_inf * self.eta.sigma_lip * self.h_max()

    @property
    def k_x(self) -> float:
        return self.eta.g_lip * self.eta.sigma_sup_box * self.h_max()

    @property
    def m1(self) -> Optional[float]:
        """sup |eta| for a sigma with compact u-support (0 for silent noise),
        None otherwise: sigma = const never vanishes in u, so no sup bound."""
        if self.silent:
            return 0.0
        if self.eta.sigma_cap is None:
            return None
        return self.eta.g_inf * self.eta.sigma_sup_box * self.h_max()

    def with_u0(self, u0: InitFamily) -> "ProblemSpec":
        return replace(self, u0=u0)

    def with_epsilon(self, epsilon: float) -> "ProblemSpec":
        return replace(self, epsilon=float(epsilon))


def discretize_initial(spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """Sample the initial data at cell centers.

    Compactly supported data must fit inside the truncation margin.
    """
    fam = spec.u0
    if fam.support_radius is not None and \
            fam.support_radius > grid.half_width - grid.margin:
        raise DomainTooSmallError(
            "initial data support radius %.6g reaches the margin of "
            "[-%g, %g)^%d (margin %.6g)"
            % (fam.support_radius, grid.half_width, grid.half_width,
               grid.dim, grid.margin))
    vals = np.asarray(fam.u0(grid.coords()), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InvalidSpecError("u0 produced non-finite samples")
    return vals
