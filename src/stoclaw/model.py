"""Problem catalog: coefficient families, grids, initial data, and numerical
validation of the structural assumptions on (phi, f, eta).

Coefficients come from a closed set of named analytic families selected by
name, never from user code, so every run is reproducible from its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "InvalidSpecError", "DomainTooSmallError",
    "PhiFamily", "FluxComponent", "FluxFamily", "EtaFamily", "InitFamily",
    "Grid", "ProblemSpec",
    "phi_family", "flux_family", "eta_family", "init_family",
    "validate_assumptions", "discretize_initial", "ValidationReport",
]

# Sampling box for the coefficient validators; Lipschitz constants of the
# unbounded families are declared over this range.
VALIDATION_RANGE = 10.0
TOL_VALIDATE = 1e-8
# Sample count of the coefficient validators in ``validate`` and ``run``.
VALIDATION_SAMPLES = 2000


class InvalidSpecError(ValueError):
    """A coefficient family violates its structural requirements."""


class DomainTooSmallError(ValueError):
    """Initial data support reaches the truncation margin."""


@dataclass(frozen=True)
class PhiFamily:
    name: str
    phi: Callable
    dphi: Callable
    c_phi: float
    kinks: tuple = ()


@dataclass(frozen=True)
class FluxComponent:
    f: Callable
    df: Callable
    fplus: Callable   # primitive of max(f', 0), anchored at 0
    fminus: Callable  # primitive of min(f', 0), anchored at 0
    dfplus: Callable
    dfminus: Callable


@dataclass(frozen=True)
class FluxFamily:
    name: str
    dim: int
    components: tuple
    c_f: float
    kinks: tuple = ()


@dataclass(frozen=True)
class EtaFamily:
    """Noise amplitude eta(x, u; z) = g(x) * sigma(u) * h(v).

    The structural constants are declared for the validator: ``lambda_star``
    and ``k_x`` bound the u- and x-increments against h1, ``h2_scale`` turns
    |h| into the growth envelope, and ``m1`` is sup |eta| (None when the
    u-support of sigma is unbounded).
    """

    name: str
    g: Callable
    g_inf: float
    g_lip: float
    sigma: Callable
    sigma_lip: float
    sigma_sup_box: float
    sigma_cap: Optional[float]  # sigma vanishes for |u| > cap, if not None
    h: Callable
    h_power: Optional[int]  # h(v) = v^h_power; None for the silent family
    is_zero: bool = False
    params: dict = field(default_factory=dict)

    def depends_on_x(self) -> bool:
        return self.g_lip > 0.0


@dataclass(frozen=True)
class InitFamily:
    name: str
    u0: Callable  # coords (..., d) -> values (...)
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
        if self.dim == 1:
            return x[:, None]
        X, Y = np.meshgrid(x, x, indexing="ij")
        return np.stack([X, Y], axis=-1)


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


def _linear_component(a: float) -> FluxComponent:
    ap, am = max(a, 0.0), min(a, 0.0)
    return FluxComponent(
        f=lambda u: a * np.asarray(u, dtype=float),
        df=lambda u: np.full_like(np.asarray(u, dtype=float), a),
        fplus=lambda u: ap * np.asarray(u, dtype=float),
        fminus=lambda u: am * np.asarray(u, dtype=float),
        dfplus=lambda u: np.full_like(np.asarray(u, dtype=float), ap),
        dfminus=lambda u: np.full_like(np.asarray(u, dtype=float), am))


def _burgers_component(s: float) -> FluxComponent:
    # f- is the primitive of min(f', 0): positive for u < 0, decreasing
    return FluxComponent(
        f=lambda u: 0.5 * s * np.asarray(u, dtype=float) ** 2,
        df=lambda u: s * np.asarray(u, dtype=float),
        fplus=lambda u: 0.5 * s * np.maximum(np.asarray(u, dtype=float), 0.0) ** 2,
        fminus=lambda u: 0.5 * s * np.minimum(np.asarray(u, dtype=float), 0.0) ** 2,
        dfplus=lambda u: s * np.maximum(np.asarray(u, dtype=float), 0.0),
        dfminus=lambda u: s * np.minimum(np.asarray(u, dtype=float), 0.0))


def flux_family(name: str, dim: int, scale: float = 1.0) -> FluxFamily:
    """Convective fluxes: zero | linear | burgers (same law per component)."""
    s = _as_float("flux scale", scale)
    if name == "zero":
        comp = _linear_component(0.0)
        return FluxFamily("zero", dim, (comp,) * dim, c_f=0.0)
    if name == "linear":
        comp = _linear_component(s)
        return FluxFamily("linear", dim, (comp,) * dim, c_f=abs(s))
    if name == "burgers":
        if s <= 0.0:
            raise InvalidSpecError("burgers scale must be positive")
        comp = _burgers_component(s)
        return FluxFamily("burgers", dim, (comp,) * dim,
                          c_f=s * VALIDATION_RANGE, kinks=(0.0,))
    raise InvalidSpecError("unknown flux family %r" % (name,))


_BUMP_DMAX = 8.0 / (3.0 * math.sqrt(3.0))  # max |d/ds (1-s^2)^2| on [-1,1]


def _bump_profile(height, center, width):
    c = np.asarray(center, dtype=float)

    def g(x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum((x - c) ** 2, axis=-1) / width ** 2
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
    sup = scale * cap * (1.0 / math.sqrt(5.0)) * (0.8) ** 2
    return sigma, sup


def eta_family(name: str, *, g_kind: str = "const", g_height: float = 1.0,
               g_center: float = 0.0, g_width: float = 1.0,
               sigma_kind: str = "const", sigma_scale: float = 1.0,
               sigma_cap: float = 1.0, h_kind: str = "identity",
               dim: int = 1) -> EtaFamily:
    """Separable noise amplitudes; ``zero`` gives the silent channel."""
    if name == "zero":
        zf = lambda x: np.zeros(np.asarray(x, dtype=float).shape[:-1])
        zu = lambda u: np.zeros_like(np.asarray(u, dtype=float))
        return EtaFamily("zero", g=zf, g_inf=0.0, g_lip=0.0,
                         sigma=zu, sigma_lip=0.0,
                         sigma_sup_box=0.0, sigma_cap=None,
                         h=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
                         h_power=None, is_zero=True)
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
        center = np.full(dim, _as_float("eta g center", g_center))
        g = _bump_profile(gh, center, gw)
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
    elif sigma_kind == "clip":
        if cap <= 0.0:
            raise InvalidSpecError("eta sigma cap must be positive")
        sigma = lambda u: s * np.clip(np.asarray(u, dtype=float), -cap, cap)
        lip, sup_box, support = abs(s), abs(s) * cap, None
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
        sigma=sigma, sigma_lip=lip,
        sigma_sup_box=sup_box, sigma_cap=support, h=h, h_power=h_power,
        params={"g": g_kind, "sigma": sigma_kind, "h": h_kind,
                "sigma_scale": s, "sigma_cap": cap, "g_height": g_height,
                "g_center": g_center, "g_width": g_width})


def init_family(name: str, *, height: float = 1.0, center: float = 0.0,
                width: float = 1.0, dim: int = 1) -> InitFamily:
    """Initial data: zero | bump | box | constant."""
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
    c = np.full(dim, _as_float("u0 center", center))
    if name == "bump":
        u0 = _bump_profile(hgt, c, w)
        radius = float(np.max(np.abs(c))) + w
        return InitFamily("bump", u0, support_radius=radius, linf=abs(hgt))
    if name == "box":
        def u0(x):
            x = np.asarray(x, dtype=float)
            inside = np.all(np.abs(x - c) <= w, axis=-1)
            return np.where(inside, hgt, 0.0)

        radius = float(np.max(np.abs(c))) + w
        return InitFamily("box", u0, support_radius=radius, linf=abs(hgt))
    raise InvalidSpecError("unknown u0 family %r" % (name,))


# ---------------------------------------------------------------------------
# The assembled problem

@dataclass(frozen=True)
class ProblemSpec:
    """Complete continuous problem: coefficients, noise, viscosity, horizon."""

    phi: PhiFamily
    flux: FluxFamily
    eta: EtaFamily
    u0: InitFamily
    levy: object  # noise.LevyIntensity
    epsilon: float
    horizon: float
    dim: int
    flux_form: str = "central"  # central | engquist_osher

    def __post_init__(self):
        if not 0.0 <= self.epsilon < math.inf:
            raise InvalidSpecError(
                "epsilon must be finite and >= 0, got %r" % (self.epsilon,))
        if not 0.0 < self.horizon < math.inf:
            raise InvalidSpecError(
                "horizon must be finite and > 0, got %r" % (self.horizon,))
        if self.flux_form not in ("central", "engquist_osher"):
            raise InvalidSpecError("flux_form must be central or engquist_osher")
        if self.flux.dim != self.dim:
            raise InvalidSpecError("flux dimension does not match spec dim")

    @property
    def c_phi(self) -> float:
        return self.phi.c_phi

    @property
    def c_f(self) -> float:
        return self.flux.c_f

    def h_max(self) -> float:
        """sup |h(v)| over the truncated mark support."""
        if self.eta.is_zero or self.levy is None:
            return 0.0
        return self.levy.size.sup_abs(self.eta.h)

    @property
    def lambda_star(self) -> float:
        lam = self.eta.g_inf * self.eta.sigma_lip * self.h_max()
        return lam

    @property
    def k_x(self) -> float:
        return self.eta.g_lip * self.eta.sigma_sup_box * self.h_max()

    @property
    def m1(self) -> Optional[float]:
        """sup |eta| for a sigma with compact u-support (0 for silent noise),
        None otherwise: sigma = const never vanishes in u, so no sup bound."""
        if self.eta.is_zero:
            return 0.0
        if self.eta.sigma_cap is None:
            return None
        return self.eta.g_inf * self.eta.sigma_sup_box * self.h_max()

    def with_u0(self, u0: InitFamily) -> "ProblemSpec":
        return replace(self, u0=u0)

    def with_epsilon(self, epsilon: float) -> "ProblemSpec":
        return replace(self, epsilon=float(epsilon))


# ---------------------------------------------------------------------------
# Validation

@dataclass
class CheckEntry:
    name: str
    worst_ratio: float
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    entries: list
    modulus_r: np.ndarray
    modulus_omega: np.ndarray
    modulus_ratio: np.ndarray
    modulus_decreasing: bool
    modulus_required: bool

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _require_finite(name, values, inputs):
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvalidSpecError(
            "%s returned a non-finite value at input %r" % (name, inputs[i]))
    return values


def _ratio(num, den):
    out = np.zeros_like(num)
    mask = den > 0.0
    out[mask] = num[mask] / den[mask]
    # a positive increment against a zero budget can never pass
    out[(~mask) & (num > 1e-14)] = np.inf
    return out


def _modulus_trend(phi: PhiFamily, r_mesh: np.ndarray) -> tuple:
    base = np.linspace(-VALIDATION_RANGE, VALIDATION_RANGE, 2001)
    near = [k + np.linspace(-2.0, 2.0, 81) for k in phi.kinks]
    a = np.concatenate([base] + near) if near else base
    root = np.sqrt(np.maximum(phi.dphi(a), 0.0))
    omegas = []
    for r in r_mesh:
        worst = 0.0
        for frac in (1.0, 0.5, 0.1):
            d = r * frac
            for sgn in (1.0, -1.0):
                shifted = np.sqrt(np.maximum(phi.dphi(a + sgn * d), 0.0))
                worst = max(worst, float(np.max(np.abs(shifted - root))))
        omegas.append(worst)
    omega = np.asarray(omegas)
    ratio = omega / r_mesh ** (2.0 / 3.0)
    nonzero = ratio[ratio > 0]
    if nonzero.size == 0:
        decreasing = True
    else:
        head, tail = ratio[0], ratio[-1]
        decreasing = bool(np.all(np.diff(ratio) <= 1e-12 + 0.05 * ratio[:-1])
                          and tail <= 0.5 * max(head, 1e-300))
    return omega, ratio, decreasing


def validate_assumptions(spec: ProblemSpec, samples: int, seed: int,
                         grid: Optional[Grid] = None) -> ValidationReport:
    """Sample-based check of the structural assumptions on the coefficients.

    Reports, per assumption, the worst sampled ratio against its declared
    constant (pass at ratio <= 1 + 1e-8), plus the trend of the continuity
    modulus of sqrt(phi') against r^(2/3) on a dyadic mesh. The trend is
    reported as observed; a finite sample cannot certify the limit.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    R = VALIDATION_RANGE
    u = rng.uniform(-R, R, samples)
    v = rng.uniform(-R, R, samples)
    L = grid.half_width if grid is not None else 1.0
    d = spec.dim
    x = rng.uniform(-L, L, (samples, d))
    y = rng.uniform(-L, L, (samples, d))

    entries = []

    # A1: phi nondecreasing, Lipschitz, phi(0) = 0
    phi_u = _require_finite("phi", spec.phi.phi(u), u)
    phi_v = _require_finite("phi", spec.phi.phi(v), v)
    phi0 = float(np.asarray(spec.phi.phi(np.zeros(1)))[0])
    if abs(phi0) > TOL_VALIDATE:
        entries.append(CheckEntry("A1", np.inf, False, "phi(0) != 0"))
    else:
        mono = np.min((phi_u - phi_v) * (u - v))
        lip = _ratio(np.abs(phi_u - phi_v), spec.c_phi * np.abs(u - v))
        worst = float(np.max(lip))
        ok = worst <= 1.0 + TOL_VALIDATE and mono >= -TOL_VALIDATE
        detail = "" if ok else (
            "monotonicity violated" if mono < -TOL_VALIDATE else "Lipschitz ratio > 1")
        entries.append(CheckEntry("A1", worst, ok, detail))

    # A2: each flux component Lipschitz with f_k(0) = 0
    worst_a2, ok_a2, detail_a2 = 0.0, True, ""
    for k, comp in enumerate(spec.flux.components):
        fk0 = float(np.asarray(comp.f(np.zeros(1)))[0])
        if abs(fk0) > TOL_VALIDATE:
            ok_a2, detail_a2 = False, "f_%d(0) != 0" % k
            worst_a2 = np.inf
            break
        fu = _require_finite("flux", comp.f(u), u)
        fv = _require_finite("flux", comp.f(v), v)
        lip = _ratio(np.abs(fu - fv), spec.c_f * np.abs(u - v))
        worst_a2 = max(worst_a2, float(np.max(lip)))
    if ok_a2 and worst_a2 > 1.0 + TOL_VALIDATE:
        ok_a2, detail_a2 = False, "Lipschitz ratio > 1"
    entries.append(CheckEntry("A2", worst_a2, ok_a2, detail_a2))

    # A3 / A5 on sampled (x, u, z) tuples
    if spec.eta.is_zero or spec.levy is None or spec.levy.total_mass == 0.0:
        entries.append(CheckEntry("A3", 0.0, True, "eta inactive"))
        entries.append(CheckEntry("A5", 0.0, True, "eta inactive"))
    else:
        marks = spec.levy.sample_sizes(rng, samples)
        h_vals = _require_finite("eta h", spec.eta.h(marks), marks)
        h_sup = spec.h_max()
        h1 = np.abs(h_vals) / h_sup if h_sup > 0 else np.zeros_like(h_vals)
        gx = _require_finite("eta g", spec.eta.g(x), x)
        gy = _require_finite("eta g", spec.eta.g(y), y)
        eta_xu = gx * spec.eta.sigma(u) * h_vals
        eta_yv = gy * spec.eta.sigma(v) * h_vals
        dist = (np.linalg.norm(x - y, axis=-1))
        budget = (spec.lambda_star * np.abs(u - v) + spec.k_x * dist) * h1
        ratio3 = _ratio(np.abs(eta_xu - eta_yv), budget)
        worst3 = float(np.max(ratio3))
        lam_ok = spec.lambda_star < 1.0
        entries.append(CheckEntry(
            "A3", worst3, worst3 <= 1.0 + TOL_VALIDATE and lam_ok,
            "" if lam_ok else "lambda_star >= 1"))

        h2 = np.abs(h_vals)
        env = gx * (1.0 + np.abs(u)) * h2
        ratio5 = _ratio(np.abs(eta_xu), env)
        worst5 = float(np.max(ratio5))
        entries.append(CheckEntry("A5", worst5, worst5 <= 1.0 + TOL_VALIDATE))

    r_mesh = 2.0 ** -np.arange(0, 11, dtype=float)
    omega, ratio, decreasing = _modulus_trend(spec.phi, r_mesh)
    return ValidationReport(
        entries=entries, modulus_r=r_mesh, modulus_omega=omega,
        modulus_ratio=ratio, modulus_decreasing=decreasing,
        modulus_required=spec.eta.depends_on_x())


def discretize_initial(spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """Sample the initial data at cell centers.

    Compactly supported data must fit inside the truncation margin.
    """
    fam = spec.u0
    if fam.support_radius is not None and \
            fam.support_radius > grid.half_width - grid.margin:
        raise DomainTooSmallError(
            "u0 support radius %.6g reaches the margin of [-%g, %g)^%d "
            "(margin %.6g)" % (fam.support_radius, grid.half_width,
                               grid.half_width, grid.dim, grid.margin))
    vals = np.asarray(fam.u0(grid.coords()), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InvalidSpecError("u0 produced non-finite samples")
    return vals
