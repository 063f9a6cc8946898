"""Convex entropy machinery: the Kirchhoff transform, the smoothed-absolute-value
entropy family, polynomial moment entropies, entropy flux pairs, and the
quadratic interaction form with its exchange identities.

The base profile is a fixed polynomial spline ``B`` with B'' supported on
[-1, 1], giving exact constants M1 = 5/16 and M2 = 15/8 for the scaled family
``theta * B(r / theta)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .quadrature import (QuadratureError, adaptive_simpson, batch_simpson,
                         inward_offset)

__all__ = [
    "EntropyTriple", "BETA_M1", "BETA_M2",
    "base_beta", "base_dbeta", "base_d2beta",
    "make_beta_theta", "make_h_delta", "make_quadratic",
    "kirchhoff",
    "phi_beta", "F_beta", "kruzkov_F", "I_beta", "ibeta_identities",
]

# Base profile: B''(r) = (15/8)(1 - r^2)^2 on |r| <= 1, so that B' runs from
# -1 to +1 across the smoothing window and B(r) = |r| - 5/16 outside it.
BETA_M1 = 5.0 / 16.0
BETA_M2 = 15.0 / 8.0
_B1 = 11.0 / 16.0  # B(1)


def base_d2beta(r):
    r = np.asarray(r, dtype=float)
    s = 1.0 - r * r
    return np.where(np.abs(r) <= 1.0, BETA_M2 * s * s, 0.0)


def base_dbeta(r):
    r = np.asarray(r, dtype=float)
    inner = BETA_M2 * (r - 2.0 * r ** 3 / 3.0 + r ** 5 / 5.0)
    return np.where(np.abs(r) <= 1.0, inner, np.sign(r))


def base_beta(r):
    r = np.asarray(r, dtype=float)
    ar = np.abs(r)
    inner = BETA_M2 * (r * r / 2.0 - r ** 4 / 6.0 + r ** 6 / 30.0)
    return np.where(ar <= 1.0, inner, ar - (1.0 - _B1))


@dataclass(frozen=True)
class EntropyTriple:
    """Convex entropy ``beta`` with its flux companions.

    ``zeta`` and ``nu`` are the primitives of beta'(r) f'(r) and
    beta'(r) phi'(r) anchored at 0; they are present only when the triple was
    assembled against concrete coefficients.
    """

    name: str
    family: str
    beta: Callable
    dbeta: Callable
    d2beta: Callable
    d2_support: Optional[float]  # halfwidth of supp(beta''), None = unbounded
    zeta: Optional[Callable] = None
    nu: Optional[Callable] = None
    theta: Optional[float] = None
    params: dict = field(default_factory=dict)


def _primitive_pair(dbeta, dbeta_kinks, fam, tol=1e-10):
    """Vectorized r -> int_0^r beta'(s) g'(s) ds for one coefficient family."""
    kinks = tuple(fam.kinks) + tuple(dbeta_kinks)

    def prim(r):
        r = np.asarray(r, dtype=float)
        flat = r.reshape(-1)
        out = batch_simpson(
            lambda s: dbeta(s) * fam.derivative(s),
            np.zeros_like(flat), flat, tol=tol, breakpoints=kinks)
        return out.reshape(r.shape)

    return prim


def _beta_theta_primitive(theta, dbeta, fam, tol=1e-10):
    # beta_theta' is exactly +-1 outside [-theta, theta]: quadrature is only
    # ever needed on the smoothing window.
    kinks = tuple(fam.kinks)

    def band(r_flat):
        return batch_simpson(
            lambda s: dbeta(s) * fam.derivative(s),
            np.zeros_like(r_flat), r_flat, tol=tol, breakpoints=kinks)

    c_plus = float(band(np.asarray([theta]))[0])
    c_minus = float(band(np.asarray([-theta]))[0])
    g = fam.value
    g_p = float(np.asarray(g(np.asarray(theta)), dtype=float))
    g_m = float(np.asarray(g(np.asarray(-theta)), dtype=float))

    def prim(r):
        r = np.asarray(r, dtype=float)
        flat = r.reshape(-1)
        out = np.empty_like(flat)
        mid = np.abs(flat) <= theta
        if np.any(mid):
            out[mid] = band(flat[mid])
        hi = flat > theta
        lo = flat < -theta
        if np.any(hi):
            out[hi] = c_plus + np.asarray(g(flat[hi]), dtype=float) - g_p
        if np.any(lo):
            out[lo] = c_minus - (np.asarray(g(flat[lo]), dtype=float) - g_m)
        return out.reshape(r.shape)

    return prim


class _ScalarCoefficient:
    """Adapter giving (value, derivative, kinks) access to one scalar map."""

    def __init__(self, value, derivative, kinks=()):
        self.value = value
        self.derivative = derivative
        self.kinks = tuple(kinks)


def _flux_components(flux):
    return [_ScalarCoefficient(c.f, c.df, flux.kinks) for c in flux.components]


def _stack_vector(prims):
    def zeta(r):
        r = np.asarray(r, dtype=float)
        return np.stack([p(r) for p in prims], axis=-1)
    return zeta


def _attach_fluxes(dbeta, dbeta_kinks, phi, flux, theta=None):
    zeta = nu = None
    if phi is not None:
        coeff = _ScalarCoefficient(phi.phi, phi.dphi, phi.kinks)
        nu = (_beta_theta_primitive(theta, dbeta, coeff) if theta is not None
              else _primitive_pair(dbeta, dbeta_kinks, coeff))
    if flux is not None:
        comps = _flux_components(flux)
        if theta is not None:
            prims = [_beta_theta_primitive(theta, dbeta, c) for c in comps]
        else:
            prims = [_primitive_pair(dbeta, dbeta_kinks, c) for c in comps]
        zeta = _stack_vector(prims)
    return zeta, nu


def make_beta_theta(theta: float, phi=None, flux=None) -> EntropyTriple:
    """Smoothed-absolute-value entropy at smoothing scale ``theta``.

    Satisfies |r| - M1*theta <= beta(r) <= |r| and
    |beta''| <= (M2/theta) 1_{|r| <= theta} exactly.
    """
    if not theta > 0.0:
        raise ValueError("theta must be positive, got %r" % (theta,))
    th = float(theta)

    def beta(r):
        return th * base_beta(np.asarray(r, dtype=float) / th)

    def dbeta(r):
        return base_dbeta(np.asarray(r, dtype=float) / th)

    def d2beta(r):
        return base_d2beta(np.asarray(r, dtype=float) / th) / th

    zeta, nu = _attach_fluxes(dbeta, (-th, th), phi, flux, theta=th)
    return EntropyTriple(
        name="beta_theta(%g)" % th, family="beta_theta",
        beta=beta, dbeta=dbeta, d2beta=d2beta, d2_support=th,
        zeta=zeta, nu=nu, theta=th, params={"theta": th})


def make_h_delta(p: int, delta: float, phi=None, flux=None) -> EntropyTriple:
    """Smooth even convex approximation of |r|^p / (p(p-1)).

    The second derivative is |r|^{p-2} capped at (1/delta)^{p-2}; the entropy
    and its slope are the exact double and single primitives of that cap.
    """
    if p < 2 or (p & (p - 1)) != 0:
        raise ValueError("p must be a power of two >= 2, got %r" % (p,))
    if not delta > 0.0:
        raise ValueError("delta must be positive, got %r" % (delta,))
    c = 1.0 / float(delta)
    q = p - 2

    def d2beta(r):
        a = np.abs(np.asarray(r, dtype=float))
        return np.where(a <= c, a ** q, c ** q)

    def dbeta(r):
        r = np.asarray(r, dtype=float)
        a = np.abs(r)
        inner = a ** (p - 1) / (p - 1)
        outer = c ** (p - 1) / (p - 1) + c ** q * (a - c)
        return np.sign(r) * np.where(a <= c, inner, outer)

    def beta(r):
        a = np.abs(np.asarray(r, dtype=float))
        inner = a ** p / (p * (p - 1))
        outer = (c ** p / (p * (p - 1))
                 + c ** (p - 1) / (p - 1) * (a - c)
                 + 0.5 * c ** q * (a - c) ** 2)
        return np.where(a <= c, inner, outer)

    zeta, nu = _attach_fluxes(dbeta, (-c, c), phi, flux)
    return EntropyTriple(
        name="h_delta(p=%d, delta=%g)" % (p, delta), family="h_delta",
        beta=beta, dbeta=dbeta, d2beta=d2beta, d2_support=None,
        zeta=zeta, nu=nu, params={"p": p, "delta": float(delta)})


def make_quadratic(phi=None, flux=None) -> EntropyTriple:
    """Energy entropy beta(r) = r^2 / 2."""
    beta = lambda r: 0.5 * np.asarray(r, dtype=float) ** 2
    dbeta = lambda r: np.asarray(r, dtype=float)
    d2beta = lambda r: np.ones_like(np.asarray(r, dtype=float))
    zeta, nu = _attach_fluxes(dbeta, (), phi, flux)
    return EntropyTriple(
        name="quadratic", family="quadratic",
        beta=beta, dbeta=dbeta, d2beta=d2beta, d2_support=None,
        zeta=zeta, nu=nu)


# ---------------------------------------------------------------------------
# Kirchhoff transform

def kirchhoff(phi, tol: float = 1e-10):
    """Return the vectorized primitive u -> int_0^u sqrt(phi'(s)) ds."""
    kinks = tuple(phi.kinks)

    def G(u):
        u = np.asarray(u, dtype=float)
        flat = np.atleast_1d(u).reshape(-1)
        vals = batch_simpson(
            lambda s: np.sqrt(np.maximum(phi.dphi(s), 0.0)),
            np.zeros_like(flat), flat, tol=tol, breakpoints=kinks)
        vals = vals.reshape(np.atleast_1d(u).shape)
        return vals if u.ndim else float(vals[0])

    return G


# ---------------------------------------------------------------------------
# Entropy flux differences and the interaction form

def _window_breaks(b, support):
    return () if support is None else (b - support, b + support)


def phi_beta(a: float, b: float, triple: EntropyTriple, phi,
             tol: float = 1e-10) -> float:
    """int_b^a beta'(s - b) phi'(s) ds."""
    w = triple.d2_support
    bps = tuple(phi.kinks) + _window_breaks(b, w)
    return adaptive_simpson(
        lambda s: triple.dbeta(s - b) * phi.dphi(s), b, a,
        tol=tol, breakpoints=bps)


def F_beta(a: float, b: float, triple: EntropyTriple, flux,
           tol: float = 1e-10) -> np.ndarray:
    """Componentwise int_b^a beta'(s - b) f_k'(s) ds."""
    w = triple.d2_support
    bps = tuple(flux.kinks) + _window_breaks(b, w)
    out = [adaptive_simpson(
        lambda s, d=c.df: triple.dbeta(s - b) * d(s), b, a,
        tol=tol, breakpoints=bps) for c in flux.components]
    return np.asarray(out)


def kruzkov_F(a, b, flux) -> np.ndarray:
    """sign(a - b) (f(a) - f(b)), componentwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = np.sign(a - b)
    return np.stack([s * (c.f(a) - c.f(b)) for c in flux.components], axis=-1)


def _sqrt_dphi(phi):
    return lambda s: np.sqrt(np.maximum(phi.dphi(s), 0.0))


def I_beta(a: float, b: float, triple: EntropyTriple, phi,
           tol: float = 1e-8) -> float:
    """int_a^b [ int_mu^a beta''(mu - s) sqrt(phi'(s)) ds ] sqrt(phi'(mu)) dmu."""
    if a == b:
        return 0.0
    root = _sqrt_dphi(phi)
    w = triple.d2_support
    kinks = tuple(phi.kinks)

    def inner(mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        hi = np.full_like(mu, float(a))
        if w is not None:
            hi = np.clip(hi, mu - w, mu + w)
        col = mu[:, None, None]  # nodes arrive as (rows, segments, points)
        return batch_simpson(
            lambda s: triple.d2beta(col - s) * root(s),
            mu, hi, tol=tol, breakpoints=kinks)

    outer_bps = list(kinks)
    if w is not None:
        outer_bps += [a - w, a + w]
        outer_bps += [k - w for k in kinks] + [k + w for k in kinks]
    return adaptive_simpson(
        lambda mu: inner(mu) * root(mu), a, b, tol=tol,
        breakpoints=outer_bps)


def _square_integral(a, b, triple, phi, mode, tol=1e-8):
    """ii_{[a,b]^2} beta''(s - mu) W(mu, s) dmu ds via the diagonal shift.

    ``mode`` selects W: "product" for sqrt(phi'(mu)) sqrt(phi'(s)) and
    "sqdiff" for (sqrt(phi'(mu)) - sqrt(phi'(s)))^2. Evaluated as an integral
    over the shift w = s - mu, which is an independent decomposition from the
    nested form used by :func:`I_beta`.
    """
    lo, hi = (a, b) if a <= b else (b, a)
    if lo == hi:
        return 0.0
    width = hi - lo
    w_sup = triple.d2_support
    wmax = width if w_sup is None else min(width, w_sup)
    if wmax <= 0.0:
        return 0.0
    root = _sqrt_dphi(phi)
    kinks = tuple(phi.kinks)

    def strip(wv):
        wv = np.atleast_1d(np.asarray(wv, dtype=float))
        m_lo = np.maximum(lo, lo - wv)
        m_hi = np.minimum(hi, hi - wv)
        m_hi = np.maximum(m_hi, m_lo)  # empty strip -> zero-length interval
        col = wv[:, None, None]
        if mode == "product":
            fn = lambda x: root(x) * root(x + col)
        else:
            fn = lambda x: (root(x) - root(x + col)) ** 2
        row_bps = None
        if kinks:
            shifted = np.stack([np.full_like(wv, k) - wv for k in kinks], axis=1)
            row_bps = shifted
        return batch_simpson(fn, m_lo, m_hi, tol=tol,
                             breakpoints=kinks, row_breakpoints=row_bps)

    bps = {0.0}
    for k in kinks:
        bps.add(lo - k)
        bps.add(hi - k)
        for k2 in kinks:
            bps.add(k - k2)
    return adaptive_simpson(
        lambda wv: triple.d2beta(wv) * strip(wv), -wmax, wmax,
        tol=tol, breakpoints=sorted(bps))


def ibeta_identities(a: float, b: float, triple: EntropyTriple, phi,
                     tol: float = 1e-8) -> dict:
    """Evaluate both exchange identities with independently computed sides.

    Returns the nested-form value, its argument-swapped value, the shifted
    double-integral references, and the combination
    2 I + phi_beta(a,b) + phi_beta(b,a) against its nonnegative reference.
    """
    i_ab = I_beta(a, b, triple, phi, tol=tol)
    i_ba = I_beta(b, a, triple, phi, tol=tol)
    ref1 = -0.5 * _square_integral(a, b, triple, phi, "product", tol=tol)
    p_ab = phi_beta(a, b, triple, phi)
    p_ba = phi_beta(b, a, triple, phi)
    lhs2 = 2.0 * i_ab + p_ab + p_ba
    ref2 = 0.5 * _square_integral(a, b, triple, phi, "sqdiff", tol=tol)
    return {
        "i_ab": i_ab, "i_ba": i_ba, "identity1_ref": ref1,
        "phi_beta_ab": p_ab, "phi_beta_ba": p_ba,
        "identity2_lhs": lhs2, "identity2_ref": ref2,
    }


# ---------------------------------------------------------------------------
# Pair-batched evaluation: same integrals, fixed composite Simpson rules
# refined by panel doubling, vectorized across many (a, b) pairs.

_SIMPSON_NODE_CACHE: dict = {}


def _simpson_nodes(panels: int):
    if panels not in _SIMPSON_NODE_CACHE:
        n = 2 * panels + 1
        t = np.linspace(0.0, 1.0, n)
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        _SIMPSON_NODE_CACHE[panels] = (t, w / (6.0 * panels))
    return _SIMPSON_NODE_CACHE[panels]


def _node_block(a, b, t):
    # endpoint samples sit strictly inside (a, b): one-sided values at edges
    x = a[..., None] + (b - a)[..., None] * t
    d = inward_offset(a, b)
    x[..., 0] = a + d
    x[..., -1] = b - d
    return x


def _fixed_simpson(f, a, b, panels):
    t, w = _simpson_nodes(panels)
    x = _node_block(a, b, t)
    return (b - a) * (np.asarray(f(x), dtype=float) @ w)


def _fixed_simpson_extrap(f, a, b, panels):
    # composite Simpson at `panels` and 2*`panels` sharing one evaluation,
    # combined by Richardson extrapolation (exact for degree <= 5 pieces)
    t2, w2 = _simpson_nodes(2 * panels)
    _, w1 = _simpson_nodes(panels)
    x = _node_block(a, b, t2)
    v = np.asarray(f(x), dtype=float)
    s2 = (b - a) * (v @ w2)
    s1 = (b - a) * (v[..., ::2] @ w1)
    return s2 + (s2 - s1) / 15.0


def _segmented_fixed(f, lo, hi, candidates, panels, extrapolate=True):
    """Signed fixed-rule integrals over per-element intervals [lo, hi],
    pre-split at every candidate edge (arrays broadcastable to lo)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a = np.minimum(lo, hi)
    b = np.maximum(lo, hi)
    sign = np.where(hi >= lo, 1.0, -1.0)
    parts = [np.clip(np.broadcast_to(np.asarray(c, dtype=float), a.shape), a, b)
             for c in candidates]
    edges = np.sort(np.stack([a] + parts + [b], axis=-1), axis=-1)
    rule = _fixed_simpson_extrap if extrapolate else _fixed_simpson
    acc = 0.0
    for j in range(edges.shape[-1] - 1):
        e0, e1 = edges[..., j], edges[..., j + 1]
        if not np.any(e1 > e0):
            continue
        acc = acc + rule(f, e0, e1, panels)
    return sign * acc


def _ibeta_nested_batch_once(a, b, triple, phi, p_out, p_in):
    w = triple.d2_support
    w_eff = np.inf if w is None else w
    kinks = tuple(phi.kinks)
    root = _sqrt_dphi(phi)
    n = a.size
    cands = [np.full(n, k) for k in kinks]
    if w is not None:
        cands += [a - w, a + w]
        cands += [np.full(n, k - w) for k in kinks]
        cands += [np.full(n, k + w) for k in kinks]

    lo_r = np.minimum(a, b)
    hi_r = np.maximum(a, b)
    sign = np.where(b >= a, 1.0, -1.0)
    parts = [np.clip(c, lo_r, hi_r) for c in cands]
    edges = np.sort(np.stack([lo_r] + parts + [hi_r], axis=-1), axis=-1)

    a_col = a[:, None]

    def outer_integrand(mu):
        hi_in = np.clip(a_col, mu - w_eff, mu + w_eff)
        col = mu[..., None]
        inner = _segmented_fixed(
            lambda s: triple.d2beta(col - s) * root(s),
            mu, hi_in, kinks, p_in)  # piecewise deg <= 5: exact
        return inner * root(mu)

    total = np.zeros(n)
    for j in range(edges.shape[-1] - 1):
        e0, e1 = edges[..., j], edges[..., j + 1]
        if not np.any(e1 > e0):
            continue
        total += _fixed_simpson_extrap(outer_integrand, e0, e1, p_out)
    return sign * total


def _ibeta_wform_batch_once(a, b, triple, phi, mode, p_out, p_in):
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    width = hi - lo
    w_sup = triple.d2_support
    wmax = width if w_sup is None else np.minimum(width, w_sup)
    kinks = tuple(phi.kinks)
    root = _sqrt_dphi(phi)
    n = a.size

    cands = [np.zeros(n)]
    for k in kinks:
        # shifted kink k - w crossing the strip limits, and the moving
        # limits lo - w, hi - w crossing the fixed kink
        cands += [k - lo, k - hi, lo - k, hi - k]
        cands += [np.full(n, k - k2) for k2 in kinks]
    parts = [np.clip(c, -wmax, wmax) for c in cands]
    edges = np.sort(np.stack([-wmax] + parts + [wmax], axis=-1), axis=-1)

    lo_col = lo[:, None]
    hi_col = hi[:, None]

    def outer_integrand(wv):
        m_lo = np.maximum(lo_col, lo_col - wv)
        m_hi = np.minimum(hi_col, hi_col - wv)
        m_hi = np.maximum(m_hi, m_lo)
        col = wv[..., None]
        if mode == "product":
            fn = lambda x: root(x) * root(x + col)
        else:
            fn = lambda x: (root(x) - root(x + col)) ** 2
        in_cands = list(kinks) + [k - wv for k in kinks]
        strip = _segmented_fixed(fn, m_lo, m_hi, in_cands, p_in)
        return triple.d2beta(wv) * strip

    total = np.zeros(n)
    for j in range(edges.shape[-1] - 1):
        e0, e1 = edges[..., j], edges[..., j + 1]
        if not np.any(e1 > e0):
            continue
        total += _fixed_simpson_extrap(outer_integrand, e0, e1, p_out)
    return total


def _phi_beta_batch_once(a, b, triple, phi, panels):
    w = triple.d2_support
    kinks = list(phi.kinks)
    cands = list(kinks)
    if w is not None:
        cands += [b - w, b + w]
    col_b = b[:, None]
    return _segmented_fixed(
        lambda s: triple.dbeta(s - col_b) * phi.dphi(s), b, a, cands, panels)


def _with_doubling(evaluate, tol, start=4, cap=256):
    """Panel-doubling refinement that narrows to the unconverged rows.

    ``evaluate(p, idx)`` returns the quadrature at p panels for the row
    subset ``idx`` (None = all rows).
    """
    p = start
    vals = evaluate(p, None)
    out = np.array(vals)
    active = np.arange(out.size)
    while active.size and p < cap:
        p *= 2
        cur = evaluate(p, active)
        err = np.abs(cur - vals) / 15.0
        out[active] = cur
        keep = err > tol
        active = active[keep]
        vals = cur[keep]
    if active.size:
        raise QuadratureError(
            "batched identity quadrature stalled at %d panels "
            "(%d rows above %.1e)" % (p, active.size, tol))
    return out


def _identity_chunk(a, b, triple, phi, tol):
    def sub(arr, idx):
        return arr if idx is None else arr[idx]

    def nested(x, y):
        return lambda p, idx: _ibeta_nested_batch_once(
            sub(x, idx), sub(y, idx), triple, phi, p, 2)

    def wform(mode):
        return lambda p, idx: _ibeta_wform_batch_once(
            sub(a, idx), sub(b, idx), triple, phi, mode, p, 2)

    def pb(x, y):
        return lambda p, idx: _phi_beta_batch_once(
            sub(x, idx), sub(y, idx), triple, phi, p)

    i_ab = _with_doubling(nested(a, b), tol)
    i_ba = _with_doubling(nested(b, a), tol)
    ref1 = -0.5 * _with_doubling(wform("product"), tol)
    ref2 = 0.5 * _with_doubling(wform("sqdiff"), tol)
    p_ab = _with_doubling(pb(a, b), tol)
    p_ba = _with_doubling(pb(b, a), tol)
    return {
        "i_ab": i_ab, "i_ba": i_ba, "identity1_ref": ref1,
        "phi_beta_ab": p_ab, "phi_beta_ba": p_ba,
        "identity2_lhs": 2.0 * i_ab + p_ab + p_ba, "identity2_ref": ref2,
    }


def identity_check_batch(a, b, triple: EntropyTriple, phi,
                         tol: float = 1e-9, chunk: int = 500) -> dict:
    """Both exchange identities on arrays of pairs, each side refined
    independently until the doubling estimate meets ``tol``.

    Returns arrays: nested values in both argument orders, the shifted
    double-integral references, both entropy-flux differences, and the
    combined form with its nonnegative reference.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    pieces = [_identity_chunk(a[i:i + chunk], b[i:i + chunk], triple, phi, tol)
              for i in range(0, a.size, chunk)]
    return {key: np.concatenate([p[key] for p in pieces])
            for key in pieces[0]}
