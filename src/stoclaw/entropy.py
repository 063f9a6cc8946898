"""Convex entropy machinery: the Kirchhoff transform, the smoothed-absolute-value
entropy family, the quadratic entropy, entropy flux pairs, and the quadratic
interaction form with its exchange identities.

The base profile is a fixed polynomial spline ``B`` with B'' supported on
[-1, 1], giving exact constants M1 = 5/16 and M2 = 15/8 for the scaled family
``theta * B(r / theta)``.

Every integral the checks and residuals use (``kirchhoff``, ``zeta``, ``nu``
and ``identity_check_batch``) is a piecewise polynomial over the coefficient
catalog and is computed exactly by one fixed Gauss rule on each piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# not called here; perfbench/tracing.py wraps entropy.batch_simpson
from .quadrature import batch_simpson

__all__ = [
    "EntropyTriple", "BETA_M1", "BETA_M2",
    "base_beta", "base_dbeta", "base_d2beta",
    "make_beta_theta", "make_quadratic",
    "kirchhoff",
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

    beta: Callable
    dbeta: Callable
    d2beta: Callable
    d2_support: Optional[float]  # halfwidth of supp(beta''), None = unbounded
    zeta: Optional[Callable] = None
    nu: Optional[Callable] = None


# ---------------------------------------------------------------------------
# One exact rule for every catalog integral
#
# 4-point Gauss-Legendre is exact for polynomials of degree <= 7. On
# [-theta, theta] beta_theta' has degree 5 and beta_theta'' degree 4 (outside:
# +-1 and 0; the quadratic entropy's are r and 1); between their kinks the
# catalog's phi', sqrt(phi') and f_k' have degree <= 2. So every integrand
# below, nested ones included, has degree <= 7 on each piece between the
# breakpoints passed with it. The nodes lie strictly inside each piece, so
# jumps of phi' on piece edges are never sampled.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _gauss(f, a, b):
    """The 4-point rule for ``f`` over the signed intervals [a, b] (arrays)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + half[..., None] * _GL_NODES
    return half * (np.asarray(f(x), dtype=float) @ _GL_WEIGHTS)


def _primitive(integrand, kinks):
    """Vectorized r -> int_0^r integrand, exact for an integrand that is a
    polynomial of degree <= 7 between consecutive ``kinks``."""
    knots = np.unique(np.append(np.asarray(kinks, dtype=float), 0.0))
    # int_0 at every knot, tabulated once
    at_knots = np.concatenate(
        [[0.0], np.cumsum(_gauss(integrand, knots[:-1], knots[1:]))])
    at_knots -= at_knots[np.searchsorted(knots, 0.0)]

    def prim(r):
        r = np.asarray(r, dtype=float)
        left = np.clip(np.searchsorted(knots, r, side="right") - 1,
                       0, knots.size - 1)
        return at_knots[left] + _gauss(integrand, knots[left], r)

    return prim


def _attach_fluxes(dbeta, dbeta_kinks, phi, flux):
    zeta = nu = None
    if phi is not None:
        nu = _primitive(lambda s: dbeta(s) * phi.dphi(s),
                        tuple(phi.kinks) + tuple(dbeta_kinks))
    if flux is not None:
        kinks = tuple(flux.kinks) + tuple(dbeta_kinks)
        prims = [_primitive(lambda s, df=c.df: dbeta(s) * df(s), kinks)
                 for c in flux.components]
        zeta = lambda r: np.stack([p(r) for p in prims], axis=-1)
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

    zeta, nu = _attach_fluxes(dbeta, (-th, th), phi, flux)
    return EntropyTriple(beta=beta, dbeta=dbeta, d2beta=d2beta, d2_support=th,
                         zeta=zeta, nu=nu)


def make_quadratic(phi=None, flux=None) -> EntropyTriple:
    """Energy entropy beta(r) = r^2 / 2."""
    beta = lambda r: 0.5 * np.asarray(r, dtype=float) ** 2
    dbeta = lambda r: np.asarray(r, dtype=float)
    d2beta = lambda r: np.ones_like(np.asarray(r, dtype=float))
    zeta, nu = _attach_fluxes(dbeta, (), phi, flux)
    return EntropyTriple(beta=beta, dbeta=dbeta, d2beta=d2beta,
                         d2_support=None, zeta=zeta, nu=nu)


# ---------------------------------------------------------------------------
# Kirchhoff transform

def _sqrt_dphi(phi):
    return lambda s: np.sqrt(np.maximum(phi.dphi(s), 0.0))


def kirchhoff(phi):
    """Return the vectorized primitive u -> int_0^u sqrt(phi'(s)) ds, exact on
    the catalog (sqrt(phi') is piecewise linear between ``phi.kinks``)."""
    return _primitive(_sqrt_dphi(phi), phi.kinks)


# ---------------------------------------------------------------------------
# The interaction form and its exchange identities by the exact rule,
# vectorized across many (a, b) pairs.

def _segmented(f, lo, hi, candidates):
    """Signed exact-rule integrals over per-element intervals [lo, hi],
    pre-split at every candidate edge (arrays broadcastable to lo)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a = np.minimum(lo, hi)
    b = np.maximum(lo, hi)
    parts = [np.clip(c, a, b) for c in candidates]
    edges = np.sort(np.stack([a] + parts + [b], axis=-1), axis=-1)
    acc = 0.0
    for j in range(edges.shape[-1] - 1):
        e0, e1 = edges[..., j], edges[..., j + 1]
        if np.any(e1 > e0):
            acc = acc + _gauss(f, e0, e1)
    return np.where(hi >= lo, 1.0, -1.0) * acc


def _ibeta_nested_batch(a, b, triple, phi):
    w = triple.d2_support
    w_eff = np.inf if w is None else w
    kinks = tuple(phi.kinks)
    root = _sqrt_dphi(phi)
    cands = list(kinks)
    if w is not None:
        cands += [a - w, a + w]
        cands += [k - w for k in kinks] + [k + w for k in kinks]
    a_col = a[:, None]

    def outer_integrand(mu):
        hi_in = np.clip(a_col, mu - w_eff, mu + w_eff)
        col = mu[..., None]
        inner = _segmented(lambda s: triple.d2beta(col - s) * root(s),
                           mu, hi_in, kinks)
        return inner * root(mu)

    return _segmented(outer_integrand, a, b, cands)


def _ibeta_wform_batch(a, b, triple, phi, mode):
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    width = hi - lo
    w_sup = triple.d2_support
    wmax = width if w_sup is None else np.minimum(width, w_sup)
    kinks = tuple(phi.kinks)
    root = _sqrt_dphi(phi)

    cands = [0.0]
    for k in kinks:
        # shifted kink k - w crossing the strip limits, and the moving
        # limits lo - w, hi - w crossing the fixed kink
        cands += [k - lo, k - hi, lo - k, hi - k]
        cands += [k - k2 for k2 in kinks]

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
        strip = _segmented(fn, m_lo, m_hi, list(kinks) + [k - wv for k in kinks])
        return triple.d2beta(wv) * strip

    return _segmented(outer_integrand, -wmax, wmax, cands)


def _phi_beta_batch(a, b, triple, phi):
    w = triple.d2_support
    cands = list(phi.kinks)
    if w is not None:
        cands += [b - w, b + w]
    col_b = b[:, None]
    return _segmented(lambda s: triple.dbeta(s - col_b) * phi.dphi(s),
                      b, a, cands)


def _identity_chunk(a, b, triple, phi):
    i_ab = _ibeta_nested_batch(a, b, triple, phi)
    i_ba = _ibeta_nested_batch(b, a, triple, phi)
    p_ab = _phi_beta_batch(a, b, triple, phi)
    p_ba = _phi_beta_batch(b, a, triple, phi)
    return {
        "i_ab": i_ab, "i_ba": i_ba,
        "identity1_ref": -0.5 * _ibeta_wform_batch(a, b, triple, phi, "product"),
        "phi_beta_ab": p_ab, "phi_beta_ba": p_ba,
        "identity2_lhs": 2.0 * i_ab + p_ab + p_ba,
        "identity2_ref": 0.5 * _ibeta_wform_batch(a, b, triple, phi, "sqdiff"),
    }


# Pairs per vectorized batch of ``identity_check_batch``; bounds the size of
# its (pairs, nodes) work arrays.
_IDENTITY_CHUNK = 500


def identity_check_batch(a, b, triple: EntropyTriple, phi) -> dict:
    """Both exchange identities on arrays of pairs, each side integrated by
    the exact rule over its own decomposition into polynomial pieces.

    Returns arrays: nested values in both argument orders, the shifted
    double-integral references, both entropy-flux differences, and the
    combined form with its nonnegative reference.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    n = _IDENTITY_CHUNK
    pieces = [_identity_chunk(a[i:i + n], b[i:i + n], triple, phi)
              for i in range(0, a.size, n)]
    return {key: np.concatenate([p[key] for p in pieces])
            for key in pieces[0]}
