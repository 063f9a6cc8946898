"""Adaptive Simpson quadrature, in a scalar-interval and a row-batched variant.

Only the scalar entropy kit (``entropy.I_beta`` and its companions) uses it,
as a reference independent of the exact rule that the checks and residuals
use. Both variants require the integrand to accept numpy arrays. Integrands
built from the coefficient catalog are piecewise smooth; callers pass the
kink locations as breakpoints so every refinement happens on a smooth piece.
"""

from __future__ import annotations

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when refinement hits the depth cap before the tolerance."""


_EPS = np.finfo(float).eps


def inward_offset(a, b):
    """Offset that moves endpoint samples strictly inside [a, b].

    Large enough to be representable next to the endpoints (segments can be
    tiny compared to their location), small enough to leave the integral
    unchanged at the working tolerance.
    """
    span = b - a
    scale = np.maximum(np.abs(a), np.abs(b))
    d = np.maximum(1e-12 * span, 32.0 * _EPS * scale)
    return np.minimum(d, 0.5 * span)


def _split_points(a: float, b: float, breakpoints) -> np.ndarray:
    lo, hi = (a, b) if a <= b else (b, a)
    pts = [lo]
    for p in sorted(set(float(q) for q in breakpoints)):
        if lo < p < hi:
            pts.append(p)
    pts.append(hi)
    return np.asarray(pts)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10,
                     max_depth: int = 40, breakpoints=()) -> float:
    """Integrate ``f`` over the signed interval [a, b].

    Parameters
    ----------
    f : callable
        Vectorized integrand: maps an ndarray of abscissae to values.
    a, b : float
        Interval ends; ``b < a`` flips the sign of the result.
    tol : float
        Absolute tolerance, distributed over subintervals by length. A
        subinterval also passes at the rounding level of its own value (1024
        ulps, edge samples ``inward_offset`` inside included).
    max_depth : int
        Bisection depth cap; exceeding it raises ``QuadratureError``.
    breakpoints : iterable of float
        Known kinks of ``f``; the interval is pre-split there.
    """
    if a == b:
        return 0.0
    sign = 1.0 if b >= a else -1.0
    edges = _split_points(a, b, breakpoints)
    total_len = edges[-1] - edges[0]

    x0 = edges[:-1].copy()
    x2 = edges[1:].copy()
    x1 = 0.5 * (x0 + x2)
    # segment edges may sit exactly on jump discontinuities of f; sample the
    # one-sided value from inside the segment
    nudge = inward_offset(x0, x2)
    f0 = np.asarray(f(x0 + nudge), dtype=float)
    f1 = np.asarray(f(x1), dtype=float)
    f2 = np.asarray(f(x2 - nudge), dtype=float)
    s = (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)
    depth = np.zeros(x0.shape, dtype=int)

    acc = 0.0
    while x0.size:
        xl = 0.5 * (x0 + x1)
        xr = 0.5 * (x1 + x2)
        fl = np.asarray(f(xl), dtype=float)
        fr = np.asarray(f(xr), dtype=float)
        s_left = (x1 - x0) / 6.0 * (f0 + 4.0 * fl + f1)
        s_right = (x2 - x1) / 6.0 * (f1 + 4.0 * fr + f2)
        s2 = s_left + s_right
        err = (s2 - s) / 15.0
        tol_local = tol * (x2 - x0) / total_len
        done = np.abs(err) <= np.maximum(tol_local, 1024 * _EPS * np.abs(s2))
        stuck = (~done) & (depth >= max_depth)
        if np.any(stuck):
            i = int(np.argmax(stuck))
            raise QuadratureError(
                "adaptive Simpson stalled on [%.17g, %.17g] "
                "(estimated error %.3e, local tolerance %.3e, depth %d)"
                % (x0[i], x2[i], abs(err[i]), tol_local[i], max_depth))
        acc += float(np.sum((s2 + err)[done]))
        keep = ~done
        if not np.any(keep):
            break
        # push both halves of every unresolved interval
        x0k, x1k, x2k = x0[keep], x1[keep], x2[keep]
        xlk, xrk = xl[keep], xr[keep]
        f0k, f1k, f2k = f0[keep], f1[keep], f2[keep]
        flk, frk = fl[keep], fr[keep]
        dk = depth[keep] + 1
        x0 = np.concatenate([x0k, x1k])
        x1 = np.concatenate([xlk, xrk])
        x2 = np.concatenate([x1k, x2k])
        f0 = np.concatenate([f0k, f1k])
        f1 = np.concatenate([flk, frk])
        f2 = np.concatenate([f1k, f2k])
        s = np.concatenate([s_left[keep], s_right[keep]])
        depth = np.concatenate([dk, dk])
    return sign * acc


def _composite_simpson(f, lo, hi, panels: int) -> np.ndarray:
    # lo, hi: (n, m) segment bounds; result (n, m)
    n_nodes = 2 * panels + 1
    t = np.linspace(0.0, 1.0, n_nodes)
    x = lo[..., None] + (hi - lo)[..., None] * t
    # keep endpoint samples strictly inside the segment (one-sided values at
    # jump discontinuities that were split onto segment edges)
    d = inward_offset(lo, hi)
    x[..., 0] = lo + d
    x[..., -1] = hi - d
    vals = np.asarray(f(x), dtype=float)
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (hi - lo) / (2.0 * panels)
    return h / 3.0 * np.einsum("...k,k->...", vals, w)


def batch_simpson(f, lo, hi, tol: float = 1e-8, breakpoints=(),
                  row_breakpoints=None, max_doublings: int = 14,
                  initial_panels: int = 4) -> np.ndarray:
    """Row-wise integrals of ``f`` over per-row signed intervals [lo_i, hi_i].

    ``f`` receives abscissae shaped (n_rows, n_nodes); per-row parameters are
    the caller's business (close over arrays shaped (n_rows, 1)). Intervals are
    pre-split at ``breakpoints`` (global) and ``row_breakpoints`` (shape
    (n_rows, k)), then refined by panel doubling with a Richardson check.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    lo, hi = np.broadcast_arrays(lo, hi)
    n = lo.shape[0]
    sign = np.where(hi >= lo, 1.0, -1.0)
    a = np.minimum(lo, hi)
    b = np.maximum(lo, hi)

    cuts = [np.broadcast_to(np.asarray(p, dtype=float), (n,))
            for p in breakpoints]
    if row_breakpoints is not None:
        rb = np.asarray(row_breakpoints, dtype=float)
        cuts.extend(rb[:, j] for j in range(rb.shape[1]))
    if cuts:
        interior = np.stack([np.clip(c, a, b) for c in cuts], axis=1)
        interior = np.sort(interior, axis=1)
        edges = np.concatenate([a[:, None], interior, b[:, None]], axis=1)
    else:
        edges = np.stack([a, b], axis=1)

    seg_lo = edges[:, :-1]
    seg_hi = edges[:, 1:]
    panels = initial_panels
    prev = _composite_simpson(f, seg_lo, seg_hi, panels)
    for _ in range(max_doublings):
        panels *= 2
        cur = _composite_simpson(f, seg_lo, seg_hi, panels)
        err = np.abs(cur - prev) / 15.0
        if float(np.max(np.sum(err, axis=1), initial=0.0)) <= tol:
            prev = cur
            break
        prev = cur
    else:
        raise QuadratureError(
            "batched Simpson stalled at %d panels (worst row error %.3e, "
            "tolerance %.3e)" % (panels, float(np.max(np.sum(err, axis=1))), tol))
    return sign * np.sum(prev, axis=1)
