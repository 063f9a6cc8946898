"""Row-batched composite Simpson quadrature with panel doubling.

No module in ``stoclaw`` calls it: it stays only as the binding that
perfbench's tracer wraps (``entropy.batch_simpson``) until that benchmark
revision drops its ``quadrature.*`` metrics.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuadratureError", "inward_offset", "batch_simpson"]


class QuadratureError(RuntimeError):
    """Raised when panel doubling hits its cap before the tolerance."""


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
