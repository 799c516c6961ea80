"""Per-cell, per-radius box loops: the differential oracles of the centered operators.

These are the loop forms of morreylab.operators.bh_maximal and of the
centered mode of morreylab.maximal.m_alpha_r.  Each cell and each radius
builds the box [x - r, x + r]^n, takes its exact per-axis overlap with every
cell and contracts the values against those weights, so they share no code
with the shell sums and window sums they check.
"""

import numpy as np

from morreylab.dyadic import Box
from morreylab.field import LatticeFunction, _axis_overlap_weights, _weighted_box_sum
from morreylab.operators import _require_pair, dyadic_radii


def _reflected(values: np.ndarray, m_off) -> np.ndarray:
    """Array R with R[k] = values[2*m - k] (zero outside), in offset coordinates."""
    shape = values.shape
    out = np.zeros(shape)
    dst = []
    src = []
    for ax, c in enumerate(shape):
        lo = max(0, 2 * m_off[ax] - (c - 1))
        hi = min(c - 1, 2 * m_off[ax])
        if lo > hi:
            return out
        dst.append(slice(lo, hi + 1))
        src.append(slice(2 * m_off[ax] - hi, 2 * m_off[ax] - lo + 1))
    block = values[tuple(src)]
    out[tuple(dst)] = np.flip(block, axis=tuple(range(values.ndim)))
    return out


def bh_maximal(f: LatticeFunction, g: LatticeFunction) -> LatticeFunction:
    """Bilinear maximal function over dyadic radii.

    Per cell center x the value is the max over r in dyadic_radii of the
    average of |f(x - y) g(x + y)| over y in [-r, r]^n, computed by exact
    cell sums after substituting u = x - y (x + y = 2x - u then lies in a
    reflected cell).  The normalizer is the full (2r)^n with out-of-window
    samples contributing 0; the true sup over all r > 0 is within a factor
    2^n of this dyadic sup for nonnegative integrands (reported, not assumed).
    """
    window = _require_pair(f, g)
    n = window.dim
    radii = dyadic_radii(window)
    out = np.zeros(window.shape)
    for m_off in np.ndindex(window.shape):
        prod = np.abs(f.values * _reflected(g.values, m_off))
        x = window.cell_center(tuple(o + a for o, a in zip(m_off, window.cell_index_lo)))
        best = 0.0
        for r in radii:
            box = Box(tuple(xi - r for xi in x), tuple(xi + r for xi in x))
            weights = _axis_overlap_weights(window, box)
            val = _weighted_box_sum(prod, weights) / (2.0 * r) ** n
            best = max(best, val)
        out[m_off] = best
    return LatticeFunction(window, out)


def m_alpha_r_centered(f: LatticeFunction, g: LatticeFunction, alpha: float,
                       pair: tuple[float, float]) -> LatticeFunction:
    """Centered order-alpha bilinear maximal function for the exponent pair (r1, r2).

    The sup over the centered cubes [x - r, x + r]^n, r in dyadic_radii, of
    (2r)^alpha (mean |f|^r1)^(1/r1) (mean |g|^r2)^(1/r2), the means taken over
    the cube clipped to the window.
    """
    r1, r2 = float(pair[0]), float(pair[1])
    if r1 <= 0 or r2 <= 0:
        raise ValueError(f"r1, r2 must be positive; got ({r1}, {r2})")
    window = _require_pair(f, g)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0; got {alpha}")
    radii = dyadic_radii(window)
    fa = np.abs(f.values) ** r1
    ga = np.abs(g.values) ** r2
    out = np.empty(window.shape)
    lo = window.cell_index_lo
    for off in np.ndindex(window.shape):
        x = window.cell_center(tuple(o + a for o, a in zip(off, lo)))
        best = 0.0
        for r in radii:
            box = Box(tuple(xi - r for xi in x), tuple(xi + r for xi in x))
            weights = _axis_overlap_weights(window, box)
            vol = 1.0
            for w in weights:
                vol *= float(w.sum())
            if vol <= 0.0:
                continue
            mf = _weighted_box_sum(fa, weights) / vol
            mg = _weighted_box_sum(ga, weights) / vol
            val = (2.0 * r) ** alpha * mf ** (1.0 / r1) * mg ** (1.0 / r2)
            best = max(best, val)
        out[off] = best
    return LatticeFunction(window, out)
