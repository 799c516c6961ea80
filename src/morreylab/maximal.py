"""Dyadic and centered bilinear maximal operators and weighted variants.

The two-function maximal operator of order alpha takes, at each point x, the
sup over cubes Q containing x of

    |Q|^(alpha/n) * (mean_Q |f|^r1)^(1/r1) * (mean_Q |g|^r2)^(1/r2).

Dyadic mode takes the sup over the window's cube catalog as block reductions
(the default everywhere); centered mode uses cubes [x - r, x + r]^n over
dyadic radii and exists so the pointwise domination of the bilinear maximal
function is a literal test: a Holder split of the bilinear average on the
centered cube is exact there and only there.

The weighted variant additionally multiplies by a power average of a weight
on Q while taking the f/g averages on the 3-fold dilate 3Q; it is the object
the stopping-time estimates actually bound.  All averages over 3Q or centered
cubes are clipped to the window with renormalized volume.
"""

from __future__ import annotations

import math

import numpy as np

from .dyadic import Box
from .field import (
    LatticeFunction,
    Weight,
    _axis_overlap_weights,
    _weighted_box_sum,
    dilated_means,
    expand_level,
    level_means,
    level_power_means,
)
from .operators import _require_pair, dyadic_radii


def m_alpha_r(f: LatticeFunction, g: LatticeFunction, alpha: float,
              pair: tuple[float, float], mode: str = "dyadic") -> LatticeFunction:
    """Order-alpha bilinear maximal function for the exponent pair (r1, r2)."""
    r1, r2 = float(pair[0]), float(pair[1])
    if r1 <= 0 or r2 <= 0:
        raise ValueError(f"r1, r2 must be positive; got ({r1}, {r2})")
    window = _require_pair(f, g)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0; got {alpha}")
    n = window.dim
    if mode == "dyadic":
        fa = np.abs(f.values) ** r1
        ga = np.abs(g.values) ** r2
        best = np.zeros(window.shape)
        for level in window.levels():
            val = (2.0 ** (level * alpha)) \
                * level_means(fa, window, level) ** (1.0 / r1) \
                * level_means(ga, window, level) ** (1.0 / r2)
            np.maximum(best, expand_level(val, window, level), out=best)
        return LatticeFunction(window, best)
    if mode == "centered":
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
    raise ValueError(f"mode must be 'dyadic' or 'centered'; got {mode!r}")


def m_joint_weighted(f: LatticeFunction, g: LatticeFunction, v: Weight, alpha: float,
                     rhos: tuple[float, float], w_exp: float) -> LatticeFunction:
    """Weighted auxiliary maximal operator.

    sup over dyadic Q containing x of
      |Q|^(alpha/n) * (mean_{3Q} |f|^rho1)^(1/rho1) * (mean_{3Q} |g|^rho2)^(1/rho2)
                    * (mean_Q v^w_exp)^(1/w_exp),
    with w_exp = inf meaning the max of v on Q (the t = 1 convention).
    """
    rho1, rho2 = float(rhos[0]), float(rhos[1])
    if rho1 <= 0 or rho2 <= 0:
        raise ValueError(f"rho1, rho2 must be positive; got ({rho1}, {rho2})")
    if w_exp != math.inf and w_exp <= 0:
        raise ValueError(f"weight exponent must be positive or inf; got {w_exp}")
    window = _require_pair(f, g)
    if v.window != window:
        raise ValueError("v must live on the window of f and g")
    n = window.dim
    fa = np.abs(f.values) ** rho1
    ga = np.abs(g.values) ** rho2
    best = np.zeros(window.shape)
    for level in window.levels():
        val = (2.0 ** (level * n)) ** (alpha / n) \
            * dilated_means(fa, window, level) ** (1.0 / rho1) \
            * dilated_means(ga, window, level) ** (1.0 / rho2) \
            * level_power_means(v.values, window, level, w_exp)
        np.maximum(best, expand_level(val, window, level), out=best)
    return LatticeFunction(window, best)
