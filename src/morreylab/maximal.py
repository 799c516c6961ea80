"""Dyadic and centered bilinear maximal operators.

The two-function maximal operator of order alpha takes, at each point x, the
sup over cubes Q containing x of

    |Q|^(alpha/n) * (mean_Q |f|^r1)^(1/r1) * (mean_Q |g|^r2)^(1/r2).

Dyadic mode takes the sup over the window's cube catalog as block reductions
(the default everywhere); centered mode uses cubes [x - r, x + r]^n over
dyadic radii and exists so the pointwise domination of the bilinear maximal
function is a literal test: a Holder split of the bilinear average on the
centered cube is exact there and only there.  Both modes take a batch of
inputs (see field).

Centered cubes are whole-array window sums.  The cube of radius h/2 (h the
cell side) is the centre cell; the cube of radius K h (K = 2^i) covers, per
axis, the cells at offset |d| < K whole and the two at |d| = K half.  On an
array zero-padded past the largest K, the sums W_k[m] = sum_{|d| <= k} a[m + d]
double as W_{2k+1}[m] = W_k[m - k - 1] + a[m] + W_k[m + k + 1] from W_0 = a,
which reaches every k = K - 1, and the cube sum along the axis is
W_{K-1}[m] + (a[m - K] + a[m + K]) / 2.  The shifts are np.roll: every entry
it wraps around is a zero of the padding.  The weights are separable, so one
such pass per trailing axis gives the n-D sum.  Every term added is
nonnegative: differences of prefix sums would cancel badly on spiky inputs.
Averages over centered cubes are clipped to the window with renormalized
volume.
"""

from __future__ import annotations

import math

import numpy as np

from .field import (
    LatticeFunction,
    _same_window,
    level_means,
    pointwise_level_sup,
)
from .operators import dyadic_radii


def _axis_window_sums(a: np.ndarray, axis: int, ks):
    """Yield, for each K in ks (increasing powers of two), the sum along axis of
    a[m + d] over |d| < K plus half of a[m - K] and a[m + K]; a must be zero
    within max(ks) + 1 of both ends of the axis.  Then every entry np.roll wraps
    around is a +0.0 of that padding: w reaches k cells past a, is shifted by
    k + 1, and 2k + 1 <= max(ks)."""
    w, k = a, 0  # w[m] = sum of a[m + d] over |d| <= k
    for big_k in ks:
        while k < big_k - 1:
            w = np.roll(w, k + 1, axis) + a + np.roll(w, -k - 1, axis)
            k = 2 * k + 1
        yield w + 0.5 * (np.roll(a, big_k, axis) + np.roll(a, -big_k, axis))


def _cube_sums(a: np.ndarray, ks, n: int):
    """Yield the centered cube sums of a over its trailing n axes for each K in ks,
    one axis pass at a time."""
    first = a.ndim - n
    for big_k, b in zip(ks, _axis_window_sums(a, first, ks)):
        for axis in range(first + 1, a.ndim):
            b = next(_axis_window_sums(b, axis, (big_k,)))
        yield b


def m_alpha_r(f: LatticeFunction, g: LatticeFunction, alpha: float,
              pair: tuple[float, float], mode: str = "dyadic") -> LatticeFunction:
    """Order-alpha bilinear maximal function for the exponent pair (r1, r2)."""
    r1, r2 = float(pair[0]), float(pair[1])
    if not (0 < r1 < math.inf and 0 < r2 < math.inf):
        raise ValueError(f"r1, r2 must be positive and finite; got ({r1}, {r2})")
    window = _same_window(f, g)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0; got {alpha}")
    fa = np.abs(f.values) ** r1
    ga = np.abs(g.values) ** r2
    if mode == "dyadic":
        return LatticeFunction(window, pointwise_level_sup(
            window, lambda level: (2.0 ** (level * alpha))
            * level_means(fa, window, level) ** (1.0 / r1)
            * level_means(ga, window, level) ** (1.0 / r2)))
    if mode == "centered":
        radii = dyadic_radii(window)
        best = (2.0 * radii[0]) ** alpha * fa ** (1.0 / r1) * ga ** (1.0 / r2)
        ks = [1 << i for i in range(len(radii) - 1)]  # radii[1:] / h
        pad, n = ks[-1] + 1, window.dim
        core = (Ellipsis, *(slice(pad, pad + c) for c in window.shape))
        sums = zip(*(_cube_sums(np.pad(a, [(0, 0)] * (a.ndim - n) + [(pad, pad)] * n), ks, n)
                     for a in (fa, ga, np.ones(window.shape))))
        for r, (sf, sg, vol) in zip(radii[1:], sums):
            vol = vol[core]
            val = (2.0 * r) ** alpha * (sf[core] / vol) ** (1.0 / r1) \
                * (sg[core] / vol) ** (1.0 / r2)
            np.maximum(best, val, out=best)
        return LatticeFunction(window, best)
    raise ValueError(f"mode must be 'dyadic' or 'centered'; got {mode!r}")
