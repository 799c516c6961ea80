"""Quadrature implementations of the bilinear fractional integral family.

The bilinear fractional integral of order alpha in (0, n),

    (f, g) -> integral of f(x - y) g(x + y) |y|^(alpha - n) dy,

is discretized at cell centers x: the integral over each kernel cell is the
exact (or corner-refined, in n >= 2) average of |y|^(alpha - n) on the cell
times f and g sampled at the translated cell centers.  Averaging the kernel
per cell, instead of sampling it, is what keeps the scheme consistent across
the integrable singularity at y = 0; sampling would diverge there.

Translated sample points x +- y_c land exactly on lattice corners when x and
y_c are both cell centers, so the scheme reduces to index shifts and the
whole operator is a kernel-weighted correlation of the two cell arrays.
Samples falling outside the window contribute 0 (inputs are treated as
compactly supported on the window).

Per-cell outputs are independent; a fixed summation order within each cell
keeps results deterministic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .dyadic import Box, Window
from .field import LatticeFunction, _axis_overlap_weights, _weighted_box_sum, abs_power_cell_averages

# Least recently used kernels are dropped beyond this many, so a long sweep
# over alphas or windows holds a bounded number of kernel arrays.
_KERNEL_CACHE_SIZE = 8
_KERNEL_CACHE: OrderedDict = OrderedDict()


def kernel_cell_averages(alpha: float, window: Window, depth: int = 12) -> np.ndarray:
    """Per-cell averages of |y|^(alpha - n); cached per (alpha, window, depth)."""
    key = (float(alpha), window, int(depth))
    hit = _KERNEL_CACHE.get(key)
    if hit is None:
        hit = abs_power_cell_averages(alpha - window.dim, window, depth)
        hit.setflags(write=False)
        _KERNEL_CACHE[key] = hit
        if len(_KERNEL_CACHE) > _KERNEL_CACHE_SIZE:
            _KERNEL_CACHE.popitem(last=False)
    else:
        _KERNEL_CACHE.move_to_end(key)
    return hit


def _require_pair(f: LatticeFunction, g: LatticeFunction) -> Window:
    if f.window != g.window:
        raise ValueError("f and g must live on the same window")
    return f.window


def _padded(values: np.ndarray, window: Window) -> tuple[np.ndarray, tuple[int, ...]]:
    """Zero-pad so every shifted/reflected index used below stays in range."""
    c = window.cells_per_axis
    pads = tuple(c + abs(m) + 1 for m in window.cell_index_lo)
    out = np.zeros(tuple(2 * p + c for p in pads))
    out[tuple(slice(p, p + c) for p in pads)] = values
    return out, pads


@dataclass(frozen=True)
class CommutatorSpec:
    """Symbols and slot choices for an iterated commutator.

    beta_vec[i] = 1 commutes the i-th symbol against the first argument slot
    (samples at x - y), beta_vec[i] = 2 against the second (x + y).  The
    expanded integrand multiplies the kernel by
    prod_{beta=1} (b_i(x) - b_i(x - y)) * prod_{beta=2} (b_i(x) - b_i(x + y)),
    which is manifestly invariant under permuting the (symbol, slot) pairs.
    """

    b_vec: tuple
    beta_vec: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "b_vec", tuple(self.b_vec))
        object.__setattr__(self, "beta_vec", tuple(int(b) for b in self.beta_vec))
        if len(self.b_vec) != len(self.beta_vec):
            raise ValueError("b_vec and beta_vec must have equal length")
        if any(b not in (1, 2) for b in self.beta_vec):
            raise ValueError("slot markers must be 1 or 2")
        wins = {b.window for b in self.b_vec}
        if len(wins) > 1:
            raise ValueError("all symbols must live on the same window")

    @property
    def order(self) -> int:
        return len(self.b_vec)

    @property
    def m(self) -> int:
        """Number of first-slot symbols."""
        return sum(1 for b in self.beta_vec if b == 1)


def _correlation(f: LatticeFunction, g: LatticeFunction, alpha: float, depth: int,
                 symbols: tuple) -> LatticeFunction:
    """The kernel-weighted correlation shared by the operators below.

    Sums kern(y_c) f(x - y_c) g(x + y_c) over the kernel cells y_c, each term
    times b(x) - b(x - y_c) (slot 1) or b(x) - b(x + y_c) (slot 2) for every
    (b, slot) in symbols; no symbols gives the plain bilinear integral.
    """
    window = _require_pair(f, g)
    if symbols and symbols[0][0].window != window:
        raise ValueError("symbols must live on the window of f and g")
    n = window.dim
    if not 0.0 < alpha < n:
        raise ValueError(f"alpha must lie in (0, {n}); got {alpha}")
    kern = kernel_cell_averages(alpha, window, depth)
    fpad, pads = _padded(f.values, window)
    gpad, _ = _padded(g.values, window)
    bpads = [(b.values, _padded(b.values, window)[0], slot) for b, slot in symbols]
    # per axis and kernel offset j, the padded slices of f(x - y_cj) and g(x + y_cj)
    c = window.cells_per_axis
    f_axes = [[slice(p - j - m, p - j - m + c) for j in range(c)]
              for p, m in zip(pads, window.cell_index_lo)]
    g_axes = [[slice(p + j + m + 1, p + j + m + 1 + c) for j in range(c)]
              for p, m in zip(pads, window.cell_index_lo)]
    out = np.zeros(window.shape)
    for j_off in np.ndindex(window.shape):
        fsl = tuple(axis[j] for axis, j in zip(f_axes, j_off))
        gsl = tuple(axis[j] for axis, j in zip(g_axes, j_off))
        term = kern[j_off] * fpad[fsl] * gpad[gsl]
        for b, bpad, slot in bpads:
            term = term * (b - bpad[fsl if slot == 1 else gsl])
        out += term
    return LatticeFunction(window, out * window.cell_volume)


def bilinear_fractional(f: LatticeFunction, g: LatticeFunction, alpha: float,
                        depth: int = 12) -> LatticeFunction:
    """Bilinear fractional integral of order alpha, evaluated at cell centers."""
    return _correlation(f, g, alpha, depth, ())


def commutator_iterated(spec: CommutatorSpec, f: LatticeFunction, g: LatticeFunction,
                        alpha: float, depth: int = 12) -> LatticeFunction:
    """Iterated commutator of the bilinear fractional integral with BMO symbols."""
    return _correlation(f, g, alpha, depth, tuple(zip(spec.b_vec, spec.beta_vec)))


def bt_alpha(f: LatticeFunction, g: LatticeFunction, alpha: float,
             depth: int = 12) -> LatticeFunction:
    """Power-weight companion operator: the order-(n - alpha) bilinear integral."""
    window = _require_pair(f, g)
    n = window.dim
    if not 0.0 < alpha < n:
        raise ValueError(f"alpha must lie in (0, {n}); got {alpha}")
    return bilinear_fractional(f, g, n - alpha, depth)


def dyadic_radii(window: Window) -> list[float]:
    """Radii 2^(level_min - 1) .. 2^level_max used by the centered operators."""
    return [2.0 ** j for j in range(window.level_min - 1, window.level_max + 1)]


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
    h = window.cell_side
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
