"""Piecewise-constant lattice functions, exact cell averaging, power weights.

A LatticeFunction holds one value per finest cell of a Window and is constant
on each cell, so every average over a cell-aligned region is an exact finite
sum.  Averages over non-aligned boxes (dilated cubes, centered cubes) are
still exact: the overlap of a box with each cell is a product of interval
lengths, and the integral is the overlap-weighted sum of cell values.  Boxes
are clipped to the window and the clipped volume is the normalizer, so
averages near the boundary never touch undefined data.

Weights are strictly positive lattice functions.  power_weight builds the
cell-average discretization of |x|^gamma: closed-form antiderivatives in one
dimension; in higher dimensions a corner-refined midpoint rule that splits
the origin cell dyadically to a configurable depth (the integrand is singular
only at the origin, which is always a cell corner).  The uncontrolled error
of the midpoint leaves is O(2^(-depth*(gamma+n))) for the origin cell; the
value is reported, not assumed, by the accuracy tests.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .dyadic import Box, Cube, Window, cube_box, dilate3
from .errors import EmptyIntersectionError


class LatticeFunction:
    """Function constant on each finest cell of a window."""

    __slots__ = ("window", "values")

    def __init__(self, window: Window, values):
        arr = np.asarray(values, dtype=float)
        if arr.shape != window.shape:
            raise ValueError(f"values shape {arr.shape} != window shape {window.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("lattice function values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("LatticeFunction is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, window: Window, c: float) -> "LatticeFunction":
        return cls(window, np.full(window.shape, float(c)))

    @classmethod
    def from_callable(cls, window: Window, fn: Callable[..., float]) -> "LatticeFunction":
        """Sample fn at cell centers."""
        vals = np.empty(window.shape)
        lo = window.cell_index_lo
        for off in np.ndindex(window.shape):
            center = window.cell_center(tuple(o + a for o, a in zip(off, lo)))
            vals[off] = fn(*center)
        return cls(window, vals)

    @classmethod
    def indicator(cls, window: Window, box: Box) -> "LatticeFunction":
        """Exact discretization of the box indicator (cell overlap fractions)."""
        weights = _axis_overlap_weights(window, box)
        vals = np.ones(window.shape)
        h = window.cell_side
        for axis, w in enumerate(weights):
            shape = [1] * window.dim
            shape[axis] = window.cells_per_axis
            vals = vals * (w / h).reshape(shape)
        return cls(window, vals)

    # -- arithmetic (cellwise) -----------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, LatticeFunction):
            if other.window != self.window:
                raise ValueError("window mismatch")
            return LatticeFunction(self.window, op(self.values, other.values))
        return LatticeFunction(self.window, op(self.values, float(other)))

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __abs__(self):
        return LatticeFunction(self.window, np.abs(self.values))


class Weight(LatticeFunction):
    """Strictly positive lattice function.

    Non-positive values are construction-time errors, never runtime NaNs.
    """

    def __init__(self, window: Window, values):
        super().__init__(window, values)
        if not np.all(self.values > 0):
            raise ValueError("weight values must be strictly positive")

    def __mul__(self, other):
        out = super().__mul__(other)
        return Weight(out.window, out.values) if np.all(out.values > 0) else out

    __rmul__ = __mul__


# -- box/cell overlap machinery -----------------------------------------------


def _axis_overlap_weights(window: Window, box: Box) -> list[np.ndarray]:
    """Per-axis overlap lengths of the box with every cell (clipped to window)."""
    if box.dim != window.dim:
        raise ValueError("box dimension mismatch")
    h = window.cell_side
    c = window.cells_per_axis
    out = []
    for axis in range(window.dim):
        a0 = window.cell_index_lo[axis]
        edges = (np.arange(a0, a0 + c + 1)) * h
        lo = np.maximum(edges[:-1], box.lo[axis])
        hi = np.minimum(edges[1:], box.hi[axis])
        out.append(np.maximum(hi - lo, 0.0))
    return out


def _weighted_box_sum(values: np.ndarray, weights: list[np.ndarray]) -> float:
    """sum_cells values * prod_axis overlap, via sequential axis contraction."""
    acc = values
    for w in weights:
        acc = np.tensordot(w, acc, axes=(0, 0))
    return float(acc)


def cell_average(f: LatticeFunction, box: Box) -> float:
    """Exact volume-weighted mean of f over box intersected with the window."""
    weights = _axis_overlap_weights(f.window, box)
    vol = 1.0
    for w in weights:
        vol *= float(w.sum())
    if vol <= 0.0:
        raise EmptyIntersectionError(f"box {box.lo}..{box.hi} misses the window")
    return _weighted_box_sum(f.values, weights) / vol


def power_avg(f: LatticeFunction, box: Box, e: float) -> float:
    """(mean over box of |f|^e)^(1/e); e = inf gives the max over touched cells.

    e must be nonzero.  Negative e with a vanishing cell value on the box is
    rejected (the mean would be infinite).
    """
    if e == math.inf:
        mask = LatticeFunction.indicator(f.window, box).values > 0
        if not mask.any():
            raise EmptyIntersectionError(f"box {box.lo}..{box.hi} misses the window")
        return float(np.abs(f.values[mask]).max())
    e = float(e)
    if e == 0.0:
        raise ValueError("exponent e must be nonzero")
    av = np.abs(f.values)
    if e < 0 and np.any((av == 0.0) & (LatticeFunction.indicator(f.window, box).values > 0)):
        raise ValueError("negative exponent with vanishing values on the box")
    mean = cell_average(LatticeFunction(f.window, av ** e), box)
    return mean ** (1.0 / e)


# -- block reductions over all cubes of one level --------------------------------


def _blocks(values: np.ndarray, window: Window, level: int):
    """View with each axis split into (cubes of the level, entries per cube), and the inner axes."""
    b = values.shape[0] // window.index_count(level)
    interleaved = []
    for c in values.shape:
        interleaved.extend((c // b, b))
    return values.reshape(tuple(interleaved)), tuple(range(1, 2 * values.ndim, 2))


def level_means(values: np.ndarray, window: Window, level: int) -> np.ndarray:
    """Block means over all cubes of one level, in cube-index order."""
    blocked, axes = _blocks(values, window, level)
    return blocked.mean(axis=axes)


def level_max(values: np.ndarray, window: Window, level: int) -> np.ndarray:
    """Block maxima over all cubes of one level, in cube-index order.

    values holds one entry per finest cell, or per cube of any finer level.
    """
    blocked, axes = _blocks(values, window, level)
    return blocked.max(axis=axes)


def level_power_means(values: np.ndarray, window: Window, level: int, e: float) -> np.ndarray:
    """power_avg over all cubes Q of one level: (mean_Q values^e)^(1/e), values >= 0;
    e = inf gives max_Q values."""
    if e == math.inf:
        return level_max(values, window, level)
    return level_means(values ** e, window, level) ** (1.0 / e)


def dilated_means(values: np.ndarray, window: Window, level: int) -> np.ndarray:
    """Means over 3Q clipped to the window, for every cube Q of one level.

    3Q is Q and its level neighbours, so its sum and its cell count add up the
    3^n shifted block sums and block counts, zero-padded outside the window.
    """
    n = window.dim
    c = window.index_count(level)
    blocked, axes = _blocks(values, window, level)
    sums = np.pad(blocked.sum(axis=axes), 1)
    cells = np.pad(np.full((c,) * n, float(values.size // c ** n)), 1)
    total = np.zeros((c,) * n)
    count = np.zeros((c,) * n)
    for shift in itertools.product(range(3), repeat=n):
        at = tuple(slice(d, d + c) for d in shift)
        total += sums[at]
        count += cells[at]
    return total / count


def expand_level(values: np.ndarray, window: Window, level: int) -> np.ndarray:
    """Inverse of level_means' shape: repeat each cube value over its cells."""
    b = 1 << (level - window.level_min)
    out = values
    for axis in range(window.dim):
        out = np.repeat(out, b, axis=axis)
    return out


# -- |x|^gamma cell averages ---------------------------------------------------


def _abs_power_antiderivative(x: float, gamma: float) -> float:
    # F'(x) = |x|^gamma, F(0) = 0; valid piecewise away from 0 for gamma <= -1
    if gamma == -1.0:
        return math.copysign(math.log(abs(x)), x) if x != 0.0 else -math.inf
    return math.copysign(abs(x) ** (gamma + 1.0) / (gamma + 1.0), x)


def _integral_abs_power_1d(a: float, b: float, gamma: float) -> float:
    """Exact integral of |x|^gamma over [a, b); a < b."""
    if a < 0.0 < b:
        return _integral_abs_power_1d(a, 0.0, gamma) + _integral_abs_power_1d(0.0, b, gamma)
    touches_zero = a == 0.0 or b == 0.0
    if touches_zero and gamma <= -1.0:
        raise ValueError(f"|x|^{gamma} is not integrable on a cell touching 0")
    return _abs_power_antiderivative(b, gamma) - _abs_power_antiderivative(a, gamma)


_REG_DEPTH = 3  # dyadic tensor-midpoint depth for boxes away from the singularity


def _avg_abs_power_box(lo: Sequence[float], hi: Sequence[float], gamma: float, depth: int) -> float:
    """Average of |x|^gamma over the box, corner-refining at the origin.

    n = 1 uses the closed-form antiderivative (exact).  n >= 2 splits the box
    dyadically: the chain of sub-boxes touching the origin keeps the full
    depth budget, the rest are capped at _REG_DEPTH, and exhausted budgets
    fall back to the midpoint value.  The uncontrolled remainder sits in the
    innermost corner box of volume 2^(-n*depth) times the cell.
    """
    n = len(lo)
    if n == 1:
        return _integral_abs_power_1d(lo[0], hi[0], gamma) / (hi[0] - lo[0])
    touches_origin = all(a <= 0.0 <= b for a, b in zip(lo, hi))
    if touches_origin and gamma <= -n:
        raise ValueError(f"|x|^{gamma} is not integrable near 0 in dimension {n}")
    if depth <= 0:
        center = [(a + b) / 2.0 for a, b in zip(lo, hi)]
        r = math.sqrt(sum(c * c for c in center))
        if r == 0.0:
            raise ValueError("origin-centered box needs positive depth")
        return r ** gamma
    total = 0.0
    mids = [(a + b) / 2.0 for a, b in zip(lo, hi)]
    for corner in itertools.product((0, 1), repeat=n):
        slo = tuple(lo[i] if corner[i] == 0 else mids[i] for i in range(n))
        shi = tuple(mids[i] if corner[i] == 0 else hi[i] for i in range(n))
        sub_touches = all(a <= 0.0 <= b for a, b in zip(slo, shi))
        sub_depth = depth - 1 if sub_touches else min(depth - 1, _REG_DEPTH)
        total += _avg_abs_power_box(slo, shi, gamma, sub_depth)
    return total / (2 ** n)


def abs_power_cell_averages(gamma: float, window: Window, depth: int = 12) -> np.ndarray:
    """Cell-average array of |x|^gamma over every finest cell of the window."""
    n = window.dim
    if gamma <= -n and window.contains_point((0.0,) * n):
        raise ValueError(f"gamma must be > -n = {-n} when the window touches 0")
    h = window.cell_side
    lo_idx = window.cell_index_lo
    vals = np.empty(window.shape)
    for off in np.ndindex(window.shape):
        cell_lo = tuple((a + o) * h for a, o in zip(lo_idx, off))
        cell_hi = tuple(v + h for v in cell_lo)
        touches = all(a <= 0.0 <= b for a, b in zip(cell_lo, cell_hi))
        d = depth if touches else (0 if n == 1 else min(depth, _REG_DEPTH))
        vals[off] = _avg_abs_power_box(cell_lo, cell_hi, gamma, d)
    return vals


def power_weight(gamma: float, window: Window, depth: int = 12) -> Weight:
    """Weight whose cell values are accurate averages of |x|^gamma.

    Requires gamma > -dim whenever the window touches the origin (otherwise
    the origin-cell average diverges).
    """
    return Weight(window, abs_power_cell_averages(gamma, window, depth))


# -- BMO ------------------------------------------------------------------------


def bmo_norm(b: LatticeFunction) -> float:
    """Dyadic BMO norm: sup over window cubes of mean |b - mean_Q(b)| on Q.

    The sup is restricted to the window's dyadic catalog; the all-cubes norm
    is comparable up to a dimensional constant, and every invariant in the
    package is stated against this dyadic norm.
    """
    w = b.window
    best = 0.0
    for level in w.levels():
        means = level_means(b.values, w, level)
        centered = np.abs(b.values - expand_level(means, w, level))
        osc = level_means(centered, w, level)
        best = max(best, float(osc.max()))
    return best


def oscillation_ratio(b: LatticeFunction, e: float) -> float:
    """sup over cubes of (mean |b - mean_Q b|^e)^(1/e), normalized by the BMO norm.

    John-Nirenberg predicts this stays bounded in e; the value is reported for
    empirical checks, it is not clamped.
    """
    norm = bmo_norm(b)
    if norm == 0.0:
        return 0.0
    w = b.window
    best = 0.0
    for level in w.levels():
        means = level_means(b.values, w, level)
        centered = np.abs(b.values - expand_level(means, w, level)) ** e
        osc = level_means(centered, w, level) ** (1.0 / e)
        best = max(best, float(osc.max()))
    return best / norm


def lambda_avg(b: LatticeFunction, q: Cube) -> float:
    """Mean of b over the 3-fold dilate of the cube (clipped to the window)."""
    return cell_average(b, dilate3(q))


def cube_average(f: LatticeFunction, q: Cube) -> float:
    """Exact mean of f over a window cube."""
    return cell_average(f, cube_box(q))


# -- CSV interchange -------------------------------------------------------------


def to_csv(f: LatticeFunction, path) -> None:
    """Write header row level_min,level_max,dim then one row per cell index...,value."""
    w = f.window
    lo = w.cell_index_lo
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow([w.level_min, w.level_max, w.dim])
        for off in np.ndindex(w.shape):
            idx = [a + o for a, o in zip(lo, off)]
            out.writerow(idx + [repr(float(f.values[off]))])


def from_csv(path) -> LatticeFunction:
    """Rebuild a LatticeFunction; the window block is inferred from the indices."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError("empty CSV")
    level_min, level_max, dim = (int(v) for v in rows[0])
    cells = {}
    for r in rows[1:]:
        if len(r) != dim + 1:
            raise ValueError(f"cell row has {len(r)} fields, expected {dim + 1}")
        idx = tuple(int(v) for v in r[:dim])
        cells[idx] = float(r[dim])
    if not cells:
        raise ValueError("CSV has no cell rows")
    mins = tuple(min(ix[a] for ix in cells) for a in range(dim))
    maxs = tuple(max(ix[a] for ix in cells) for a in range(dim))
    per_axis = maxs[0] - mins[0] + 1
    scale = 1 << (level_max - level_min)
    if per_axis % scale != 0:
        raise ValueError("cell block is not a whole number of top-level cubes")
    top_count = per_axis // scale
    for a in range(dim):
        if maxs[a] - mins[a] + 1 != per_axis or mins[a] % scale != 0:
            raise ValueError("cell indices do not form an aligned window block")
    offset = tuple(m // scale for m in mins)
    window = Window(dim, level_min, level_max, origin_offset=offset, top_count=top_count)
    if len(cells) != window.n_cells:
        raise ValueError(f"expected {window.n_cells} cells, found {len(cells)}")
    vals = np.empty(window.shape)
    lo = window.cell_index_lo
    for idx, v in cells.items():
        vals[tuple(m - a for m, a in zip(idx, lo))] = v
    return LatticeFunction(window, vals)
