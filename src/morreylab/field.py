"""Piecewise-constant lattice functions, block reductions, power weights.

A LatticeFunction holds one value per finest cell of a Window and is constant
on each cell, so every average over a cell-aligned region is an exact finite
sum.  The block reductions below take such sums for all cubes of one level
at once (means, power means, maxima), or for all cubes of one level inside
a given cube (means over the 3-fold dilates 3Q clipped to the window, with
the clipped cell count as the normalizer).
Every sup over the window's dyadic cubes folds such per-level tables with
level_sup (one number) or pointwise_level_sup (one sup per cell).

A LatticeFunction may also hold a batch of functions on one window: values
of shape (*batch, *window.shape).  The block reductions, expand_level and
both level folds read the trailing window.dim axes only, and every step is
elementwise across the batch, so each entry of a batched result is bit for
bit the result of its unbatched call.  Weights are never batched; they
broadcast against a batch.  Functions that take a single lattice function
(oscillation_ratio, to_csv and Weight here; weak_morrey_functional,
rhs_bilinear_morrey_from and the czd entry points elsewhere) reject a batch
through _require_unbatched.  Every entry point that takes several lattice
functions or weights checks that they share one window through _same_window.

Weights are strictly positive lattice functions.  power_weight builds the
cell-average discretization of |x|^gamma: closed-form antiderivatives in one
dimension; in higher dimensions a corner-refined midpoint rule that splits
the origin cell dyadically to a configurable depth (the integrand is singular
only at the origin, which is always a cell corner).  The uncontrolled error
of the midpoint leaves is O(2^(-depth*(gamma+n))) for the origin cell; the
value is reported, not assumed, by the accuracy tests.

The rule is defined by a per-box corner recursion, but it runs as arrays:
every cell that misses the origin takes a fixed-depth tensor midpoint rule,
evaluated for the whole window in one pass (_midpoint_rule), and only the
chain of sub-boxes touching the origin recurses (_avg_abs_power_box), one
array call per level.  Both repeat the recursion's floating-point operations
in its order, so the cell values are bit-identical to it by construction;
tests/test_quadrature.py keeps the recursion as the oracle.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .dyadic import Cube, Window

# Corner-refinement depth of the power-weight and kernel quadratures unless a caller sets one.
DEFAULT_DEPTH = 12


class LatticeFunction:
    """Function constant on each finest cell of a window, or a batch of them:
    values has shape window.shape, or (*batch, *window.shape)."""

    __slots__ = ("window", "values")

    def __init__(self, window: Window, values):
        arr = np.asarray(values, dtype=float)
        if arr.shape[arr.ndim - window.dim:] != window.shape:
            raise ValueError(f"values shape {arr.shape} does not end in the window shape "
                             f"{window.shape}")
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


class Weight(LatticeFunction):
    """Strictly positive lattice function.

    Non-positive values are construction-time errors, never runtime NaNs.
    """

    def __init__(self, window: Window, values):
        super().__init__(window, values)
        _require_unbatched(self)
        if not np.all(self.values > 0):
            raise ValueError("weight values must be strictly positive")


def _require_unbatched(*fs: LatticeFunction) -> None:
    """Raise unless each argument holds one function, not a batch."""
    for f in fs:
        if f.values.ndim != f.window.dim:
            raise ValueError(f"expected one lattice function, got a batch of shape "
                             f"{f.values.shape[:f.values.ndim - f.window.dim]}")


def _same_window(f: LatticeFunction, *others: Optional[LatticeFunction]) -> Window:
    """The window of f; raises unless every other argument that is not None lives on it."""
    if any(x is not None and x.window != f.window for x in others):
        raise ValueError("inputs must live on the same window")
    return f.window


# -- block reductions over all cubes of one level --------------------------------


def _blocks(values: np.ndarray, window: Window, level: int):
    """View with each trailing window axis split into (cubes of the level, entries per cube),
    and the inner axes; leading batch axes stay as they are."""
    return _split(values, window.dim, values.shape[-1] // window.index_count(level))


def _split(values: np.ndarray, n: int, b: int):
    """_blocks for cubes of b entries per axis over the trailing n axes (a copy if values is a
    strided slice)."""
    lead = values.ndim - n
    interleaved = list(values.shape[:lead])
    for c in values.shape[lead:]:
        interleaved.extend((c // b, b))
    return values.reshape(tuple(interleaved)), tuple(range(lead + 1, lead + 2 * n, 2))


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
    """(mean_Q values^e)^(1/e) over all cubes Q of one level, values >= 0;
    e = inf gives max_Q values."""
    if e == math.inf:
        return level_max(values, window, level)
    return level_means(values ** e, window, level) ** (1.0 / e)


def _dilated_cell_counts(window: Window, level: int, first: Sequence[int], k: int) -> np.ndarray:
    """The finest cells in 3Q clipped to the window, for the k^n cubes Q of one level whose
    offsets from the level's first cube start at first: b (min(x + 2, c) - max(x - 1, 0)) per
    axis at offset x, for c cubes of b cells per axis, multiplied out.  Exact integers, as floats
    (every product stays far below 2^53)."""
    c = window.index_count(level)
    b = 1 << (level - window.level_min)
    counts = np.ones(())
    for x0 in first:
        counts = np.multiply.outer(counts, [b * (min(x + 2, c) - max(x - 1, 0))
                                            for x in range(x0, x0 + k)])
    return counts


def dilated_means(values: np.ndarray, window: Window, level: int, q0: Cube) -> np.ndarray:
    """Means over 3Q clipped to the window, for every cube Q of one level inside the window
    cube q0 (level <= q0.level), in cube-index order from q0's first subcube; values holds one
    entry per finest cell, with leading batch axes.

    3Q is Q and its level neighbours, so each sum adds up the 3^n shifted block sums (in
    itertools.product order, from 0.0) over q0's cubes and a frame one cube wide, whose cubes
    outside the window add 0.0.  Only the cells of that frame are read.
    """
    n = window.dim
    k = 1 << (q0.level - level)
    c = window.index_count(level)
    b = 1 << (level - window.level_min)
    first = [m * k - a for m, a in zip(q0.index, window.index_lo(level))]
    lo = [max(x - 1, 0) for x in first]
    hi = [min(x + k + 1, c) for x in first]
    blocked, axes = _split(values[(...,) + tuple(slice(l * b, h * b) for l, h in zip(lo, hi))],
                           n, b)
    batch = values.shape[:values.ndim - n]
    sums = np.zeros(batch + (k + 2,) * n)
    blocked.sum(axis=axes, out=sums[(...,) + tuple(slice(l - x + 1, h - x + 1)
                                                   for l, h, x in zip(lo, hi, first))])
    total = np.zeros(batch + (k,) * n)
    for shift in itertools.product([slice(d, d + k) for d in range(3)], repeat=n):
        total += sums[(..., *shift)]
    return total / _dilated_cell_counts(window, level, first, k)


def expand_level(values: np.ndarray, window: Window, level: int) -> np.ndarray:
    """Inverse of level_means' shape: repeat each cube value over its cells."""
    b = 1 << (level - window.level_min)
    out = values
    for axis in range(-window.dim, 0):
        out = np.repeat(out, b, axis=axis)
    return out


def level_sup(window: Window, table: Callable[[int], np.ndarray]):
    """sup over the window's cubes of table(level), one value per cube as in level_means; >= 0.0.

    A float, or for a batched table one sup per batch entry (an array of the batch shape).
    """
    best = 0.0
    for level in window.levels():  # fmax, like max(), keeps best where the table holds a nan
        best = np.fmax(best, table(level).max(axis=tuple(range(-window.dim, 0))))
    return best if np.ndim(best) else float(best)


def pointwise_level_sup(window: Window, table: Callable[[int], np.ndarray]) -> np.ndarray:
    """Per finest cell, the sup of table(level) (as in level_sup) over the cubes containing it."""
    best = None
    for level in window.levels():
        t = expand_level(table(level), window, level)
        if best is None:
            best = np.zeros(t.shape)
        np.maximum(best, t, out=best)
    return best


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


def _fold(sub: Callable[[tuple[int, ...]], np.ndarray], n: int) -> np.ndarray:
    """Average sub-box values into their parent boxes.

    sub(corner) gives the values of the sub-boxes at one corner (0 or 1 per
    axis).  The 2^n corners are added in itertools.product order starting
    from 0.0, then divided by 2^n, as the per-box recursion adds them.
    """
    total = 0.0
    for corner in itertools.product((0, 1), repeat=n):
        total += sub(corner)  # a new array on the first corner, in place after it
    total /= 2 ** n
    return total


def _fold_halves(vals: np.ndarray, n: int) -> np.ndarray:
    """_fold on a grid whose boxes were each halved along every axis."""
    blocked = vals.reshape(tuple(x for c in vals.shape for x in (c // 2, 2)))
    return _fold(lambda corner: blocked[tuple(x for bit in corner for x in (slice(None), bit))], n)


def _powers(coords: Sequence[np.ndarray], gamma: float) -> np.ndarray:
    """|c|^gamma on the grid of the per-axis coordinates, |c|^2 added in axis order.

    The power is Python's float pow (C pow), one row of Python floats at a
    time: np.power is not bit-equal to C pow on every platform (it is not
    with AVX-512), and the per-box recursion uses C pow.
    """
    n = len(coords)
    r = 0.0
    for axis, c in enumerate(coords):
        c = c.reshape((1,) * axis + (-1,) + (1,) * (n - 1 - axis))
        r = r + c * c
    np.sqrt(r, out=r)
    return np.fromiter((x ** gamma for row in r.reshape(len(r), -1) for x in row.tolist()),
                       float, r.size).reshape(r.shape)


def _distinct_abs(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |c| in order of appearance, and the position of each |c| among them.

    np.unique would do the same in sorted order, but its sort pulls in code
    that adds about 0.3 MB to the resident size of a run; the axes are short.
    """
    index: dict[float, int] = {}
    positions = [index.setdefault(abs(v), len(index)) for v in c.tolist()]
    return np.array(list(index)), np.array(positions)


def _midpoint_rule(lo: Sequence[Sequence[float]], hi: Sequence[Sequence[float]], gamma: float,
                   depth: int) -> np.ndarray:
    """Dyadic tensor midpoint rule for |x|^gamma on a grid of boxes.

    Axis i of the grid has the box edges lo[i], hi[i]; the result holds one
    average per box, in grid order.  The arithmetic is that of the per-box
    recursion, operation for operation, so the values are bit-identical to
    it: each box is halved depth times along each axis by (a + b) / 2.0, at
    every leaf midpoint c the value is sqrt(c_0^2 + ... + c_{n-1}^2)^gamma
    with the squares added in axis order, and _fold averages the levels back.
    (The recursion adds the squares with sum(), which CPython 3.12 made
    compensated; that can move the last bit of a 3-D leaf, never a 2-D one.)
    Since c^2 = |c|^2 exactly, the powers are taken once per distinct tuple
    of per-axis |c| (a quarter of the leaves of a 2-D window centred at the
    origin), and the first fold gathers its corners from them, so no array
    holds every leaf.  A leaf midpoint at the origin would raise
    ZeroDivisionError for gamma < 0; the origin is a corner of every box the
    callers pass, so no leaf midpoint is.
    """
    n = len(lo)
    distinct, inverse = [], []
    for a, b in zip(lo, hi):
        a = np.asarray(a, dtype=float).reshape(-1, 1)
        b = np.asarray(b, dtype=float).reshape(-1, 1)
        for _ in range(depth):  # leaf index = box * 2^depth + halving bits, first halving highest
            m = (a + b) / 2.0
            a, b = np.stack((a, m), -1).reshape(len(a), -1), np.stack((m, b), -1).reshape(len(b), -1)
        u, inv = _distinct_abs(((a + b) / 2.0).ravel())
        distinct.append(u)
        inverse.append(inv)
    powers = _powers(distinct, gamma)
    if depth <= 0:
        return powers[np.ix_(*inverse)]
    vals = _fold(lambda corner: powers[np.ix_(*(inv[bit::2] for inv, bit in zip(inverse, corner)))], n)
    for _ in range(depth - 1):
        vals = _fold_halves(vals, n)
    return vals


def _touching(lo: Sequence[Sequence[float]], hi: Sequence[Sequence[float]]) -> list[list[int]]:
    """Per axis of a grid of boxes, the positions of the edges [a, b] with a <= 0 <= b."""
    return [[k for k, (a, b) in enumerate(zip(al, ah)) if a <= 0.0 <= b] for al, ah in zip(lo, hi)]


def _select(lo, hi, positions):
    """The sub-grid of the boxes at the given per-axis positions, as its (lo, hi) edges."""
    return ([[al[k] for k in ks] for al, ks in zip(lo, positions)],
            [[ah[k] for k in ks] for ah, ks in zip(hi, positions)])


def _avg_abs_power_box(lo: Sequence[Sequence[float]], hi: Sequence[Sequence[float]], gamma: float,
                       depth: int) -> np.ndarray:
    """Averages of |x|^gamma over a grid of boxes that all touch the origin, n >= 2.

    The grid is given as in _midpoint_rule (the cells of a window that touch
    the origin form one).  Each box is split dyadically: the chain of
    sub-boxes touching the origin keeps the full depth budget and recurses,
    the other sub-boxes get _midpoint_rule at depth min(budget, _REG_DEPTH),
    and an exhausted budget falls back to the midpoint value.  One level of
    the chain is one _midpoint_rule call on every sub-box of the grid (the
    values of the touching ones are then replaced) and one _fold.  The
    uncontrolled remainder sits in the innermost corner box of volume
    2^(-n*depth) times the box.
    """
    n = len(lo)
    if gamma <= -n:
        raise ValueError(f"|x|^{gamma} is not integrable near 0 in dimension {n}")
    if depth <= 0:
        return _midpoint_rule(lo, hi, gamma, 0)
    sub_lo, sub_hi = [], []
    for box_lo, box_hi in zip(lo, hi):
        mids = [(a + b) / 2.0 for a, b in zip(box_lo, box_hi)]
        sub_lo.append([x for a, m in zip(box_lo, mids) for x in (a, m)])
        sub_hi.append([x for m, b in zip(mids, box_hi) for x in (m, b)])
    vals = _midpoint_rule(sub_lo, sub_hi, gamma, min(depth - 1, _REG_DEPTH))
    near = _touching(sub_lo, sub_hi)
    vals[np.ix_(*near)] = _avg_abs_power_box(*_select(sub_lo, sub_hi, near), gamma, depth - 1)
    return _fold_halves(vals, n)


def abs_power_cell_averages(gamma: float, window: Window, depth: int = DEFAULT_DEPTH) -> np.ndarray:
    """Cell-average array of |x|^gamma over every finest cell of the window.

    n = 1 uses the closed-form antiderivative (exact), cell by cell.  n >= 2
    runs _midpoint_rule at depth min(depth, _REG_DEPTH) on the grid of all
    cells in one array pass, then overwrites the at most 2^n cells that touch
    the origin with their _avg_abs_power_box recursion at the full depth.
    The values are bit-identical to a corner recursion run cell by cell.
    """
    n = window.dim
    if gamma <= -n and window.contains_point((0.0,) * n):
        raise ValueError(f"gamma must be > -n = {-n} when the window touches 0")
    h = window.cell_side
    lo = [[(a + k) * h for k in range(window.cells_per_axis)] for a in window.cell_index_lo]
    hi = [[v + h for v in axis] for axis in lo]
    if n == 1:
        return np.array([_integral_abs_power_1d(a, b, gamma) / (b - a) for a, b in zip(lo[0], hi[0])])
    near = _touching(lo, hi)
    at_origin = None
    if all(near):
        at_origin = _avg_abs_power_box(*_select(lo, hi, near), gamma, depth)
    vals = _midpoint_rule(lo, hi, gamma, min(depth, _REG_DEPTH))
    if at_origin is not None:
        vals[np.ix_(*near)] = at_origin
    return vals


def power_weight(gamma: float, window: Window, depth: int = DEFAULT_DEPTH) -> Weight:
    """Weight whose cell values are accurate averages of |x|^gamma.

    Requires gamma > -dim whenever the window touches the origin (otherwise
    the origin-cell average diverges).
    """
    return Weight(window, abs_power_cell_averages(gamma, window, depth))


# -- BMO ------------------------------------------------------------------------


def _oscillation_sup(b: LatticeFunction, e: float) -> float:
    """sup over window cubes Q of (mean_Q |b - mean_Q b|^e)^(1/e)."""
    w = b.window

    def osc(level):
        means = level_means(b.values, w, level)
        centered = np.abs(b.values - expand_level(means, w, level)) ** e
        return level_means(centered, w, level) ** (1.0 / e)

    return level_sup(w, osc)


def bmo_norm(b: LatticeFunction) -> float:
    """Dyadic BMO norm: sup over window cubes of mean |b - mean_Q(b)| on Q.

    The sup is restricted to the window's dyadic catalog; the all-cubes norm
    is comparable up to a dimensional constant, and every invariant in the
    package is stated against this dyadic norm.
    """
    return _oscillation_sup(b, 1.0)


def oscillation_ratio(b: LatticeFunction, e: float) -> float:
    """sup over cubes of (mean |b - mean_Q b|^e)^(1/e), normalized by the BMO norm.

    John-Nirenberg predicts this stays bounded in e; the value is reported for
    empirical checks, it is not clamped.
    """
    _require_unbatched(b)
    norm = bmo_norm(b)
    if norm == 0.0:
        return 0.0
    return _oscillation_sup(b, e) / norm


# -- CSV interchange -------------------------------------------------------------


def to_csv(f: LatticeFunction, path) -> None:
    """Write header row level_min,level_max,dim then one row per cell index...,value."""
    _require_unbatched(f)
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
