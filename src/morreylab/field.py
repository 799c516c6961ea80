"""Piecewise-constant lattice functions, block reductions, power weights.

A LatticeFunction holds one value per finest cell of a Window and is constant
on each cell, so every average over a cell-aligned region is an exact finite
sum.  The block reductions below take such sums for all cubes of one level
at once (means, power means, maxima), or for all cubes of every level inside
a given cube Q0 in one pass (dilated_means: means over the 3-fold dilates 3Q
clipped to the window, with the clipped cell count as the normalizer).  That
pass reads only the cells of 3Q0 clipped to the window, and its geometry
(the cells it reads, where each level goes, the counts) is one cached
_dilated_plan per (window, Q0).
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

The rule is defined by a per-box corner recursion, but it runs as one loop
over arrays (_grid_averages).  Walking down, each level takes a fixed-depth
tensor midpoint rule on every box of its grid in one pass (_midpoint_rule),
records the boxes that touch the origin and halves them into the next
level's grid, one depth lower.  Walking back up, each level's averages fold
into the touching boxes of the level above.  So the whole window is one
level, and each halving of the chain of sub-boxes touching the origin is one
more; the stack does not grow with the depth.  The loop repeats the
recursion's floating-point operations in its order, so the cell values are
bit-identical to it by construction; tests/test_quadrature.py keeps the
recursion as the oracle.  The same averages, with gamma = alpha - n on the
block of cells centred on the origin, are the kernel of the bilinear
integrals in operators.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from typing import Callable, NamedTuple, Optional, Sequence

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


class _DilatedPlan(NamedTuple):
    """The geometry of dilated_means for one (window, q0): see _dilated_plan."""

    frame: tuple        # the cells of 3Q0 clipped to the window, led by ... for batch axes
    levels: tuple       # per level from level_min: (level, cube side b, src, dst, out)
    counts: np.ndarray  # the clipped cell counts at every level's out, 1.0 elsewhere


# Bounded, so a long sweep over windows or base cubes holds at most 8 plans.
@functools.lru_cache(maxsize=8)
def _dilated_plan(window: Window, q0: Cube) -> _DilatedPlan:
    """Where dilated_means reads, writes and divides for the window cube q0.

    The levels are stacked along the first axis of one canvas, level_min first: level l
    takes k_l + 2 rows (its k_l cubes per axis inside q0 and a frame cube on either side),
    and k_l + 2 of the K + 2 columns of every other axis (K = k at level_min).  src is the
    level's cells in the frame, dst its block sums in the canvas, out its means in the
    canvas less two rows and columns, which is the shape of counts.  Geometry only: the
    counts are read-only.
    """
    n = window.dim
    big = 1 << (q0.level - window.level_min)
    at = [m - a for m, a in zip(q0.index, window.index_lo(q0.level))]
    c0 = window.index_count(q0.level)
    corner = [max(x - 1, 0) * big for x in at]
    frame = (...,) + tuple(slice(lo, min(x + 2, c0) * big) for lo, x in zip(corner, at))
    rows = 2 * big - 1 + 2 * (q0.level - window.level_min + 1)  # the sum of k + 2 over levels
    counts = np.ones((rows - 2,) + (big,) * (n - 1))
    levels = []
    row = 0
    for level in range(window.level_min, q0.level + 1):
        k = 1 << (q0.level - level)
        b = 1 << (level - window.level_min)
        first = [x * k for x in at]
        lo = [max(x - 1, 0) for x in first]
        hi = [min(x + k + 1, c0 * k) for x in first]
        src = (...,) + tuple(slice(l * b - o, h * b - o) for l, h, o in zip(lo, hi, corner))
        dst = [slice(l - x + 1, h - x + 1) for l, h, x in zip(lo, hi, first)]
        dst[0] = slice(row + dst[0].start, row + dst[0].stop)
        out = (..., slice(row, row + k)) + (slice(0, k),) * (n - 1)
        counts[out] = _dilated_cell_counts(window, level, first, k)
        levels.append((level, b, src, (..., *dst), out))
        row += k + 2
    counts.setflags(write=False)
    return _DilatedPlan(frame, tuple(levels), counts)


def dilated_means(values: np.ndarray, window: Window, q0: Cube) -> dict[int, np.ndarray]:
    """Means over 3Q clipped to the window, for every cube Q inside the window cube q0 of
    every level from level_min to q0.level: {level: means in cube-index order from q0's
    first subcube of the level}.  values holds one entry per finest cell of the frame
    _dilated_plan(window, q0).frame (3Q0 clipped to the window), with leading batch axes.

    3Q is Q and its level neighbours, so each sum adds up the 3^n shifted block sums (in
    itertools.product order, from 0.0) over q0's cubes and a frame one cube wide, whose
    cubes outside the window add 0.0.  One block sum per level fills a canvas that stacks
    the levels, then the shifted adds and the division run once for all of them; each
    mean is the float it would be with the levels taken one at a time.  The means are
    views of one array.
    """
    plan = _dilated_plan(window, q0)
    n = window.dim
    batch = values.shape[:values.ndim - n]
    sums = np.zeros(batch + tuple(m + 2 for m in plan.counts.shape))
    for _, b, src, dst, _ in plan.levels:
        blocked, axes = _split(values[src], n, b)
        blocked.sum(axis=axes, out=sums[dst])
    total = np.zeros(batch + plan.counts.shape)
    for shift in itertools.product(range(3), repeat=n):
        total += sums[(...,) + tuple(slice(d, d + m) for d, m in zip(shift, plan.counts.shape))]
    total /= plan.counts
    return {level: total[out] for level, _, _, _, out in plan.levels}


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
    """Exact integral of |x|^gamma over [a, b); a < b.  F(b) - F(a) also across 0, where it
    is bit for bit (F(0) - F(a)) + (F(b) - F(0)) since F(0) = 0.0."""
    if a <= 0.0 <= b and gamma <= -1.0:
        raise ValueError(f"|x|^{gamma} is not integrable on a cell touching 0")
    return _abs_power_antiderivative(b, gamma) - _abs_power_antiderivative(a, gamma)


# Midpoint-rule depth of the boxes that miss the origin, at every level of the origin chain.
_REG_DEPTH = 3


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


def _radii(coords: Sequence[np.ndarray]) -> np.ndarray:
    """|c| on the grid of the per-axis coordinates: squares added in axis order, then np.sqrt.
    It serves the quadrature leaves (_powers) and the JN cell centres (harness._log_abs)."""
    n = len(coords)
    r = 0.0
    for axis, c in enumerate(coords):
        c = c.reshape((1,) * axis + (-1,) + (1,) * (n - 1 - axis))
        r = r + c * c
    np.sqrt(r, out=r)
    return r


def _powers(coords: Sequence[np.ndarray], gamma: float) -> np.ndarray:
    """|c|^gamma on the _radii grid of the per-axis coordinates.

    The power is Python's float pow (C pow), one row of Python floats at a time (as
    harness._log_abs takes C log): np.power is not bit-equal to C pow on every platform
    (it is not with AVX-512), and the per-box recursion uses C pow.
    """
    r = _radii(coords)
    return np.fromiter((x ** gamma for row in r.reshape(len(r), -1) for x in row.tolist()),
                       float, r.size).reshape(r.shape)


def _distinct_abs(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |c| in order of appearance, and the position of each |c| among them.

    np.unique would do the same in sorted order, but its first call imports numpy.ma
    (through np.ma.is_masked): 15-20 ms and 1.6 MB of resident size per process with
    numpy 2.4 on a 2-core Xeon VM.  The axes are short.
    """
    index: dict[float, int] = {}
    positions = [index.setdefault(abs(v), len(index)) for v in c.tolist()]
    return np.array(list(index)), np.array(positions)


def _halves(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges of the two halves of each [a, b], split at m = (a + b) / 2.0: along the
    last axis each box becomes [a, m] followed by [m, b]."""
    m = (a + b) / 2.0
    lo, hi = np.repeat(a, 2, axis=-1), np.repeat(b, 2, axis=-1)
    lo[..., 1::2] = m
    hi[..., ::2] = m
    return lo, hi


def _midpoint_rule(lo: Sequence[np.ndarray], hi: Sequence[np.ndarray], gamma: float,
                   depth: int) -> np.ndarray:
    """Dyadic tensor midpoint rule for |x|^gamma on a grid of boxes.

    Axis i of the grid has the box edges lo[i], hi[i] (1-D arrays); the result
    holds one average per box, in grid order.  The arithmetic is that of the
    per-box recursion, operation for operation, so the values are
    bit-identical to it: each box is halved depth times along each axis by
    _halves, at every leaf midpoint c the value is
    sqrt(c_0^2 + ... + c_{n-1}^2)^gamma with the squares added in axis order,
    and _fold averages the levels back.
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
        a, b = a.reshape(-1, 1), b.reshape(-1, 1)
        for _ in range(depth):  # leaf index = box * 2^depth + halving bits, first halving highest
            a, b = _halves(a, b)
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


def _grid_averages(lo: Sequence[np.ndarray], hi: Sequence[np.ndarray], gamma: float,
                   depth: int) -> np.ndarray:
    """Averages of |x|^gamma over a grid of boxes (given as in _midpoint_rule), n >= 2.

    One loop down the chain of boxes that touch the origin.  Walking down,
    each level takes _midpoint_rule at depth min(depth, _REG_DEPTH) on its
    grid and records the per-axis positions of the boxes that touch the
    origin (a sub-grid: the origin is a corner of each); the halves of those
    boxes are the next level's grid, at depth - 1.  The walk stops at depth 0,
    where a box keeps its midpoint value, or where no box touches.  Walking
    back up, _fold_halves of each level overwrites the touching boxes of the
    level above.  The uncontrolled remainder sits in the innermost corner box
    of volume 2^(-n*depth) times the box.
    """
    n = len(lo)
    chain = []
    while True:
        vals = _midpoint_rule(lo, hi, gamma, min(depth, _REG_DEPTH))
        near = [np.flatnonzero((a <= 0.0) & (0.0 <= b)) for a, b in zip(lo, hi)]
        if not all(k.size for k in near):
            break
        if gamma <= -n:
            raise ValueError(f"|x|^{gamma} is not integrable near 0 in dimension {n}")
        if depth <= 0:
            break
        chain.append((vals, near))
        lo, hi = zip(*(_halves(a[k], b[k]) for a, b, k in zip(lo, hi, near)))
        depth -= 1
    for parent, near in reversed(chain):
        parent[np.ix_(*near)] = _fold_halves(vals, n)
        vals = parent
    return vals


def abs_power_cell_averages(gamma: float, window: Window, depth: int = DEFAULT_DEPTH) -> np.ndarray:
    """Cell-average array of |x|^gamma over every finest cell of the window.

    n = 1 uses the closed-form antiderivative (exact), cell by cell.  n >= 2
    runs _grid_averages on the grid of all cells: one _midpoint_rule array
    pass, and one more per level of the chain below the at most 2^n cells
    that touch the origin.  The values are bit-identical to a corner
    recursion run cell by cell.  gamma <= -n raises when a cell touches the
    origin, and so does a power or a sum of powers above the largest float
    (C pow raises OverflowError, numpy's sums FloatingPointError here).
    """
    h = window.cell_side
    lo = [np.arange(a, a + window.cells_per_axis) * h for a in window.cell_index_lo]
    hi = [a + h for a in lo]
    try:
        with np.errstate(over="raise"):
            if window.dim == 1:
                return np.array([_integral_abs_power_1d(a, b, gamma) / (b - a)
                                 for a, b in zip(lo[0].tolist(), hi[0].tolist())])
            return _grid_averages(lo, hi, gamma, depth)
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"|x|^{gamma} overflows a float on the cells of side "
                         f"2^{window.level_min}") from exc


def power_weight(gamma: float, window: Window, depth: int = DEFAULT_DEPTH) -> Weight:
    """Weight whose cell values are accurate averages of |x|^gamma.

    Requires gamma > -dim whenever a cell of the window touches the origin (otherwise
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


def _oscillation_ratios(b: LatticeFunction, exponents) -> tuple[float, dict]:
    """The BMO norm of b and its oscillation ratios at the exponents, from one norm sweep;
    the ratio at e = 1 is the norm over itself, and every ratio is 0.0 when the norm is."""
    _require_unbatched(b)
    norm = bmo_norm(b)
    if norm == 0.0:
        return norm, {e: 0.0 for e in exponents}
    return norm, {e: (norm if e == 1.0 else _oscillation_sup(b, e)) / norm for e in exponents}


def oscillation_ratio(b: LatticeFunction, e: float) -> float:
    """sup over cubes of (mean |b - mean_Q b|^e)^(1/e), normalized by the BMO norm.

    John-Nirenberg predicts this stays bounded in e; the value is reported for
    empirical checks, it is not clamped.
    """
    return _oscillation_ratios(b, (e,))[1][e]


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
        if idx in cells:
            raise ValueError(f"cell index {idx} is repeated")
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
