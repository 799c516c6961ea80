"""Piecewise-constant lattice functions, block reductions, power weights.

A LatticeFunction holds one value per finest cell of a Window and is constant
on each cell, so every average over a cell-aligned region is an exact finite
sum.  The block reductions below take such sums for all cubes of one level
at once (means, power means, maxima), or for all cubes of every level inside
a given cube Q0 in one pass (dilated_means: means over the 3-fold dilates 3Q
clipped to the window, with the clipped cell count as the normalizer).  That
pass reads only the cells of 3Q0 clipped to the window, and its geometry
(the cells it reads, where each level goes, the counts) is one cached
_dilated_plan per (window, Q0), whose counts are that pass over ones.  Its
means of every level lie on one array, _dilated_canvas, whose level slices
dilated_means returns; an elementwise step taken once on the canvas gives
each slice the floats of that step on the slice alone.  Every
sup over the window's dyadic cubes folds such per-level tables with level_sup
(one number) or pointwise_level_sup (one sup per cell); the BMO norm and the
oscillation at every exponent take one level_sup pass, oscillation_sups, which
the JN check reads with its symbol log|x| (log_abs) and telescoping_defect.

A LatticeFunction may also hold a batch of functions on one window: values
of shape (*batch, *window.shape).  The block reductions, expand_level and
both level folds read the trailing window.dim axes only, and every step is
elementwise across the batch, so each entry of a batched result is bit for
bit the result of its unbatched call.  Weights are never batched; they
broadcast against a batch.  Functions that take a single lattice function
(oscillation_ratio, to_csv and Weight here; weak_morrey_functional and the
czd entry points elsewhere) reject a batch through _require_unbatched; a
caller hands them a batch's entry, read in place, through
LatticeFunction.entry.  Every
entry point that takes several lattice functions or weights checks that they
share one window through _same_window.

Weights are strictly positive lattice functions.  power_weight builds the
cell-average discretization of |x|^gamma: in one dimension the closed-form
antiderivative at the cell edges; in higher dimensions a corner-refined
midpoint rule that splits the origin cell dyadically to a configurable depth
(the integrand is singular only at the origin, always a cell corner; gamma > -n
where Window.touches_origin, and depth <= deepest_depth), whose uncontrolled
error in the origin cell, O(2^(-depth*(gamma+n))), the accuracy tests report.
Each point where |x|^gamma or log_abs is evaluated is an integer k times a
dyadic unit: C libm runs once per distinct tuple of per-axis |k| (_abs_index,
_libm_once), and a k wider than 53 bits is a ValidationError (_require_exact).

The rule is a per-box corner recursion run as array passes.  One cached
_quadrature_plan per grid of cells and depth holds the geometry for every
gamma: down the chain of sub-boxes touching the origin, each level's integer
box range per axis and the slice of its boxes that touch 0.  Per gamma,
_grid_averages evaluates each group of levels with one leaf lattice in one
batch (_midpoint_rule), then folds each level into the touching boxes of the
level above.  One fold, _fold_halves, averages every box's 2^n halves, from
the leaves up to the boxes and from each level to the one above, with the
recursion's floating-point operations in its order, so the values are
bit-identical to it (tests/test_quadrature.py keeps it as the oracle).  With
gamma = alpha - n on the block of cells centred on the origin, the same
averages are the kernel of the bilinear integrals in operators; for a window
centred on the origin that block is the window's own grid, so the kernel and
the weights of a stage share one plan.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .dyadic import Cube, Window
from .errors import ValidationError

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

    def entry(self, i: int) -> "LatticeFunction":
        """Entry i of a batch, as a read-only view of its values: no copy and no second
        finiteness check, since the batch was checked when it was built.  Raises ValueError
        on one function (a Weight too) and IndexError for an i out of range."""
        if self.values.ndim == self.window.dim:
            raise ValueError("entry needs a batch of lattice functions")
        out = object.__new__(LatticeFunction)
        object.__setattr__(out, "window", self.window)
        object.__setattr__(out, "values", self.values[i])
        return out

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


class _DilatedPlan(NamedTuple):
    """The geometry of dilated_means for one (window, q0): see _dilated_plan."""

    frame: tuple        # the cells of 3Q0 clipped to the window, led by ... for batch axes
    levels: tuple       # per level from level_min: (level, cube side b, src, dst, out)
    counts: np.ndarray  # the sum pass over ones at every level's out, 1.0 elsewhere


# Bounded, so a long sweep over windows or base cubes holds at most 8 plans.
@functools.lru_cache(maxsize=8)
def _dilated_plan(window: Window, q0: Cube) -> _DilatedPlan:
    """Where dilated_means reads, writes and divides for the window cube q0.

    The levels are stacked along the first axis of one canvas, level_min first: level l
    takes k_l + 2 rows (its k_l cubes per axis inside q0 and a frame cube on either side),
    and k_l + 2 of the K + 2 columns of every other axis (K = k at level_min).  src is the
    level's cells in the frame, dst its block sums in the canvas, out its means in the
    canvas less two rows and columns, which is the shape of counts.  Geometry only: the
    counts, _dilated_sums over a frame of ones, are read-only.
    """
    n = window.dim
    big = 1 << (q0.level - window.level_min)
    at = window.position(q0)
    c0 = window.index_count(q0.level)
    corner = [max(x - 1, 0) * big for x in at]
    frame = (...,) + tuple(slice(lo, min(x + 2, c0) * big) for lo, x in zip(corner, at))
    levels, row = [], 0
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
        levels.append((level, b, src, (..., *dst), out))
        row += k + 2
    shape = (row - 2,) + (big,) * (n - 1)
    sums = _dilated_sums(np.ones([s.stop - s.start for s in frame[1:]]), levels, shape)
    counts = np.ones(shape)
    for *_, out in levels:
        counts[out] = sums[out]
    counts.setflags(write=False)
    return _DilatedPlan(frame, tuple(levels), counts)


def _dilated_sums(values: np.ndarray, levels: Sequence, shape: tuple) -> np.ndarray:
    """dilated_means' sums, of the given shape: block sums, then 3^n shifted adds from 0.0."""
    n = len(shape)
    batch = values.shape[:values.ndim - n]
    sums = np.zeros(batch + tuple(m + 2 for m in shape))
    for _, b, src, dst, _ in levels:
        blocked, axes = _split(values[src], n, b)
        blocked.sum(axis=axes, out=sums[dst])
    total = np.zeros(batch + shape)
    for shift in itertools.product(range(3), repeat=n):
        total += sums[(...,) + tuple(slice(d, d + m) for d, m in zip(shift, shape))]
    return total


def _dilated_canvas(values: np.ndarray, plan: _DilatedPlan) -> np.ndarray:
    """dilated_means' one array: every level's means at its out slice of the plan, and
    filler in the gaps between them.  An elementwise pass over the canvas gives each
    level's slice the floats of that pass over the slice alone."""
    total = _dilated_sums(values, plan.levels, plan.counts.shape)
    total /= plan.counts
    return total


def dilated_means(values: np.ndarray, window: Window, q0: Cube) -> dict[int, np.ndarray]:
    """Means over 3Q clipped to the window, for every cube Q inside the window cube q0 of
    every level from level_min to q0.level: {level: means in cube-index order from q0's
    first subcube of the level}.  values holds one entry per finest cell of the frame
    _dilated_plan(window, q0).frame (3Q0 clipped to the window), with leading batch axes.

    3Q is Q and its level neighbours: _dilated_sums adds their block sums over a frame one
    cube wide (cubes outside the window add 0.0), and one division by the plan's counts
    serves all levels.  Each mean is the float of its level taken alone, a view of one
    array, _dilated_canvas.
    """
    plan = _dilated_plan(window, q0)
    total = _dilated_canvas(values, plan)
    return {level: total[out] for level, _, _, _, out in plan.levels}


def expand_level(values: np.ndarray, window: Window, level: int) -> np.ndarray:
    """Inverse of level_means' shape: repeat each cube value over its cells.  At level_min
    the result is values itself, not a copy, so callers must not write to it."""
    if level < window.level_min:
        raise ValueError(f"level {level} is below the window's level_min {window.level_min}")
    b = 1 << (level - window.level_min)
    for axis in range(-window.dim, 0) if b > 1 else ():
        values = np.repeat(values, b, axis=axis)
    return values


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


# Midpoint-rule depth of the boxes that miss the origin, at every level of the origin chain.
_REG_DEPTH = 3
# 2.0 ** k squares to a nonzero float only for k >= _MIN_LEAF_EXP (2^-1074 is the least
# subnormal); a leaf midpoint below it makes |x|^gamma, gamma < 0, divide by zero at 0.
_MIN_LEAF_EXP = -537


def deepest_depth(window: Window) -> float:
    """The largest depth whose quadrature leaves square to nonzero floats (the least leaf
    midpoint at depth d on cells of side h is h 2^(-d-1)); inf in 1-D, which has no leaves."""
    return math.inf if window.dim == 1 else window.level_min - 1 - _MIN_LEAF_EXP


def _fold_halves(vals: np.ndarray, n: int) -> np.ndarray:
    """Average a grid (the trailing n axes) of boxes each halved along every axis back into
    its boxes: a box's 2^n halves added in itertools.product order of their corners (0 or 1
    per axis) from 0.0, then divided by 2^n, as the per-box recursion adds them."""
    blocked, _ = _split(vals, n, 2)
    total = 0.0
    for corner in itertools.product((0, 1), repeat=n):
        # a new array on the first corner, in place after it
        total += blocked[(...,) + tuple(x for bit in corner for x in (slice(None), bit))]
    total /= 2 ** n
    return total


# Python floats per block of _libm_once: each block's floats live at once.
_POW_CHUNK = 1 << 10


def _libm_once(distinct: Sequence[np.ndarray], symmetric: bool, fn: Callable,
               *args) -> np.ndarray:
    """fn(r, *args) once per point of the grid of the per-axis distinct |c| (after a leading
    level axis), r = |c| on one axis, else sqrt(c_0^2 + c_1^2 + ...) with the squares added
    in axis order.  fn is C libm (pow, math.log) on Python floats, a block of rows of
    axis 0 at a time: np.power and np.log are not bit-equal to C with AVX-512.  symmetric:
    axes 0 and 1 hold the same |c|, so the grid is symmetric bit for bit (one IEEE add
    commutes); fn then takes the pairs i <= j only, packed into one axis at j (j + 1) / 2 + i."""
    m, *rest = (d.shape[1] for d in distinct)
    out = np.empty((len(distinct[0]), m * (m + 1) // 2 if symmetric else m, *rest[symmetric:]))
    step, at, n = max(1, _POW_CHUNK // (len(out) * math.prod(rest))), 0, len(distinct)
    squares = [(d * d).reshape((len(d),) + (1,) * k + (-1,) + (1,) * (n - 1 - k))
               for k, d in enumerate(distinct)]
    for i in range(0, m, step):
        if n == 1:
            r = distinct[0][:, i:i + step]
        else:  # the squares added in axis order
            cols = squares[1][:, :, :i + step] if symmetric else squares[1]
            r = np.sqrt(sum(squares[2:], squares[0][:, i:i + step] + cols))
        if symmetric:  # each row j of the block against the columns up to j
            r = np.concatenate([r[:, k, :i + k + 1] for k in range(r.shape[1])], axis=1)
        vals = map(fn, r.ravel().tolist(), *map(itertools.repeat, args))
        out[:, at:at + r.shape[1]] = np.fromiter(vals, float, r.size).reshape(r.shape)
        at += r.shape[1]
    return out


def _abs_index(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct |k| of an integer array and each |k|'s position among them, from a
    mask over the range of |k| (np.unique imports numpy.ma on first use: 15-20 ms, 1.6 MB)."""
    a = np.abs(k)
    low = a.min()
    seen = np.zeros(a.max() - low + 1, bool)
    seen[a - low] = True
    return np.flatnonzero(seen) + low, (np.cumsum(seen) - 1)[a - low]


def _libm_grid(ks: Sequence[np.ndarray], unit: float, fn: Callable, *args) -> np.ndarray:
    """fn(|x|, *args) at every point x = k unit of the grid of the per-axis integers ks:
    _libm_once on each axis's _abs_index, gathered back onto the grid."""
    distinct, inverse = zip(*map(_abs_index, ks))
    symmetric = len(ks) > 1 and np.array_equal(distinct[0], distinct[1])
    values = _libm_once([d[None] * unit for d in distinct], symmetric, fn, *args)
    return _gather(values, inverse, symmetric)[0]


def _require_exact(window: Window, bits: int) -> None:
    """Raise a ValidationError unless each point k 2^(level_min - bits) of the window has
    |k| <= 2^53 (cell edges at bits 0, centres at 1, leaf midpoints of cells halved bits - 1
    times), so that k and k times its unit are exact floats and no int64 sum of them wraps."""
    top = max(max(-a, a + window.cells_per_axis) for a in window.cell_index_lo)
    if top << bits > 1 << 53:
        raise ValidationError(f"the coordinates of {window} need more than 53 bits")


class _QuadratureGroup(NamedTuple):
    """Levels of the origin chain with one leaf lattice, stacked along a leading axis."""

    depth: int        # halvings per axis of every box
    distinct: tuple   # per axis, (levels, m): each level's sorted distinct leaf |c|
    inverse: tuple    # per axis, (leaves,): the position of each leaf |c| among them
    symmetric: bool   # axes 0 and 1 hold the same distinct |c|


class _QuadraturePlan(NamedTuple):
    """The geometry of the |x|^gamma quadrature on one grid: see _quadrature_plan."""

    groups: tuple     # _QuadratureGroup
    levels: tuple     # per level of the chain, the window's grid first: (group, row)
    near: tuple       # per level but the last, per axis: the slice of the boxes touching 0


# Bounded, so a long sweep over windows or depths holds at most 8 plans.
@functools.lru_cache(maxsize=8)
def _quadrature_plan(level_min: int, cell_index_lo: tuple, cells_per_axis: int,
                     depth: int) -> _QuadraturePlan:
    """Where the quadrature of |x|^gamma on the grid of a window's cells (n >= 2) takes its
    leaves and folds them, for every gamma.

    One loop down the chain of boxes that touch the origin, as the per-box recursion
    descends, on integers: level L holds per axis the boxes i w .. (i + 1) w, w =
    2^(level_min - L), for i in a range (first index, count).  Each level's grid has a
    fixed-depth tensor midpoint rule of depth d = min(depth, _REG_DEPTH), whose leaf
    midpoints are the odd multiples k = 2 ((i << d) + j) + 1 of w 2^(-d-1), j < 2^d.  The
    boxes that touch 0 are those with i in {-1, 0}, a slice of the range; their halves are
    the next level's grid, at depth - 1.  The walk stops at depth 0, where a box keeps its
    midpoint value, or where no box touches.  Levels with one d and one range per axis
    have the same k, so they form one group with one per-axis _abs_index, and
    _grid_averages evaluates them as one batch.  Geometry only: every array is per axis
    (never one entry per leaf tuple) and read-only.
    """
    boxes = tuple((a, cells_per_axis) for a in cell_index_lo)
    chain, near_boxes = [], []  # per level (d, boxes); per level but the last, the slices near 0
    while True:
        chain.append((min(max(depth, 0), _REG_DEPTH), boxes))
        near = [(max(i, -1), min(i + c, 1)) for i, c in boxes]
        if depth <= 0 or any(lo >= hi for lo, hi in near):
            break
        near_boxes.append(tuple(slice(lo - i, hi - i) for (lo, hi), (i, _) in zip(near, boxes)))
        boxes = tuple((2 * lo, 2 * (hi - lo)) for lo, hi in near)
        depth -= 1
    keys = list(dict.fromkeys(chain))  # one group per distinct (d, boxes), in chain order
    levels = tuple((keys.index(key), chain[:at].count(key)) for at, key in enumerate(chain))
    groups = []
    for d, axes in keys:
        rows = [level for level, key in enumerate(chain) if key == (d, axes)]
        ks, inverse = zip(*(_abs_index(2 * ((i << d) + np.arange(c << d)) + 1) for i, c in axes))
        units = np.array([2.0 ** (level_min - level - d - 1) for level in rows])[:, None]
        distinct = tuple(units * k for k in ks)
        for x in distinct + inverse:
            x.setflags(write=False)
        groups.append(_QuadratureGroup(d, distinct, inverse, np.array_equal(ks[0], ks[1])))
    return _QuadraturePlan(tuple(groups), levels, tuple(near_boxes))


def _gather(values: np.ndarray, inverse: Sequence[np.ndarray], symmetric: bool) -> np.ndarray:
    """values (from _libm_once) on the grid of the per-axis positions inverse, read per level
    at flat offsets by np.take.  symmetric: axes 0 and 1 read the packed pair
    max(i (i + 1) / 2 + j, j (j + 1) / 2 + i), which is j (j + 1) / 2 + i if i <= j."""
    n = len(inverse)
    strides = [s // values.itemsize for s in values.strides[1:]]
    pos = [inv.reshape((-1,) + (1,) * (n - 1 - k)) for k, inv in enumerate(inverse)]
    flat = 0
    if symmetric:
        (i, j), pos, s = pos[:2], pos[2:], strides.pop(0)
        flat = np.maximum(s * (i * (i + 1) // 2) + s * j, s * (j * (j + 1) // 2) + s * i)
    for p, stride in zip(pos, strides):
        flat = flat + p * stride
    return values.reshape(len(values), -1).take(flat, axis=1)


# Leaves per block of box rows of _midpoint_rule: each block's gathered leaves live at once.
_FOLD_BLOCK = 1 << 14


def _midpoint_rule(group: _QuadratureGroup, gamma: float) -> np.ndarray:
    """Dyadic tensor midpoint rule for |x|^gamma on every level of a group: one average per
    box, in grid order, after the leading level axis.

    The arithmetic is that of the per-box recursion, operation for operation,
    so the values are bit-identical to it: each box is halved depth times along
    each axis, at every leaf midpoint c (an exact float, from its integer lattice
    coordinate) the value is sqrt(c_0^2 + ... + c_{n-1}^2)^gamma with the squares
    added in axis order, and depth _fold_halves average the leaves back.  Every step
    is elementwise across the stacked levels, so each level gets the bits of its own
    rule.  (The recursion adds the squares with sum(), which CPython 3.12 made
    compensated; that can move the last bit of a 3-D leaf, never a 2-D one.)
    Since c^2 = |c|^2 exactly, _libm_once takes the powers once per distinct
    tuple of per-axis |c| (an eighth of the leaves of a 2-D window centred at
    the origin), and a block of box rows at a time gathers its leaves from them
    and folds them, so no array holds every leaf.  No leaf midpoint is the origin
    (it would raise ZeroDivisionError for gamma < 0): it is a corner of every box.
    """
    n = len(group.distinct)
    powers = _libm_once(group.distinct, group.symmetric, pow, gamma)
    leaves = 1 << group.depth  # per axis of a box
    shape = (len(powers),) + tuple(len(inv) // leaves for inv in group.inverse)
    vals = np.empty(shape)
    step = max(1, _FOLD_BLOCK // (shape[0] * leaves ** n * math.prod(shape[2:])))
    for i in range(0, shape[1], step):
        inverse = (group.inverse[0][i * leaves:(i + step) * leaves], *group.inverse[1:])
        block = _gather(powers, inverse, group.symmetric)
        for _ in range(group.depth):
            block = _fold_halves(block, n)
        vals[:, i:i + step] = block
    return vals


def _grid_averages(plan: _QuadraturePlan, gamma: float) -> np.ndarray:
    """Averages of |x|^gamma over the boxes of the window's grid of a _quadrature_plan.

    One _midpoint_rule per group of the plan gives every level of the origin chain;
    then, walking back up, _fold_halves of each level overwrites the touching boxes
    of the level above.  The uncontrolled remainder sits in the innermost corner box
    of volume 2^(-n*depth) times the box.
    """
    n = len(plan.groups[0].distinct)
    rules = [_midpoint_rule(group, gamma) for group in plan.groups]
    levels = [rules[group][row] for group, row in plan.levels]
    vals = levels.pop()
    for parent, near in zip(reversed(levels), reversed(plan.near)):
        parent[near] = _fold_halves(vals, n)
        vals = parent
    return vals


def abs_power_cell_averages(gamma: float, window: Window, depth: int = DEFAULT_DEPTH) -> np.ndarray:
    """Cell-average array of |x|^gamma over every finest cell of the window.

    n = 1 is exact: (F(b) - F(a)) / h per cell [a, b], F(x) = sign(x)
    |x|^(gamma+1) / (gamma+1) (sign(x) log|x| at gamma = -1), with C libm
    once per distinct |edge| (_libm_grid).  n >= 2 runs _grid_averages on
    the cached _quadrature_plan of the window's cells: one _midpoint_rule
    array pass for the cells, and one per group of the levels of the chain
    below the at most 2^n cells that touch the origin.  The values are
    bit-identical to a corner recursion run cell by cell.  gamma <= -n is a
    ValueError if the window touches the origin.  A window whose points need more than
    53 bits (_require_exact), or an average that overflows a float (C pow raises
    OverflowError, numpy FloatingPointError here) or underflows to 0, is a
    ValidationError.
    """
    _require_exact(window, 0 if window.dim == 1 else min(max(depth, 0), _REG_DEPTH) + 1)
    if window.touches_origin and gamma <= -window.dim:
        raise ValueError(f"|x|^{gamma} is not integrable on a cell touching 0 in {window.dim}-D")
    try:
        with np.errstate(over="raise"):
            if window.dim == 1:
                h, (a,) = window.cell_side, window.cell_index_lo
                k = np.arange(a, a + window.cells_per_axis + 1)
                f = _libm_grid([k], h, math.log) if gamma == -1.0 \
                    else _libm_grid([k], h, pow, gamma + 1.0) / (gamma + 1.0)
                f *= np.copysign(1.0, k)  # not np.copysign(f, k): f < 0 where gamma <= -1
                vals = (f[1:] - f[:-1]) / h
            else:
                plan = _quadrature_plan(window.level_min, window.cell_index_lo,
                                        window.cells_per_axis, depth)
                vals = _grid_averages(plan, gamma)
    except (OverflowError, FloatingPointError):
        vals = None
    if vals is None or not vals.min() > 0.0:
        raise ValidationError(f"|x|^{gamma} overflows a float or underflows to 0 on the cells "
                              f"of side 2^{window.level_min}")
    return vals


def power_weight(gamma: float, window: Window, depth: int = DEFAULT_DEPTH) -> Weight:
    """Weight whose cell values are the averages of |x|^gamma of abs_power_cell_averages."""
    return Weight(window, abs_power_cell_averages(gamma, window, depth))


# -- BMO ------------------------------------------------------------------------


def log_abs(window: Window) -> LatticeFunction:
    """log|x| at the cell centres (2m + 1) h/2 of the window: C log once per distinct tuple of
    per-axis |2m + 1| (_libm_grid), since np.log is not bit-equal to it with AVX-512."""
    _require_exact(window, 1)
    ks = [2 * np.arange(a, a + window.cells_per_axis) + 1 for a in window.cell_index_lo]
    return LatticeFunction(window, _libm_grid(ks, window.cell_side / 2, math.log))


def oscillation_sups(b: LatticeFunction, exponents) -> np.ndarray:
    """Per exponent e, sup over window cubes Q of (mean_Q |b - mean_Q b|^e)^(1/e): a row per e,
    then b's batch axes.  One level_sup pass takes each level's deviations once for every e."""
    if not all(math.isfinite(e) and e > 0 for e in exponents):
        raise ValueError(f"oscillation exponents must be finite and > 0, got {exponents}")
    w = b.window

    def osc(level):  # a level_min cube is one cell: deviation 0, so 0 for a finite e > 0
        if level == w.level_min:
            return np.zeros((len(exponents), *b.values.shape[:-w.dim], *(1,) * w.dim))
        blocked, axes = _blocks(b.values, w, level)
        dev = blocked - blocked.mean(axis=axes, keepdims=True)
        np.abs(dev, out=dev)  # each e's table is reduced to its max at once
        return np.stack([((dev if e == 1.0 else dev ** e).mean(axis=axes) ** (1.0 / e))
                         .max(axis=tuple(range(-w.dim, 0)), keepdims=True) for e in exponents])

    return level_sup(w, osc)


def bmo_norm(b: LatticeFunction) -> float:
    """Dyadic BMO norm: sup over window cubes of mean |b - mean_Q(b)| on Q.

    The sup is restricted to the window's dyadic catalog; the all-cubes norm
    is comparable up to a dimensional constant, and every invariant in the
    package is stated against this dyadic norm.  The e = 1 row of oscillation_sups.
    """
    (norm,) = oscillation_sups(b, (1.0,))
    return norm if norm.ndim else float(norm)


def telescoping_defect(b: LatticeFunction, norm: float) -> float:
    """Worst violation of the ancestor-chain mean bound for b of BMO norm norm, 0 when it holds:
    each cube's mean against each ancestor's, per pair of levels the finer table blocked by the
    coarser cubes, so no table is expanded to the cells."""
    win, worst = b.window, 0.0
    means = [level_means(b.values, win, lvl) for lvl in win.levels()]
    for i, m_q in enumerate(means):
        for k, m_qp in enumerate(means[i + 1:], start=1):
            bound = k * (2.0 ** win.dim) * norm
            blocked, axes = _split(m_q, win.dim, 1 << k)
            worst = max(worst, float(np.abs(blocked - np.expand_dims(m_qp, axes)).max()) - bound)
    return worst


def oscillation_ratio(b: LatticeFunction, e: float) -> float:
    """sup over cubes of (mean |b - mean_Q b|^e)^(1/e) over the BMO norm (0.0 if that is 0),
    from one oscillation_sups pass; e must be finite and > 0 (ValueError).

    John-Nirenberg predicts this stays bounded in e; the value is reported for
    empirical checks, it is not clamped.
    """
    _require_unbatched(b)
    norm, sup = oscillation_sups(b, (1.0, e)).tolist()
    return sup / norm if norm else 0.0


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
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
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
