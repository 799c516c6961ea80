"""Differential tests: the array quadrature of |x|^gamma against the corner recursion.

field.abs_power_cell_averages evaluates every cell that misses the origin
in one array pass and loops only down the origin-touching chain, on a
cached geometry plan per grid (field._quadrature_plan) that every exponent
shares and that holds each axis as integer lattice coordinates.  The oracle
below is the per-cell code it replaced, unchanged but for its inline origin
test: a loop over the cells that runs the corner recursion on each, halving
floats.  The two must agree bit for bit, on 2-D and 3-D windows with the
origin inside, on the boundary and outside, at every depth regime (below, at
and above _REG_DEPTH), whether the plan is cold or warm, and up to the
widest windows whose coordinates are exact floats (one cell further is a
ValidationError).  In one dimension the oracle is the closed form cell by
cell (oracles.integral_abs_power_1d), which the library takes at every cell
edge as arrays.  The dedupe of the magnitudes, field._abs_index, is checked
against a sorted set (oracles.abs_index).
"""

import itertools
import math
import tracemalloc
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morreylab import field
from morreylab.dyadic import Window
from morreylab.errors import ValidationError
from morreylab.field import _REG_DEPTH, _quadrature_plan, abs_power_cell_averages
from oracles import abs_index, integral_abs_power_1d


def _oracle_box(lo: Sequence[float], hi: Sequence[float], gamma: float, depth: int) -> float:
    n = len(lo)
    if n == 1:
        return integral_abs_power_1d(lo[0], hi[0], gamma) / (hi[0] - lo[0])
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
        total += _oracle_box(slo, shi, gamma, sub_depth)
    return total / (2 ** n)


def _oracle_cell_averages(gamma: float, window: Window, depth: int = 12) -> np.ndarray:
    n = window.dim
    if gamma <= -n and all(-window.top_count < o <= 0 for o in window.origin_offset):
        raise ValueError(f"gamma must be > -n = {-n} when the window touches 0")
    h = window.cell_side
    lo_idx = window.cell_index_lo
    vals = np.empty(window.shape)
    for off in np.ndindex(window.shape):
        cell_lo = tuple((a + o) * h for a, o in zip(lo_idx, off))
        cell_hi = tuple(v + h for v in cell_lo)
        touches = all(a <= 0.0 <= b for a, b in zip(cell_lo, cell_hi))
        d = depth if touches else (0 if n == 1 else min(depth, _REG_DEPTH))
        vals[off] = _oracle_box(cell_lo, cell_hi, gamma, d)
    return vals


def _gammas(n: int) -> list[float]:
    """Exponents across (-n, 2], with kernel exponents alpha - n among them."""
    return [-n + 0.01, -n + 0.5, -1.0, -0.37, 0.0, 0.1, 1.0, 2.0] + [a - n for a in (0.3, n - 0.7)]


# (dim, level_min, level_max, origin_offset, top_count): where the origin sits
WINDOWS = [
    (2, -2, 0, (-1, -1), 2),    # inside: four origin cells
    (2, -2, 0, (-2, 0), 3),     # on an edge: two origin cells
    (2, -2, 1, (-1, -1), 1),    # at the upper corner, outside the half-open window
    (2, -1, 0, (0, 0), 1),      # at the lower corner
    (2, -2, 0, (-3, -1), 3),    # upper edge of axis 0, inside along axis 1
    (2, -2, -1, (1, -2), 2),    # outside
    (3, -1, 0, (0, 0, 0), 1),   # at a corner
    (3, 0, 0, (-1, -2, 0), 2),  # on an edge: two origin cells
    (3, -1, -1, (1, 0, -3), 2),  # outside
]
DEPTHS = (0, 1, 2, 3, 4, 12)


def _window(spec) -> Window:
    dim, lmin, lmax, offset, top = spec
    return Window(dim, lmin, lmax, origin_offset=offset, top_count=top)


def _origin_cells(window: Window) -> int:
    return math.prod(sum(1 for k in range(window.cells_per_axis) if -1 <= a + k <= 0)
                     for a in window.cell_index_lo)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("spec", WINDOWS)
def test_cell_averages_bit_identical_to_corner_recursion(spec, depth):
    window = _window(spec)
    n = window.dim
    # every exponent meets every window at two of the six depths
    gammas = _gammas(n)[(WINDOWS.index(spec) + DEPTHS.index(depth)) % 3::3]
    if n == 3 and depth == 12 and _origin_cells(window) > 1:
        depth = 5  # the oracle needs seconds per 3-D origin cell at depth 12
    for gamma in gammas:
        got = abs_power_cell_averages(gamma, window, depth)
        want = _oracle_cell_averages(gamma, window, depth)
        assert np.array_equal(got, want), (spec, depth, gamma, np.max(np.abs(got - want) / want))


@pytest.mark.parametrize("spec", WINDOWS)
def test_inadmissible_exponent_raises_like_the_oracle(spec):
    """gamma <= -n raises when a cell touches the origin, and is averaged when none does."""
    window = _window(spec)
    n = window.dim
    for gamma in (-float(n), -n - 0.5):
        if _origin_cells(window) == 0:
            got = abs_power_cell_averages(gamma, window, 4)
            assert np.array_equal(got, _oracle_cell_averages(gamma, window, 4))
            continue
        with pytest.raises(ValueError):
            _oracle_cell_averages(gamma, window, 4)
        with pytest.raises(ValueError):
            abs_power_cell_averages(gamma, window, 4)


def test_one_dimensional_closed_form_unchanged():
    for offset, top in (((-1,), 2), ((0,), 1), ((-3,), 2), ((1,), 3)):
        window = Window(1, -4, 0, origin_offset=offset, top_count=top)
        for gamma in (-0.9, -0.5, 0.0, 0.3, 2.0):
            assert np.array_equal(abs_power_cell_averages(gamma, window),
                                  _oracle_cell_averages(gamma, window))


# 1-D exponents: either side of 0 above -1, and -1 and below, which raise on a cell touching 0
GAMMAS_1D = st.one_of(st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True),
                      st.floats(0.0, 3.0, exclude_min=True),
                      st.just(-1.0), st.floats(-6.0, -1.0))


@settings(max_examples=50, deadline=None)
@given(
    dim=st.sampled_from((1, 2, 2, 3)),
    span=st.integers(0, 2),
    level_max=st.integers(-1, 1),
    top_count=st.integers(1, 3),
    shift=st.lists(st.integers(-4, 1), min_size=3, max_size=3),
    depth=st.sampled_from(DEPTHS),
    gamma_frac=st.floats(0.001, 1.0),
    gamma_1d=GAMMAS_1D,
)
@example(1, 2, 0, 2, [1, 0, 0], 12, 0.5, -1.0)    # -1 on cells that miss 0
@example(1, 1, 0, 3, [-4, 0, 0], 12, 0.5, -2.5)   # below -1, all cells left of 0
@example(1, 2, 0, 2, [-1, 0, 0], 12, 0.5, -1.0)   # -1 on a window centred on 0: raises
@example(1, 2, 0, 2, [-2, 0, 0], 12, 0.5, -3.0)   # the last cell ends at 0: raises
def test_random_windows_bit_identical(dim, span, level_max, top_count, shift, depth, gamma_frac,
                                      gamma_1d):
    if dim == 1:
        span *= 3
    if dim == 3:
        span, top_count, depth = min(span, 1), min(top_count, 2), min(depth, 3)
    offset = tuple(max(s, -top_count - 1) for s in shift[:dim])
    window = Window(dim, level_max - span, level_max, origin_offset=offset, top_count=top_count)
    gamma = gamma_1d if dim == 1 else -dim + gamma_frac * (dim + 2)  # (-n, 2] from 2-D on
    if gamma <= -dim and _origin_cells(window):
        with pytest.raises(ValueError, match="is not integrable on a cell touching 0"):
            abs_power_cell_averages(gamma, window, depth)
        with pytest.raises(ValueError):
            _oracle_cell_averages(gamma, window, depth)
        return
    want = _oracle_cell_averages(gamma, window, depth)
    if not want.min() > 0.0:  # 1-D within an ulp or so of -1: |b|^(gamma+1) = |a|^(gamma+1)
        with pytest.raises(ValidationError, match="underflows to 0"):
            abs_power_cell_averages(gamma, window, depth)
        return
    assert np.array_equal(abs_power_cell_averages(gamma, window, depth), want)


# -- the cached plan: one per grid, shared by every exponent ------------------------


def _plan(window: Window, depth: int):
    return _quadrature_plan(window.level_min, window.cell_index_lo, window.cells_per_axis,
                            depth)


def _plan_arrays(plan):
    for group in plan.groups:
        yield from group.distinct
        yield from group.inverse


@settings(max_examples=25, deadline=None)
@given(
    dim=st.sampled_from((2, 2, 3)),
    span=st.integers(0, 2),
    top_count=st.integers(1, 3),
    shift=st.lists(st.integers(-4, 1), min_size=3, max_size=3),
    depth=st.integers(0, _REG_DEPTH + 1),
    gamma_fracs=st.lists(st.floats(0.001, 1.0), min_size=2, max_size=3, unique=True),
)
def test_warm_plan_bit_identical_in_either_order(dim, span, top_count, shift, depth,
                                                 gamma_fracs):
    """Several exponents on one grid, each order from a cold cache, all equal the oracle."""
    if dim == 3:
        span, top_count, depth = min(span, 1), min(top_count, 2), min(depth, 3)
    offset = tuple(max(s, -top_count - 1) for s in shift[:dim])
    window = Window(dim, -span, 0, origin_offset=offset, top_count=top_count)
    gammas = [-dim + g * (dim + 2) for g in gamma_fracs]  # (-n, 2]
    want = {g: _oracle_cell_averages(g, window, depth) for g in gammas}
    for order in (gammas, gammas[::-1]):
        _quadrature_plan.cache_clear()
        for gamma in order:
            assert np.array_equal(abs_power_cell_averages(gamma, window, depth), want[gamma])
        assert _quadrature_plan.cache_info().misses == 1


# (dim, level_min, level_max, origin_offset, top_count, axes 0 and 1 share their |c|)
SYMMETRY = [
    (2, -2, 0, (-1, -1), 2, True),     # centred
    (2, -3, 0, (-2, -2), 3, True),     # off centre, the same along both axes
    (2, -2, 0, (-1, 0), 2, False),     # origin at a corner of axis 1 only
    (2, -2, 0, (-2, -1), 3, True),     # the two axes mirror each other about 0
    (2, -2, 0, (0, -1), 1, True),      # top_count 1, mirrored
    (3, -1, 0, (-1, -1, 0), 2, True),  # axes 0 and 1 centred, axis 2 not
    (3, -1, 0, (0, -1, -1), 2, False),  # axes 1 and 2 share their |c|, axis 0 does not
]


@pytest.mark.parametrize("depth", range(_REG_DEPTH + 1))
@pytest.mark.parametrize("spec", SYMMETRY, ids=str)
def test_symmetric_pows_only_where_axes_0_and_1_match(spec, depth):
    """The upper-triangle pows fire exactly on the window's grid whose axes 0 and 1 hold the
    same |c|, and the values stay the oracle's either way."""
    *shape, symmetric = spec
    window = _window(shape)
    _quadrature_plan.cache_clear()
    assert _plan(window, depth).groups[0].symmetric is symmetric
    for gamma in (-window.dim + 0.3, 0.1, -0.1, 1.5):
        assert np.array_equal(abs_power_cell_averages(gamma, window, depth),
                              _oracle_cell_averages(gamma, window, depth))


@pytest.mark.parametrize("chunk", [1, 7, field._POW_CHUNK])
def test_symmetric_grid_takes_one_pow_per_upper_triangle_pair(chunk, monkeypatch):
    """On a centred 2-D grid every level is symmetric: with any number of rows per block of
    pows, m (m + 1) / 2 pows for m distinct |c| per axis, not m^2."""
    window = Window(2, -3, 0)
    plan = _plan(window, 12)
    assert all(group.symmetric for group in plan.groups)
    calls = []

    def counting_pow(x, y):
        calls.append(x)
        return x ** y

    monkeypatch.setattr(field, "pow", counting_pow, raising=False)
    monkeypatch.setattr(field, "_POW_CHUNK", chunk)
    got = abs_power_cell_averages(0.1, window, 12)
    monkeypatch.undo()
    tuples = sum(g.distinct[0].size * g.distinct[0].shape[1] for g in plan.groups)
    triangle = sum(len(g.distinct[0]) * (m * (m + 1) // 2)
                   for g in plan.groups for m in [g.distinct[0].shape[1]])
    assert len(calls) == triangle < tuples
    assert np.array_equal(got, abs_power_cell_averages(0.1, window, 12))


@pytest.mark.parametrize("spec", [s[:5] for s in SYMMETRY], ids=str)
def test_row_blocks_of_any_size_give_the_same_bits(spec, monkeypatch):
    """The pows and the leaf folds run a block of rows at a time; blocks of a row or two
    (block edges inside each level, symmetric or not) change no bit."""
    window = _window(spec)
    want = {g: _oracle_cell_averages(g, window, 4) for g in (-window.dim + 0.2, 0.7)}
    monkeypatch.setattr(field, "_POW_CHUNK", 7)
    monkeypatch.setattr(field, "_FOLD_BLOCK", 5)
    for gamma, values in want.items():
        assert np.array_equal(abs_power_cell_averages(gamma, window, 4), values)


def test_centred_quadrature_peak_is_at_most_20_times_its_result():
    """The powers of a symmetric grid are a packed triangle, and the folds run a block of box
    rows at a time: one 128^2 quadrature once peaked at 41 times its result (5.4 MB), when
    the full radius grid, its mirror and the first fold's half-leaf grid lived at once."""
    window = Window(2, -6, 0)
    abs_power_cell_averages(0.1, window)  # the plan is built outside the trace
    tracemalloc.start()
    try:
        values = abs_power_cell_averages(0.1, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * values.nbytes, peak


def test_warm_plan_still_rejects_a_non_integrable_exponent():
    for window in (Window(2, -2, 0), Window(3, -1, 0, origin_offset=(0, 0, 0), top_count=1)):
        n = window.dim
        _quadrature_plan.cache_clear()
        abs_power_cell_averages(0.5 - n, window, 4)
        for gamma in (-float(n), -n - 0.5):
            with pytest.raises(ValueError, match="is not integrable on a cell touching 0"):
                abs_power_cell_averages(gamma, window, 4)
        assert _quadrature_plan.cache_info().misses == 1


def test_warm_plan_still_reports_an_overflowing_power():
    # cells of side 2^-508 at the origin: |x|^-1.99 at the smallest leaf radii exceeds a float
    window = Window(2, -508, -506)
    _quadrature_plan.cache_clear()
    assert np.all(np.isfinite(abs_power_cell_averages(0.1, window, 12)))
    with pytest.raises(ValidationError, match=r"\|x\|\^-1.99 overflows a float"):
        abs_power_cell_averages(-1.99, window, 12)
    assert _quadrature_plan.cache_info().misses == 1


def test_mirrored_grid_takes_one_pow_per_upper_triangle_pair(monkeypatch):
    """Axes that mirror each other about 0 hold the same sorted |c|, so every level of the
    origin chain takes m (m + 1) / 2 pows for m leaf |c| per axis: 8 cells of 8 leaves per
    axis, then the 2 halves of the one touching box at depths 11 to 3 (8 leaves each) and
    at depths 2, 1 and 0 (4, 2 and 1 leaves each)."""
    window = Window(2, -3, 0, origin_offset=(0, -1), top_count=1)
    calls = []

    def counting_pow(x, y):
        calls.append(x)
        return x ** y

    monkeypatch.setattr(field, "pow", counting_pow, raising=False)
    got = abs_power_cell_averages(0.1, window, 12)
    monkeypatch.undo()
    per_level = [64] + [16] * 9 + [8, 4, 2]
    assert len(calls) == sum(m * (m + 1) // 2 for m in per_level) == 3353
    assert np.array_equal(got, _oracle_cell_averages(0.1, window, 12))


@pytest.mark.parametrize("dim, depth", [(1, 12), (2, 0), (2, 2), (2, 12), (3, 1)])
def test_coordinates_past_53_bits_are_a_validation_error(dim, depth):
    """Every point k 2^(level_min - bits) the quadrature evaluates has |k| <= 2^53, an exact
    float: the cell edges in 1-D (bits 0), the leaf midpoints of cells halved d times
    otherwise (bits d + 1).  The widest windows either side of 0 match the oracle; one more
    cell, or the offsets where int64 coordinates would wrap, is a ValidationError."""
    bits = 0 if dim == 1 else min(depth, _REG_DEPTH) + 1
    edge = 1 << (53 - bits)  # the largest |edge| with cells of side 1

    def window(offset):
        return Window(dim, 0, 0, origin_offset=(offset,) + (0,) * (dim - 1), top_count=1)

    for offset in (edge - 1, -edge):
        got = abs_power_cell_averages(0.5, window(offset), depth)
        assert np.array_equal(got, _oracle_cell_averages(0.5, window(offset), depth))
    for offset in (edge, -edge - 1, 1 << 58, 1 << 61, -(1 << 63)):
        with pytest.raises(ValidationError, match="need more than 53 bits"):
            abs_power_cell_averages(0.5, window(offset), depth)


@settings(max_examples=200, deadline=None)
@given(low=st.one_of(st.integers(-700, 100), st.integers(-(1 << 53), (1 << 53) - 1202)),
       steps=st.lists(st.integers(0, 600), min_size=1, max_size=40),
       odd=st.booleans())
@example(low=-3, steps=[0, 6, 1, 5, 3, 3], odd=False)  # -3..3 with repeats: signed
@example(low=-(1 << 53), steps=[0], odd=False)          # one element, at the bound
@example(low=-4, steps=[0, 3, 1, 2], odd=True)          # -7, -1, -5, -3: odd only
def test_abs_index_is_the_sorted_set_of_magnitudes(low, steps, odd):
    k = np.array([2 * (low // 2 + s) + 1 if odd else low + s for s in steps])
    distinct, position = field._abs_index(k)
    assert (distinct.tolist(), position.tolist()) == abs_index(k.tolist())


def test_plan_is_read_only_per_axis_and_bounded():
    _quadrature_plan.cache_clear()
    window = Window(2, -3, 0, origin_offset=(-2, -1), top_count=3)
    plan = _plan(window, 12)
    for arr in _plan_arrays(plan):
        assert not arr.flags.writeable
        assert arr.ndim <= 2  # per axis (after the stacked levels), never one entry per leaf tuple
        with pytest.raises(ValueError):
            arr[...] = 0
    assert abs_power_cell_averages(0.1, window, 12).flags.writeable
    maxsize = _quadrature_plan.cache_info().maxsize
    assert maxsize is not None
    for level_min in range(-1, -maxsize - 4, -1):
        abs_power_cell_averages(0.1, Window(2, level_min, level_min + 1), 2)
    assert _quadrature_plan.cache_info().currsize == maxsize


@pytest.mark.parametrize("gamma", [-5.0, -1.0, -0.5])
@pytest.mark.parametrize("a, b", [(1.0, 2.0), (-2.0, -1.0), (0.25, 0.5), (-0.5, -0.25)])
def test_abs_power_integral_away_from_the_origin(gamma, a, b):
    # the closed form on a cell that misses 0, either side of it and either side of |x| = 1:
    # positive for every gamma, gamma <= -1 included
    lo, hi = sorted((abs(a), abs(b)))
    exact = math.log(hi / lo) if gamma == -1.0 \
        else (hi ** (gamma + 1) - lo ** (gamma + 1)) / (gamma + 1)
    assert math.isclose(integral_abs_power_1d(a, b, gamma), exact, rel_tol=1e-14)
    h = b - a  # [a, b) is the one cell of a window
    level = int(math.log2(h))
    window = Window(1, level, level, origin_offset=(int(a / h),), top_count=1)
    assert math.isclose(abs_power_cell_averages(gamma, window)[0] * h, exact, rel_tol=1e-14)
