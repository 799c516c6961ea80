"""Differential tests: the array quadrature of |x|^gamma against the corner recursion.

field.abs_power_cell_averages evaluates every cell that misses the origin
in one array pass and loops only down the origin-touching chain.  The
oracle below is the per-cell code it replaced, unchanged but for its
inline origin test: a loop over the cells that runs the corner recursion on
each.  The two must agree bit for bit, on 2-D and 3-D windows with the
origin inside, on the boundary and outside, at every depth regime (below,
at and above _REG_DEPTH).
"""

import itertools
import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.dyadic import Window
from morreylab.field import _REG_DEPTH, _integral_abs_power_1d, abs_power_cell_averages


def _oracle_box(lo: Sequence[float], hi: Sequence[float], gamma: float, depth: int) -> float:
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


@settings(max_examples=30, deadline=None)
@given(
    dim=st.sampled_from((2, 2, 3)),
    span=st.integers(0, 2),
    level_max=st.integers(-1, 1),
    top_count=st.integers(1, 3),
    shift=st.lists(st.integers(-4, 1), min_size=3, max_size=3),
    depth=st.sampled_from(DEPTHS),
    gamma_frac=st.floats(0.001, 1.0),
)
def test_random_windows_bit_identical(dim, span, level_max, top_count, shift, depth, gamma_frac):
    if dim == 3:
        span, top_count, depth = min(span, 1), min(top_count, 2), min(depth, 3)
    offset = tuple(max(s, -top_count - 1) for s in shift[:dim])
    window = Window(dim, level_max - span, level_max, origin_offset=offset, top_count=top_count)
    gamma = -dim + gamma_frac * (dim + 2)  # (-n, 2]
    assert np.array_equal(abs_power_cell_averages(gamma, window, depth),
                          _oracle_cell_averages(gamma, window, depth))
