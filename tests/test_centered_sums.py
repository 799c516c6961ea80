"""bh_maximal and centered m_alpha_r against the per-cell box loops of oracles.py.

The library sums nonnegative shifted products (BH) and doubling window sums
(centered); the loops contract each cell's box weights directly.  Both add
the same nonnegative terms in different orders, so they agree to a few
units in the last place even with a spike of 1e8: the tolerance below is
relative, cell by cell.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.dyadic import Window
from morreylab.field import LatticeFunction
from morreylab.harness import _BH_PAIRS
from morreylab.maximal import m_alpha_r
from morreylab.operators import bh_maximal

import oracles

RTOL = 1e-13


def _relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.maximum(np.abs(got), np.abs(want))
    gap = np.divide(np.abs(got - want), scale, out=np.zeros_like(scale), where=scale > 0)
    return float(gap.max())


def _spiked_pair(window: Window, seed: int, cell, spike: float):
    rng = np.random.default_rng(seed)
    fv = rng.uniform(0.0, 2.0, window.shape)
    gv = rng.uniform(0.0, 2.0, window.shape)
    fv[cell] *= spike
    gv[cell] *= spike
    return LatticeFunction(window, fv), LatticeFunction(window, gv)


@st.composite
def spiked_pairs(draw):
    """1-D windows of up to 192 cells (level_min down to -6), 2-D ones of up
    to 16^2, top_count 1-3, origins off the default, one spike up to 1e8."""
    dim = draw(st.sampled_from([1, 2]))
    top = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 6 if dim == 1 else (3 if top < 3 else 2)))
    window = Window(dim, -depth, 0, top_count=top,
                    origin_offset=tuple(draw(st.integers(-3, 2)) for _ in range(dim)))
    cell = tuple(draw(st.integers(0, window.cells_per_axis - 1)) for _ in range(dim))
    spike = 10.0 ** draw(st.floats(0.0, 8.0))
    return _spiked_pair(window, draw(st.integers(0, 2 ** 32 - 1)), cell, spike)


@settings(max_examples=25, deadline=None)
@given(spiked_pairs())
def test_bh_maximal_matches_loop(pair):
    f, g = pair
    assert _relative_gap(bh_maximal(f, g).values, oracles.bh_maximal(f, g).values) <= RTOL


@settings(max_examples=25, deadline=None)
@given(spiked_pairs(), st.sampled_from(_BH_PAIRS), st.sampled_from([0.0, 0.4]))
def test_centered_m_alpha_r_matches_loop(pair, exponents, alpha):
    f, g = pair
    got = m_alpha_r(f, g, alpha, exponents, "centered").values
    want = oracles.m_alpha_r_centered(f, g, alpha, exponents).values
    assert _relative_gap(got, want) <= RTOL


@pytest.mark.parametrize("window, cell", [
    (Window(1, -6, 0), (70,)),
    (Window(1, -6, 0, origin_offset=(1,), top_count=3), (0,)),
    (Window(2, -3, 0, origin_offset=(1, -3)), (15, 4)),
    (Window(2, -2, 0, top_count=3), (0, 11)),
], ids=["1d_128", "1d_192_off_origin", "2d_16_off_origin", "2d_12_top3"])
def test_largest_windows_with_a_1e8_spike(window, cell):
    f, g = _spiked_pair(window, 0, cell, 1e8)
    assert _relative_gap(bh_maximal(f, g).values, oracles.bh_maximal(f, g).values) <= RTOL
    for exponents in _BH_PAIRS:
        got = m_alpha_r(f, g, 0.0, exponents, "centered").values
        want = oracles.m_alpha_r_centered(f, g, 0.0, exponents).values
        assert _relative_gap(got, want) <= RTOL

