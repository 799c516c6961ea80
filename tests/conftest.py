import numpy as np
import pytest

from morreylab.dyadic import Window
from morreylab.field import LatticeFunction, Weight
from morreylab.maximal import m_alpha_r
from morreylab.operators import bh_maximal

import oracles


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def assert_close(a, b, tol=1e-12, msg=""):
    assert close(a, b, tol), f"{a} != {b} (tol {tol}) {msg}"


@pytest.fixture
def unit_window():
    """[0,1) with levels -2..0 (7 cubes, 4 cells)."""
    return Window(1, -2, 0, origin_offset=(0,), top_count=1)


@pytest.fixture
def sym_window():
    """Default symmetric window [-1,1) with levels -4..0."""
    return Window(1, -4, 0)


def random_lattice(window: Window, seed: int, lo=0.05, hi=1.0) -> LatticeFunction:
    rng = np.random.default_rng(seed)
    return LatticeFunction(window, rng.uniform(lo, hi, window.shape))


def random_weight(window: Window, seed: int, lo=0.2, hi=3.0) -> Weight:
    rng = np.random.default_rng(seed)
    return Weight(window, rng.uniform(lo, hi, window.shape))


def _centered_fast(f, g, alpha, pair):
    return m_alpha_r(f, g, alpha, pair, "centered")


@pytest.fixture(params=["fast", "oracle"])
def centered_ops(request):
    """(bh_maximal, centered m_alpha_r(f, g, alpha, pair)): the library's sums or the loops."""
    if request.param == "fast":
        return bh_maximal, _centered_fast
    return oracles.bh_maximal, oracles.m_alpha_r_centered
