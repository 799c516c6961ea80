import numpy as np
import pytest

from morreylab.dyadic import Cube, Window
from morreylab.field import LatticeFunction
from morreylab.maximal import m_alpha_r

from conftest import assert_close, random_lattice
from oracles import all_cubes, m_alpha_r_dyadic


def test_constant_inputs_alpha_zero(sym_window):
    one = LatticeFunction.constant(sym_window, 1.0)
    out = m_alpha_r(one, one, 0.0, (2.0, 2.0))
    assert np.all(out.values == 1.0)


def test_single_cube_window_explicit_value():
    w = Window(1, 0, 0, origin_offset=(0,), top_count=1)
    f = LatticeFunction(w, np.array([3.0]))
    g = LatticeFunction(w, np.array([0.5]))
    out = m_alpha_r(f, g, 0.7, (2.0, 4.0))
    assert_close(out.values[0], 1.0 ** 0.7 * 3.0 * 0.5)


@pytest.mark.parametrize("seed", range(6))
def test_dyadic_matches_exhaustive_oracle(seed):
    w = Window(1, -2, 0) if seed % 2 else Window(2, -1, 0)
    f = random_lattice(w, seed)
    g = random_lattice(w, seed + 100)
    out = m_alpha_r(f, g, 0.4, (1.5, 3.0))
    brute = m_alpha_r_dyadic(f, g, 0.4, 1.5, 3.0)
    assert np.max(np.abs(out.values - brute)) <= 1e-12


def test_rejects_bad_exponents(sym_window):
    f = LatticeFunction.constant(sym_window, 1.0)
    with pytest.raises(ValueError):
        m_alpha_r(f, f, 0.0, (0.0, 2.0))
    with pytest.raises(ValueError):
        m_alpha_r(f, f, -0.1, (2.0, 2.0))
    with pytest.raises(ValueError):
        m_alpha_r(f, f, 0.0, (2.0, 2.0), mode="other")


def test_homogeneity(sym_window):
    f = random_lattice(sym_window, 3)
    g = random_lattice(sym_window, 4)
    base = m_alpha_r(f, g, 0.5, (2.0, 2.0))
    scaled = m_alpha_r(LatticeFunction(sym_window, 5.0 * f.values), g, 0.5, (2.0, 2.0))
    assert np.max(np.abs(scaled.values - 5.0 * base.values)) < 1e-10


def test_alpha_monotone_small_cubes(sym_window):
    # every window cube has volume <= 1, so larger alpha shrinks the sup
    f = random_lattice(sym_window, 5)
    g = random_lattice(sym_window, 6)
    lo = m_alpha_r(f, g, 0.2, (2.0, 2.0))
    hi = m_alpha_r(f, g, 0.8, (2.0, 2.0))
    assert np.all(hi.values <= lo.values + 1e-12)


def test_alpha_monotone_large_cubes():
    # volumes >= 1 reverse the monotonicity
    w = Window(1, 0, 2, origin_offset=(0,), top_count=1)
    f = random_lattice(w, 7)
    g = random_lattice(w, 8)
    lo = m_alpha_r(f, g, 0.2, (2.0, 2.0))
    hi = m_alpha_r(f, g, 0.8, (2.0, 2.0))
    assert np.all(hi.values >= lo.values - 1e-12)


def test_alpha_zero_unit_partner_dominates_function(sym_window):
    # the finest cube through each cell is the cell itself
    f = random_lattice(sym_window, 9)
    one = LatticeFunction.constant(sym_window, 1.0)
    out = m_alpha_r(f, one, 0.0, (1.5, 2.0))
    assert np.all(out.values >= np.abs(f.values) - 1e-12)


def test_alpha_zero_unit_partner_is_hardy_littlewood():
    w = Window(1, -3, 0)
    f = random_lattice(w, 10)
    out = m_alpha_r(f, LatticeFunction.constant(w, 1.0), 0.0, (1.0, 1.0))
    brute = np.zeros(w.shape)
    for q in all_cubes(w):
        sl = w.cell_offsets_of_cube(q)
        brute[sl] = np.maximum(brute[sl], np.abs(f.values[sl]).mean())
    assert np.max(np.abs(out.values - brute)) <= 1e-12


def test_centered_mode_dominates_bh_many_pairs(sym_window, centered_ops):
    bh_op, centered_op = centered_ops
    f = random_lattice(sym_window, 19)
    g = random_lattice(sym_window, 20)
    bh = bh_op(f, g)
    for pair in ((2.0, 2.0), (4.0, 4.0 / 3.0), (1.25, 5.0)):
        m = centered_op(f, g, 0.0, pair)
        assert np.max(bh.values - m.values) <= 1e-12


@pytest.mark.parametrize("pair", [(float("inf"), 1.0), (2.0, float("inf")), (0.0, 2.0)])
@pytest.mark.parametrize("mode", ["dyadic", "centered"])
def test_m_alpha_r_refuses_an_exponent_that_is_not_finite_and_positive(pair, mode):
    # at r1 = inf, |f|^r1 is inf or 0 and its 1/r1-th power 1.0: g's part alone was returned
    f = random_lattice(Window(1, -3, 0), 7)
    with pytest.raises(ValueError, match="positive and finite"):
        m_alpha_r(f, f, 0.0, pair, mode)
