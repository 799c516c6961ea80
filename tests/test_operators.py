import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.dyadic import Window
from morreylab.field import LatticeFunction
from morreylab.operators import (
    CommutatorSpec,
    bh_maximal,
    bilinear_fractional,
    bt_alpha,
    commutator_iterated,
    dyadic_radii,
)

from conftest import assert_close, random_lattice
from oracles import cell_index_of_point, correlation, from_callable, multilinear_fractional


def _value_near_zero(out):
    w = out.window
    off = tuple(m - a for m, a in zip(cell_index_of_point(w, (0.0,) * w.dim), w.cell_index_lo))
    return float(out.values[off])


def _benchmark_value(level_min: int) -> float:
    w = Window(1, level_min, 0)  # [-1, 1)
    one = LatticeFunction.constant(w, 1.0)
    return _value_near_zero(bilinear_fractional(one, one, 0.5))


def test_square_root_kernel_benchmark():
    # integral of |y|^(-1/2) over [-1,1] = 4, evaluated at the cell nearest 0
    val = _benchmark_value(-8)
    assert abs(val - 4.0) / 4.0 < 0.02


def test_benchmark_first_order_convergence():
    errs = [abs(_benchmark_value(lm) - 4.0) for lm in (-6, -7, -8)]
    for e0, e1 in zip(errs, errs[1:]):
        assert 0.3 <= e1 / e0 <= 0.7, errs


def test_zero_input_gives_zero(sym_window):
    zero = LatticeFunction.constant(sym_window, 0.0)
    g = random_lattice(sym_window, 1)
    assert np.all(bilinear_fractional(zero, g, 0.5).values == 0.0)
    assert np.all(bilinear_fractional(g, zero, 0.5).values == 0.0)


def test_alpha_range_enforced(sym_window):
    f = LatticeFunction.constant(sym_window, 1.0)
    for alpha in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            bilinear_fractional(f, f, alpha)


def test_bilinearity(sym_window):
    f1 = random_lattice(sym_window, 2)
    f2 = random_lattice(sym_window, 3)
    g = random_lattice(sym_window, 4)
    lhs = bilinear_fractional(
        LatticeFunction(sym_window, 1.5 * f1.values - 0.5 * f2.values), g, 0.5)
    rhs = 1.5 * bilinear_fractional(f1, g, 0.5).values \
        - 0.5 * bilinear_fractional(f2, g, 0.5).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-10


def test_positivity(sym_window):
    f = random_lattice(sym_window, 5)
    g = random_lattice(sym_window, 6)
    assert np.all(bilinear_fractional(f, g, 0.7).values >= 0.0)
    assert np.all(bh_maximal(f, g).values >= 0.0)


def test_reflection_symmetry_first_order():
    # swapping the arguments of reflected inputs reflects the output, up to
    # the half-cell asymmetry of the sampling (first-order in the cell side)
    w = Window(1, -6, 0)
    f = from_callable(w, lambda x: math.exp(-3.0 * x * x))
    g = from_callable(w, lambda x: 1.0 / (1.0 + x * x))
    fr = LatticeFunction(w, np.flip(g.values))  # fr(x) = g(-x) up to cell reflection
    gr = LatticeFunction(w, np.flip(f.values))
    lhs = bilinear_fractional(fr, gr, 0.5)
    rhs = np.flip(bilinear_fractional(f, g, 0.5).values)
    denom = max(np.abs(rhs).max(), 1e-12)
    assert np.max(np.abs(lhs.values - rhs)) / denom < 10 * w.cell_side


def test_multilinear_reproduces_bilinear(sym_window):
    f = random_lattice(sym_window, 7)
    g = random_lattice(sym_window, 8)
    a = bilinear_fractional(f, g, 0.6)
    b = multilinear_fractional([f, g], [1.0, -1.0], 0.6)
    assert np.array_equal(a.values, b.values) or np.max(np.abs(a.values - b.values)) < 1e-14


def test_multilinear_zero_factor(sym_window):
    f = random_lattice(sym_window, 9)
    zero = LatticeFunction.constant(sym_window, 0.0)
    out = multilinear_fractional([f, zero], [1.0, 2.0], 0.5)
    assert np.all(out.values == 0.0)


def test_multilinear_rejects_zero_speed(sym_window):
    f = random_lattice(sym_window, 10)
    with pytest.raises(ValueError):
        multilinear_fractional([f, f], [1.0, 0.0], 0.5)


def test_single_factor_matches_riesz_oracle():
    # brute-force Riesz-type sum on a 16-cell lattice, kernel averaged per
    # cell by the closed-form antiderivative
    w = Window(1, -3, 0)
    f = random_lattice(w, 11)
    alpha = 0.5
    out = multilinear_fractional([f], [1.0], alpha)
    h = w.cell_side
    m_lo = w.cell_index_lo[0]
    c = w.cells_per_axis

    def kbar(j_abs):
        a, b = j_abs * h, (j_abs + 1) * h
        anti = lambda x: math.copysign(abs(x) ** alpha / alpha, x)
        if a < 0.0 < b:
            return (anti(b) - anti(0.0) + anti(0.0) - anti(a)) / h
        return (anti(b) - anti(a)) / h

    for i in range(c):
        total = 0.0
        for j in range(c):
            # x - y lands on the corner of the absolute cell (i - j), offset -m_lo
            src = i - j - m_lo
            if 0 <= src < c:
                total += kbar(j + m_lo) * f.values[src] * h
        assert_close(out.values[i], total, tol=1e-12)


def test_commutator_constant_symbols_vanish(sym_window):
    f = random_lattice(sym_window, 12)
    g = random_lattice(sym_window, 13)
    spec = CommutatorSpec(
        (LatticeFunction.constant(sym_window, 2.0),
         LatticeFunction.constant(sym_window, -7.0)),
        (1, 2),
    )
    out = commutator_iterated(spec, f, g, 0.5)
    assert np.max(np.abs(out.values)) < 1e-12


def test_commutator_order_zero_is_plain_operator(sym_window):
    f = random_lattice(sym_window, 14)
    g = random_lattice(sym_window, 15)
    out = commutator_iterated(CommutatorSpec((), ()), f, g, 0.5)
    assert np.array_equal(out.values, bilinear_fractional(f, g, 0.5).values)


@pytest.mark.parametrize("window", [
    Window(1, -4, 0, origin_offset=(-1,)),
    Window(1, -4, 0, origin_offset=(0,), top_count=1),
    Window(1, -4, 0, origin_offset=(-3,), top_count=1),
    Window(2, -2, 0, origin_offset=(-1, -1)),
    Window(2, -2, 0, origin_offset=(0, -1), top_count=1),
    Window(2, -2, 0, origin_offset=(-2, 1), top_count=1),
])
def test_bilinear_is_bitwise_order_zero_commutator(window):
    f = random_lattice(window, 18)
    g = random_lattice(window, 19)
    alpha = 0.5 * window.dim
    out = commutator_iterated(CommutatorSpec((), ()), f, g, alpha, depth=4)
    assert np.array_equal(out.values, bilinear_fractional(f, g, alpha, depth=4).values)


@st.composite
def translated(draw, dim, top):
    """(window, its copy at the default position, batch shapes of f, g and the symbols,
    slots, rng): an origin_offset drawn per axis, up to 8 cells per top cube and axis in
    1-D, 4 in 2-D and 2 in 3-D, a batch of 1-3 on each input or on none of it (f keeps
    one if all are drawn unbatched), 0-2 symbols."""
    level_min = -draw(st.integers(0, 4 - dim))
    window = Window(dim, level_min, 0, top_count=top,
                    origin_offset=tuple(draw(st.integers(-6, 5)) for _ in range(dim)))
    slots = draw(st.lists(st.sampled_from([1, 2]), max_size=2))
    size = draw(st.integers(1, 3))
    batches = [(size,) if draw(st.booleans()) else () for _ in range(2 + len(slots))]
    batches[0] = batches[0] if any(batches) else (size,)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return window, Window(dim, level_min, 0, top_count=top), batches, tuple(slots), rng


@pytest.mark.parametrize("top", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_operators_commute_with_translations(dim, top, data):
    # the same arrays on a window shifted by whole top cubes give, entry by entry, the
    # bits of the padded loop at the default position: the kernel covers |y| < W/2
    # wherever the window sits
    window, base, batches, slots, rng = data.draw(translated(dim, top))
    values = [rng.uniform(0.05, 1.0, (*b, *window.shape)) for b in batches[:2]] + \
        [rng.uniform(-1.0, 1.0, (*b, *window.shape)) for b in batches[2:]]
    f, g, *bs = (LatticeFunction(window, v) for v in values)
    alpha = 0.5 * window.dim
    got = commutator_iterated(CommutatorSpec(bs, slots), f, g, alpha, 4).values
    if not slots:
        assert np.array_equal(bilinear_fractional(f, g, alpha, 4).values.view(np.int64),
                              got.view(np.int64))
    full = [np.broadcast_to(v, got.shape) for v in values]
    for i in np.ndindex(got.shape[:-window.dim]):
        f_i, g_i, *b_i = (LatticeFunction(base, v[i]) for v in full)
        want = correlation(f_i, g_i, alpha, 4, tuple(zip(b_i, slots))).values
        assert np.array_equal(got[i].view(np.int64), want.view(np.int64)), i


@pytest.mark.parametrize("perm", [(1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)])
def test_commutator_permutation_invariance(sym_window, perm):
    f = random_lattice(sym_window, 16)
    g = random_lattice(sym_window, 17)
    symbols = tuple(random_lattice(sym_window, 20 + i, lo=-1.0, hi=1.0) for i in range(3))
    betas = (1, 2, 1)
    base = commutator_iterated(CommutatorSpec(symbols, betas), f, g, 0.5)
    permuted = commutator_iterated(
        CommutatorSpec(tuple(symbols[i] for i in perm), tuple(betas[i] for i in perm)),
        f, g, 0.5)
    scale = max(np.abs(base.values).max(), 1.0)
    assert np.max(np.abs(base.values - permuted.values)) / scale < 1e-12


def test_commutator_spec_validation(sym_window):
    b = LatticeFunction.constant(sym_window, 1.0)
    with pytest.raises(ValueError):
        CommutatorSpec((b,), (1, 2))
    with pytest.raises(ValueError):
        CommutatorSpec((b,), (3,))
    spec = CommutatorSpec((b, b, b), (1, 2, 1))
    assert spec.beta_vec == (1, 2, 1) and len(spec.b_vec) == 3


def test_bt_alpha_is_complementary_order(sym_window):
    f = random_lattice(sym_window, 18)
    g = random_lattice(sym_window, 19)
    a = bt_alpha(f, g, 0.3)
    b = bilinear_fractional(f, g, 0.7)
    assert np.array_equal(a.values, b.values)


def test_bt_alpha_benchmark():
    # n - alpha = 1/2 reproduces the closed-form value 4
    w = Window(1, -8, 0)
    one = LatticeFunction.constant(w, 1.0)
    val = _value_near_zero(bt_alpha(one, one, 0.5))
    assert abs(val - 4.0) / 4.0 < 0.02


def test_bh_constant_inputs(centered_ops):
    bh_op, _ = centered_ops
    w = Window(1, -3, 0)
    one = LatticeFunction.constant(w, 1.0)
    out = bh_op(one, one)
    assert np.all(out.values == 1.0)


def test_bh_single_cell_hand_value(centered_ops):
    # x = 1/2, r = 1/2: the average of chi(x-y) chi(x+y) over [-1/2,1/2] is 1
    bh_op, _ = centered_ops
    w = Window(1, 0, 0, origin_offset=(0,), top_count=1)
    one = LatticeFunction.constant(w, 1.0)
    out = bh_op(one, one)
    assert out.values[0] == 1.0


def test_bh_dominated_by_centered_maximal(sym_window, centered_ops):
    bh_op, centered_op = centered_ops
    f = random_lattice(sym_window, 30)
    g = random_lattice(sym_window, 31)
    bh = bh_op(f, g)
    for pair in ((2.0, 2.0), (1.5, 3.0)):
        m = centered_op(f, g, 0.0, pair)
        assert np.max(bh.values - m.values) <= 1e-12


def test_dyadic_radii_span(sym_window):
    radii = dyadic_radii(sym_window)
    assert radii[0] == 2.0 ** (sym_window.level_min - 1)
    assert radii[-1] == 2.0 ** sym_window.level_max
