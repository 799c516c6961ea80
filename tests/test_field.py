import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.dyadic import Cube, Window
from morreylab.field import (
    LatticeFunction,
    Weight,
    bmo_norm,
    expand_level,
    from_csv,
    level_means,
    oscillation_ratio,
    oscillation_sups,
    power_weight,
    to_csv,
)

from conftest import assert_close, random_lattice
from oracles import (
    all_cubes,
    cell_average,
    cube_box,
    cube_center,
    dilate3,
    from_callable,
    indicator,
    nested_pairs,
    power_avg,
    window_box,
)


def test_cell_average_half_indicator(unit_window):
    f = indicator(unit_window, ((0.0,), (0.5,)))
    assert cell_average(f, ((0.0,), (1.0,))) == 0.5


def test_cell_average_constant_any_box(sym_window):
    f = LatticeFunction.constant(sym_window, 3.25)
    for box in (((-0.3,), (0.4,)), ((-2.0,), (0.1,)), ((0.99,), (1.7,))):
        assert_close(cell_average(f, box), 3.25)


def test_cell_average_whole_cells_is_arithmetic_mean(sym_window):
    # direct summation oracle over a union of whole cells
    f = random_lattice(sym_window, 5)
    h = sym_window.cell_side
    box = ((-0.5,), (0.25,))
    k0 = int(-0.5 / h) - sym_window.cell_index_lo[0]
    k1 = int(0.25 / h) - sym_window.cell_index_lo[0]
    oracle = f.values[k0:k1].mean()
    assert_close(cell_average(f, box), oracle)


def test_cell_average_linear_and_monotone(sym_window):
    f = random_lattice(sym_window, 1)
    g = random_lattice(sym_window, 2)
    box = ((-0.7,), (0.9,))
    lhs = cell_average(LatticeFunction(sym_window, 2.0 * f.values + 3.0 * g.values), box)
    assert_close(lhs, 2.0 * cell_average(f, box) + 3.0 * cell_average(g, box))
    bigger = LatticeFunction(sym_window, f.values + 0.5)
    assert cell_average(bigger, box) > cell_average(f, box)


def test_cell_average_dilate3_linear_is_center_value():
    win = Window(1, -4, 0)
    b = from_callable(win, lambda x: 2.0 * x + 0.25)
    q = Cube(-3, (0,))  # 3Q = [-1/8, 1/4) well inside
    assert_close(cell_average(b, dilate3(q)), 2.0 * cube_center(q)[0] + 0.25)


@pytest.mark.parametrize("window, cube", [
    (Window(1, -4, 0), Cube(-1, (1,))),        # 3Q sticks out of [-1, 1) above
    (Window(1, -4, 0), Cube(-2, (-4,))),       # ... and below
    (Window(2, -3, 0), Cube(-1, (-2, 1))),     # a corner cube in 2-D
])
def test_cell_average_clipped_dilate3_is_mean_of_covered_cells(window, cube):
    # 3Q lies on the level-k lattice, so its clip is a union of whole cells
    b = random_lattice(window, 3)
    box_lo, box_hi = dilate3(cube)
    inside = np.ones(window.shape, dtype=bool)
    for axis in range(window.dim):
        lo = window.cell_index_lo[axis]
        centers = (np.arange(window.shape[axis]) + lo + 0.5) * window.cell_side
        keep = (centers > box_lo[axis]) & (centers < box_hi[axis])
        shape = [1] * window.dim
        shape[axis] = -1
        inside &= keep.reshape(shape)
    assert inside.any() and not inside.all()
    assert_close(cell_average(b, (box_lo, box_hi)), b.values[inside].mean())


def test_cell_average_empty_intersection(sym_window):
    f = LatticeFunction.constant(sym_window, 1.0)
    with pytest.raises(ValueError, match="misses the window"):
        cell_average(f, ((5.0,), (6.0,)))


def test_power_avg_constant_any_exponent(sym_window):
    f = LatticeFunction.constant(sym_window, 2.0)
    for e in (0.5, 1.0, 2.0, -1.0, math.inf):
        assert_close(power_avg(f, ((-1.0,), (1.0,)), e), 2.0)


def test_power_avg_indicator_quadratic(unit_window):
    f = indicator(unit_window, ((0.0,), (0.5,)))
    assert_close(power_avg(f, ((0.0,), (1.0,)), 2.0), math.sqrt(0.5))


def test_power_avg_sup(sym_window):
    f = random_lattice(sym_window, 9)
    assert power_avg(f, window_box(sym_window), math.inf) == np.abs(f.values).max()


def test_power_avg_errors(sym_window):
    f = LatticeFunction.constant(sym_window, 1.0)
    with pytest.raises(ValueError):
        power_avg(f, window_box(sym_window), 0.0)
    g = indicator(sym_window, ((0.0,), (0.5,)))
    with pytest.raises(ValueError):
        power_avg(g, window_box(sym_window), -1.0)


@settings(max_examples=50)
@given(st.integers(0, 10_000))
def test_power_avg_nondecreasing_in_exponent(seed):
    w = Window(1, -2, 0, origin_offset=(0,), top_count=1)
    f = random_lattice(w, seed, lo=0.1, hi=5.0)
    box = ((0.0,), (1.0,))
    vals = [power_avg(f, box, e) for e in (1.0, 2.0, 4.0, math.inf)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_power_weight_zero_exponent(sym_window):
    w = power_weight(0.0, sym_window)
    assert np.allclose(w.values, 1.0)


def test_power_weight_linear_integrand():
    win = Window(1, -3, 0, origin_offset=(0,), top_count=1)
    w = power_weight(1.0, win)
    h = win.cell_side
    assert_close(w.values[0], h / 2)  # cell [0,h): mean of x is h/2
    assert_close(w.values[3], 3.5 * h)


def test_power_weight_inverse_sqrt_closed_form():
    win = Window(1, -4, 0, origin_offset=(0,), top_count=1)
    h = win.cell_side
    w = power_weight(-0.5, win)
    assert_close(w.values[0], 2.0 / math.sqrt(h))
    # generic cell [a, a+h): (2 sqrt(a+h) - 2 sqrt(a)) / h
    a = 5 * h
    assert_close(w.values[5], (2 * math.sqrt(a + h) - 2 * math.sqrt(a)) / h)


def test_power_weight_inadmissible_exponent(sym_window):
    with pytest.raises(ValueError):
        power_weight(-1.0, sym_window)


def test_power_weight_2d_matches_fine_grid():
    win = Window(2, -1, 0)
    gamma = -0.8
    w = power_weight(gamma, win, depth=14)
    h = win.cell_side
    # brute-force tensor midpoint quadrature, 512 points per axis
    m = 512
    step = h / m
    rng_pts = (np.arange(m) + 0.5) * step
    for off, expect_tol in (((2, 2), 2e-3), ((3, 2), 5e-3), ((3, 3), 5e-3)):
        lo = tuple((a + o) * h for a, o in zip(win.cell_index_lo, off))
        xs = lo[0] + rng_pts
        ys = lo[1] + rng_pts
        rr = np.add.outer(xs ** 2, ys ** 2) ** (gamma / 2.0)
        brute = rr.mean()
        rel = abs(w.values[off] - brute) / brute
        assert rel < expect_tol, (off, w.values[off], brute)


def test_weight_rejects_nonpositive(sym_window):
    with pytest.raises(ValueError):
        Weight(sym_window, np.zeros(sym_window.shape))
    with pytest.raises(ValueError):
        Weight(sym_window, np.full(sym_window.shape, -1.0))


def test_bmo_constant_is_zero(sym_window):
    assert bmo_norm(LatticeFunction.constant(sym_window, 7.0)) == 0.0


def test_bmo_half_indicator():
    win = Window(1, -1, 0, origin_offset=(0,), top_count=1)
    b = indicator(win, ((0.0,), (0.5,)))
    # only [0,1) oscillates: mean 1/2, mean deviation 1/2
    assert_close(bmo_norm(b), 0.5)


def test_bmo_log_stable_under_refinement():
    vals = []
    for lmin in (-6, -8):
        win = Window(1, lmin, 0)
        b = from_callable(win, lambda x: math.log(abs(x)))
        vals.append(bmo_norm(b))
    assert abs(vals[0] - vals[1]) / vals[1] < 0.10


def test_ancestor_mean_telescoping_bound(sym_window):
    # |mean_Q0 b - mean_Q b| <= (level gap) 2^n ||b|| for every nested pair
    b = random_lattice(sym_window, 17, lo=-2.0, hi=2.0)
    norm = bmo_norm(b)
    for q, qp in nested_pairs(sym_window):
        gap = qp.level - q.level
        if gap == 0:
            continue
        diff = abs(cell_average(b, cube_box(q)) - cell_average(b, cube_box(qp)))
        assert diff <= gap * 2 ** sym_window.dim * norm + 1e-12


def test_oscillation_ratio_finite_nondecreasing():
    win = Window(1, -6, 0)
    b = from_callable(win, lambda x: math.log(abs(x)))
    r1, r2, r4 = (oscillation_ratio(b, e) for e in (1.0, 2.0, 4.0))
    assert r1 == 1.0
    assert math.isfinite(r4)
    assert r1 <= r2 + 1e-12 <= r4 + 2e-12


def _brute_oscillation(b, e):
    """sup over window cubes of (mean_Q |b - mean_Q b|^e)^(1/e), cube by cube."""
    w = b.window
    best = 0.0
    for q in all_cubes(w):
        block = b.values[w.cell_offsets_of_cube(q)]
        best = max(best, float((np.abs(block - block.mean()) ** e).mean() ** (1.0 / e)))
    return best


def _ramp_plus_noise(window, seed):
    """A ramp along every axis plus noise: the top cubes oscillate most."""
    ramp = 4.0 * np.indices(window.shape).sum(axis=0) / window.shape[0]
    return LatticeFunction(window, ramp + random_lattice(window, seed, lo=-0.25, hi=0.25).values)


@pytest.mark.parametrize("window", [Window(1, -5, 0), Window(2, -3, 0)])
def test_bmo_norm_matches_cube_by_cube_oracle(window):
    b = _ramp_plus_noise(window, 31)
    assert_close(bmo_norm(b), _brute_oscillation(b, 1.0))


@pytest.mark.parametrize("e", [2.0, 4.0])
def test_oscillation_ratio_matches_cube_by_cube_oracle(e):
    win = Window(2, -3, 0)
    b = _ramp_plus_noise(win, 32)
    assert_close(oscillation_ratio(b, e), _brute_oscillation(b, e) / _brute_oscillation(b, 1.0))


_SWEEP_WINDOWS = [
    Window(1, -5, 0),
    Window(1, -5, 0, origin_offset=(-3,), top_count=3),
    Window(2, -3, 0),
    Window(2, -3, 0, origin_offset=(-2, 0), top_count=3),
]


@pytest.mark.parametrize("window", _SWEEP_WINDOWS, ids=str)
def test_one_oscillation_sweep_keeps_each_exponents_bits(window):
    # each row of the sweep over all exponents is the sweep at its exponent alone, bit for
    # bit, and the cube-by-cube sup
    b = _ramp_plus_noise(window, 34)
    rows = oscillation_sups(b, (1.0, 2.0, 4.0))
    assert rows.shape == (3,)
    for row, e in zip(rows, (1.0, 2.0, 4.0)):
        assert row.tobytes() == oscillation_sups(b, (e,))[0].tobytes()
        assert_close(float(row), _brute_oscillation(b, e))


@pytest.mark.parametrize("window", _SWEEP_WINDOWS, ids=str)
def test_one_oscillation_sweep_gives_each_batch_entry_its_bits(window):
    entries = [_ramp_plus_noise(window, seed).values for seed in (35, 36, 37)]
    rows = oscillation_sups(LatticeFunction(window, np.stack(entries)), (1.0, 2.0, 4.0))
    assert rows.shape == (3, 3)
    for k, values in enumerate(entries):
        alone = oscillation_sups(LatticeFunction(window, values), (1.0, 2.0, 4.0))
        assert rows[:, k].tobytes() == alone.tobytes()


@pytest.mark.parametrize("window", [Window(1, 0, 0), Window(2, -2, -2, origin_offset=(-1, 2))],
                         ids=str)
def test_single_level_window_oscillates_zero(window):
    # its cubes are single cells, so the level_min zeros are the whole sup
    b = random_lattice(window, 38)
    assert oscillation_sups(b, (1.0, 2.0, 4.0)).tolist() == [0.0, 0.0, 0.0]


def test_constant_symbol_has_oscillation_ratio_zero():
    assert oscillation_ratio(LatticeFunction.constant(Window(2, -3, 0), 7.0), 2.0) == 0.0


@pytest.mark.parametrize("e", [0.0, math.nan, math.inf, -1.0])
def test_oscillation_ratio_rejects_exponents_the_sweep_cannot_serve(e):
    # the level_min zeros are exact only for a finite e > 0
    b = random_lattice(Window(1, -3, 0), 39)
    with pytest.raises(ValueError, match="finite and > 0"):
        oscillation_ratio(b, e)


def test_oscillation_sweep_holds_no_expanded_level_table():
    # each level's deviations are taken on the cells blocked by its cubes; with the level's
    # means expanded to the cells first, this 256^2 symbol peaked at 4 times its bytes
    b = random_lattice(Window(2, -7, 0), 33)
    oscillation_ratio(b, 2.0)
    tracemalloc.start()
    try:
        oscillation_ratio(b, 2.0)  # the BMO norm, then the sweep at e = 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * b.values.nbytes, peak


def test_expand_level_at_level_min_allocates_nothing():
    # the identity expansion hands back its input, which its callers only read; repeating
    # each axis once copied this batch of two 128^2 arrays, a peak of 2 times its bytes
    window = Window(2, -6, 0)
    values = np.random.default_rng(3).uniform(0.0, 1.0, (2, *window.shape))
    tracemalloc.start()
    try:
        out = expand_level(values, window, window.level_min)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * values.nbytes, peak
    assert np.array_equal(out, values)
    # two levels up, each cube value covers its 4 x 4 cells, as np.repeat per axis gives them
    coarse = level_means(values, window, window.level_min + 2)
    assert np.array_equal(expand_level(coarse, window, window.level_min + 2),
                          np.repeat(np.repeat(coarse, 4, axis=-2), 4, axis=-1))


def test_expand_level_below_level_min_names_the_level():
    window = Window(1, -3, 0)
    with pytest.raises(ValueError, match=r"^level -4 is below the window's level_min -3$"):
        expand_level(np.zeros(window.shape), window, -4)


def test_csv_round_trip(tmp_path, sym_window):
    f = random_lattice(sym_window, 23)
    path = tmp_path / "f.csv"
    to_csv(f, path)
    g = from_csv(path)
    assert g.window == sym_window
    assert np.array_equal(g.values, f.values)
    header = path.read_text().splitlines()[0]
    assert header == "-4,0,1"


def test_csv_round_trip_2d(tmp_path):
    win = Window(2, -1, 0, origin_offset=(0, -1), top_count=1)
    f = random_lattice(win, 4)
    path = tmp_path / "f2.csv"
    to_csv(f, path)
    g = from_csv(path)
    assert g.window == win
    assert np.array_equal(g.values, f.values)


def test_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("-1,0,1\n0,1.0\n")  # missing half the cells
    with pytest.raises(ValueError):
        from_csv(path)


def test_csv_rejects_a_repeated_cell(tmp_path):
    # the later value used to win: this file read as the window with cell -4 = 99
    path = tmp_path / "repeated.csv"
    to_csv(random_lattice(Window(1, -2, 0), 9), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("-4,99.0\n")
    with pytest.raises(ValueError, match=r"cell index \(-4,\) is repeated"):
        from_csv(path)


def test_lattice_function_immutable(sym_window):
    f = LatticeFunction.constant(sym_window, 1.0)
    with pytest.raises(AttributeError):
        f.values = None
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_cube_average_matches_block_mean(sym_window):
    f = random_lattice(sym_window, 8)
    q = Cube(-2, (-1,))
    sl = sym_window.cell_offsets_of_cube(q)
    assert_close(cell_average(f, cube_box(q)), f.values[sl].mean())
