"""The batch axis and the band-limited offset plan, bit for bit.

The offset plan of operators._correlation is checked against the padded
loop it replaced (oracles.correlation), and every function that takes a
batch of inputs against one call per batch entry.  Both comparisons are on
the bit patterns (.view(np.int64)), on 1-D and 2-D windows with shifted
origins, 1-3 top cubes per axis and a spike of up to 1e8.  The harness's
stage chunks must give the same rows however the trials are split, and
the functions that take one lattice function must refuse a batch.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab import czd, field, harness, operators
from morreylab.dyadic import Cube, Window
from morreylab.exponents import build
from morreylab.field import LatticeFunction, Weight, bmo_norm, oscillation_ratio, to_csv
from morreylab.maximal import m_alpha_r
from morreylab.operators import (
    CommutatorSpec,
    bh_maximal,
    bilinear_fractional,
    bt_alpha,
    commutator_iterated,
)
from morreylab.weights_norms import (
    morrey_norm,
    rhs_bilinear_morrey,
    rhs_bilinear_morrey_from,
    weak_morrey_functional,
)

import oracles

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DEPTH = 3  # kernel quadrature depth: the plan and the batch axis do not depend on it


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def assert_bitwise(got, want):
    assert np.array_equal(_bits(got), _bits(want))


@st.composite
def batches(draw):
    """(window, values of shape (B, *window.shape), rng): B = 1..5, 1-D windows of up
    to 96 cells, 2-D ones of up to 12^2, top_count 1-3, shifted origins, and one
    cell of one batch entry spiked by up to 1e8."""
    dim = draw(st.sampled_from([1, 2]))
    top = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 5 if dim == 1 else 2))
    window = Window(dim, -depth, 0, top_count=top,
                    origin_offset=tuple(draw(st.integers(-3, 2)) for _ in range(dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = rng.uniform(0.0, 2.0, (draw(st.integers(1, 5)), *window.shape))
    at = (draw(st.integers(0, len(vals) - 1)),
          *(draw(st.integers(0, window.cells_per_axis - 1)) for _ in range(dim)))
    vals[at] *= 10.0 ** draw(st.floats(0.0, 8.0))
    return window, vals, rng


def _pair(window, vals, rng):
    """Batched f (the drawn values) and g (fresh uniform values of the same shape)."""
    return LatticeFunction(window, vals), LatticeFunction(window, rng.uniform(0.0, 2.0, vals.shape))


def _entries(f: LatticeFunction):
    return [LatticeFunction(f.window, v) for v in f.values]


# -- the offset plan --------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(batches(), st.sampled_from([0.3, 0.5, 0.9]), st.lists(st.sampled_from([1, 2]), max_size=3))
def test_plan_matches_padded_loop(case, frac, slots):
    window, vals, rng = case
    f, g = _pair(window, vals[0], rng)
    symbols = tuple((LatticeFunction(window, rng.uniform(-1.0, 1.0, window.shape)), s)
                    for s in slots)
    alpha = frac * window.dim
    got = operators._correlation(f, g, alpha, DEPTH, symbols)
    assert_bitwise(got.values, oracles.correlation(f, g, alpha, DEPTH, symbols).values)


def test_plan_is_a_bounded_lru():
    offset_plan = operators._offset_plan
    offset_plan.cache_clear()
    size = offset_plan.cache_info().maxsize
    assert size == 8
    win = Window(2, -2, 0)
    first = offset_plan(0.5, win, DEPTH)
    kept = offset_plan(0.25, win, DEPTH)
    for i in range(2 * size):
        if i % 2:
            offset_plan(0.5 + 0.01 * i, win, DEPTH)
        else:
            offset_plan(0.5, Window(2, -2, 0, origin_offset=(i, 0)), DEPTH)
        assert offset_plan(0.25, win, DEPTH) is kept  # used every time: never evicted
        assert offset_plan.cache_info().currsize <= size
    assert offset_plan.cache_info().currsize == size
    again = offset_plan(0.5, win, DEPTH)
    assert again is not first  # evicted, so rebuilt
    assert again == first  # the same kernel values and slices
    assert offset_plan(0.5, win, DEPTH) is again


def test_plan_leaves_out_empty_bands():
    # c = 4 cells from the origin: only kernel cells 0 and 1 have x - y and x + y
    # both inside for some x
    win = Window(1, -2, 0, origin_offset=(0,), top_count=1)
    plan = operators._offset_plan(0.5, win, DEPTH)
    assert [k for k, *_ in plan] == list(operators.kernel_cell_averages(0.5, win, DEPTH)[:2])
    assert len(operators._offset_plan(0.5, Window(2, -2, 0), DEPTH)) == 8 ** 2


# -- batched against one call per entry ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(batches(), st.sampled_from([0.3, 0.5, 0.9]))
def test_batched_operators_match_per_entry(case, frac):
    window, vals, rng = case
    f, g = _pair(window, vals, rng)
    alpha = frac * window.dim
    pairs = list(zip(_entries(f), _entries(g)))
    for op in (lambda a, b: bilinear_fractional(a, b, alpha, DEPTH),
               lambda a, b: bt_alpha(a, b, alpha, DEPTH),
               bh_maximal,
               lambda a, b: m_alpha_r(a, b, alpha, (1.5, 3.0), "dyadic"),
               lambda a, b: m_alpha_r(a, b, alpha, (1.5, 3.0), "centered")):
        assert_bitwise(op(f, g).values, [op(a, b).values for a, b in pairs])


@settings(max_examples=60, deadline=None)
@given(batches(), st.sampled_from([0.3, 0.9]),
       st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3))
def test_batched_commutator_matches_per_entry(case, frac, slots):
    window, vals, rng = case
    f, g = _pair(window, vals, rng)
    bs = [LatticeFunction(window, rng.uniform(-1.0, 1.0, vals.shape)) for _ in slots]
    alpha = frac * window.dim
    got = commutator_iterated(CommutatorSpec(bs, slots), f, g, alpha, DEPTH)
    want = [commutator_iterated(CommutatorSpec(one[2:], slots), *one[:2], alpha, DEPTH).values
            for one in zip(*map(_entries, (f, g, *bs)))]
    assert_bitwise(got.values, want)


@settings(max_examples=60, deadline=None)
@given(batches(), st.sampled_from([(2.0, 1.5), (3.6, 3.0), (1.2, 0.7)]))
def test_batched_norms_match_per_entry(case, pq):
    window, vals, rng = case
    f, g = _pair(window, vals, rng)
    w = Weight(window, rng.uniform(0.2, 3.0, window.shape))
    w2 = Weight(window, rng.uniform(0.2, 3.0, window.shape))
    b = LatticeFunction(window, np.log(vals + 0.1))
    p, q = pq
    for norm, args in ((lambda x: morrey_norm(x, p, q), (f,)),
                       (lambda x: morrey_norm(x, p, q, w), (f,)),
                       (lambda x, y: rhs_bilinear_morrey(x, y, w, w2, p, q, 2.0 * q), (f, g)),
                       (bmo_norm, (b,))):
        got = norm(*args)
        assert got.shape == vals.shape[:1]
        assert_bitwise(got, [norm(*one) for one in zip(*map(_entries, args))])


def test_unbatched_sups_stay_python_floats():
    window = Window(2, -2, 0)
    f = LatticeFunction(window, np.random.default_rng(0).uniform(0.0, 1.0, window.shape))
    assert type(morrey_norm(f, 2.0, 1.5)) is float
    assert type(bmo_norm(f)) is float


# -- the harness's stage chunks --------------------------------------------------------


def _config(name: str, **overrides):
    keep = [line for line in (CONFIGS / name).read_text(encoding="utf-8").splitlines()
            if line.split("=", 1)[0].strip() not in overrides]
    return harness.parse_config("\n".join(keep + [f"{k} = {v}" for k, v in overrides.items()]))


@pytest.mark.parametrize("name, extra", [
    *(pytest.param(name, {}, id=name) for name in (
        "t21_two_weight.cfg", "t24_commutator_2d.cfg", "t25_maximal_control.cfg",
        "t26_commutator_control.cfg", "sw101_power_weight.cfg", "cor_bh_maximal.cfg",
        "t29_vector_weight.cfg", "bh_domination.cfg")),
    pytest.param("bh_domination.cfg", {"dim": 2, "level_min": -2}, id="bh_domination.cfg-2d"),
])
def test_rows_do_not_depend_on_the_chunking(monkeypatch, name, extra):
    cfg = _config(name, trials=7, refinements="0,1", **extra)
    want = harness.run_experiment(cfg).rows
    for cells, sizes in ((1, [1] * 7), (3 * cfg.window.n_cells, [3, 3, 1]), (1 << 40, [7])):
        monkeypatch.setattr(harness, "_BATCH_CELLS", cells)
        assert [len(t) for t, *_ in harness._stage_chunks(cfg, cfg.window)] == sizes
        assert harness.run_experiment(cfg).rows == want, cells


# -- the batch guard ---------------------------------------------------------------------


_WIN = Window(1, -3, 0)
_Q0 = Cube(0, (0,))
_ONE = Weight.constant(_WIN, 1.0)
_HALF = LatticeFunction(_WIN, np.full(_WIN.shape, 0.5))
_T27 = build("T27", 1, 0.5, 4.0, 4.0, 2.2, 2.5, r1=2.0, r2=2.0)


_SINGLE = {
    "weak_morrey_functional": lambda F: weak_morrey_functional(F, _ONE, 1.5, 2.0, _Q0),
    "rhs_bilinear_morrey_from": lambda F: rhs_bilinear_morrey_from(
        F, F, _ONE, _ONE, 2.2, 4.0, 3.0, _Q0),
    "cz_decompose": lambda F: czd.cz_decompose(F, F, _Q0, 2.0, 2.0),
    "cz_decompose_alpha": lambda F: czd.cz_decompose_alpha(F, F, _Q0, 2.0, 2.0, 0.5),
    "verify_decomposition": lambda F: czd.verify_decomposition(
        czd.cz_decompose(_HALF, _HALF, _Q0, 2.0, 2.0), F, F, _WIN, 2.0, 2.0),
    "necessity_pair": lambda F: czd.necessity_pair(F, F, _Q0, _T27),
    "oscillation_ratio": lambda F: oscillation_ratio(F, 2.0),
    "Weight": lambda F: Weight(_WIN, F.values),
}


@pytest.mark.parametrize("name", sorted(_SINGLE))
def test_single_function_entry_points_refuse_a_batch(name):
    with pytest.raises(ValueError, match="batch"):
        _SINGLE[name](LatticeFunction(_WIN, np.stack([_HALF.values] * 2)))
    _SINGLE[name](_HALF)  # one entry of it is fine


def test_to_csv_refuses_a_batch(tmp_path):
    with pytest.raises(ValueError, match="batch"):
        to_csv(LatticeFunction(_WIN, np.ones((3, *_WIN.shape))), tmp_path / "f.csv")
    assert not (tmp_path / "f.csv").exists()


def test_lattice_function_shape_must_end_in_the_window_shape():
    with pytest.raises(ValueError):
        LatticeFunction(_WIN, np.ones((_WIN.cells_per_axis, 2)))
    assert LatticeFunction(_WIN, np.ones((2, 3, *_WIN.shape))).values.shape == (2, 3, 16)


# -- dilated means ------------------------------------------------------------------------


def test_dilated_cell_counts_are_clipped_outer_products():
    window = Window(2, -2, 0, origin_offset=(0, -2), top_count=3)
    # per axis 6 cubes of side 1/2: the two end cubes see 2 of their 3 neighbours
    axis = np.array([2, 3, 3, 3, 3, 2]) * 2.0
    counts = field._dilated_cell_counts(window, -1, (0, 0), 6)
    assert counts.dtype == float and np.array_equal(counts, np.outer(axis, axis))
    # the subcubes of one top cube, from offsets (2, 4): the second axis ends at the window edge
    assert np.array_equal(field._dilated_cell_counts(window, -1, (2, 4), 2),
                          np.outer(axis[2:4], axis[4:6]))
    assert np.array_equal(field._dilated_cell_counts(window, -2, (0, 0), 12),
                          oracles.dilated_sums(np.ones(window.shape), window, -2))
