"""The batch axis and the band-limited offset plan, bit for bit.

The offset plan of operators._correlation is checked against the padded
loop it replaced (oracles.correlation), and every function that takes a
batch of inputs against one call per batch entry.  Both comparisons are on
the bit patterns (.view(np.int64)), on 1-D to 3-D windows with shifted
origins, 1-3 top cubes per axis and a spike of up to 1e8; the correlation
also on inputs whose batch shapes differ and broadcast.  The plan itself is
the kernel averages of the cells with a band and the bands per axis, never
one entry per kernel cell, and a bound on its traced bytes checks that.  The
harness's stage chunks must give the same rows however the trials are split,
and the functions that take one lattice function must refuse a batch.
"""

import itertools
import tracemalloc
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
def windows(draw):
    """1-D windows of up to 96 cells, 2-D ones of up to 12^2 and 3-D ones of up to 6^3,
    top_count 1-3, shifted origins."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(0, (5, 2, 1)[dim - 1]))
    return Window(dim, -depth, 0, top_count=draw(st.integers(1, 3)),
                  origin_offset=tuple(draw(st.integers(-3, 2)) for _ in range(dim)))


@st.composite
def batches(draw):
    """(window, values of shape (B, *window.shape), rng): a window as drawn by windows(),
    B = 1..5, and one cell of one batch entry spiked by up to 1e8."""
    window = draw(windows())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = rng.uniform(0.0, 2.0, (draw(st.integers(1, 5)), *window.shape))
    at = (draw(st.integers(0, len(vals) - 1)),
          *(draw(st.integers(0, window.cells_per_axis - 1)) for _ in range(window.dim)))
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


def _plan(alpha, window):
    return operators._offset_plan(alpha, window.dim, window.cells_per_axis, window.level_min,
                                  DEPTH)


def test_plan_is_a_bounded_lru():
    offset_plan = operators._offset_plan
    offset_plan.cache_clear()
    size = offset_plan.cache_info().maxsize
    assert size == 8
    win = Window(2, -2, 0)
    first = _plan(0.5, win)
    kept = _plan(0.25, win)
    for i in range(2 * size):
        if i % 2:
            _plan(0.5 + 0.01 * i, win)
        else:
            _plan(0.5, Window(2, -2 - i // 2 % 2, 0, origin_offset=(i, 0), top_count=1 + i % 3))
        assert _plan(0.25, win) is kept  # used every time: never evicted
        assert offset_plan.cache_info().currsize <= size
    assert offset_plan.cache_info().currsize == size
    again = _plan(0.5, win)
    assert again is not first  # evicted, so rebuilt
    assert np.array_equal(again[0], first[0]) and again[1] == first[1]  # the same kernel and bands
    assert _plan(0.5, win) is again


def test_plan_is_shared_by_translated_windows():
    win = Window(2, -2, 0, origin_offset=(3, -5), top_count=1)
    assert _plan(0.5, win) is _plan(0.5, Window(2, -2, 0, origin_offset=(0, 0), top_count=1))
    assert _plan(0.5, win) is not _plan(0.5, Window(2, -2, 0))


def test_plan_holds_per_axis_bands_not_one_entry_per_kernel_cell():
    # a 128^2 plan once held one tuple of slices per kernel cell: 4.2 MB traced, 32 times
    # its kernel block
    win = Window(2, -6, 0)
    _plan(0.5, win)  # the kernel quadrature's geometry is cached outside the trace
    operators._offset_plan.cache_clear()
    tracemalloc.start()
    try:
        _plan(0.5, win)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2 * win.n_cells * np.dtype(float).itemsize, held


def test_plan_leaves_out_empty_bands():
    # c = 4 cells: every kernel cell of the centred block -2..1 has x - y and x + y
    # both inside for some x, wherever the window sits
    win = Window(1, -2, 0, origin_offset=(0,), top_count=1)
    block = Window(1, -2, -2, origin_offset=(-2,), top_count=4)
    want = operators.kernel_cell_averages(0.5, block, DEPTH)

    def kept(window):  # the kernel values of the plan, each with a non-empty band per axis
        kern, bands = _plan(0.5, window)
        assert len(bands) == len(kern) and all(o.start < o.stop for o, _, _ in bands)
        return kern

    assert np.array_equal(kept(win), want)
    # c = 3 cells (the same block): no x has both samples inside for kernel cells -2 and 1
    three = Window(1, -2, -2, origin_offset=(5,), top_count=3)
    assert np.array_equal(kept(three), want[1:3])
    assert kept(Window(1, 0, 0, origin_offset=(0,), top_count=1)).size == 0
    assert kept(Window(2, -2, 0)).shape == (8, 8)


# -- batched against one call per entry ---------------------------------------------


# (f, g, symbols) batch shapes: _correlation broadcasts them to one batch before it
# takes products in place, so a smaller input never meets a larger output operand
MIXED = [
    ((), (3,), ()),  # unbatched f with batched g
    ((3,), (), ((),)),  # batched f with unbatched g and symbol
    ((3,), (3,), ((),)),  # batched f and g with an unbatched symbol
    ((3,), (3,), ((3,), ())),
    ((), (), ((3,),)),  # unbatched f and g with batched symbols
    ((), (), ((3,), (3,))),
    ((2, 3), (3,), ()),  # batch (2, 3) against (3,)
    ((3,), (2, 3), ((2, 1), ())),
]


@settings(max_examples=80, deadline=None)
@given(windows(), st.sampled_from(MIXED), st.sampled_from([0.3, 0.9]),
       st.integers(0, 2 ** 32 - 1))
def test_mixed_batch_shapes_match_per_entry(window, shapes, frac, seed):
    rng = np.random.default_rng(seed)
    f_batch, g_batch, b_batches = shapes
    f, g = (LatticeFunction(window, rng.uniform(0.0, 2.0, (*b, *window.shape)))
            for b in (f_batch, g_batch))
    bs = [LatticeFunction(window, rng.uniform(-1.0, 1.0, (*b, *window.shape))) for b in b_batches]
    slots = tuple(int(s) for s in rng.integers(1, 3, len(bs)))
    alpha = frac * window.dim

    def op(*args):
        if not bs:
            return bilinear_fractional(*args, alpha, DEPTH)
        return commutator_iterated(CommutatorSpec(args[2:], slots), *args[:2], alpha, DEPTH)

    batch = np.broadcast_shapes(f_batch, g_batch, *b_batches)
    got = op(f, g, *bs).values
    assert got.shape == (*batch, *window.shape)
    full = [np.broadcast_to(x.values, got.shape) for x in (f, g, *bs)]
    for i in np.ndindex(batch):
        assert_bitwise(got[i], op(*(LatticeFunction(window, v[i]) for v in full)).values)


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
    for cells, sizes in ((1, [1] * 7), (3 * cfg.window.n_cells, [3, 4]), (1 << 40, [7])):
        monkeypatch.setattr(harness, "_BATCH_CELLS", cells)
        assert [len(t) for t, *_ in harness._stage_chunks(cfg, cfg.window)] == sizes
        assert harness.run_experiment(cfg).rows == want, cells


def test_t27_takes_its_rhs_once_per_chunk(monkeypatch):
    # 3 stages of one chunk of random trials and the extremal chunk: one call each, where a
    # call per trial made 36
    calls, honest = [], harness.rhs_bilinear_morrey_from

    def counted(f, *args):
        calls.append(len(f.values))
        return honest(f, *args)

    monkeypatch.setattr(harness, "rhs_bilinear_morrey_from", counted)
    cfg = _config("t27_weak_type.cfg")
    assert len(harness.run_experiment(cfg).rows) == 3 * cfg.trials
    assert calls == [cfg.trials - 1, 1] * 3


def test_deep_2d_commutator_rows_do_not_depend_on_the_chunking(monkeypatch):
    # the shape of the quadrature_2d benchmark: T24 on 16^2 then 32^2 cells, 20 trials, whose
    # 32^2 stage (16 trials' worth of cells) runs as one chunk of 20
    cfg = _config("t22_two_weight.cfg", experiment="T24", dim=2, level_min=-3, trials=20,
                  refinements="0,1")
    fine = cfg.window_at(1)
    assert fine.n_cells == 32 ** 2
    assert [len(t) for t, *_ in harness._stage_chunks(cfg, fine)] == [20]
    want = harness.run_experiment(cfg).rows
    monkeypatch.setattr(harness, "_BATCH_CELLS", 1)
    assert harness.run_experiment(cfg).rows == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.sampled_from([1, 2]), st.integers(0, 2), st.integers(0, 1),
       st.integers(1, 2048))
def test_stage_chunks_fold_the_runt_into_the_chunk_before(n_trials, dim, depth, stage, cells):
    cfg = harness.config_from_pairs([("experiment", "JN"), ("dim", str(dim)),
                                     ("level_min", str(-depth * (3 - dim))),
                                     ("trials", str(n_trials))])
    window = cfg.window_at(stage)
    per = max(1, cells // window.n_cells)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_BATCH_CELLS", cells)
        chunks = list(harness._stage_chunks(cfg, window))
    trials = [t for t, *_ in chunks]
    assert [i for t in trials for i in t] == list(range(n_trials))
    assert all(f.values.shape == g.values.shape == (len(t), *window.shape)
               for t, _, (f, g) in chunks)
    sizes = [len(t) for t in trials]
    assert all(size == per for size in sizes[:-1])
    # a runt under half a chunk joined the chunk before it
    assert len(sizes) == 1 or 2 * sizes[-1] >= per
    assert all(size == 1 or size * window.n_cells <= 1.5 * cells for size in sizes)


# -- the run's table of draws ------------------------------------------------------------


def _count_draws(monkeypatch) -> list:
    """The streams of every harness._rng call from now on, the draw table emptied first."""
    calls, rng = [], harness._rng
    monkeypatch.setattr(harness, "_rng",
                        lambda seed, *streams: calls.append(streams) or rng(seed, *streams))
    harness._draw_table.cache_clear()
    return calls


@pytest.mark.parametrize("name, streams", [("t26_commutator_control.cfg", (1, 2)),
                                           ("t27_weak_type.cfg", (1,)),
                                           ("jn_oscillation.cfg", (3,))])
def test_a_run_draws_each_trial_once(monkeypatch, name, streams):
    # three stages draw each random trial's streams once; T27_necessity's extremal pair
    # takes the last trial slot and JN's log symbol trial 0, and neither draws anything
    cfg = _config(name, refinements="0,1,2")
    calls = _count_draws(monkeypatch)
    harness.run_experiment(cfg)
    drawn = {"T27_necessity": range(cfg.trials - 1), "JN": range(1, cfg.trials)}.get(
        cfg.experiment, range(cfg.trials))
    assert sorted(calls) == [(s, t) for s in streams for t in drawn]


@pytest.mark.parametrize("name, extra", [
    *(pytest.param(name, {}, id=name) for name in (
        "t26_commutator_control.cfg", "t27_weak_type.cfg", "czd_decompose.cfg",
        "t24_commutator_2d.cfg", "jn_oscillation.cfg", "jn_oscillation_2d.cfg")),
    # CZ_INV's table passes take chunks of four 64^2 trials at stage 0
    pytest.param("czd_decompose.cfg", {"dim": 2, "level_min": -5, "q0_index": "0,0"},
                 id="czd_decompose.cfg-2d"),
])
def test_reports_do_not_depend_on_the_draw_table(monkeypatch, tmp_path, name, extra):
    cfg = _config(name, trials=7, refinements="0,1", **extra)
    # JN draws one symbol per trial, the others f, g and their symbols
    arrays = 1 if cfg.experiment == "JN" else 2 + cfg.params.get("n_symbols", 0)
    trial_cells = arrays * cfg.window.n_cells
    assert 7 * trial_cells <= harness._DRAW_CELLS  # the default table keeps every trial

    def emitted(stem: str) -> list[bytes]:
        csv, js = harness.emit_report(harness.run_experiment(cfg), tmp_path / stem)
        return [Path(csv).read_bytes(), Path(js).read_bytes()]

    want = emitted("default")
    # no table, a table of the first random trial alone; one chunk, then chunks of 3 trials at stage 0
    for batch in (harness._BATCH_CELLS, 3 * cfg.window.n_cells):
        monkeypatch.setattr(harness, "_BATCH_CELLS", batch)
        for cells in (0, trial_cells):
            monkeypatch.setattr(harness, "_DRAW_CELLS", cells)
            assert emitted(f"{batch}_{cells}") == want, (batch, cells)


def test_the_draw_table_stays_within_its_bound(monkeypatch):
    # 100 trials of two 64^2 arrays: the table keeps the first 8 (2^16 cells), read-only,
    # and the chunks of both stages hold every trial's draws, prolonged
    cfg = _config("czd_decompose.cfg", dim=2, level_min=-5, q0_index="0,0", trials=100)
    tables, table_of = [], harness._draw_table
    monkeypatch.setattr(harness, "_draw_table",
                        lambda *key: tables.append(table_of(*key)) or tables[-1])
    base = cfg.window
    for stage in (0, 1):
        window = cfg.window_at(stage)
        for trials, _, (f, g) in harness._stage_chunks(cfg, window):
            for i, trial in enumerate(trials):
                for x, drawn in zip((f, g), harness._drawn(cfg.seed, base, trial)):
                    assert np.array_equal(x.values[i],
                                          field.expand_level(drawn, window, base.level_min))
    assert [t.shape for t in tables] == [(2, 8, 64, 64)] * 2
    assert tables[0] is tables[1]
    assert tables[0].size <= harness._DRAW_CELLS and not tables[0].flags.writeable
    with pytest.raises(ValueError):
        tables[0][0, 0, 0, 0] = 1.0


def test_back_to_back_runs_get_their_own_draws():
    overrides = [{}, {"seed": 601}, {"level_min": -4}, {"dim": 2, "level_min": -3}]
    want = []
    for extra in overrides:
        harness._draw_table.cache_clear()
        want.append(harness.run_experiment(_config("t25_maximal_control.cfg", trials=5,
                                                   **extra)).rows)
    assert all(a != b for i, a in enumerate(want) for b in want[i + 1:])
    # a fresh config per run, so no run can be told from another by the identity of its
    # config
    for extra, rows in [*zip(overrides, want), *zip(overrides, want)]:
        assert harness.run_experiment(_config("t25_maximal_control.cfg", trials=5,
                                              **extra)).rows == rows


# -- the batch guard ---------------------------------------------------------------------


_WIN = Window(1, -3, 0)
_Q0 = Cube(0, (0,))
_ONE = Weight.constant(_WIN, 1.0)
_HALF = LatticeFunction(_WIN, np.full(_WIN.shape, 0.5))
_T27 = build("T27", 1, 0.5, 4.0, 4.0, 2.2, 2.5, r1=2.0, r2=2.0)


_SINGLE = {
    "weak_morrey_functional": lambda F: weak_morrey_functional(F, _ONE, 1.5, 2.0, _Q0),
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


def test_entry_is_its_batch_entry_read_in_place():
    window = Window(2, -2, 0, origin_offset=(0, -2), top_count=3)
    values = np.random.default_rng(5).uniform(-2.0, 2.0, (3, *window.shape))
    batch = LatticeFunction(window, values)
    for i in range(3):
        entry, alone = batch.entry(i), LatticeFunction(window, values[i])
        assert type(entry) is LatticeFunction and entry.window == window
        assert entry.values.tobytes() == alone.values.tobytes()
        assert entry.values.shape == window.shape and not entry.values.flags.writeable
        assert np.shares_memory(entry.values, batch.values)
    nested = LatticeFunction(window, values.reshape(3, 1, *window.shape)).entry(2)
    assert nested.values.shape == (1, *window.shape)
    with pytest.raises(IndexError):
        batch.entry(3)


@pytest.mark.parametrize("one", [_HALF, _ONE], ids=["function", "weight"])
def test_entry_refuses_one_function(one):
    with pytest.raises(ValueError, match="batch"):
        one.entry(0)


# -- dilated means ------------------------------------------------------------------------


def test_dilated_plan_counts_are_the_sums_over_ones():
    window = Window(2, -2, 0, origin_offset=(0, -2), top_count=3)
    # per axis 6 cubes of side 1/2: the two end cubes see 2 of their 3 neighbours
    axis = np.array([2, 3, 3, 3, 3, 2]) * 2.0
    ones = np.ones(window.shape)
    assert np.array_equal(oracles.dilated_sums(ones, window, -1), np.outer(axis, axis))
    for at in itertools.product(range(window.index_count(0)), repeat=2):
        q0 = Cube(0, tuple(a + x for a, x in zip(window.index_lo(0), at)))
        plan = field._dilated_plan(window, q0)
        assert plan.counts.dtype == float
        rest = plan.counts.copy()
        for level, _, _, _, out in plan.levels:
            k = 1 << (q0.level - level)
            inside = tuple(slice(x * k, x * k + k) for x in at)
            assert np.array_equal(plan.counts[out],
                                  oracles.dilated_sums(ones, window, level)[inside])
            rest[out] = 1.0
        assert np.all(rest == 1.0)  # the cells that no level reads hold 1.0


@st.composite
def dilated_cases(draw, max_dim=3, max_batch=3):
    """(window, q0, values of shape (B, *window.shape)): dim 1-3, level span 0-4 in 1-D,
    0-3 in 2-D and 0-2 in 3-D, shifted origins, top_count 1-3, Q0 of any level at any
    position (the window's first and last cube per axis drawn as often as the rest
    together), B = 1..3, values of either sign with one cell spiked by up to 1e8; dim and B
    up to max_dim and max_batch."""
    dim = draw(st.integers(1, max_dim))
    top = draw(st.integers(-1, 1))
    window = Window(dim, top - draw(st.integers(0, 5 - dim)), top,
                    origin_offset=tuple(draw(st.integers(-2, 1)) for _ in range(dim)),
                    top_count=draw(st.integers(1, 3)))
    level = draw(st.integers(window.level_min, window.level_max))
    c = window.index_count(level)
    q0 = Cube(level, tuple(lo + draw(st.sampled_from((0, c - 1)) | st.integers(0, c - 1))
                           for lo in window.index_lo(level)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = rng.uniform(-1.0, 3.0, (draw(st.integers(1, max_batch)), *window.shape))
    vals[(0, *(int(rng.integers(0, window.cells_per_axis)) for _ in range(dim)))] *= \
        10.0 ** draw(st.floats(0.0, 8.0))
    return window, q0, vals


@settings(max_examples=200, deadline=None)
@given(dilated_cases())
def test_dilated_means_match_the_whole_window_oracle(case):
    window, q0, vals = case
    got = field.dilated_means(vals[field._dilated_plan(window, q0).frame], window, q0)
    assert list(got) == list(range(window.level_min, q0.level + 1))
    for level, means in got.items():
        k = 1 << (q0.level - level)
        inside = tuple(slice(m * k - a, m * k - a + k)
                       for m, a in zip(q0.index, window.index_lo(level)))
        assert means.shape == (len(vals),) + (k,) * window.dim
        assert_bitwise(means, [oracles.dilated_means(v, window, level)[inside] for v in vals])


@settings(max_examples=150, deadline=None)
@given(dilated_cases(max_dim=2, max_batch=4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(2.2, 4.0, 3.0), (1.5, 2.0, 2.0), (3.6, 1.2, 5.0)]))
def test_batched_rhs_from_q0_matches_per_entry(case, seed, pq):
    # T27's right-hand side, one call per chunk: each entry's powers go on its own indexed
    # mean, so each sup keeps the bits of its unbatched call
    window, q0, fv = case
    rng = np.random.default_rng(seed)
    g = LatticeFunction(window, rng.uniform(0.0, 2.0, fv.shape))
    w1, w2 = (Weight(window, rng.uniform(0.2, 3.0, window.shape)) for _ in range(2))
    got = rhs_bilinear_morrey_from(LatticeFunction(window, fv), g, w1, w2, *pq, q0)
    want = [rhs_bilinear_morrey_from(a, b, w1, w2, *pq, q0)
            for a, b in zip(_entries(LatticeFunction(window, fv)), _entries(g))]
    assert got.shape == fv.shape[:1] and all(type(x) is float for x in want)
    assert_bitwise(got, want)


# (t1, t2, alpha) with alpha in (0, 1): a volume factor inside (0, n) in 1-D and 2-D
_TABLE_SPECS = ((2.0, 2.0, None), (1.5, 3.0, 0.2), (3.0, 1.5, None), (1.25, 5.0, 0.7),
                (1.5, 3.0, None), (2.0, 2.0, 0.4))


@settings(max_examples=150, deadline=None)
@given(dilated_cases(max_dim=2, max_batch=4), st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(_TABLE_SPECS), min_size=1, max_size=3))
def test_batched_functional_tables_match_the_per_entry_calls(case, seed, specs):
    window, q0, fv = case
    gv = np.random.default_rng(seed).uniform(0.0, 2.0, fv.shape)
    got = czd.functional_tables(LatticeFunction(window, fv), LatticeFunction(window, gv), q0,
                                specs)
    want = [czd.functional_tables(LatticeFunction(window, a), LatticeFunction(window, b), q0,
                                  specs) for a, b in zip(fv, gv)]
    assert len(got) == len(specs)
    for s, tables in enumerate(got):
        assert list(tables) == list(range(window.level_min, q0.level + 1))
        for level, table in tables.items():
            assert table.shape == (len(fv),) + (1 << (q0.level - level),) * window.dim
            assert_bitwise(table, [entry[s][level] for entry in want])


def test_dilated_plan_is_a_bounded_lru():
    plan = field._dilated_plan
    plan.cache_clear()
    size = plan.cache_info().maxsize
    assert size == 8
    win = Window(2, -3, 0)
    q0 = Cube(-1, (0, -1))
    vals = np.random.default_rng(5).uniform(0.0, 2.0, (2, *win.shape))
    first = plan(win, q0)
    first_means = field.dilated_means(vals[first.frame], win, q0)
    kept = plan(win, Cube(0, (-1, -1)))
    # keyed on (window, q0): an equal key hits, another cube or window misses
    assert plan(Window(2, -3, 0, origin_offset=(-1, -1), top_count=2), Cube(-1, (0, -1))) is first
    assert plan(win, Cube(-1, (-1, 0))) is not first
    assert plan(Window(2, -2, 0), q0) is not first
    for i in range(2 * size):
        if i % 2:
            plan(win, Cube(-3, (i - 8, 0)))
        else:
            plan(Window(2, -3 - i // 2 % 2, 0, origin_offset=(i, 0), top_count=1 + i % 3),
                 Cube(0, (i, 0)))
        assert plan(win, Cube(0, (-1, -1))) is kept  # used every time: never evicted
        assert plan.cache_info().currsize <= size
    assert plan.cache_info().currsize == size
    again = plan(win, q0)
    assert again is not first  # evicted, so rebuilt
    assert again[:2] == first[:2] and np.array_equal(again.counts, first.counts)
    assert plan(win, q0) is again
    with pytest.raises(ValueError):  # geometry only, and read-only
        again.counts[0, 0] = 0.0
    means = field.dilated_means(vals[again.frame], win, q0)
    assert list(means) == list(first_means)
    for level in means:
        assert_bitwise(means[level], first_means[level])
