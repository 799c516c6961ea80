"""Differential tests: every block-reduction path against per-cube enumeration.

The library evaluates its cube and cube-pair sups one level at a time with
block reductions (field.level_means, level_max, level_power_means,
dilated_means).  Each test here recomputes the same quantity cube by cube
with the enumeration helpers of tests/oracles.py (all_cubes, nested_pairs,
power_avg, dilate3)
on windows of both dimensions, every level span 0..3, shifted origins and
1-3 top cubes per axis, with spiky data; the level folds (level_sup and
pointwise_level_sup) of the block reductions and the weight constants of
every kind draw such windows and values with Hypothesis.  The czd oracle is the per-cube
functional and stack walk the decompositions used before they were
rebuilt on per-level tables.  dilated_means and the czd tables cover one
cube's subtree only; they must equal a slice of the whole-window
oracles.dilated_means and oracles.functional_tables bit for bit.  The
tables take each product once on dilated_means' canvas; each level's slice
must equal the product taken on that level's views alone, bit for bit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.czd import (
    cz_decompose,
    cz_decompose_alpha,
    decomposition_to_json,
    functional_tables,
    verify_decomposition,
)
from morreylab.dyadic import Cube, Window, ancestors
from morreylab.exponents import build
from morreylab.field import (
    LatticeFunction,
    Weight,
    _dilated_plan,
    bmo_norm,
    dilated_means,
    level_max,
    level_means,
    level_power_means,
    level_sup,
    pointwise_level_sup,
    telescoping_defect,
)
from morreylab.harness import _decompose, config_from_pairs
from morreylab.weights_norms import (
    WeightConditionKind,
    rhs_bilinear_morrey_from,
    two_weight_constant,
)

import oracles
from oracles import (all_cubes, children, cube_box, cube_contains_cube, cubes_at_level, dilate3,
                     nested_pairs, power_avg)
from test_weights_norms import _e_t21, _e_t22, _e_t27, _e_t28

K = WeightConditionKind
TOL = 1e-12


def _windows(dim: int, count: int, seed: int) -> list[Window]:
    """Seeded windows: level span 0..3, origin_offset in [-2, 1]^dim, top_count 1..3."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        span = i % 4
        top = int(rng.integers(-1, 2))
        out.append(Window(dim, top - span, top,
                          origin_offset=tuple(int(v) for v in rng.integers(-2, 2, dim)),
                          top_count=int(rng.integers(1, 4))))
    return out


WINDOWS = _windows(1, 8, 1) + _windows(2, 8, 2)


def _spiky(window: Window, seed: int, lo=0.2, hi=3.0) -> np.ndarray:
    """Uniform values with a few cells scaled up or down by 10^1..10^3."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(lo, hi, window.shape)
    for _ in range(int(rng.integers(1, 4))):
        cell = tuple(int(rng.integers(0, window.cells_per_axis)) for _ in range(window.dim))
        vals[cell] *= 10.0 ** (rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0))
    return vals


@st.composite
def drawn_windows(draw) -> Window:
    """The windows of _windows, drawn: dim 1-2, level span 0..3, origin_offset in [-2, 1]^dim,
    top_count 1..3."""
    dim, span, top = draw(st.integers(1, 2)), draw(st.integers(0, 3)), draw(st.integers(-1, 1))
    return Window(dim, top - span, top, origin_offset=tuple(draw(st.integers(-2, 1)) for _ in range(dim)),
                  top_count=draw(st.integers(1, 3)))


def _at(window: Window, q: Cube) -> tuple[int, ...]:
    return tuple(m - a for m, a in zip(q.index, window.index_lo(q.level)))


def _in(q0: Cube, q: Cube) -> tuple[int, ...]:
    """The offsets of q inside q0, from q0's first subcube of q's level."""
    return tuple(m - (a << (q0.level - q.level)) for m, a in zip(q.index, q0.index))


def _top(window: Window, q: Cube) -> Cube:
    """The top-level window cube that contains q."""
    return Cube(window.level_max, tuple(m >> (window.level_max - q.level) for m in q.index))


def _frame(window: Window, q0: Cube) -> tuple:
    """The cells that dilated_means reads for the cubes inside q0: 3Q0 clipped to the window."""
    return _dilated_plan(window, q0).frame


def _assert_rel(got: float, want: float, msg=""):
    assert abs(got - want) <= TOL * abs(want), f"{got} != {want} {msg}"


# -- field block reductions ------------------------------------------------------------


@pytest.mark.parametrize("window", WINDOWS, ids=repr)
def test_block_reductions_match_per_cube_averages(window):
    f = LatticeFunction(window, _spiky(window, 11))
    tops = list(cubes_at_level(window, window.level_max))
    for level in window.levels():
        mx = level_max(f.values, window, level)
        pm = level_power_means(f.values, window, level, 2.5)
        dm = {(e, top): dilated_means(f.values[_frame(window, top)] ** e, window, top)[level]
              ** (1.0 / e) for e in (1.0, 2.5) for top in tops}
        for q in cubes_at_level(window, level):
            at = _at(window, q)
            top = _top(window, q)
            assert mx[at] == power_avg(f, cube_box(q), math.inf)
            _assert_rel(pm[at], power_avg(f, cube_box(q), 2.5), str(q))
            for e in (1.0, 2.5):
                _assert_rel(dm[e, top][_in(top, q)], power_avg(f, dilate3(q), e), f"3Q {q} e={e}")
        for coarser in range(level + 1, window.level_max + 1):
            stepped = level_max(mx, window, coarser)
            assert np.array_equal(stepped, level_max(f.values, window, coarser))


@settings(max_examples=40, deadline=None)
@given(window=drawn_windows(), seed=st.integers(0, 2 ** 32 - 1),
       e=st.sampled_from((0.5, 1.0, 2.5, math.inf)))
def test_level_folds_match_per_cube_oracles(window, seed, e):
    """level_sup and pointwise_level_sup of level_means, level_max and level_power_means
    against the sup of oracles.power_avg over every window cube (and, per cell, over the
    cubes that contain it), on drawn windows with spiky values."""
    f = LatticeFunction(window, _spiky(window, seed))
    tables = ((1.0, lambda level: level_means(f.values, window, level)),
              (math.inf, lambda level: level_max(f.values, window, level)),
              (e, lambda level: level_power_means(f.values, window, level, e)))
    for exponent, table in tables:
        best, pointwise = 0.0, np.zeros(window.shape)
        for q in all_cubes(window):
            value = power_avg(f, cube_box(q), exponent)
            best = max(best, value)
            cells = window.cell_offsets_of_cube(q)
            pointwise[cells] = np.maximum(pointwise[cells], value)
        _assert_rel(level_sup(window, table), best, f"e={exponent}")
        got = pointwise_level_sup(window, table)
        assert np.all(np.abs(got - pointwise) <= TOL * pointwise), f"e={exponent}"


# -- weights_norms ------------------------------------------------------------------


_KIND_SETS = ((K.C22, lambda: _e_t21(True)), (K.C23, lambda: _e_t21(False)),
              (K.C24, _e_t22), (K.C27, _e_t27), (K.C29, _e_t28), (K.CBH, _e_t28),
              (K.C211, _e_t28))


@pytest.mark.parametrize("kind, maker", _KIND_SETS, ids=[kind.value for kind, _ in _KIND_SETS])
@settings(max_examples=40, deadline=None)
@given(window=drawn_windows(), seed=st.integers(0, 2 ** 32 - 1))
def test_every_weight_kind_matches_brute_force(kind, maker, window, seed):
    assert {kind for kind, _ in _KIND_SETS} == set(K)
    v, w1, w2 = (Weight(window, _spiky(window, [seed, i])) for i in range(3))
    e = maker()
    got = two_weight_constant(kind, v, w1, w2, e, window)
    _assert_rel(got, oracles.weight_constant(kind, v, w1, w2, e, window), kind.value)


@pytest.mark.parametrize("window", WINDOWS[::3], ids=repr)
def test_sup_conventions_match_brute_force(window):
    # C23 at t = 1 takes max_Q v; C27 at q_i = r_i takes max_{Q'} 1/w_i
    v, w1, w2 = (Weight(window, _spiky(window, 30 + i)) for i in range(3))
    n = window.dim
    e23 = build("T21", 1, 0.5, 1.2, 1.2, 1.6, 4.0, a=1.1)
    e27 = build("T27", 1, 0.4, 2.0, 2.0, 1.2, 2.5, r1=2.0, r2=2.0)
    best23 = best27 = 0.0
    for q, qp in nested_pairs(window):
        slq = window.cell_offsets_of_cube(q)
        slp = window.cell_offsets_of_cube(qp)
        ratio = 2.0 ** ((q.level - qp.level) * n)
        best23 = max(best23, ratio ** ((1 - e23.a * e23.s) / (e23.a * e23.s))
                     * qp.volume ** (1 / e23.r) * v.values[slq].max()
                     * _dual(w1.values[slp], e23.q1 / e23.a)
                     * _dual(w2.values[slp], e23.q2 / e23.a))
        best27 = max(best27, ratio ** (1 / e27.s) * qp.volume ** (1 / e27.r)
                     * (v.values[slq] ** e27.t).mean() ** (1 / e27.t)
                     / w1.values[slp].min() / w2.values[slp].min())
    _assert_rel(two_weight_constant(K.C23, v, w1, w2, e23, window), best23, "C23 t=1")
    _assert_rel(two_weight_constant(K.C27, v, w1, w2, e27, window), best27, "C27 q=r")


def _dual(cells: np.ndarray, x: float) -> float:
    """(mean cells^(-x'))^(1/x') with x' the Holder conjugate of x."""
    d = x / (x - 1.0)
    return float((cells ** -d).mean()) ** (1.0 / d)


@pytest.mark.parametrize("window", WINDOWS, ids=repr)
def test_rhs_from_matches_ancestor_enumeration(window):
    f = LatticeFunction(window, _spiky(window, 40))
    g = LatticeFunction(window, _spiky(window, 41))
    w1 = Weight(window, _spiky(window, 42))
    w2 = Weight(window, _spiky(window, 43))
    fw = LatticeFunction(window, np.abs(f.values) * w1.values)
    gw = LatticeFunction(window, np.abs(g.values) * w2.values)
    for level in window.levels():
        cubes = list(cubes_at_level(window, level))
        q0 = cubes[(7 * level) % len(cubes)]
        want = max(q.volume ** (1.0 / 2.2) * power_avg(fw, cube_box(q), 4.0)
                   * power_avg(gw, cube_box(q), 3.0) for q in [q0, *ancestors(q0, window)])
        got = rhs_bilinear_morrey_from(f, g, w1, w2, 2.2, 4.0, 3.0, q0)
        _assert_rel(got, want, str(q0))


# -- maximal and harness ------------------------------------------------------------


@pytest.mark.parametrize("window", WINDOWS, ids=repr)
def test_telescoping_defect_matches_pair_enumeration(window):
    # the bound always holds, so the defect is 0; with a zero norm it is the
    # largest gap between nested cube means, which tests every pair
    b = LatticeFunction(window, np.log(_spiky(window, 60)))
    for norm in (bmo_norm(b), 0.0):
        worst = 0.0
        for q, qp in nested_pairs(window):
            k = qp.level - q.level
            if k:
                mq = float(b.values[window.cell_offsets_of_cube(q)].mean())
                mqp = float(b.values[window.cell_offsets_of_cube(qp)].mean())
                worst = max(worst, abs(mq - mqp) - k * (2.0 ** window.dim) * norm)
        assert abs(telescoping_defect(b, norm) - worst) <= TOL * max(1.0, abs(worst))
        assert (worst > 0.0) == (norm == 0.0 and window.level_min < window.level_max)


# -- czd: the per-cube functional and stack walk as the oracle ------------------------


def _oracle_dilated_slices(window: Window, q: Cube) -> tuple[slice, ...]:
    b = 1 << (q.level - window.level_min)
    c = window.cells_per_axis
    return tuple(slice(max((m - 1) * b - a, 0), min((m + 2) * b - a, c))
                 for m, a in zip(q.index, window.cell_index_lo))


def _oracle_functional(f, g, t1, t2, alpha=None):
    window = f.window
    pf = np.abs(f.values) ** t1
    pg = np.abs(g.values) ** t2

    def value(q: Cube) -> float:
        sl = _oracle_dilated_slices(window, q)
        val = float(pf[sl].mean()) ** (1.0 / t1) * float(pg[sl].mean()) ** (1.0 / t2)
        return val if alpha is None else q.volume ** (alpha / window.dim) * val

    return value


def _oracle_levels(functional, window: Window, q0: Cube, factor: float) -> dict:
    gamma = functional(q0)
    if gamma == 0.0:
        return {}
    levels = {}
    cap = max(1, window.level_max - window.level_min) * 64
    k = 1
    while True:
        threshold = gamma * factor ** k
        out, stack = [], [q0]
        while stack:
            q = stack.pop()
            if functional(q) > threshold:
                out.append(q)
            elif q.level > window.level_min:
                stack.extend(reversed(children(q)))
        if not out:
            return levels
        levels[k] = tuple(sorted(out, key=lambda q: (q.level, q.index)))
        if k >= cap:
            return levels
        k += 1


@pytest.mark.parametrize("window", WINDOWS, ids=repr)
def test_functional_tables_match_per_cube_functional(window):
    f = LatticeFunction(window, _spiky(window, 70, lo=0.0))
    g = LatticeFunction(window, _spiky(window, 71))
    for t1, t2, alpha in ((2.0, 2.0, None), (1.5, 3.0, 0.7)):
        oracle = _oracle_functional(f, g, t1, t2, alpha)
        for top in cubes_at_level(window, window.level_max):
            tables, = functional_tables(f, g, top, [(t1, t2, alpha)])
            for q in all_cubes(window):
                if cube_contains_cube(top, q):
                    _assert_rel(float(tables[q.level][_in(top, q)]), oracle(q), str(q))


def _q0_slice(table: np.ndarray, window: Window, q0: Cube, level: int) -> np.ndarray:
    """The entries of a whole-window table of one level that belong to the cubes inside q0."""
    k = 1 << (q0.level - level)
    return table[tuple(slice(m * k - a, m * k - a + k)
                       for m, a in zip(q0.index, window.index_lo(level)))]


@pytest.mark.parametrize("window", WINDOWS, ids=repr)
def test_q0_local_tables_are_slices_of_the_whole_window_oracle(window):
    # Every Q0, window corners and edges included: the frame cubes outside the window add 0.0.
    f = LatticeFunction(window, _spiky(window, 72, lo=0.0))
    g = LatticeFunction(window, _spiky(window, 73))
    pair = np.stack((f.values, g.values))
    whole = {level: [oracles.dilated_means(v, window, level) for v in pair]
             for level in window.levels()}
    keys = [(t1, t2, alpha) for t1, t2 in ((2.0, 2.0), (1.5, 3.0)) for alpha in (None, 0.7)]
    whole_tables = {key: oracles.functional_tables(f, g, *key) for key in keys}
    for q0 in all_cubes(window):
        subtree = range(window.level_min, q0.level + 1)
        all_means = dilated_means(pair[_frame(window, q0)], window, q0)
        assert list(all_means) == list(subtree)
        for level, means in all_means.items():
            for i in range(2):
                assert np.array_equal(means[i], _q0_slice(whole[level][i], window, q0, level))
        # all four specs from one pass: each table as the oracle's of its spec alone
        for key, tables in zip(keys, functional_tables(f, g, q0, keys)):
            assert list(tables) == list(subtree)
            for level, table in tables.items():
                assert np.array_equal(table, _q0_slice(whole_tables[key][level], window, q0, level))


@st.composite
def _canvas_cases(draw):
    """A window of dim 1-3 (level span 0..3, 0..2 in 3-D), shifted origin, top_count 1..3
    (1..2 in 3-D), and a window cube q0 of any of its levels."""
    dim = draw(st.integers(1, 3))
    span, top = draw(st.integers(0, 3 if dim < 3 else 2)), draw(st.integers(-1, 1))
    window = Window(dim, top - span, top,
                    origin_offset=tuple(draw(st.integers(-2, 1)) for _ in range(dim)),
                    top_count=draw(st.integers(1, 3 if dim < 3 else 2)))
    level = draw(st.integers(window.level_min, window.level_max))
    return window, draw(st.sampled_from(list(cubes_at_level(window, level))))


@settings(max_examples=60, deadline=None)
@given(case=_canvas_cases(), batch=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       t1=st.sampled_from((4 / 3, 1.5, 2.0, 3.0)), t2=st.sampled_from((4 / 3, 1.5, 2.0, 3.0)),
       alpha=st.sampled_from((None, 0.05, 0.4)))
def test_canvas_products_match_the_per_level_products(case, batch, seed, t1, t2, alpha):
    """functional_tables forms each product once on the whole canvas; each level's slice is
    bit for bit the product taken on that level's dilated_means views alone.  t = 4/3, 1.5
    and 3 run numpy's vector power loop, t = 2 its sqrt path."""
    window, q0 = case
    n = window.dim
    rng = np.random.default_rng(seed)
    f, g = (LatticeFunction(window, rng.uniform(-3.0, 3.0, (batch, *window.shape))
                            * 10.0 ** rng.integers(-3, 4, (batch, *window.shape)))
            for _ in range(2))
    frame = _frame(window, q0)
    means = dilated_means(np.stack([np.abs(f.values[frame]) ** t1,
                                    np.abs(g.values[frame]) ** t2]), window, q0)
    tables, = functional_tables(f, g, q0, [(t1, t2, alpha)])
    assert list(tables) == list(means)
    for level, m in means.items():
        want = m[0] ** (1.0 / t1) * m[1] ** (1.0 / t2)
        if alpha is not None:
            want = (2.0 ** (level * n)) ** (alpha / n) * want
        assert tables[level].shape == want.shape == (batch,) + (1 << (q0.level - level),) * n
        assert tables[level].tobytes() == want.tobytes(), level


def _co_spiked(window: Window, q0: Cube, seed: int, spikes: int):
    """Uniform pair with co-located spikes inside q0, which drive nonempty forests."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.05, 1.0, window.shape)
    g = rng.uniform(0.05, 1.0, window.shape)
    sl = window.cell_offsets_of_cube(q0)
    for _ in range(spikes):
        cell = tuple(int(rng.integers(s.start, s.stop)) for s in sl)
        size = 10.0 ** rng.uniform(4.0, 6.0)
        f[cell] *= size
        g[cell] *= size
    return LatticeFunction(window, f), LatticeFunction(window, g)


# A cube can stop only if 3Q0 holds more than 4 * 18^n times the cells of 3Q,
# whatever the exponents, so 2-D forests need a 128 x 128 window and a
# second forest level needs 3Q0 of more than 3 * 72^2 cells in 1-D.
_FOREST_CASES = (
    (Window(1, -14, 0), Cube(-1, (0,)), 1),
    (Window(1, -9, 0), Cube(0, (0,)), 4),
    (Window(1, -9, 0), Cube(-2, (-3,)), 4),
    (Window(1, -8, -1, origin_offset=(-2,), top_count=3), Cube(-1, (-1,)), 4),
    (Window(2, -6, 0), Cube(0, (-1, 0)), 1),
)


@pytest.mark.parametrize("window,q0,trials", _FOREST_CASES, ids=repr)
def test_forests_match_stack_walk(window, q0, trials):
    nonempty = 0
    for seed in range(trials):
        f, g = _co_spiked(window, q0, 80 + seed, spikes=1 + seed)
        for t1, t2, alpha in ((2.0, 2.0, None), (1.5, 3.0, 0.2)):
            if alpha is None:
                d = cz_decompose(f, g, q0, t1, t2)
            else:
                d = cz_decompose_alpha(f, g, q0, t1, t2, alpha)
            oracle = _oracle_functional(f, g, t1, t2, alpha)
            assert d.levels == _oracle_levels(oracle, window, q0, d.factor)
            _assert_rel(d.gamma, oracle(q0))
            assert verify_decomposition(d, f, g, window, t1, t2, alpha=alpha) == []
            nonempty += bool(d.levels)
    assert nonempty


# CZ_INV's shared table pass against the one-kind path.  Only theta != r tells r's power
# planes from theta's, and every shipped config has theta = r.  The volume factor of a small
# alpha lets its forest stop too.  A second forest level needs |3Q0| / |3Q| above
# (4 * 18^n)^2, about 1.7e6 cells in 2-D, so the 2-D forests have one level.
_SHARED_CASES = (
    (Window(1, -14, 0), Cube(0, (0,)), 2),
    (Window(2, -6, 0), Cube(0, (-1, 0)), 1),
)


@pytest.mark.parametrize("theta, r", [((2.0, 2.0), (2.0, 2.0)), ((1.5, 3.0), (3.0, 1.5))])
@pytest.mark.parametrize("window,q0,levels", _SHARED_CASES, ids=repr)
def test_shared_table_pass_matches_the_one_kind_path(window, q0, levels, theta, r):
    alpha = 0.05
    f, g = _co_spiked(window, q0, 80, spikes=1)
    cfg = config_from_pairs([("experiment", "CZ_INV"), ("dim", str(window.dim)),
                             ("theta1", str(theta[0])), ("theta2", str(theta[1])),
                             ("r1", str(r[0])), ("r2", str(r[1])), ("alpha", str(alpha))])
    shared, = _decompose(cfg, ("cz", "cz_alpha"),
                         *(LatticeFunction(window, x.values[None]) for x in (f, g)), q0)
    one_kind = (cz_decompose(f, g, q0, *theta), cz_decompose_alpha(f, g, q0, *r, alpha))
    for (d, msgs), one, spec in zip(shared, one_kind, ((*theta, None), (*r, alpha))):
        assert len(d.levels) >= levels
        assert (d.levels, d.gamma, d.factor, d.cap_hit) == \
            (one.levels, one.gamma, one.factor, one.cap_hit)
        assert np.array_equal(d.e0, one.e0)
        assert d.exceptional.keys() == one.exceptional.keys()
        for k, masks in one.exceptional.items():
            assert all(np.array_equal(a, b) for a, b in zip(d.exceptional[k], masks, strict=True))
        assert msgs == verify_decomposition(one, f, g, window, *spec) == []


# -- czd: exceptional cell sets as frozensets of index tuples, the oracle of the masks -----


def _oracle_cells_of_cube(window: Window, q: Cube) -> frozenset:
    b = 1 << (q.level - window.level_min)
    return frozenset(itertools.product(*(range(m * b, (m + 1) * b) for m in q.index)))


def _assert_json_cells_match_frozensets(d, window: Window):
    """E_0 and every E_j^k of the JSON view against frozenset differences of the cubes."""
    by_level = {k: frozenset().union(*(_oracle_cells_of_cube(window, q) for q in cubes))
                for k, cubes in d.levels.items()}
    e0 = _oracle_cells_of_cube(window, d.base) - by_level.get(1, frozenset())
    levels = [[sorted(list(c) for c in _oracle_cells_of_cube(window, q)
                      - by_level.get(k + 1, frozenset()))
               for q in d.levels[k]]
              for k in sorted(d.levels)]
    view = decomposition_to_json(d, window)
    assert view["e_cells"] == sorted(list(c) for c in e0)
    assert [[c["e_cells"] for c in lv["cubes"]] for lv in view["levels"]] == levels


@pytest.mark.parametrize("window,q0,trials", _FOREST_CASES, ids=repr)
def test_exceptional_masks_match_frozenset_cells(window, q0, trials):
    zero = LatticeFunction(window, np.zeros(window.shape))
    for seed in range(trials):
        f, g = _co_spiked(window, q0, 80 + seed, spikes=1 + seed)
        for d in (cz_decompose(f, g, q0, 2.0, 2.0),
                  cz_decompose_alpha(f, g, q0, 1.5, 3.0, 0.2),
                  cz_decompose(zero, g, q0, 2.0, 2.0)):
            _assert_json_cells_match_frozensets(d, window)


def test_mixed_level_forest_matches_oracles():
    # Two unequal spikes stop at different dyadic levels for the same k.
    window, q0 = Window(1, -12, 0), Cube(-1, (0,))
    vals = np.full(window.shape, 0.01)
    vals[window.n_cells // 2 + 100] = 1e4
    vals[window.n_cells // 2 + 1500] = 3e3
    f = LatticeFunction(window, vals)
    d = cz_decompose(f, f, q0, 2.0, 2.0)
    assert len({q.level for q in d.levels[1]}) == 2
    assert d.levels == _oracle_levels(_oracle_functional(f, f, 2.0, 2.0), window, q0, d.factor)
    _assert_json_cells_match_frozensets(d, window)
    assert verify_decomposition(d, f, f, window, 2.0, 2.0) == []
