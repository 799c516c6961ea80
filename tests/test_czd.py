import dataclasses
import json
import math

import numpy as np
import pytest

from morreylab import czd
from morreylab.czd import (
    cz_decompose,
    cz_decompose_alpha,
    decomposition_to_json,
    necessity_pair,
    verify_decomposition,
)
from morreylab.dyadic import Cube, Window
from morreylab.exponents import build
from morreylab.field import LatticeFunction, Weight
from morreylab.maximal import m_alpha_r
from morreylab.operators import CommutatorSpec, commutator_iterated
from morreylab.weights_norms import (
    WeightConditionKind,
    lemma39_check,
    morrey_norm,
    rhs_bilinear_morrey_from,
    two_weight_constant,
)

from conftest import assert_close, random_weight
from oracles import children, cube_contains_cube


def _co_spiked(window: Window, seed: int, strength: float = 1e5):
    """Pair with a shared spike cell inside [0, 1/2); drives nonempty forests."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.05, 0.5, window.shape)
    g = rng.uniform(0.05, 0.5, window.shape)
    c = window.cells_per_axis
    cell = int(rng.integers(c // 2, 3 * c // 4))  # offsets of [0, 1/2) in [-1, 1)
    f[cell] *= strength
    g[cell] *= strength
    return LatticeFunction(window, f), LatticeFunction(window, g)


def test_constant_inputs_give_no_stopping_cubes():
    w = Window(1, -5, 0)
    one = LatticeFunction.constant(w, 1.0)
    q0 = Cube(-1, (0,))
    d = cz_decompose(one, one, q0, 2.0, 2.0)
    assert_close(d.gamma, 1.0)
    assert_close(d.factor, 72.0)  # (4 * 18)^(1/2 + 1/2) in dimension 1
    assert d.levels == {}
    assert int(d.e0.sum()) == 16  # all cells of Q0
    assert verify_decomposition(d, one, one, w, 2.0, 2.0) == []


def test_zero_input_trivial_decomposition():
    w = Window(1, -4, 0)
    zero = LatticeFunction.constant(w, 0.0)
    one = LatticeFunction.constant(w, 1.0)
    d = cz_decompose(zero, one, Cube(-1, (0,)), 2.0, 2.0)
    assert d.gamma == 0.0 and d.levels == {}
    assert int(d.e0.sum()) == 8


def test_spike_produces_one_level_with_invariants():
    w = Window(1, -8, 0)
    q0 = Cube(-1, (0,))
    f, g = _co_spiked(w, 3)
    d = cz_decompose(f, g, q0, 2.0, 2.0)
    assert d.levels, "co-located spike should cross the first threshold"
    assert verify_decomposition(d, f, g, w, 2.0, 2.0) == []
    # stopping cubes nest under the base
    for cubes in d.levels.values():
        assert all(cube_contains_cube(q0, q) for q in cubes)


def test_two_level_forest_on_deep_window():
    w = Window(1, -14, 0)
    vals = np.full(w.shape, 0.01)
    vals[w.n_cells // 2 + 1234] = 1e6
    f = LatticeFunction(w, vals)
    d = cz_decompose(f, f, Cube(-1, (0,)), 2.0, 2.0)
    assert sorted(d.levels) == [1, 2]
    assert verify_decomposition(d, f, f, w, 2.0, 2.0) == []
    # level k+1 cubes each sit inside a level k cube
    for q2 in d.levels[2]:
        assert any(cube_contains_cube(q1, q2) for q1 in d.levels[1])


def _two_level_forest():
    """The two-level forest of test_two_level_forest_on_deep_window, for tampering."""
    w = Window(1, -14, 0)
    vals = np.full(w.shape, 0.01)
    vals[w.n_cells // 2 + 1234] = 1e6
    f = LatticeFunction(w, vals)
    d = cz_decompose(f, f, Cube(-1, (0,)), 2.0, 2.0)
    assert sorted(d.levels) == [1, 2]
    return w, f, d


def _violations(d, w, f) -> list[str]:
    return verify_decomposition(d, f, f, w, 2.0, 2.0)


def test_verify_reports_stopping_cubes_outside_q0():
    # The tables hold Q0's subtree only: a cube outside Q0 must be reported, not read
    # at a wrapped offset.  Mirrored about 0, a stopping cube of the forest over [0, 1/2)
    # lies in [-1/2, 0), where f has the mirrored spike.
    w = Window(1, -14, 0)
    vals = np.full(w.shape, 0.01)
    spike = w.n_cells // 2 + 1234
    vals[spike] = vals[w.n_cells - 1 - spike] = 1e6
    f = LatticeFunction(w, vals)
    d = cz_decompose(f, f, Cube(-1, (0,)), 2.0, 2.0)
    assert _violations(d, w, f) == [] and d.levels
    mirrored = tuple(Cube(q.level, (-1 - q.index[0],)) for q in d.levels[1])
    above = Cube(0, (0,))  # Q0's parent
    bad = dataclasses.replace(
        d, levels={**d.levels, 1: d.levels[1] + mirrored + (above,)},
        exceptional={**d.exceptional, 1: d.exceptional[1] + tuple(e[::-1] for e in d.exceptional[1])
                     + (np.ones(1 << 14, dtype=bool),)})
    assert _violations(bad, w, f) == [f"containment: level 1 cube {q} not inside Q0"
                                      for q in mirrored + (above,)]


def test_verify_reports_untiled_e0():
    w, f, d = _two_level_forest()
    assert _violations(d, w, f) == []
    e0 = d.e0.copy()
    e0[np.argmax(e0)] = False
    bad = _violations(dataclasses.replace(d, e0=e0), w, f)
    assert any("do not tile" in msg for msg in bad), bad


def test_verify_reports_overlapping_exceptional_sets():
    w, f, d = _two_level_forest()
    j = next(j for j, q1 in enumerate(d.levels[1])
             if any(cube_contains_cube(q1, q2) for q2 in d.levels[2]))
    level1 = list(d.exceptional[1])
    level1[j] = np.ones_like(level1[j])
    bad = _violations(dataclasses.replace(d, exceptional={**d.exceptional, 1: tuple(level1)}),
                      w, f)
    assert any("overlap" in msg for msg in bad), bad


def test_verify_reports_non_maximal_cube():
    w, f, d = _two_level_forest()
    child = children(d.levels[1][0])[0]
    cells = 1 << (child.level - w.level_min)
    tampered = dataclasses.replace(
        d, levels={**d.levels, 1: d.levels[1] + (child,)},
        exceptional={**d.exceptional, 1: d.exceptional[1] + (np.zeros(cells, dtype=bool),)})
    bad = _violations(tampered, w, f)
    assert any(msg.startswith("maximality") for msg in bad), bad


def test_verify_reports_raised_gamma_below_sandwich():
    w, f, d = _two_level_forest()
    bad = _violations(dataclasses.replace(d, gamma=2.0 * d.gamma), w, f)
    assert any(msg.startswith("sandwich lower") for msg in bad), bad


def test_verify_reports_shrunken_exceptional_set():
    w, f, d = _two_level_forest()
    level1 = list(d.exceptional[1])
    single = np.zeros_like(level1[0])
    single[np.argmax(level1[0])] = True
    level1[0] = single
    bad = _violations(dataclasses.replace(d, exceptional={**d.exceptional, 1: tuple(level1)}),
                      w, f)
    assert any(msg.startswith("measure") for msg in bad), bad


def test_verify_reports_an_e0_of_the_wrong_shape():
    # E0 of 3 cells on an 8-cell Q0 is a violation, not a failed broadcast
    w, q0 = Window(1, -3, 0), Cube(0, (0,))
    f = LatticeFunction(w, np.full(w.shape, 0.5))
    d = cz_decompose(f, f, q0, 2.0, 2.0)
    assert _violations(d, w, f) == []
    bad = _violations(dataclasses.replace(d, e0=np.ones(3, dtype=bool)), w, f)
    assert bad == [f"shape: E0 of {q0} has shape (3,), not (8,)"]


def test_verify_reports_an_exceptional_mask_of_the_wrong_shape():
    # One True cell broadcast over a 2-cell cube would cover it, and 2 <= 2 * 1 cells would
    # pass the measure check: the shape is checked before any mask is laid on Q0's cells
    w = Window(1, -9, 0)
    vals = np.full(w.shape, 0.01)
    vals[w.n_cells // 2 + 5] = 1e6
    f = LatticeFunction(w, vals)
    d = cz_decompose(f, f, Cube(-1, (0,)), 2.0, 2.0)
    q = d.levels[1][0]
    assert _violations(d, w, f) == [] and d.exceptional[1][0].tolist() == [True, True]
    level1 = (np.ones(1, dtype=bool),) + d.exceptional[1][1:]
    bad = _violations(dataclasses.replace(d, exceptional={1: level1}), w, f)
    assert bad == [f"shape: E of level 1 cube {q} has shape (1,), not (2,)"]


def _three_cube_forest():
    """A forest with three stopping cubes at k = 1, all of whose E masks are full."""
    w = Window(1, -9, 0)
    vals = np.ones(w.shape)
    vals[600] = 1e6
    f = LatticeFunction(w, vals)
    d = cz_decompose(f, f, Cube(-1, (0,)), 2.0, 2.0)
    assert list(d.levels) == [1] and len(d.levels[1]) == 3 and _violations(d, w, f) == []
    return w, f, d


def test_verify_reports_a_level_without_its_masks():
    # a missing exceptional entry is a violation, not a KeyError
    w, f, d = _three_cube_forest()
    bad = _violations(dataclasses.replace(d, exceptional={}), w, f)
    assert bad == ["shape: level 1 has 0 E masks for its 3 cubes"]


def test_verify_reports_a_mask_past_a_level_s_last_cube():
    # an extra all-False mask would be dropped by zip and pass every other check
    w, f, d = _three_cube_forest()
    extra = d.exceptional[1] + (np.zeros(2, dtype=bool),)
    bad = _violations(dataclasses.replace(d, exceptional={1: extra}), w, f)
    assert bad == ["shape: level 1 has 4 E masks for its 3 cubes"]


@pytest.mark.parametrize("change", [
    {"gamma": lambda d: d.gamma * 1e-3},
    {"factor": lambda d: 1e9},
    {"gamma": lambda d: 5.0},
], ids=["gamma-scaled", "factor-raised", "gamma-replaced"])
def test_verify_rechecks_the_thresholds_of_an_empty_forest(change):
    w = Window(1, -8, 0)
    one = LatticeFunction.constant(w, 1.0)
    d = cz_decompose(one, one, Cube(-1, (0,)), 2.0, 2.0)
    assert d.levels == {} and _violations(d, w, one) == []
    (key, new), = change.items()
    bad = _violations(dataclasses.replace(d, **{key: new(d)}), w, one)
    assert any(msg.startswith(f"threshold: {key}") for msg in bad), bad


def test_verify_reports_a_dropped_stopping_level():
    # without level 2, and with level 1's E-sets grown to whole cubes so they still tile,
    # the level-2 cubes above gamma A^2 lie in no level-2 stopping cube
    w, f, d = _two_level_forest()
    tampered = dataclasses.replace(
        d, levels={1: d.levels[1]},
        exceptional={1: tuple(np.ones_like(e) for e in d.exceptional[1])})
    bad = _violations(tampered, w, f)
    assert bad and all(msg.startswith("coverage: ") and "level-2" in msg for msg in bad), bad
    for q in d.levels[2]:
        assert any(msg.startswith(f"coverage: cube {q} ") for msg in bad), q


def _counting(monkeypatch, name: str) -> list:
    """The thresholds of every call to czd.<name> from now on."""
    calls, fn = [], getattr(czd, name)
    monkeypatch.setattr(czd, name, lambda *args: calls.append(args[-1]) or fn(*args))
    return calls


def _walked_levels(f, g, q0, t1, t2, alpha=None) -> dict:
    """The stopping levels of a walk at each threshold in turn that ends at the first
    threshold that stops no cube."""
    tables, = czd.functional_tables(f, g, q0, [(t1, t2, alpha)])
    sub = f.window.subtree(q0)
    gamma = czd._table_value(tables, sub, q0)
    factor = czd._threshold_factor(f.window.dim, t1, t2)
    levels, k = {}, 1
    while gamma != 0.0:
        cubes, _ = czd._maximal_cubes(tables, sub, gamma * factor ** k)
        if not cubes:
            break
        levels[k], k = tuple(cubes), k + 1
    return levels


def _forests():
    """(f, g, q0) with empty, one-level and multi-level forests, in 1-D and 2-D."""
    one = LatticeFunction.constant(Window(1, -8, 0), 1.0)
    yield one, one, Cube(-1, (0,))
    _, f, _ = _two_level_forest()
    yield f, f, Cube(-1, (0,))
    for seed in (3, 5, 81, 84):
        yield *_co_spiked(Window(1, -8, 0), seed), Cube(-1, (0,))
    w = Window(2, -5, 0)
    rng = np.random.default_rng(7)
    fv, gv = rng.uniform(0.05, 0.5, (2, *w.shape))
    fv[40, 37] *= 1e8
    gv[40, 37] *= 1e8
    yield LatticeFunction(w, fv), LatticeFunction(w, gv), Cube(-1, (0, 0))


@pytest.mark.parametrize("spec", [(2.0, 2.0, None), (1.5, 3.0, None), (2.0, 2.0, 0.1)],
                         ids=["cz", "cz-uneven", "cz_alpha"])
def test_a_forest_walks_one_threshold_per_stopping_level(monkeypatch, spec):
    # the walk ends at the first threshold that no table entry exceeds, the one that would
    # stop no cube, without walking it; so does the recheck's coverage scan
    t1, t2, alpha = spec
    depths = set()
    for f, g, q0 in _forests():
        walks = _counting(monkeypatch, "_maximal_cubes")
        scans = _counting(monkeypatch, "_uncovered")
        d = (cz_decompose(f, g, q0, t1, t2) if alpha is None else
             cz_decompose_alpha(f, g, q0, t1, t2, alpha))
        assert len(walks) == len(d.levels)
        assert verify_decomposition(d, f, g, f.window, t1, t2, alpha) == []
        assert len(scans) == len(d.levels)
        monkeypatch.undo()
        assert d.levels == _walked_levels(f, g, q0, t1, t2, alpha)
        depths.add(len(d.levels))
    assert {0, 1} <= depths and (alpha is not None or 2 in depths)


@pytest.mark.parametrize("tamper", [
    lambda d: dataclasses.replace(d, gamma=d.gamma * 1e-3),
    lambda d: dataclasses.replace(d, factor=2.0),
    lambda d: dataclasses.replace(
        d, levels={1: d.levels[1]},
        exceptional={1: tuple(np.ones_like(e) for e in d.exceptional[1])}),
    lambda d: d,
], ids=["gamma-scaled", "factor-lowered", "level-dropped", "as-built"])
def test_the_coverage_bound_keeps_every_violation(monkeypatch, tamper):
    # with the bound lifted, every threshold up to one past the last level is scanned
    w, f, d = _two_level_forest()
    d = tamper(d)
    bounded = _violations(d, w, f)
    monkeypatch.setattr(czd, "_top", lambda tables: math.inf)
    assert _violations(d, w, f) == bounded


def test_alpha_zero_reduces_to_plain_variant():
    w = Window(1, -8, 0)
    f, g = _co_spiked(w, 5)
    q0 = Cube(-1, (0,))
    a = cz_decompose(f, g, q0, 2.0, 2.0)
    b = cz_decompose_alpha(f, g, q0, 2.0, 2.0, 0.0)
    assert a.levels == b.levels
    assert np.array_equal(a.e0, b.e0)
    assert_close(a.gamma, b.gamma)
    assert_close(a.factor, b.factor)


def test_alpha_variant_unit_base_cube():
    # |Q0| = 1 and f = g = 1: every subcube has |Q|^(alpha/n) < 1, no levels
    w = Window(1, -5, 0)
    one = LatticeFunction.constant(w, 1.0)
    q0 = Cube(0, (0,))
    d = cz_decompose_alpha(one, one, q0, 2.0, 2.0, 0.7)
    assert_close(d.gamma, 1.0)
    assert d.levels == {}
    assert int(d.e0.sum()) == 32


def test_alpha_variant_invariants_on_spiky_inputs():
    w = Window(1, -8, 0)
    q0 = Cube(-1, (0,))
    hit = 0
    for seed in range(10):
        f, g = _co_spiked(w, 80 + seed)
        d = cz_decompose_alpha(f, g, q0, 2.0, 2.0, 0.1)
        assert verify_decomposition(d, f, g, w, 2.0, 2.0, alpha=0.1) == []
        hit += bool(d.levels)
    assert hit > 0


def test_holder_pair_required():
    w = Window(1, -3, 0)
    one = LatticeFunction.constant(w, 1.0)
    with pytest.raises(ValueError):
        cz_decompose_alpha(one, one, Cube(-1, (0,)), 2.0, 3.0, 0.5)
    with pytest.raises(ValueError):
        cz_decompose(one, one, Cube(-1, (0,)), 1.0, 2.0)


@pytest.mark.parametrize("decompose, args", [
    (cz_decompose, (math.nan, 2.0)), (cz_decompose, (2.0, math.nan)),
    (cz_decompose_alpha, (math.nan, 2.0, 0.5)), (cz_decompose_alpha, (2.0, math.nan, 0.5)),
    (cz_decompose_alpha, (0.0, 2.0, 0.5)), (cz_decompose_alpha, (-1.0, 0.5, 0.5)),
])
def test_nan_or_zero_parameters_fail_the_guards(decompose, args):
    # a nan compares false both ways, so each guard must ask for what holds, not what fails
    one = LatticeFunction.constant(Window(1, -3, 0), 1.0)
    with pytest.raises(ValueError, match="exceed 1|Holder pair"):
        decompose(one, one, Cube(-1, (0,)), *args)


_ONE = LatticeFunction.constant(Window(1, -3, 0), 1.0)
_FINER = LatticeFunction.constant(Window(1, -4, 0), 1.0)
_UNIT = Weight.constant(Window(1, -3, 0), 1.0)
_SHIFTED = Weight.constant(Window(1, -3, 0, origin_offset=(0,)), 1.0)  # same shape, moved
_F9 = LatticeFunction.constant(Window(1, -9, 0), 1.0)
_G9_SHIFTED = LatticeFunction.constant(Window(1, -9, 0, origin_offset=(0,)), 1.0)


def _verify_on(g, window):
    """verify_decomposition of f's forest over [0, 1/2), with g and window as given."""
    return verify_decomposition(cz_decompose(_F9, _F9, Cube(-1, (0,)), 2.0, 2.0), _F9, g, window,
                                2.0, 2.0)


@pytest.mark.parametrize("call", [
    lambda: cz_decompose(_ONE, _FINER, Cube(-1, (0,)), 2.0, 2.0),
    lambda: cz_decompose_alpha(_ONE, _FINER, Cube(-1, (0,)), 2.0, 2.0, 0.5),
    lambda: rhs_bilinear_morrey_from(_ONE, _ONE, _SHIFTED, _SHIFTED, 2.2, 4.0, 4.0,
                                     Cube(-1, (0,))),
    lambda: two_weight_constant(WeightConditionKind.C211, None, _SHIFTED, _SHIFTED,
                                build("T28", 1, 0.4, 4.0, 4.0, 2.2, 2.5, a=1.5, r1=2.0, r2=2.0),
                                _ONE.window),
    lambda: morrey_norm(_ONE, 2.0, 1.5, _SHIFTED),
    lambda: lemma39_check(_UNIT, _SHIFTED, 2.0, 2.0, 1.5),
    lambda: commutator_iterated(CommutatorSpec((_FINER,), (1,)), _ONE, _ONE, 0.5),
    lambda: _verify_on(_G9_SHIFTED, _F9.window),
    lambda: _verify_on(_F9, _G9_SHIFTED.window),
], ids=["cz", "cz_alpha", "rhs_from", "C211", "morrey_norm", "lemma39", "commutator_symbol",
        "verify_g", "verify_window"])
def test_inputs_must_share_a_window(call):
    with pytest.raises(ValueError, match="(same|given) window"):
        call()


def test_base_cube_must_be_inside():
    w = Window(1, -3, 0)
    one = LatticeFunction.constant(w, 1.0)
    with pytest.raises(ValueError):
        cz_decompose(one, one, Cube(-1, (7,)), 2.0, 2.0)


def test_json_export_shape(tmp_path):
    w = Window(1, -8, 0)
    f, g = _co_spiked(w, 9)
    d = cz_decompose(f, g, Cube(-1, (0,)), 2.0, 2.0)
    doc = decomposition_to_json(d, w)
    assert set(doc) >= {"gamma", "factor", "levels", "e_cells", "base", "window"}
    for entry in doc["levels"]:
        assert set(entry) == {"k", "cubes"}
        for cube in entry["cubes"]:
            assert set(cube) == {"level", "index", "e_cells"}
    text1 = json.dumps(doc, sort_keys=True)
    text2 = json.dumps(decomposition_to_json(
        cz_decompose(f, g, Cube(-1, (0,)), 2.0, 2.0), w), sort_keys=True)
    assert text1 == text2


def test_necessity_pair_unit_weights():
    w = Window(1, -4, 0)
    u = Weight.constant(w, 1.0)
    e = build("T27", 1, 0.4, 4.0, 4.0, 2.2, 2.5, r1=2.0, r2=2.0)
    qp = Cube(-2, (1,))
    f, g, lam = necessity_pair(u, u, qp, e)
    sl = w.cell_offsets_of_cube(qp)
    assert np.all(f.values[sl] == 1.0) and np.all(g.values[sl] == 1.0)
    outside = np.ones(w.shape, dtype=bool)
    outside[sl] = False
    assert np.all(f.values[outside] == 0.0)
    assert_close(lam, 0.5 * qp.volume ** 0.4)


def test_necessity_pair_two_valued_hand_lambda():
    w = Window(1, -1, 0, origin_offset=(0,), top_count=1)
    e = build("T27", 1, 0.4, 4.0, 4.0, 2.2, 2.5, r1=2.0, r2=2.0)
    w1 = Weight(w, np.array([1.0, 4.0]))
    w2 = Weight(w, np.array([2.0, 1.0]))
    qp = Cube(0, (0,))
    f, g, lam = necessity_pair(w1, w2, qp, e)
    # f = w1^(-q1/(q1-r1)) = w1^(-2), g = w2^(-2) on the cube
    assert np.allclose(f.values, [1.0, 4.0 ** -2.0])
    assert np.allclose(g.values, [2.0 ** -2.0, 1.0])
    mf = ((f.values ** 2).mean()) ** 0.5
    mg = ((g.values ** 2).mean()) ** 0.5
    assert_close(lam, 0.5 * mf * mg)


def test_necessity_pair_witnesses_maximal_lower_bound():
    w = Window(1, -4, 0)
    e = build("T27", 1, 0.4, 4.0, 4.0, 2.2, 2.5, r1=2.0, r2=2.0)
    w1 = random_weight(w, 21)
    w2 = random_weight(w, 22)
    qp = Cube(-2, (-1,))
    f, g, lam = necessity_pair(w1, w2, qp, e)
    big_m = m_alpha_r(f, g, e.alpha, (e.r1, e.r2), "dyadic")
    sl = w.cell_offsets_of_cube(qp)
    assert np.all(big_m.values[sl] >= 2.0 * lam * (1.0 - 1e-12))


def test_necessity_pair_rejects_degenerate_exponents():
    w = Window(1, -2, 0)
    u = Weight.constant(w, 1.0)
    e = build("T27", 1, 0.4, 2.0, 2.0, 1.2, 2.5, r1=2.0, r2=2.0)  # q_i = r_i
    with pytest.raises(ValueError):
        necessity_pair(u, u, Cube(-1, (0,)), e)


def test_stopping_times_refuse_an_infinite_exponent():
    # the tables of an infinite theta1 or r1 ignore f
    window = Window(1, -4, 0)
    f = LatticeFunction(window, np.linspace(0.1, 5.0, 32))
    q0 = Cube(0, (0,))
    with pytest.raises(ValueError, match="exceed 1 and be finite"):
        czd.cz_decompose(f, f, q0, math.inf, 2.0)
    with pytest.raises(ValueError, match="Holder pair"):
        czd.cz_decompose_alpha(f, f, q0, math.inf, 1.0, 0.5)
