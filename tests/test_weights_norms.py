import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.dyadic import Cube, Window
from morreylab.exponents import INF, build, conjugate
from morreylab.field import LatticeFunction, Weight, power_weight
from morreylab.weights_norms import (
    WeightConditionKind,
    ap_constant,
    lemma39_check,
    morrey_norm,
    rhs_bilinear_morrey,
    rhs_bilinear_morrey_from,
    two_weight_constant,
    weak_morrey_functional,
)

from conftest import assert_close, random_lattice, random_weight
from oracles import (
    all_cubes,
    from_callable,
    indicator,
    nested_pairs,
    weak_functional,
    weight_constant,
)

K = WeightConditionKind


def _refine(vals: np.ndarray, times: int) -> np.ndarray:
    out = vals
    for ax in range(vals.ndim):
        out = np.repeat(out, 1 << times, axis=ax)
    return out


# -- Morrey norms -----------------------------------------------------------------


def test_morrey_constant_unit_top_cube():
    w = Window(1, -2, 0, origin_offset=(0,), top_count=1)
    one = LatticeFunction.constant(w, 1.0)
    for p in (1.0, 2.0, 5.0):
        assert_close(morrey_norm(one, p, p), 1.0)


def test_morrey_half_indicator_hand_value():
    w = Window(1, -1, 0, origin_offset=(0,), top_count=1)
    chi = indicator(w, ((0.0,), (0.5,)))
    # attained both at [0,1/2) (value 1/2 * 1) and [0,1) (1 * 1/2)
    assert_close(morrey_norm(chi, 1.0, 1.0), 0.5)


def test_morrey_rejects_q_above_p(sym_window):
    f = LatticeFunction.constant(sym_window, 1.0)
    with pytest.raises(ValueError):
        morrey_norm(f, 1.0, 2.0)


def test_morrey_monotone_under_window_growth():
    coarse = Window(1, -2, 0)
    fine = Window(1, -4, 0)
    f0 = random_lattice(coarse, 3)
    f1 = LatticeFunction(fine, _refine(f0.values, 2))
    assert morrey_norm(f1, 2.0, 1.5) >= morrey_norm(f0, 2.0, 1.5) - 1e-12


def test_morrey_matches_exhaustive_oracle():
    w = Window(2, -1, 0)
    f = random_lattice(w, 4)
    wt = random_weight(w, 5)
    p, q = 2.5, 1.5
    best = 0.0
    for cube in all_cubes(w):
        sl = w.cell_offsets_of_cube(cube)
        best = max(best, cube.volume ** (1 / p)
                   * ((np.abs(f.values[sl]) ** q * wt.values[sl]).mean()) ** (1 / q))
    assert_close(morrey_norm(f, p, q, w=wt), best)


def test_rhs_bilinear_trivial():
    w = Window(1, -2, 0, origin_offset=(0,), top_count=1)
    one = LatticeFunction.constant(w, 1.0)
    u = Weight.constant(w, 1.0)
    assert_close(rhs_bilinear_morrey(one, one, u, u, 2.0, 3.0, 3.0), 1.0)


def test_rhs_bilinear_homogeneous(sym_window):
    f = random_lattice(sym_window, 6)
    g = random_lattice(sym_window, 7)
    u = random_weight(sym_window, 8)
    base = rhs_bilinear_morrey(f, g, u, u, 2.0, 3.0, 3.0)
    scaled = rhs_bilinear_morrey(LatticeFunction(sym_window, 4.0 * f.values), g, u, u, 2.0, 3.0, 3.0)
    assert_close(scaled, 4.0 * base)


def test_rhs_bilinear_matches_oracle():
    w = Window(1, -1, 0)
    f = random_lattice(w, 9)
    g = random_lattice(w, 10)
    w1 = random_weight(w, 11)
    w2 = random_weight(w, 12)
    p, q1, q2 = 1.8, 3.0, 4.0
    best = 0.0
    for cube in all_cubes(w):
        sl = w.cell_offsets_of_cube(cube)
        best = max(best, cube.volume ** (1 / p)
                   * ((np.abs(f.values[sl]) * w1.values[sl]) ** q1).mean() ** (1 / q1)
                   * ((np.abs(g.values[sl]) * w2.values[sl]) ** q2).mean() ** (1 / q2))
    assert_close(rhs_bilinear_morrey(f, g, w1, w2, p, q1, q2), best)


def test_rhs_from_cube_restricts_to_ancestors():
    w = Window(1, -2, 0)
    f = random_lattice(w, 13)
    g = random_lattice(w, 14)
    u = Weight.constant(w, 1.0)
    q0 = Cube(-2, (1,))
    val = rhs_bilinear_morrey_from(f, g, u, u, 2.0, 3.0, 3.0, q0)
    best = 0.0
    for cube in [q0, Cube(-1, (0,)), Cube(0, (0,))]:
        sl = w.cell_offsets_of_cube(cube)
        best = max(best, cube.volume ** 0.5
                   * (np.abs(f.values[sl]) ** 3).mean() ** (1 / 3)
                   * (np.abs(g.values[sl]) ** 3).mean() ** (1 / 3))
    assert_close(val, best)


# -- weak-type functional -----------------------------------------------------------


def test_weak_functional_constant_level_set():
    w = Window(1, -1, 0, origin_offset=(0,), top_count=1)
    F = LatticeFunction.constant(w, 3.0)
    v = Weight.constant(w, 1.0)
    q0 = Cube(0, (0,))
    t, s = 2.0, 4.0
    assert_close(weak_morrey_functional(F, v, t, s, q0), 3.0 * 1.0 ** (1.0 / s))


def test_weak_functional_two_values_hand_max():
    w = Window(1, -1, 0, origin_offset=(0,), top_count=1)
    a, b = 1.0, 5.0
    F = LatticeFunction(w, np.array([a, b]))
    v = Weight.constant(w, 1.0)
    q0 = Cube(0, (0,))
    t, s = 2.0, 2.0
    # thresholds just below a (mass 1) and just below b (mass 1/2)
    expect = max(a * 1.0 ** (1 / t), b * 0.5 ** (1 / t))
    assert_close(weak_morrey_functional(F, v, t, s, q0), expect)


def test_weak_functional_scales_linearly():
    w = Window(1, -2, 0)
    F = random_lattice(w, 15)
    v = random_weight(w, 16)
    q0 = Cube(0, (-1,))
    base = weak_morrey_functional(F, v, 1.5, 3.0, q0)
    scaled = weak_morrey_functional(LatticeFunction(w, 7.0 * F.values), v, 1.5, 3.0, q0)
    assert_close(scaled, 7.0 * base)


def test_weak_dominated_by_strong_chebyshev():
    w = Window(1, -3, 0)
    q0 = Cube(0, (0,))
    for seed in range(10):
        F = random_lattice(w, 30 + seed)
        v = random_weight(w, 60 + seed)
        t, s = 1.7, 4.0
        weak = weak_morrey_functional(F, v, t, s, q0)
        sl = w.cell_offsets_of_cube(q0)
        strong = q0.volume ** (1.0 / s) \
            * ((F.values[sl] * v.values[sl]) ** t).mean() ** (1.0 / t)
        assert weak <= strong * (1.0 + 1e-12)


@st.composite
def weak_cases(draw):
    """(F, v, t, s, q0) on a 1-D or 2-D window with a shifted origin: F takes each cell from a
    pool of 1-5 values (so values repeat) that may hold 0.0, -0.0 and negatives."""
    dim = draw(st.integers(1, 2))
    depth = draw(st.integers(0, (4, 2)[dim - 1]))
    window = Window(dim, -depth, 0, top_count=draw(st.integers(1, 2)),
                    origin_offset=tuple(draw(st.integers(-3, 2)) for _ in range(dim)))
    pool = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1.0]),
                                   st.floats(-5.0, 1e6, allow_nan=False)), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    F = LatticeFunction(window, np.array(pool)[rng.integers(0, len(pool), window.shape)])
    v = Weight(window, rng.uniform(0.1, 3.0, window.shape))
    level = draw(st.integers(window.level_min, window.level_max))
    q0 = Cube(level, tuple(a + draw(st.integers(0, window.index_count(level) - 1))
                           for a in window.index_lo(level)))
    t, s = draw(st.sampled_from([0.5, 1.0, 1.7, 3.0])), draw(st.sampled_from([1.0, 2.0, 4.5]))
    return F, v, t, s, q0


@settings(max_examples=150, deadline=None)
@given(weak_cases())
def test_weak_functional_matches_every_cell_threshold_bitwise(case):
    # the distinct values are enough: a repeated threshold gives the same mask and sum
    F, v, t, s, q0 = case
    assert weak_morrey_functional(F, v, t, s, q0).hex() == weak_functional(F, v, t, s, q0).hex()


# -- two-weight constants ------------------------------------------------------------


def _e_t21(s_small: bool):
    if s_small:
        return build("T21", 1, 0.5, 1.2, 1.2, 0.7, 3.0, a=1.1)
    return build("T21", 1, 0.5, 1.2, 1.2, 1.0, 4.0, a=1.1)


def _e_t22():
    return build("T22", 1, 0.5, 3.0, 3.0, 1.5, INF, a=2.0, r1=2.0, r2=2.0)


def _e_t27():
    return build("T27", 1, 0.4, 4.0, 4.0, 2.2, 2.5, r1=2.0, r2=2.0)


def _e_t28():
    return build("T28", 1, 0.4, 4.0, 4.0, 2.2, 2.5, a=1.5, r1=2.0, r2=2.0)


def test_unit_weights_c211_is_one(sym_window):
    u = Weight.constant(sym_window, 1.0)
    assert_close(two_weight_constant(K.C211, None, u, u, _e_t28(), sym_window), 1.0)


def test_unit_weights_pair_kinds_are_volume_powers(sym_window):
    u = Weight.constant(sym_window, 1.0)
    n = sym_window.dim
    for kind, e in ((K.C22, _e_t21(True)), (K.C23, _e_t21(False)), (K.C24, _e_t22()),
                    (K.C27, _e_t27()), (K.C29, _e_t28()), (K.CBH, _e_t28())):
        got = two_weight_constant(kind, u, u, u, e, sym_window)
        if kind is K.C22:
            rexp = (1 - e.s) / (e.a * e.s)
        elif kind is K.C23:
            rexp = (1 - e.a * e.s) / (e.a * e.s)
        elif kind is K.C24:
            rexp = 1 / (e.a * e.s)
        else:
            rexp = 1 / e.s
        best = 0.0
        for q, qp in nested_pairs(sym_window):
            term = (2.0 ** ((q.level - qp.level) * n)) ** rexp
            if kind is not K.CBH:
                term *= qp.volume ** (0.0 if e.r == INF else 1.0 / e.r)
            best = max(best, term)
        assert_close(got, best, msg=kind.value)


def test_c27_two_cube_hand_value():
    # single-level window: only the two diagonal pairs contribute
    w = Window(1, -1, -1, origin_offset=(0,), top_count=2)
    e = _e_t27()
    v = Weight(w, np.array([2.0, 0.5]))
    w1 = Weight(w, np.array([1.0, 4.0]))
    w2 = Weight(w, np.array([3.0, 1.0]))
    d = e.r1 * conjugate(e.q1 / e.r1)  # = 2 * 2 = 4

    def term(i):
        return (0.5 ** (1 / e.r)) * v.values[i] * w1.values[i] ** -1.0 * w2.values[i] ** -1.0

    # on a one-cell cube each power average collapses to the cell value
    expect = max(term(0), term(1))
    got = two_weight_constant(K.C27, v, w1, w2, e, w)
    assert_close(got, expect)
    assert d == 4.0


def test_c27_sup_convention_when_q_equals_r():
    w = Window(1, -1, 0, origin_offset=(0,), top_count=1)
    e = build("T27", 1, 0.4, 2.0, 2.0, 1.2, 2.5, r1=2.0, r2=2.0)  # q_i = r_i
    v = Weight.constant(w, 1.0)
    w1 = Weight(w, np.array([0.5, 2.0]))
    w2 = Weight.constant(w, 1.0)
    got = two_weight_constant(K.C27, v, w1, w2, e, w)
    best = 0.0
    for q, qp in nested_pairs(w):
        sl = w.cell_offsets_of_cube(qp)
        term = (2.0 ** (q.level - qp.level)) ** (1 / e.s) * qp.volume ** (1 / e.r) \
            * (1.0 / w1.values[sl].min())
        best = max(best, term)
    assert_close(got, best)


def test_t1_sup_convention_in_c23():
    # t = 1 triggers the max-of-v convention in the t <= 1 kinds
    e = build("T21", 1, 0.5, 1.2, 1.2, 1.6, 4.0, a=1.1)
    assert_close(e.t, 1.0)
    w = Window(1, -1, 0, origin_offset=(0,), top_count=1)
    v = Weight(w, np.array([0.5, 3.0]))
    u = Weight.constant(w, 1.0)
    got = two_weight_constant(K.C23, v, u, u, e, w)
    best = 0.0
    for q, qp in nested_pairs(w):
        sl = w.cell_offsets_of_cube(q)
        term = (2.0 ** (q.level - qp.level)) ** ((1 - e.a * e.s) / (e.a * e.s)) \
            * qp.volume ** (1 / e.r) * v.values[sl].max()
        best = max(best, term)
    assert_close(got, best)


@pytest.mark.parametrize("kind,maker", [
    (K.C22, lambda: _e_t21(True)),
    (K.C23, lambda: _e_t21(False)),
    (K.C24, _e_t22),
    (K.C27, _e_t27),
    (K.C29, _e_t28),
    (K.CBH, _e_t28),
    (K.C211, _e_t28),
])
def test_pair_constants_match_brute_force(kind, maker):
    w = Window(1, -2, 0)
    e = maker()
    for seed in range(5):
        v = random_weight(w, 200 + seed)
        w1 = random_weight(w, 300 + seed)
        w2 = random_weight(w, 400 + seed)
        got = two_weight_constant(kind, v, w1, w2, e, w)
        brute = weight_constant(kind, v, w1, w2, e, w)
        assert_close(got, brute, msg=kind.value)


def test_pair_constant_monotone_under_window_growth():
    coarse = Window(1, -2, 0)
    fine = Window(1, -3, 0)
    for kind, maker in ((K.C22, lambda: _e_t21(True)), (K.C24, _e_t22),
                        (K.C27, _e_t27), (K.C29, _e_t28), (K.CBH, _e_t28),
                        (K.C211, _e_t28)):
        e = maker()
        v0, w10, w20 = (random_weight(coarse, 500 + i) for i in range(3))
        v1 = Weight(fine, _refine(v0.values, 1))
        w11 = Weight(fine, _refine(w10.values, 1))
        w21 = Weight(fine, _refine(w20.values, 1))
        c0 = two_weight_constant(kind, v0, w10, w20, e, coarse)
        c1 = two_weight_constant(kind, v1, w11, w21, e, fine)
        assert c1 >= c0 - 1e-12, kind.value


def test_power_weight_stability_c29():
    # power weights with mild exponents: constant stable within x2 across windows
    e = _e_t28()
    vals = []
    for lmin in (-4, -6):
        w = Window(1, lmin, 0)
        v = power_weight(-0.1, w)
        w1 = power_weight(0.1, w)
        w2 = power_weight(0.1, w)
        vals.append(two_weight_constant(K.C29, v, w1, w2, e, w))
    assert vals[1] <= 2.0 * vals[0]
    assert vals[0] <= 2.0 * vals[1]


def test_kind_preconditions():
    w = Window(1, -1, 0)
    u = Weight.constant(w, 1.0)
    with pytest.raises(ValueError):
        two_weight_constant(K.C22, u, u, u, _e_t21(False), w)  # s >= 1
    with pytest.raises(ValueError):
        two_weight_constant(K.C24, u, u, u, _e_t21(True), w)  # t <= 1
    with pytest.raises(ValueError):
        two_weight_constant(K.C27, None, u, u, _e_t27(), w)  # v required
    with pytest.raises(ValueError, match="s>=1"):
        two_weight_constant(K.C23, u, u, u, _e_t21(True), w)  # s < 1
    with pytest.raises(ValueError, match="a required"):
        two_weight_constant(K.C211, None, u, u, dataclasses.replace(_e_t28(), a=None), w)


def test_each_kind_takes_only_sets_of_its_regime():
    assert {kind: kind.regime for kind in K} == {
        K.C22: "T21", K.C23: "T21", K.C24: "T22", K.C27: "T27",
        K.C29: "T28", K.C211: "T28", K.CBH: "T28"}
    w = Window(1, -1, 0)
    u = Weight.constant(w, 1.0)
    for kind in K:
        for e in (_e_t21(True), _e_t21(False), _e_t22(), _e_t27(), _e_t28()):
            if e.regime != kind.regime:
                with pytest.raises(ValueError, match=f"needs a {kind.regime} exponent set"):
                    two_weight_constant(kind, u, u, u, e, w)


# -- Muckenhoupt / reverse-Holder ----------------------------------------------------


def test_ap_constant_unit(sym_window):
    assert_close(ap_constant(Weight.constant(sym_window, 1.0), 2.0), 1.0)


def test_ap_half_power_stable():
    vals = []
    for lmin in (-4, -6, -8):
        w = Window(1, lmin, 0)
        vals.append(ap_constant(power_weight(0.5, w), 2.0))
    assert vals[2] < 2.0 * vals[0]
    assert all(math.isfinite(v) for v in vals)


def test_ap_inverse_square_diverges():
    # |x|^(-2) sampled at centers: the A_2 product blows up as the window refines
    vals = []
    for lmin in (-4, -6, -8):
        w = Window(1, lmin, 0)
        wt = Weight(w, from_callable(w, lambda x: abs(x) ** -2.0).values)
        vals.append(ap_constant(wt, 2.0))
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 4.0 * vals[1] > 16.0 * vals[0]


def test_ap_requires_p_above_one(sym_window):
    with pytest.raises(ValueError):
        ap_constant(Weight.constant(sym_window, 1.0), 1.0)


def test_lemma39_unit_weights(sym_window):
    u = Weight.constant(sym_window, 1.0)
    rep = lemma39_check(u, u, 2.0, 2.0, 2.0)
    assert_close(rep.joint_const, 1.0)
    for v in rep.memberships.values():
        assert_close(v, 1.0)


def test_lemma39_power_weights_stable():
    reps = []
    for lmin in (-3, -5, -7):
        w = Window(1, lmin, 0)
        reps.append(lemma39_check(power_weight(0.1, w), power_weight(0.15, w), 2.0, 2.0, 1.5))
    joints = [r.joint_const for r in reps]
    assert max(joints) <= 2.0 * min(joints)
    for key in reps[0].memberships:
        vals = [r.memberships[key] for r in reps]
        assert max(vals) <= 2.0 * min(vals)


def test_lemma39_violating_exponent_grows():
    # w^(-q') = |x|^(-1.8) is non-integrable in the limit: both the joint
    # constant and a membership constant grow under refinement
    joints, duals = [], []
    for lmin in (-4, -6, -8):
        w = Window(1, lmin, 0)
        rep = lemma39_check(power_weight(0.9, w), power_weight(0.1, w), 2.0, 2.0, 1.5)
        joints.append(rep.joint_const)
        duals.append(rep.memberships["dual_1"])
    assert joints[0] < joints[1] < joints[2]
    assert duals[0] < duals[1] < duals[2]


def test_lemma39_requires_t_hat_at_least_q(sym_window):
    u = Weight.constant(sym_window, 1.0)
    with pytest.raises(ValueError):
        lemma39_check(u, u, 2.0, 2.0, 0.5)


def test_morrey_norms_refuse_an_infinite_q():
    # (mean |f|^q)^(1/q) at q = inf is x ** 0.0 = 1.0, whatever f is
    window = Window(1, -3, 0)
    f, one = LatticeFunction(window, np.linspace(0.1, 5.0, 16)), Weight.constant(window, 1.0)
    with pytest.raises(ValueError, match="finite q"):
        morrey_norm(f, INF, INF)
    for q1, q2 in ((INF, 2.0), (2.0, INF)):
        with pytest.raises(ValueError, match="must be finite"):
            rhs_bilinear_morrey(f, f, one, one, INF, q1, q2)
        with pytest.raises(ValueError, match="must be finite"):
            rhs_bilinear_morrey_from(f, f, one, one, INF, q1, q2, Cube(0, (0,)))
    assert morrey_norm(f, INF, 2.0) > 0.0  # p = inf (1/p = 0) is still a norm
