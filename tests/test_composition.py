"""Each runner's rows recomputed from the public library functions on the harness's draws.

The shipped configs are too symmetric to pin how a runner puts the library together
(every one has q1 = q2 and r1 = r2, and SW101 runs with gamma1 = gamma2 = 0).  These
configs are not: q1 != q2 and r1 != r2 with non-constant first weights, and
gamma1 != gamma2, so a runner that swaps two exponents or two weights gives other rows.
"""

import math

import pytest

from morreylab.czd import necessity_pair
from morreylab.dyadic import Cube
from morreylab.exponents import build, solve_q, solve_st, solve_weak_t
from morreylab.field import LatticeFunction, Weight, bmo_norm, expand_level, power_weight
from morreylab.harness import _drawn, config_from_pairs, run_experiment
from morreylab.maximal import m_alpha_r
from morreylab.operators import CommutatorSpec, bilinear_fractional, bt_alpha, commutator_iterated
from morreylab.weights_norms import (
    WeightConditionKind,
    morrey_norm,
    rhs_bilinear_morrey,
    rhs_bilinear_morrey_from,
    two_weight_constant,
    weak_morrey_functional,
)

from conftest import assert_close

_BASE = {"dim": "1", "level_min": "-3", "level_max": "0", "trials": "3", "seed": "11",
         "refinements": "0,1"}


def _stages(pairs: dict, n_sym: int = 0):
    """(stage window, {trial: row}, trial -> (f, g, *symbols) on the stage window) per
    stage."""
    cfg = config_from_pairs({**_BASE, **pairs}.items())
    rows = run_experiment(cfg).rows
    assert len(rows) == cfg.trials * len(cfg.refinements)
    for stage in cfg.refinements:
        win = cfg.window_at(stage)

        def draws(trial, win=win):
            return [LatticeFunction(win, expand_level(a, win, cfg.window.level_min))
                    for a in _drawn(cfg.seed, cfg.window, trial, (1, 1) + (2,) * n_sym)]

        yield win, {r["trial"]: r for r in rows if r["refinement"] == stage}, draws


def _times(f: LatticeFunction, w: LatticeFunction) -> LatticeFunction:
    return LatticeFunction(f.window, f.values * w.values)


def _assert_row(row: dict, lhs: float, rhs: float):
    assert_close(row["lhs"], lhs, msg="lhs")
    assert_close(row["rhs"], rhs, msg="rhs")


# T22 (bilinear integral, C24) and T28 (dyadic maximal operator, C29) with q1 != q2 and a
# non-constant weight_w1; T28 with r1 != r2
_STRONG = {
    "T22": ({"alpha": "0.3", "q1": "3", "q2": "4", "p": "2", "r": "inf", "a": "2", "r1": "2",
             "r2": "2"}, WeightConditionKind.C24),
    "T28": ({"alpha": "0.4", "q1": "4", "q2": "3", "p": "2.2", "r": "2.5", "a": "1.1",
             "r1": "1.5", "r2": "2.5"}, WeightConditionKind.C29),
}


@pytest.mark.parametrize("experiment", sorted(_STRONG))
def test_strong_type_rows_take_q1_with_f_and_q2_with_g(experiment):
    keys, kind = _STRONG[experiment]
    pairs = {"experiment": experiment, **keys, "weight_v": "pow:-0.1",
             "weight_w1": "pow:0.3", "weight_w2": "const:2"}
    for win, rows, draws in _stages(pairs):
        e = build(kind.regime, 1, **{k: float(v) for k, v in keys.items()})
        v, w1 = power_weight(-0.1, win), power_weight(0.3, win)
        w2 = Weight.constant(win, 2.0)
        const = two_weight_constant(kind, v, w1, w2, e, win)
        for trial, row in rows.items():
            f, g = draws(trial)
            out = bilinear_fractional(f, g, e.alpha) if experiment == "T22" \
                else m_alpha_r(f, g, e.alpha, (e.r1, e.r2), "dyadic")
            _assert_row(row, morrey_norm(_times(out, v), e.s, e.t),
                        const * rhs_bilinear_morrey(f, g, w1, w2, e.p, e.q1, e.q2))


@pytest.mark.parametrize("experiment", ["T27_sufficiency", "T27_necessity"])
def test_weak_type_rows_take_q1_r1_with_f_and_q2_r2_with_g(experiment):
    keys = {"alpha": "0.4", "q1": "3", "q2": "4.5", "p": "2.2", "r": "2.5", "r1": "1.5",
            "r2": "3"}
    pairs = {"experiment": experiment, **keys, "weight_v": "pow:-0.1",
             "weight_w1": "pow:0.3", "weight_w2": "const:2"}
    for win, rows, draws in _stages(pairs):
        e = build("T27", 1, **{k: float(v) for k, v in keys.items()})
        v, w1 = power_weight(-0.1, win), power_weight(0.3, win)
        w2 = Weight.constant(win, 2.0)
        const = two_weight_constant(WeightConditionKind.C27, v, w1, w2, e, win)
        q0 = Cube(win.level_max, win.index_lo(win.level_max))
        for trial, row in rows.items():
            f, g = necessity_pair(w1, w2, q0, e)[:2] if row["input"] == "extremal" \
                else draws(trial)
            big_m = m_alpha_r(f, g, e.alpha, (e.r1, e.r2), "dyadic")
            _assert_row(row, weak_morrey_functional(big_m, v, e.t, e.s, q0),
                        const * rhs_bilinear_morrey_from(f, g, w1, w2, e.p, e.q1, e.q2, q0))
        assert [r["input"] for r in rows.values()].count("extremal") \
            == (experiment == "T27_necessity")


# the Holder pair (1.5, 3), with vartheta1 != vartheta2 for T26
@pytest.mark.parametrize("experiment", ["T25", "T26"])
def test_maximal_control_rows_take_r1_with_f_and_r2_with_g(experiment):
    commutator = experiment == "T26"
    pairs = {"experiment": experiment, "p": "2", "q": "1.5", "alpha": "0.5", "r1": "1.5",
             "r2": "3", "weight_w": "pow:0.5"}
    if commutator:
        pairs.update(vartheta1="1.25", vartheta2="1.5")
    pair = (1.25 * 1.5, 1.5 * 3.0) if commutator else (1.5, 3.0)
    for win, rows, draws in _stages(pairs, n_sym=2 if commutator else 0):
        w = power_weight(0.5, win)
        for trial, row in rows.items():
            f, g, *symbols = draws(trial)
            out = commutator_iterated(CommutatorSpec(symbols, (1, 2)), f, g, 0.5) if commutator \
                else bilinear_fractional(f, g, 0.5)
            _assert_row(row, morrey_norm(out, 2.0, 1.5, w),
                        math.prod(map(bmo_norm, symbols))
                        * morrey_norm(m_alpha_r(f, g, 0.5, pair, "dyadic"), 2.0, 1.5, w))


def test_t29_rows_take_w_i_as_u_i_to_the_1_over_q_i():
    keys = {"alpha": "0.4", "q1": "4", "q2": "3", "p": "2.2", "r": "2.5", "a": "1.2",
            "r1": "2", "r2": "2"}
    pairs = {"experiment": "T29", **keys, "weight_u1": "pow:0.3", "weight_u2": "pow:-0.2"}
    for win, rows, draws in _stages(pairs):
        e = build("T28", 1, **{k: float(v) for k, v in keys.items()})
        u1, u2 = power_weight(0.3, win), power_weight(-0.2, win)
        w1 = Weight(win, u1.values ** (1.0 / e.q1))
        w2 = Weight(win, u2.values ** (1.0 / e.q2))
        v = _times(w1, w2)
        const = two_weight_constant(WeightConditionKind.C211, None, u1, u2, e, win)
        for trial, row in rows.items():
            f, g = draws(trial)
            out = m_alpha_r(f, g, e.alpha, (e.r1, e.r2), "dyadic")
            _assert_row(row, morrey_norm(_times(out, v), e.s, e.t),
                        const * rhs_bilinear_morrey(f, g, w1, w2, e.p, e.q1, e.q2))


def test_sw101_rows_weight_f_by_gamma1_and_g_by_gamma2():
    # alpha = 0.6, so the order n - alpha = 0.4 of s and t is not alpha
    pairs = {"experiment": "SW101", "alpha": "0.6", "beta": "0.1", "gamma1": "0.2",
             "gamma2": "-0.2", "q1": "3", "q2": "2.5", "p1": "3.6", "p2": "3", "r": "inf"}
    for win, rows, draws in _stages(pairs):
        q, p = solve_q(3.0, 2.5), solve_q(3.6, 3.0)
        s, _ = solve_st(1, 0.4, p, q, float("inf"))
        t = solve_weak_t(1, 0.4, q, float("inf"))
        target, v1, v2 = (power_weight(x, win) for x in (-0.1, 0.2, -0.2))
        for trial, row in rows.items():
            f, g = draws(trial)
            _assert_row(row, morrey_norm(_times(bt_alpha(f, g, 0.6), target), s, t),
                        morrey_norm(_times(f, v1), 3.6, 3.0)
                        * morrey_norm(_times(g, v2), 3.0, 2.5))
