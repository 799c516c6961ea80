"""A record's evaluate, called on inputs and windows of the caller's choosing.

A side builds a stage's hypothesis on any window it is given, and its evaluate takes
batched LatticeFunctions.  For the ratio records the batch holds the cube-indicator pairs
f = g = 1_Q of a cube Q at the window's centre (touching the origin) and of one at its
corner, on the config's window and on that window dilated by one level.  Each entry's lhs
and rhs are recomputed from the brute-force oracles and the public functions, as
tests/test_composition.py recomputes whole runs.  The checks BH_DOM, CZ_INV and L39 are
evaluated the same way, on cube pairs, spiked pairs and weights.  No harness name is
patched.
"""

import numpy as np
import pytest

from morreylab.czd import cz_decompose, cz_decompose_alpha
from morreylab.dyadic import Cube, Window
from morreylab.exponents import build
from morreylab.field import LatticeFunction, Weight, power_weight
from morreylab.harness import _BH_PAIRS, _EXPERIMENTS, config_from_pairs
from morreylab.weights_norms import (
    WeightConditionKind,
    lemma39_check,
    morrey_norm,
    rhs_bilinear_morrey,
    rhs_bilinear_morrey_from,
)

import oracles
from test_block_paths import _co_spiked

# q1 != q2 and r1 != r2 with non-constant weights, as in tests/test_composition.py
_KEYS = {"T28": {"alpha": 0.4, "q1": 4.0, "q2": 3.0, "p": 2.2, "r": 2.5, "a": 1.1, "r1": 1.5,
                 "r2": 2.5},
         "T27_sufficiency": {"alpha": 0.4, "q1": 3.0, "q2": 4.5, "p": 2.2, "r": 2.5, "r1": 1.5,
                             "r2": 3.0}}
_WEIGHTS = {"weight_v": "pow:-0.1", "weight_w1": "pow:0.3", "weight_w2": "const:2"}


def _expected(experiment: str, f: LatticeFunction, e, q0: Cube) -> tuple[float, float]:
    """lhs and rhs of one unbatched f = g, from the oracles and the public functions."""
    win = f.window
    v, w1, w2 = power_weight(-0.1, win), power_weight(0.3, win), Weight.constant(win, 2.0)
    kind = _EXPERIMENTS[experiment].kind
    const = oracles.weight_constant(kind, v, w1, w2, e, win)
    big_m = LatticeFunction(win, oracles.m_alpha_r_dyadic(f, f, e.alpha, e.r1, e.r2))
    if kind is WeightConditionKind.C27:
        return (oracles.weak_functional(big_m, v, e.t, e.s, q0),
                const * rhs_bilinear_morrey_from(f, f, w1, w2, e.p, e.q1, e.q2, q0))
    return (morrey_norm(LatticeFunction(win, big_m.values * v.values), e.s, e.t),
            const * rhs_bilinear_morrey(f, f, w1, w2, e.p, e.q1, e.q2))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("experiment", sorted(_KEYS))
def test_evaluate_on_cube_pairs_and_a_dilated_window(experiment, dim):
    keys = {**_KEYS[experiment], "alpha": _KEYS[experiment]["alpha"] * dim}
    cfg = config_from_pairs({"experiment": experiment, "dim": str(dim), "level_min": "-3",
                             "level_max": "0", **{k: str(x) for k, x in keys.items()},
                             **_WEIGHTS}.items())
    e = build(_EXPERIMENTS[experiment].kind.regime, dim, **keys)
    # only random chunks, of f and g: no member and no symbol.  The chunks prolong draws on
    # the config's window, so they are read there, not on the coarser dilated window
    chunks, _ = _EXPERIMENTS[experiment].side(cfg, 0, cfg.window, {})
    assert {(label, len(arrays)) for _, label, arrays in chunks} == {("random", 2)}
    ratios = []
    for shift in (0, 1):  # the config's window, then the window dilated by one level
        win = Window(dim, cfg.window.level_min + shift, cfg.window.level_max + shift)
        # the centre cube [-1/2, 0)^n and the corner cube [-1, -1/2)^n, scaled by 2^shift,
        # both inside the default Q0, the corner top cube
        cubes = [Cube(shift - 1, (i,) * dim) for i in (-1, -2)]
        pairs = [oracles.indicator(win, oracles.cube_box(q)) for q in cubes]
        f = LatticeFunction(win, np.stack([x.values for x in pairs]))
        _, evaluate = _EXPERIMENTS[experiment].side(cfg, 0, win, {})
        lhs, rhs = evaluate(f, f)
        q0 = Cube(win.level_max, win.index_lo(win.level_max))
        want = [_expected(experiment, x, e, q0) for x in pairs]
        np.testing.assert_allclose(lhs, [w[0] for w in want], rtol=1e-12)
        np.testing.assert_allclose(rhs, [w[1] for w in want], rtol=1e-12)
        assert all(x > 0 for x in [*lhs, *rhs])
        ratios.append(np.divide(lhs, rhs))
    # each composition has scaling degree 0 (tests/test_scaling.py)
    np.testing.assert_allclose(ratios[1], ratios[0], rtol=1e-12)


def _batch(*functions: LatticeFunction) -> LatticeFunction:
    return LatticeFunction(functions[0].window, np.stack([x.values for x in functions]))


@pytest.mark.parametrize("dim", [1, 2])
def test_bh_domination_evaluate_on_cube_pairs_and_a_spiked_pair(dim):
    cfg = config_from_pairs([("experiment", "BH_DOM"), ("dim", str(dim)), ("level_min", "-3")])
    win = cfg.window
    cubes = [oracles.indicator(win, oracles.cube_box(Cube(-1, (i,) * dim))) for i in (-1, -2)]
    f_spike, g_spike = _co_spiked(win, Cube(0, (0,) * dim), 7, spikes=1)
    f, g = _batch(*cubes, f_spike), _batch(*cubes, g_spike)
    _, evaluate = _EXPERIMENTS["BH_DOM"].side(cfg, 0, win, {})
    worst, tol, bad = evaluate(f, g)
    want = []
    for fi, gi in zip(f.values, g.values):
        fi, gi = LatticeFunction(win, fi), LatticeFunction(win, gi)
        bh, excess = oracles.bh_maximal(fi, gi).values, [0.0]
        for pair in _BH_PAIRS:
            m = oracles.m_alpha_r_centered(fi, gi, 0.0, pair).values
            scale = np.maximum(np.abs(bh), np.abs(m))
            excess.append(np.max(np.divide(bh - m, scale, out=np.zeros_like(scale),
                                           where=scale > 0)))
        want.append(max(excess))
    np.testing.assert_allclose(worst, want, rtol=0, atol=1e-12)
    assert (list(tol), bad) == ([1e-12] * 3, 0)


def test_cz_invariants_evaluate_on_co_spiked_forests():
    # two co-spiked pairs whose forests stop at two levels or more, of both kinds
    win, q0 = Window(1, -14, 0), Cube(0, (0,))
    cfg = config_from_pairs([("experiment", "CZ_INV"), ("level_min", "-14"), ("q0_level", "0"),
                             ("q0_index", "0"), ("alpha", "0.05")])
    pairs = [_co_spiked(win, q0, seed, spikes=1) for seed in (80, 81)]
    for f, g in pairs:
        assert min(len(cz_decompose(f, g, q0, 2.0, 2.0).levels),
                   len(cz_decompose_alpha(f, g, q0, 2.0, 2.0, 0.05).levels)) >= 2
    notes = {}
    _, evaluate = _EXPERIMENTS["CZ_INV"].side(cfg, 0, win, notes)
    assert notes == {"theta": (2.0, 2.0), "alpha_variant": (2.0, 2.0, 0.05)}
    assert evaluate(*(_batch(*x) for x in zip(*pairs))) == ([0, 0], [1.0, 1.0], 0)


def test_lemma39_evaluate_gives_the_joint_constant_on_every_trial():
    cfg = config_from_pairs([("experiment", "L39"), ("q1", "3"), ("q2", "1.5"), ("trials", "3"),
                             ("weight_w1", "pow:0.3"), ("weight_w2", "const:2")])
    win, notes = cfg.window, {}
    chunks, evaluate = _EXPERIMENTS["L39"].side(cfg, 0, win, notes)
    assert list(chunks) == [(range(3), "weights", [])]
    assert notes["t_hat"] == 1.0  # max(q, 1) with 1/q = 1/3 + 2/3
    rep = lemma39_check(power_weight(0.3, win), Weight.constant(win, 2.0), 3.0, 1.5, 1.0)
    assert evaluate() == ([rep.joint_const] * 3, [max(rep.memberships.values())] * 3)
