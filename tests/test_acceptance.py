"""Acceptance gate: one test per criterion, each printing a pass line.

The inequalities under test carry inexplicit constants, so acceptance is
property-based at desk scale: closed-form quadrature benchmarks, exact
brute-force oracle agreement on small windows, exact combinatorial
invariants of the stopping-time decomposition, pointwise domination,
algebraic operator identities, ratio-stability growth studies, and
byte-level determinism of emitted reports.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from morreylab.czd import cz_decompose, cz_decompose_alpha, verify_decomposition
from morreylab.dyadic import Cube, Window
from morreylab.exponents import INF, build, conjugate
from morreylab.field import (
    LatticeFunction,
    Weight,
    bmo_norm,
    oscillation_ratio,
    power_weight,
)
from morreylab.harness import config_from_pairs, emit_report, run_experiment
from morreylab.maximal import m_alpha_r
from morreylab.operators import CommutatorSpec, bh_maximal, bilinear_fractional, commutator_iterated
from morreylab.weights_norms import (
    WeightConditionKind,
    morrey_norm,
    two_weight_constant,
)

from oracles import all_cubes, cell_index_of_point, nested_pairs

EXACT = 1e-12


def _ok(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


# -- 1. quadrature benchmark ------------------------------------------------------


def test_criterion_01_quadrature_benchmark():
    t0 = time.monotonic()
    window = Window(1, -8, 0)  # [-1, 1) at finest level 2^-8
    chi = LatticeFunction.constant(window, 1.0)
    out = bilinear_fractional(chi, chi, 0.5)
    idx = cell_index_of_point(window, (0.0,))
    val = float(out.values[idx[0] - window.cell_index_lo[0]])
    elapsed = time.monotonic() - t0
    assert abs(val - 4.0) / 4.0 < 0.02, val
    assert elapsed < 10.0, elapsed
    _ok("criterion 1", f"half-power kernel benchmark {val:.5f} vs 4 "
        f"({100 * abs(val - 4) / 4:.2f}%, {elapsed:.2f}s)")


# -- 2. oracle equivalence --------------------------------------------------------


def _small_windows():
    return (
        Window(1, -2, 0, origin_offset=(0,), top_count=1),   # 4 cells, 3 levels
        Window(1, -2, 0),                                    # 8 cells, 3 levels
        Window(2, -1, 0, origin_offset=(0, 0), top_count=1),  # 4 cells, 2 levels
        Window(2, -1, 0),                                    # 16 cells, 2 levels
    )


def _brute_maximal(f, g, alpha, r1, r2):
    w = f.window
    out = np.zeros(w.shape)
    for q in all_cubes(w):
        sl = w.cell_offsets_of_cube(q)
        val = q.volume ** (alpha / w.dim) \
            * (np.abs(f.values[sl]) ** r1).mean() ** (1.0 / r1) \
            * (np.abs(g.values[sl]) ** r2).mean() ** (1.0 / r2)
        out[sl] = np.maximum(out[sl], val)
    return out


def _brute_morrey(f, p, q):
    w = f.window
    best = 0.0
    for cube in all_cubes(w):
        sl = w.cell_offsets_of_cube(cube)
        best = max(best, cube.volume ** (1.0 / p)
                   * (np.abs(f.values[sl]) ** q).mean() ** (1.0 / q))
    return best


def _brute_constant(kind, v, w1, w2, e, window):
    n = window.dim
    K = WeightConditionKind
    if kind is K.C211:
        e1 = e.r1 / (e.q1 - e.r1)
        e2 = e.r2 / (e.q2 - e.r2)
        best = 0.0
        for q in all_cubes(window):
            sl = window.cell_offsets_of_cube(q)
            val = ((w1.values[sl] ** (e.s / e.q1) * w2.values[sl] ** (e.s / e.q2)).mean()
                   ) ** (1.0 / e.s) \
                * (w1.values[sl] ** -e1).mean() ** ((e.q1 - e.r1) / (e.r1 * e.q1)) \
                * (w2.values[sl] ** -e2).mean() ** ((e.q2 - e.r2) / (e.r2 * e.q2))
            best = max(best, val)
        return best
    if kind in (K.C22, K.C23, K.C24):
        d1, d2 = conjugate(e.q1 / e.a), conjugate(e.q2 / e.a)
    elif kind is K.C27:
        d1 = e.r1 * conjugate(e.q1 / e.r1)
        d2 = e.r2 * conjugate(e.q2 / e.r2)
    else:
        d1 = e.r1 * conjugate(e.q1 / (e.a * e.r1))
        d2 = e.r2 * conjugate(e.q2 / (e.a * e.r2))
    if kind is K.C22:
        rexp, vexp = (1 - e.s) / (e.a * e.s), e.a * e.t / (1 - e.t)
    elif kind is K.C23:
        rexp, vexp = (1 - e.a * e.s) / (e.a * e.s), e.a * e.t / (1 - e.t)
    elif kind is K.C24:
        rexp, vexp = 1 / (e.a * e.s), e.a * e.t
    else:
        rexp, vexp = 1 / e.s, e.t
    best = 0.0
    for q, qp in nested_pairs(window):
        slq = window.cell_offsets_of_cube(q)
        slp = window.cell_offsets_of_cube(qp)
        term = (2.0 ** ((q.level - qp.level) * n)) ** rexp
        if kind is not K.CBH:
            term *= qp.volume ** (0.0 if e.r == INF else 1.0 / e.r)
        term *= (v.values[slq] ** vexp).mean() ** (1.0 / vexp)
        term *= (w1.values[slp] ** -d1).mean() ** (1.0 / d1)
        term *= (w2.values[slp] ** -d2).mean() ** (1.0 / d2)
        best = max(best, term)
    return best


def test_criterion_02_oracle_equivalence():
    K = WeightConditionKind
    kinds = [
        (K.C22, build("T21", 1, 0.5, 1.2, 1.2, 0.7, 3.0, a=1.1)),
        (K.C23, build("T21", 1, 0.5, 1.2, 1.2, 1.0, 4.0, a=1.1)),
        (K.C24, build("T22", 1, 0.5, 3.0, 3.0, 1.5, INF, a=2.0, r1=2.0, r2=2.0)),
        (K.C27, build("T27", 1, 0.4, 4.0, 4.0, 2.2, 2.5, r1=2.0, r2=2.0)),
        (K.C29, build("T28", 1, 0.4, 4.0, 4.0, 2.2, 2.5, a=1.5, r1=2.0, r2=2.0)),
        (K.CBH, build("T28", 1, 0.4, 4.0, 4.0, 2.2, 2.5, a=1.5, r1=2.0, r2=2.0)),
        (K.C211, build("T28", 1, 0.4, 4.0, 4.0, 2.2, 2.5, a=1.5, r1=2.0, r2=2.0)),
    ]
    windows = _small_windows()
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng([20_000, seed])
        window = windows[seed % len(windows)]
        assert window.n_cells <= 16 and window.level_max - window.level_min <= 2
        f = LatticeFunction(window, rng.uniform(0.05, 2.0, window.shape))
        g = LatticeFunction(window, rng.uniform(0.05, 2.0, window.shape))
        v = Weight(window, rng.uniform(0.3, 3.0, window.shape))
        w1 = Weight(window, rng.uniform(0.3, 3.0, window.shape))
        w2 = Weight(window, rng.uniform(0.3, 3.0, window.shape))

        got = m_alpha_r(f, g, 0.4, (1.5, 3.0), "dyadic")
        brute = _brute_maximal(f, g, 0.4, 1.5, 3.0)
        worst = max(worst, float(np.max(np.abs(got.values - brute))))

        p, q = 2.5, 1.5
        worst = max(worst, _rel(morrey_norm(f, p, q), _brute_morrey(f, p, q)))

        kind, e = kinds[seed % len(kinds)]
        got_c = two_weight_constant(kind, v, w1, w2, e, window)
        brute_c = _brute_constant(kind, v, w1, w2, e, window)
        worst = max(worst, _rel(got_c, brute_c))
    assert worst <= EXACT, worst
    _ok("criterion 2", f"200 seeded brute-force comparisons agree "
        f"(worst deviation {worst:.2e})")


# -- 3. stopping-time invariants ----------------------------------------------------


def test_criterion_03_cz_invariants():
    window = Window(1, -8, 0)
    q0 = Cube(-1, (0,))  # [0, 1/2): the 3-fold dilate stays inside the window
    c = window.cells_per_axis
    nonempty = 0
    for seed in range(100):
        rng = np.random.default_rng([30_000, seed])
        fv = rng.uniform(0.05, 1.0, window.shape)
        gv = rng.uniform(0.05, 1.0, window.shape)
        for arr in (fv, gv):
            for _ in range(int(rng.integers(1, 4))):
                arr[int(rng.integers(0, c))] *= 10.0 ** rng.uniform(1.0, 3.0)
        if seed % 3 != 0:
            cell = int(rng.integers(c // 2, 3 * c // 4))  # inside Q0
            boost = 10.0 ** rng.uniform(3.0, 6.0)
            fv[cell] *= boost
            gv[cell] *= boost
        f = LatticeFunction(window, fv)
        g = LatticeFunction(window, gv)
        d = cz_decompose(f, g, q0, 2.0, 2.0)
        assert verify_decomposition(d, f, g, window, 2.0, 2.0) == []
        da = cz_decompose_alpha(f, g, q0, 2.0, 2.0, 0.1)
        assert verify_decomposition(da, f, g, window, 2.0, 2.0, alpha=0.1) == []
        nonempty += bool(d.levels) + bool(da.levels)
        assert not d.cap_hit and not da.cap_hit
    assert nonempty >= 20, nonempty
    _ok("criterion 3", f"sandwich/measure/partition/maximality exact on 100 inputs "
        f"({nonempty} nonempty forests)")


# -- 4. pointwise domination ---------------------------------------------------------


def test_criterion_04_bh_domination():
    window = Window(1, -3, 0)
    pairs = ((2.0, 2.0), (1.5, 3.0), (3.0, 1.5), (4.0, 4.0 / 3.0), (1.25, 5.0))
    worst = -math.inf
    for seed in range(100):
        rng = np.random.default_rng([40_000, seed])
        f = LatticeFunction(window, rng.uniform(0.0, 2.0, window.shape))
        g = LatticeFunction(window, rng.uniform(0.0, 2.0, window.shape))
        bh = bh_maximal(f, g)
        for pair in pairs:
            m = m_alpha_r(f, g, 0.0, pair, "centered")
            worst = max(worst, float(np.max(bh.values - m.values)))
    assert worst <= EXACT, worst
    _ok("criterion 4", f"bilinear maximal dominated cellwise for 100 pairs x 5 "
        f"conjugate exponents (worst excess {worst:.2e})")


# -- 5. commutator identities --------------------------------------------------------


def test_criterion_05_commutator_identities():
    window = Window(1, -4, 0)
    rng = np.random.default_rng(50_000)
    f = LatticeFunction(window, rng.uniform(0.05, 1.0, window.shape))
    g = LatticeFunction(window, rng.uniform(0.05, 1.0, window.shape))
    worst_perm = 0.0
    for order in (1, 2, 3):
        symbols = tuple(LatticeFunction(window, rng.uniform(-1.0, 1.0, window.shape))
                        for _ in range(order))
        betas = tuple(rng.integers(1, 3) for _ in range(order))
        base = commutator_iterated(CommutatorSpec(symbols, betas), f, g, 0.5)
        scale = max(np.abs(base.values).max(), 1.0)
        for perm in itertools.permutations(range(order)):
            out = commutator_iterated(
                CommutatorSpec(tuple(symbols[i] for i in perm),
                               tuple(betas[i] for i in perm)), f, g, 0.5)
            worst_perm = max(worst_perm, float(np.max(np.abs(out.values - base.values))) / scale)
    consts = tuple(LatticeFunction.constant(window, c) for c in (2.0, -3.0, 0.5))
    vanish = commutator_iterated(CommutatorSpec(consts, (1, 2, 1)), f, g, 0.5)
    worst_const = float(np.max(np.abs(vanish.values)))
    assert worst_perm <= EXACT, worst_perm
    assert worst_const <= EXACT, worst_const
    _ok("criterion 5", f"permutation invariance {worst_perm:.2e}, constant symbols "
        f"{worst_const:.2e}")


# -- 6. maximal control --------------------------------------------------------------


def test_criterion_06_maximal_control():
    pairs = [
        ("experiment", "T25"), ("dim", "1"), ("level_min", "-5"), ("level_max", "0"),
        ("p", "2"), ("q", "1.5"), ("alpha", "0.5"), ("r1", "2"), ("r2", "2"),
        ("weight_w", "pow:0.5"), ("trials", "50"), ("seed", "600"),
        ("refinements", "0,1"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    maxima = [s["max_ratio"] for s in rep.summary["per_refinement"]]
    assert all(math.isfinite(m) and m > 0 for m in maxima), maxima
    factor = maxima[1] / maxima[0]
    assert 0.5 < factor < 2.0, maxima
    _ok("criterion 6", f"weighted Morrey control ratios {maxima[0]:.4f} -> "
        f"{maxima[1]:.4f} (factor {factor:.3f} < 2)")


# -- 7. weak-type characterization ----------------------------------------------------


_T27_BASE = [
    ("dim", "1"), ("level_min", "-4"), ("level_max", "0"),
    ("alpha", "0.4"), ("q1", "4"), ("q2", "4"), ("p", "2.2"), ("r", "2.5"),
    ("r1", "2"), ("r2", "2"),
    ("weight_v", "pow:-0.1"), ("weight_w1", "pow:0.1"), ("weight_w2", "pow:0.1"),
    ("q0_level", "-1"), ("q0_index", "0"),
    ("trials", "12"), ("seed", "700"), ("refinements", "0,1,2"),
]


def test_criterion_07_weak_type_both_directions():
    suff = run_experiment(config_from_pairs([("experiment", "T27_sufficiency")] + _T27_BASE))
    factors = suff.summary["growth_factors"]
    assert all(f < 2.0 for f in factors), factors
    nec = run_experiment(config_from_pairs([("experiment", "T27_necessity")] + _T27_BASE))
    checks = nec.summary["notes"]["extremal_checks"]
    assert nec.summary["invariant_violations"] == 0
    assert checks and all(c["passed"] for c in checks)
    _ok("criterion 7", f"sufficiency growth {['%.3f' % f for f in factors]} < 2; "
        f"extremal pair within 2x observed constant at every stage")


# -- 8. power-weight inequality --------------------------------------------------------


_SW_COMMON = [
    ("dim", "1"), ("level_min", "-5"), ("level_max", "0"),
    ("alpha", "0.5"), ("gamma1", "0"), ("gamma2", "0"),
    ("q1", "3"), ("q2", "3"), ("p1", "3.6"), ("p2", "3.6"), ("r", "inf"),
    ("trials", "6"), ("seed", "800"),
]


def test_criterion_08_power_weight_stability_and_divergence():
    stable = run_experiment(config_from_pairs(
        [("experiment", "SW101"), ("beta", "0"), ("refinements", "0,1,2")] + _SW_COMMON))
    assert stable.summary["notes"]["hypothesis_satisfied"] is True
    sfac = stable.summary["growth_factors"]
    assert all(f < 2.0 for f in sfac), sfac

    s = stable.summary["notes"]["derived"]["s"]
    beta = 1.0 / s + 0.5  # exceeds the admissible n/s threshold by 0.5
    div = run_experiment(config_from_pairs(
        [("experiment", "SW101"), ("beta", repr(beta)),
         ("refinements", "0,2,4")] + _SW_COMMON))
    assert div.summary["notes"]["hypothesis_satisfied"] is False
    maxima = [st["max_ratio"] for st in div.summary["per_refinement"]]
    dfac = div.summary["growth_factors"]
    assert maxima[0] < maxima[1] < maxima[2], maxima
    assert all(f >= 1.5 for f in dfac), dfac
    _ok("criterion 8", f"stable growth {['%.3f' % f for f in sfac]}; violated "
        f"hypothesis grows {['%.3f' % f for f in dfac]} >= 1.5 per refinement")


# -- 9. oscillation bounds --------------------------------------------------------------


def test_criterion_09_john_nirenberg_and_telescoping():
    window = Window(1, -6, 0)
    b = LatticeFunction.from_callable(window, lambda x: math.log(abs(x)))
    ratios = {e: oscillation_ratio(b, e) for e in (1.0, 2.0, 4.0)}
    assert all(math.isfinite(v) for v in ratios.values()), ratios
    assert ratios[1.0] <= ratios[2.0] + EXACT <= ratios[4.0] + 2 * EXACT, ratios
    norm = bmo_norm(b)
    worst = -math.inf
    for q, qp in nested_pairs(window):
        gap = qp.level - q.level
        if gap == 0:
            continue
        mq = float(b.values[window.cell_offsets_of_cube(q)].mean())
        mqp = float(b.values[window.cell_offsets_of_cube(qp)].mean())
        worst = max(worst, abs(mq - mqp) - gap * 2.0 ** window.dim * norm)
    assert worst <= EXACT, worst
    _ok("criterion 9", f"oscillation ratios {['%.3f' % ratios[e] for e in (1.0, 2.0, 4.0)]} "
        f"nondecreasing; telescoping slack {worst:.2e}")


# -- 10. determinism ----------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    configs = [
        [("experiment", "T25"), ("dim", "1"), ("level_min", "-4"), ("level_max", "0"),
         ("p", "2"), ("q", "1.5"), ("alpha", "0.5"), ("r1", "2"), ("r2", "2"),
         ("weight_w", "pow:0.5"), ("trials", "5"), ("seed", "7"), ("refinements", "0,1")],
        [("experiment", "CZ_INV"), ("dim", "1"), ("level_min", "-5"), ("level_max", "0"),
         ("q0_level", "-1"), ("q0_index", "0"), ("theta1", "2"), ("theta2", "2"),
         ("r1", "2"), ("r2", "2"), ("alpha", "0.4"), ("trials", "5"), ("seed", "9")],
    ]
    for i, pairs in enumerate(configs):
        cfg = config_from_pairs(pairs)
        a = emit_report(run_experiment(cfg), tmp_path / f"a{i}")
        b = emit_report(run_experiment(cfg), tmp_path / f"b{i}")
        for fa, fb in zip(a, b):
            assert Path(fa).read_bytes() == Path(fb).read_bytes()
    _ok("criterion 10", "repeated runs emit byte-identical CSV and JSON")
