import json
import math
import re
import tracemalloc
from collections.abc import Mapping
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from morreylab import czd, harness
from morreylab.czd import necessity_pair
from morreylab.dyadic import Cube, Window
from morreylab.errors import ValidationError
from morreylab.field import LatticeFunction, bmo_norm, log_abs, power_weight, telescoping_defect
from morreylab.harness import (
    EXPERIMENTS,
    Report,
    _BATCH_CELLS,
    _COLUMNS,
    _COMMON,
    _DRAW_CELLS,
    _EXPERIMENTS,
    _KEYS,
    _REQUIRED,
    _exponent_set,
    _ratio,
    _weights,
    config_from_pairs,
    emit_report,
    parse_config,
    run_experiment,
)
from morreylab.weights_norms import WeightConditionKind

from conftest import assert_close
from oracles import from_callable


T25_PAIRS = [
    ("experiment", "T25"), ("dim", "1"), ("level_min", "-4"), ("level_max", "0"),
    ("p", "2"), ("q", "1.5"), ("alpha", "0.5"), ("r1", "2"), ("r2", "2"),
    ("weight_w", "pow:0.5"), ("trials", "4"), ("seed", "7"), ("refinements", "0,1"),
]


def test_parse_config_grammar():
    text = """
    # comment line
    experiment = T25
    dim = 1
    level_min = -3   # trailing comment
    level_max = 0
    p = inf
    q = 1.5
    alpha = 0.5
    refinements = 0, 1, 2
    weight_w = pow:0.5
    """
    cfg = parse_config(text)
    assert cfg.experiment == "T25"
    assert cfg.window.level_min == -3
    assert cfg.refinements == (0, 1, 2)
    assert cfg.params["p"] == math.inf
    assert cfg.params["weight_w"] == "pow:0.5"
    assert cfg.params["r2"] == 2.0 and cfg.params["depth"] == 12  # defaults of the key table


# T21 reads the weights v, w1 and w2
T21_PAIRS = [
    ("experiment", "T21"), ("level_min", "-3"), ("alpha", "0.5"), ("q1", "1.8"), ("q2", "1.8"),
    ("p", "1.5"), ("r", "2.1"), ("a", "1.5"), ("trials", "1"), ("depth", "3"),
]


def test_equal_weight_specs_share_one_weight():
    cfg = config_from_pairs(T21_PAIRS + [("weight_w1", "pow:0.5"), ("weight_w2", "pow:0.5")])
    w1, v, w2, again = _weights(cfg, cfg.window, "w1", "v", "w2", "w1")
    assert w1 is w2 is again
    assert np.array_equal(w1.values, power_weight(0.5, cfg.window, depth=3).values)
    assert np.all(v.values == 1.0)  # an absent role is const:1


def test_distinct_weight_specs_build_distinct_weights():
    cfg = config_from_pairs(T21_PAIRS + [("weight_v", "pow:0.5"), ("weight_w1", "const:2")])
    v, w1, w2 = _weights(cfg, cfg.window, "v", "w1", "w2")
    assert v is not w1 and w1 is not w2
    assert np.all(w1.values == 2.0) and np.all(w2.values == 1.0)
    assert np.array_equal(v.values, power_weight(0.5, cfg.window, depth=3).values)


@pytest.mark.parametrize("depth, refinement", [(12, 0), (256, 0), (12, 2)])
def test_depth_bound_is_where_the_2d_quadrature_fails(depth, refinement):
    # accepted: the leaf midpoints 2^-537 square to 2^-1074; one level finer they square to 0.0
    def pairs(finest):
        lo = finest + refinement
        kept = [(k, v) for k, v in T25_PAIRS
                if k not in ("dim", "level_min", "level_max", "refinements")]
        return kept + [("dim", "2"), ("level_min", str(lo)), ("level_max", str(lo + 2)),
                       ("refinements", f"0,{refinement}" if refinement else "0"),
                       ("depth", str(depth))]

    cfg = config_from_pairs(pairs(depth - 536))
    window = cfg.window_at(refinement)
    assert np.all(np.isfinite(power_weight(-0.1, window, depth=depth).values))
    with pytest.raises(ValidationError, match="square to 0.0"):
        config_from_pairs(pairs(depth - 537))
    with pytest.raises(ZeroDivisionError):
        power_weight(-0.1, replace(window, level_min=window.level_min - 1), depth=depth)


@pytest.mark.parametrize("dim, top_count, span", [(1, 2, 26), (1, 8, 24), (3, 2, 8)])
def test_the_cell_bound_is_2_to_the_27_at_the_finest_stage(dim, top_count, span):
    # (top_count 2^span)^dim cells at the finest stage: exactly 2^27 parses, one level finer
    # (or one refinement more) does not; only the parse runs, so nothing is allocated
    def pairs(level_min, refinements):
        return [("experiment", "JN"), ("dim", str(dim)), ("top_count", str(top_count)),
                ("level_min", str(level_min)), ("level_max", "0"), ("refinements", refinements)]

    assert (top_count << span) ** dim == 1 << 27
    assert harness._MAX_CELLS == 1 << 27
    config_from_pairs(pairs(-span, "0"))
    config_from_pairs(pairs(1 - span, "0,1"))
    for level_min, refinements in ((-span - 1, "0"), (-span, "0,1")):
        with pytest.raises(ValidationError, match="a stage holds at most 2\\^27 cells"):
            config_from_pairs(pairs(level_min, refinements))


def test_parse_config_errors():
    with pytest.raises(ValidationError):
        parse_config("experiment = NOPE\n")
    with pytest.raises(ValidationError):
        parse_config("no equals sign here\n")
    with pytest.raises(ValidationError):
        parse_config("dim = 1\n")  # missing experiment
    with pytest.raises(ValidationError):
        parse_config("experiment = T25\nexperiment = T25\n")
    with pytest.raises(ValidationError, match="unknown key 'trails'"):
        parse_config("experiment = T21\ntrails = 3\n")  # a typo of trials


def test_ratio_conventions():
    assert _ratio(1.0, 2.0) == 0.5
    assert _ratio(0.0, 0.0) == 0.0
    assert _ratio(3.0, 0.0) == math.inf  # reported, never dropped


def test_rows_count_is_trials_times_refinements():
    cfg = config_from_pairs(T25_PAIRS)
    rep = run_experiment(cfg)
    assert len(rep.rows) == cfg.trials * len(cfg.refinements)
    trials_seen = {(r["refinement"], r["trial"]) for r in rep.rows}
    assert len(trials_seen) == len(rep.rows)


def test_necessity_rows_include_extremal_slot():
    pairs = [
        ("experiment", "T27_necessity"), ("dim", "1"), ("level_min", "-3"),
        ("level_max", "0"), ("alpha", "0.4"), ("q1", "4"), ("q2", "4"),
        ("p", "2.2"), ("r", "2.5"), ("r1", "2"), ("r2", "2"),
        ("weight_v", "pow:-0.1"), ("weight_w1", "pow:0.1"), ("weight_w2", "pow:0.1"),
        ("q0_level", "-1"), ("q0_index", "0"), ("trials", "4"), ("seed", "1"),
    ]
    cfg = config_from_pairs(pairs)
    rep = run_experiment(cfg)
    assert len(rep.rows) == 4
    labels = [r["input"] for r in rep.rows]
    assert labels.count("extremal") == 1
    assert rep.summary["invariant_violations"] == 0
    checks = rep.summary["notes"]["extremal_checks"]
    assert all(c["passed"] for c in checks)


def test_determinism_byte_identical(tmp_path):
    cfg = config_from_pairs(T25_PAIRS)
    p1 = emit_report(run_experiment(cfg), tmp_path / "a")
    p2 = emit_report(run_experiment(cfg), tmp_path / "b")
    for f1, f2 in zip(p1, p2):
        assert Path(f1).read_bytes() == Path(f2).read_bytes()


def test_seed_changes_rows(tmp_path):
    rep1 = run_experiment(config_from_pairs(T25_PAIRS))
    pairs2 = [(k, "8" if k == "seed" else v) for k, v in T25_PAIRS]
    rep2 = run_experiment(config_from_pairs(pairs2))
    assert any(a["lhs"] != b["lhs"] for a, b in zip(rep1.rows, rep2.rows))


def test_empty_report_emission(tmp_path):
    rep = Report(experiment="T25", columns=_COLUMNS, rows=[],
                 summary={"max_ratio": 0.0, "rows": 0})
    csv_path, json_path = emit_report(rep, tmp_path / "empty")
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    assert lines == [",".join(_COLUMNS)]
    doc = json.loads(Path(json_path).read_text(encoding="utf-8"))
    assert doc["rows"] == 0


def test_summary_max_matches_csv_column(tmp_path):
    cfg = config_from_pairs(T25_PAIRS)
    rep = run_experiment(cfg)
    csv_path, json_path = emit_report(rep, tmp_path / "r")
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    idx = lines[0].split(",").index("ratio")
    col_max = max(float(row.split(",")[idx]) for row in lines[1:])
    doc = json.loads(Path(json_path).read_text(encoding="utf-8"))
    assert_close(doc["max_ratio"], col_max)


def test_single_cube_window_hand_value():
    # one-cell window: the translated sample leaves the window, so the
    # bilinear output is identically zero and every ratio is 0
    pairs = [
        ("experiment", "T25"), ("dim", "1"), ("level_min", "0"), ("level_max", "0"),
        ("origin_offset", "0"), ("top_count", "1"),
        ("p", "2"), ("q", "1.5"), ("alpha", "0.5"), ("r1", "2"), ("r2", "2"),
        ("trials", "2"), ("seed", "3"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    for row in rep.rows:
        assert row["lhs"] == 0.0
        assert row["rhs"] > 0.0
        assert row["ratio"] == 0.0


def test_bh_domination_experiment_tight():
    pairs = [
        ("experiment", "BH_DOM"), ("dim", "1"), ("level_min", "-3"),
        ("level_max", "0"), ("trials", "6"), ("seed", "2"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    assert rep.summary["invariant_violations"] == 0
    assert all(r["lhs"] <= 1e-12 for r in rep.rows)


def test_bh_domination_tolerance_is_relative():
    # Trial 0 of seed 18 has a spike: BH exceeds the centered maximal operator
    # by 1.5e-10 in absolute terms, which is 7.7e-16 of the values compared.
    pairs = [
        ("experiment", "BH_DOM"), ("dim", "1"), ("level_min", "-3"),
        ("level_max", "0"), ("trials", "1"), ("seed", "18"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    assert rep.summary["invariant_violations"] == 0
    assert 0.0 < rep.rows[0]["lhs"] <= 1e-15


def test_cz_experiment_counts_violations():
    pairs = [
        ("experiment", "CZ_INV"), ("dim", "1"), ("level_min", "-5"), ("level_max", "0"),
        ("q0_level", "-1"), ("q0_index", "0"), ("theta1", "2"), ("theta2", "2"),
        ("r1", "2"), ("r2", "2"), ("alpha", "0.4"), ("trials", "5"), ("seed", "4"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    assert rep.summary["invariant_violations"] == 0
    assert all(r["lhs"] == 0.0 for r in rep.rows)


def test_cz_experiment_makes_two_table_passes_per_chunk(monkeypatch):
    # one pass builds both kinds' forests and one more rechecks them, per chunk and stage;
    # each 1-D stage takes its 5 trials in one chunk, so each pass stacks 4 planes of 5 trials
    honest, calls = czd._dilated_canvas, []

    def counted(*args):
        calls.append(args[0].shape[:2])
        return honest(*args)

    monkeypatch.setattr(czd, "_dilated_canvas", counted)
    pairs = [
        ("experiment", "CZ_INV"), ("dim", "1"), ("level_min", "-5"), ("level_max", "0"),
        ("q0_level", "-1"), ("q0_index", "0"), ("theta1", "1.5"), ("theta2", "3"),
        ("r1", "3"), ("r2", "1.5"), ("alpha", "0.4"), ("trials", "5"), ("seed", "4"),
        ("refinements", "0,1,2"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    assert rep.summary["invariant_violations"] == 0
    assert calls == [(4, 5)] * 2 * 3


def test_validation_failure_bubbles_up():
    # p >= n/alpha makes the derived s overshoot r
    pairs = [
        ("experiment", "T22"), ("dim", "1"), ("level_min", "-3"), ("level_max", "0"),
        ("alpha", "0.5"), ("q1", "3"), ("q2", "3"), ("p", "2.5"), ("r", "4"),
        ("a", "2"), ("r1", "2"), ("r2", "2"), ("trials", "2"), ("seed", "0"),
    ]
    with pytest.raises(ValidationError, match="s<r"):
        run_experiment(config_from_pairs(pairs))


def test_sw_balance_recorded_not_enforced():
    pairs = [
        ("experiment", "SW101"), ("dim", "1"), ("level_min", "-4"), ("level_max", "0"),
        ("alpha", "0.5"), ("beta", "0.3"), ("gamma1", "0"), ("gamma2", "0"),
        ("q1", "3"), ("q2", "3"), ("p1", "3.6"), ("p2", "3.6"), ("r", "inf"),
        ("trials", "2"), ("seed", "0"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    assert rep.summary["notes"]["hypothesis_satisfied"] is False
    assert rep.summary["notes"]["hypothesis"]["balance_identity"] is False


def test_sw_equal_exponents_build_one_power_weight(monkeypatch):
    from morreylab import harness
    calls = []

    def counted(gamma, window, depth=12):
        calls.append(gamma)
        return power_weight(gamma, window, depth)

    monkeypatch.setattr(harness, "power_weight", counted)
    pairs = [
        ("experiment", "SW101"), ("dim", "1"), ("level_min", "-3"), ("level_max", "0"),
        ("alpha", "0.5"), ("beta", "0"), ("gamma1", "0.2"), ("gamma2", "0.2"),
        ("q1", "3"), ("q2", "3"), ("p1", "3.6"), ("p2", "3.6"), ("r", "inf"),
        ("trials", "1"), ("seed", "0"), ("refinements", "0"),
    ]
    run_experiment(config_from_pairs(pairs))
    assert calls == [0.2]


def test_depth_sets_the_kernel_of_the_integral():
    # 2-D: the 1-D kernel averages are closed form and ignore the depth
    from morreylab.exponents import build
    from morreylab.harness import _drawn
    from morreylab.operators import bilinear_fractional
    from morreylab.weights_norms import morrey_norm
    pairs = [
        ("experiment", "T21"), ("dim", "2"), ("level_min", "-2"), ("level_max", "0"),
        ("alpha", "1"), ("q1", "1.8"), ("q2", "1.8"), ("p", "1.5"), ("r", "2.1"),
        ("a", "1.5"), ("trials", "1"), ("seed", "0"), ("refinements", "0"),
    ]
    cfg = config_from_pairs(pairs + [("depth", "2")])
    e = build("T21", 2, 1.0, 1.8, 1.8, 1.5, 2.1, a=1.5)
    f, g = (LatticeFunction(cfg.window, v) for v in _drawn(cfg.seed, cfg.window, 0))
    lhs = {depth: morrey_norm(bilinear_fractional(f, g, 1.0, depth), e.s, e.t)
           for depth in (2, 12)}
    assert lhs[2] != lhs[12]
    assert run_experiment(cfg).rows[0]["lhs"] == lhs[2]
    assert run_experiment(config_from_pairs(pairs)).rows[0]["lhs"] == lhs[12]


def test_the_largest_depth_stays_below_the_recursion_limit():
    # the origin chain of the quadrature is a loop: the largest depth runs in 50 stack frames
    import inspect
    import sys
    from morreylab import harness
    from morreylab.field import abs_power_cell_averages
    assert harness._MAX_DEPTH == 256
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        vals = abs_power_cell_averages(-0.5, Window(2, -2, 0), harness._MAX_DEPTH)
    finally:
        sys.setrecursionlimit(limit)
    assert np.all(np.isfinite(vals))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_t21_off_the_origin_has_a_nonzero_lhs():
    # the window [2, 3) holds no origin; the bilinear integral still sees |y| < 1/2
    text = (CONFIGS / "t21_two_weight.cfg").read_text(encoding="utf-8")
    rep = run_experiment(parse_config(text + "origin_offset = 2\ntop_count = 1\n"))
    assert len(rep.rows) == 40
    assert all(row["lhs"] > 0.0 for row in rep.rows)


def _extremal_checks(extra: str) -> list:
    text = (CONFIGS / "t27_weak_type.cfg").read_text(encoding="utf-8") + extra
    return run_experiment(parse_config(text)).summary["notes"]["extremal_checks"]


def _necessity_lambda(qp: Cube) -> float:
    """The lambda of the extremal pair on qp at the base window of t27_weak_type.cfg."""
    cfg = parse_config((CONFIGS / "t27_weak_type.cfg").read_text(encoding="utf-8"))
    w1, w2 = _weights(cfg, cfg.window, "w1", "w2")
    return necessity_pair(w1, w2, qp, _exponent_set(cfg.params, 1, WeightConditionKind.C27))[2]


def test_qprime_index_alone_selects_the_extremal_cube():
    # the default Q' is Q0 = [0, 1/2); qprime_index = 0 alone is [0, 1) at level_max
    alone = _extremal_checks("qprime_index = 0\n")
    assert alone != _extremal_checks("")
    assert alone == _extremal_checks("qprime_level = 0\nqprime_index = 0\n")
    assert alone[0]["lambda"] == _necessity_lambda(Cube(0, (0,)))


def test_qprime_level_and_index_select_the_extremal_cube():
    checks = _extremal_checks("qprime_level = -2\nqprime_index = -3\n")
    assert checks[0]["lambda"] == _necessity_lambda(Cube(-2, (-3,)))
    assert checks[0]["lambda"] != _extremal_checks("")[0]["lambda"]


def test_t29_derives_a_from_the_built_holder_pair():
    # without r1, r2 keys the T28 set takes the Holder pair (q1/q, q2/q) = (3, 1.5)
    pairs = [
        ("experiment", "T29"), ("alpha", "0.4"), ("q1", "4"), ("q2", "2"), ("p", "2.2"),
        ("r", "2.5"), ("weight_u1", "pow:0.1"), ("trials", "1"), ("seed", "0"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    assert rep.summary["notes"]["derived_a"] == 0.5 * (1.0 + min(4.0 / 3.0, 2.0 / 1.5))


def test_growth_flags_present():
    cfg = config_from_pairs(T25_PAIRS)
    rep = run_experiment(cfg)
    assert len(rep.summary["growth_factors"]) == 1
    assert set(rep.summary["growth_flags"]) == {"stable_lt_2", "divergent_ge_1p5"}


def test_jn_experiment_ratios():
    pairs = [
        ("experiment", "JN"), ("dim", "1"), ("level_min", "-5"), ("level_max", "0"),
        ("trials", "3"), ("seed", "1"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    assert rep.summary["invariant_violations"] == 0
    log_stats = rep.summary["notes"]["log_symbol"]["stage_0"]
    assert log_stats["e1"] <= log_stats["e2"] <= log_stats["e4"]
    assert all(math.isfinite(v) for v in log_stats.values())



def test_jn_sweeps_each_symbol_norm_once(monkeypatch):
    # per stage: one sweep of the log symbol at e = 1, 2, 4 (trial 0 reuses it), then one
    # sweep at e = 1, 4 of the chunk of random symbols (5 of 8^2 and of 16^2 cells)
    import sys
    from morreylab import field
    original = field.oscillation_sups
    sweeps = []

    def counted(b, exponents):
        sweeps.append((tuple(exponents), b.values.shape[:-b.window.dim]))
        return original(b, exponents)

    for name, module in list(sys.modules.items()):
        if name.startswith("morreylab") and getattr(module, "oscillation_sups", None) is original:
            monkeypatch.setattr(module, "oscillation_sups", counted)
    pairs = [
        ("experiment", "JN"), ("dim", "2"), ("level_min", "-3"), ("level_max", "0"),
        ("trials", "6"), ("seed", "42"), ("refinements", "0,1"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    assert rep.summary["invariant_violations"] == 0
    assert sweeps == 2 * [((1.0, 2.0, 4.0), (1,)), ((1.0, 4.0), (5,))]


@pytest.mark.parametrize("window", [
    Window(1, -6, 0),
    Window(1, -6, 0, origin_offset=(-3,), top_count=3),
    Window(2, -5, 0),
    Window(2, -5, 0, origin_offset=(-2, 0), top_count=3),
    Window(3, -4, 0),
    Window(3, -4, 0, origin_offset=(-1, 1, 0), top_count=1),
], ids=str)
def test_jn_log_symbol_is_the_per_cell_sample_bit_for_bit(window, monkeypatch):
    # Sized so that np.log and C log disagree somewhere (with AVX-512, on 2 to 792 cells
    # per window), and 0.5 log(|x|^2) differs from log(sqrt(|x|^2)) in 2-D and 3-D.  The
    # squares of the centres and their sums are exact dyadic numbers, so the order of the
    # adds does not matter; only the square root rounds.
    expected = from_callable(window, lambda *x: math.log(math.sqrt(sum(v * v for v in x))))
    calls = []

    def counting_log(x, log=math.log):
        calls.append(x)
        return log(x)

    monkeypatch.setattr(math, "log", counting_log)
    got = log_abs(window)
    monkeypatch.undo()
    assert got.window == window
    assert got.values.tobytes() == expected.values.tobytes()
    if window == Window(2, -5, 0):  # centred: one log per pair of the 32 distinct |c| per axis
        assert len(calls) == 32 * 33 // 2


def test_jn_log_symbol_past_53_bits_is_a_validation_error():
    # the centres (2m + 1) h/2 are exact floats while |2m + 1| <= 2^53; the widest windows
    # either side of 0 keep the per-cell bits, one more cell (or int64's wrap) is refused
    for offset in ((1 << 52) - 1, -(1 << 52)):
        window = Window(1, 0, 0, origin_offset=(offset,), top_count=1)
        expected = from_callable(window, lambda x: math.log(abs(x)))
        assert log_abs(window).values.tobytes() == expected.values.tobytes()
    for offset in (1 << 52, -(1 << 52) - 1, 1 << 61):
        with pytest.raises(ValidationError, match="need more than 53 bits"):
            log_abs(Window(1, 0, 0, origin_offset=(offset,), top_count=1))


def test_telescoping_defect_holds_no_expanded_level_table():
    # each pair of levels compares the finer table blocked by the coarser cubes; with every
    # level's means expanded to the cells first, this 128^2 JN symbol peaked at 9 times its bytes
    b = log_abs(Window(2, -6, 0))
    norm = bmo_norm(b)
    tracemalloc.start()
    try:
        assert telescoping_defect(b, norm) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * b.values.nbytes, peak


def test_jn_2d_stage_peak_is_a_small_multiple_of_its_window():
    # one sweep per symbol for all its exponents, with the level_min zeros not read from the
    # cells, no random symbol held while the next is drawn, and the telescoping check on
    # blocked tables: 4.35 times the window's bytes.  Sweeping level_min like the other
    # levels peaks at 5.02, as does holding the last symbol while drawing the next.
    cfg = config_from_pairs([
        ("experiment", "JN"), ("dim", "2"), ("level_min", "-7"), ("level_max", "0"),
        ("trials", "6"), ("seed", "42"), ("refinements", "0"),
    ])
    run_experiment(cfg)  # warm
    tracemalloc.start()
    try:
        assert run_experiment(cfg).summary["invariant_violations"] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.75 * 8 * math.prod(cfg.window_at(0).shape), peak


def test_l39_experiment_stable():
    pairs = [
        ("experiment", "L39"), ("dim", "1"), ("level_min", "-4"), ("level_max", "0"),
        ("q1", "2"), ("q2", "2"), ("t_hat", "1.5"),
        ("weight_w1", "pow:0.1"), ("weight_w2", "pow:0.1"),
        ("trials", "2"), ("seed", "0"), ("refinements", "0,1"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    assert rep.summary["growth_flags"]["stable_lt_2"]


def test_l39_default_t_hat_is_q_when_q_exceeds_1():
    # q1 = q2 = 3 give q = 1.5, so the default max(q, 1) is q itself
    pairs = [("experiment", "L39"), ("q1", "3"), ("q2", "3"), ("trials", "1")]
    rep = run_experiment(config_from_pairs(pairs))
    assert rep.summary["notes"]["t_hat"] == 1.5


def test_csv_weight_requires_matching_window(tmp_path):
    from morreylab.dyadic import Window
    from morreylab.field import Weight, to_csv
    w = Window(1, -2, 0)
    to_csv(Weight.constant(w, 2.0), tmp_path / "w.csv")
    pairs = [
        ("experiment", "T25"), ("dim", "1"), ("level_min", "-2"), ("level_max", "0"),
        ("p", "2"), ("q", "1.5"), ("alpha", "0.5"), ("r1", "2"), ("r2", "2"),
        ("weight_w", f"csv:{tmp_path / 'w.csv'}"), ("trials", "1"), ("seed", "0"),
    ]
    rep = run_experiment(config_from_pairs(pairs))
    assert len(rep.rows) == 1
    # refining the window invalidates a fixed-window CSV weight
    with pytest.raises(ValidationError):
        run_experiment(config_from_pairs(pairs + [("refinements", "0,1")]))


def _stages(*maxima):
    return [{"max_ratio": m} for m in maxima]


def test_growth_from_zero_to_positive_is_infinite_and_unstable():
    from morreylab.harness import _growth
    factors, flags = _growth(_stages(0.0, 3.0))
    assert factors == [math.inf]
    assert flags == {"stable_lt_2": False, "divergent_ge_1p5": True}


def test_growth_between_infinite_stages_is_nan_and_unstable(tmp_path):
    from morreylab.harness import _growth
    factors, flags = _growth(_stages(math.inf, math.inf, math.inf))
    assert len(factors) == 2 and all(math.isnan(f) for f in factors)
    assert flags == {"stable_lt_2": False, "divergent_ge_1p5": False}
    rep = Report("T25", _COLUMNS, [], {"growth_factors": factors})
    _, json_path = emit_report(rep, tmp_path / "nan")
    assert json.loads(Path(json_path).read_text(encoding="utf-8"))["growth_factors"] == ["nan", "nan"]


def test_growth_zero_to_zero_and_finite_factors():
    from morreylab.harness import _growth
    assert _growth(_stages(0.0, 0.0)) == ([0.0], {"stable_lt_2": True,
                                                   "divergent_ge_1p5": False})
    assert _growth(_stages(2.0, 3.0, 1.5))[0] == [1.5, 0.5]
    assert _growth(_stages(2.0))[1]["stable_lt_2"] is False



def test_single_stage_run_is_flagged_neither_stable_nor_divergent():
    # one refinement gives no growth factor, so there is no evidence either way
    pairs = [kv for kv in T25_PAIRS if kv[0] != "refinements"]
    rep = run_experiment(config_from_pairs(pairs))
    assert rep.summary["growth_factors"] == []
    assert rep.summary["growth_flags"] == {"stable_lt_2": False, "divergent_ge_1p5": False}


T29_PAIRS = [
    ("experiment", "T29"), ("dim", "1"), ("level_min", "-3"), ("level_max", "0"),
    ("alpha", "0.4"), ("q1", "4"), ("q2", "4"), ("p", "2.2"), ("r", "2.5"),
    ("r1", "2"), ("r2", "2"), ("weight_u1", "pow:0.1"), ("weight_u2", "pow:-0.1"),
    ("trials", "2"), ("seed", "3"),
]


def test_t29_run_leaves_config_unchanged(tmp_path):
    cfg = config_from_pairs(T29_PAIRS)
    before = dict(cfg.params)
    first = run_experiment(cfg)
    assert dict(cfg.params) == before and cfg.params["a"] is None
    assert_close(first.summary["notes"]["derived_a"], 0.5 * (1.0 + 4.0 / 2.0))
    paths = [emit_report(run_experiment(cfg) if i else first, tmp_path / f"r{i}")
             for i in range(2)]
    for a, b in zip(*paths):
        assert Path(a).read_bytes() == Path(b).read_bytes()
    with pytest.raises(TypeError):
        cfg.params["a"] = 1.5


T23_PAIRS = [
    ("experiment", "T23"), ("dim", "1"), ("level_min", "-3"), ("level_max", "0"),
    ("alpha", "0.5"), ("q1", "1.8"), ("q2", "1.8"), ("p", "1.5"), ("r", "2.1"),
    ("a", "1.5"), ("n_symbols", "2"), ("beta_pattern", "1,2,1"), ("trials", "2"),
]

COR_BH_PAIRS = [
    ("experiment", "COR_BH"), ("dim", "1"), ("level_min", "-3"), ("level_max", "0"),
    ("alpha", "0.4"), ("q1", "4"), ("q2", "4"), ("p", "2.2"), ("r", "inf"),
    ("a", "1.5"), ("r1", "2"), ("r2", "2"), ("trials", "2"),
]


@pytest.mark.parametrize("pairs, message", [
    (T23_PAIRS, "beta_pattern length must equal n_symbols"),
    (COR_BH_PAIRS, "COR_BH needs alpha = 0; got alpha = 0.4"),
])
def test_strong_type_refuses_bad_parameters(pairs, message):
    with pytest.raises(ValidationError, match=message):
        run_experiment(config_from_pairs(pairs))


def _shipped_pairs(name: str, **values) -> list:
    """The pairs of a shipped config with the given keys set (replaced or added)."""
    text = (CONFIG_DOC.parents[1] / "configs" / name).read_text(encoding="utf-8")
    return sorted({**dict(parse_config(text).raw), **values}.items())


@pytest.mark.parametrize("name, values, message", [
    ("czd_decompose.cfg", {"theta1": "1"}, "CZ_INV needs theta1 > 1"),
    ("t25_maximal_control.cfg", {"alpha": "0"}, "T25 needs 0 < alpha < n = 1"),
    ("t25_maximal_control.cfg", {"q": "5"}, "T25 needs q <= p"),
    ("t26_commutator_control.cfg", {"vartheta2": "1"}, "T26 needs vartheta2 > 1"),
    ("t26_commutator_control.cfg", {"r1": "3"}, "T26 needs a Holder pair, 1/r1 + 1/r2 = 1"),
    ("t25_maximal_control.cfg", {"r1": "-1", "r2": "0.5"}, "T25 needs a Holder pair"),
    ("sw101_power_weight.cfg", {"gamma1": "-1"}, "SW101 needs a finite gamma1, > -1"),
    ("sw101_power_weight.cfg", {"beta": "1"}, "SW101 needs a finite beta, < 1"),
    ("sw101_power_weight.cfg", {"q2": "5"}, "SW101 needs q2 <= p2"),
    ("t21_two_weight.cfg", {"weight_w1": "const:0"}, "T21 needs weight_w1 = pow:G"),
    ("t21_two_weight.cfg", {"weight_w1": "const:inf"}, "T21 needs weight_w1 = pow:G"),
    ("t24_commutator_2d.cfg", {"weight_v": "pow:-2"}, "T24 needs weight_v = pow:G"),
    ("t23_commutator.cfg", {"beta_pattern": "1,2,1"}, "beta_pattern length must equal n_symbols"),
    ("t27_weak_type.cfg", {"qprime_level": "1"}, "qprime_level, qprime_index must give a cube"),
    ("czd_decompose.cfg", {"q0_level": "-9"}, "q0_level, q0_index must give a cube"),
    ("t28_strong_maximal.cfg", {"weight_v": "csv:w.csv"}, "csv: weights need refinements = 0"),
    ("cor_bh_maximal.cfg", {"alpha": "0.4"}, "COR_BH needs alpha = 0"),
    ("l39_joint_weight.cfg", {"t_hat": "1"}, "L39 needs t_hat >= q = 1.5"),
    ("l39_joint_weight.cfg", {"q1": "inf", "q2": "inf"}, "q undefined"),
    # the regime of the experiment's weight condition, with its full message
    ("t28_strong_maximal.cfg", {"r1": "0"}, "0<r1<q1 (r1=0.0, q1=4.0)"),
    ("t28_strong_maximal.cfg", {"alpha": "-inf"},
     "0<=alpha<n (alpha=-inf, n=1); s finite and nonzero (s=0.0); 0<t<=s (t=0.0, s=0.0); "
     "alpha/n>=1/r (alpha/n=-inf, 1/r=0.4)"),
    ("t27_weak_type.cfg", {"alpha": "-inf"},
     "0<=alpha<n (alpha=-inf, n=1); s finite and nonzero (s=0.0); t finite and nonzero "
     "(t=0.0); 0<t<=s (t=0.0, s=0.0); alpha/n>=1/r (alpha/n=-inf, 1/r=0.4)"),
    ("t21_two_weight.cfg", {"a": "5"}, "1<a<min(q1,q2) (a=5.0, min=1.8)"),
    ("t29_vector_weight.cfg", {"r2": "4"},
     "0<r2<q2 (r2=4.0, q2=4.0); 1<a<min(q1/r1,q2/r2) (a=1.0, min=1.0)"),
    ("t22_two_weight.cfg", {"q2": "0"}, "q undefined: 1/q1 + 1/q2 with q1=3.0, q2=0.0"),
])
def test_each_domain_is_checked_when_the_config_is_parsed(name, values, message):
    # config_from_pairs raises, so no run starts and no file is read
    with pytest.raises(ValidationError, match=re.escape(message)):
        config_from_pairs(_shipped_pairs(name, **values))


def test_power_weight_below_minus_dim_is_admitted_away_from_the_origin():
    # the closed block [-2, 0] of the top cubes holds the origin; [1, 3] does not
    with pytest.raises(ValidationError, match="weight_v = pow:G"):
        config_from_pairs(_shipped_pairs("t21_two_weight.cfg", origin_offset="-2",
                                         weight_v="pow:-1"))
    cfg = config_from_pairs(_shipped_pairs("t21_two_weight.cfg", origin_offset="1",
                                           weight_v="pow:-5", trials="2"))
    assert run_experiment(cfg).summary["invariant_violations"] == 0


CONFIG_DOC = Path(__file__).resolve().parents[1] / "docs" / "config.md"
# lowercase words docs/config.md puts in backticks that are values, commands or derived
# exponents, not keys
_DOC_NON_KEYS = {"inf", "nan", "cz", "cz_alpha", "run", "decompose", "s", "t"}


def _doc_default(value) -> str:
    """A default of the key table as docs/config.md writes it."""
    if value is _REQUIRED:
        return "required"
    if value is None:
        return "derived"
    return f"{value:g}" if isinstance(value, float) else str(value)


def _doc_section(text: str, title: str) -> list:
    """The table rows of a section of docs/config.md, split into their cells."""
    section = text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]
    return [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]


def test_config_doc_names_exactly_the_config_keys():
    text = CONFIG_DOC.read_text(encoding="utf-8")
    named = {word.strip() for span in re.findall(r"`([^`\n]+)`", text) for word in span.split(",")}
    assert {w for w in named if re.fullmatch(r"[a-z][a-z0-9_]*", w)} - _DOC_NON_KEYS == _KEYS
    common = {re.findall(r"`([^`]+)`", row[0])[0] for row in _doc_section(text, "Common keys")}
    assert common == {"experiment", *_COMMON}
    # each experiment's row names exactly its keys of the table, in "`k1`, `k2`: default" groups
    documented = {}
    for names, keys in _doc_section(text, "Experiment keys"):
        table = {}
        for group in keys.split(";"):
            default = group[group.rfind("`") + 1:].strip(" :")
            table.update(dict.fromkeys(re.findall(r"`([^`]+)`", group), default))
        documented.update(dict.fromkeys(re.findall(r"`([^`]+)`", names), table))
    assert documented == {experiment: {k: _doc_default(v) for k, (v, _) in record.keys.items()}
                          for experiment, record in _EXPERIMENTS.items()}


README = CONFIG_DOC.parents[1] / "README.md"


def test_readme_states_the_chunk_size_and_its_bound():
    text = " ".join(README.read_text(encoding="utf-8").split())
    chunk = re.findall(r"chunks of 2\^(\d+) cells per array", text)
    bound = re.findall(r"under 1\.5 × 2\^(\d+) cells per array", text)
    assert [2 ** int(n) for n in chunk + bound] == [_BATCH_CELLS] * 2


def test_readme_and_config_doc_state_the_draw_table_bound():
    for path in (README, CONFIG_DOC):
        text = " ".join(path.read_text(encoding="utf-8").split())
        bound = re.findall(r"(?:at most|fit in) 2\^(\d+) cells", text)
        assert [2 ** int(n) for n in bound] == [_DRAW_CELLS], path.name


def test_config_doc_lists_exactly_the_experiments():
    section = CONFIG_DOC.read_text(encoding="utf-8").split("## Experiments\n", 1)[1]
    first_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    assert sorted(re.findall(r"`([^`]+)`", "".join(first_cells))) == sorted(EXPERIMENTS)


class _Reads(Mapping):
    """A read-only mapping that records each key read from it."""

    def __init__(self, params: Mapping):
        self.params, self.read = params, set()

    def __getitem__(self, key):
        self.read.add(key)
        return self.params[key]

    def __iter__(self):
        return iter(self.params)

    def __len__(self):
        return len(self.params)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_each_runner_reads_every_key_of_its_record(path):
    # a key of the record that the runner never reads would be accepted and then ignored
    cfg = parse_config(path.read_text(encoding="utf-8"))
    params = _Reads(cfg.params)
    run_experiment(replace(cfg, params=params))
    assert set(_EXPERIMENTS[cfg.experiment].keys) - params.read == set()


@pytest.mark.parametrize("maxima, flags", [
    ((1.0, 2.0), {"stable_lt_2": False, "divergent_ge_1p5": True}),
    ((1.0, 1.5), {"stable_lt_2": True, "divergent_ge_1p5": True}),
])
def test_growth_flags_at_their_boundaries(maxima, flags):
    # a factor of exactly 2 is not stable, one of exactly 1.5 is divergent
    from morreylab.harness import _growth
    factors, got = _growth(_stages(*maxima))
    assert factors == [maxima[1]] and got == flags
