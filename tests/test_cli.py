import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from morreylab import cli, harness
from morreylab.dyadic import Window
from morreylab.errors import ValidationError
from morreylab.exponents import build
from morreylab.field import LatticeFunction, Weight, to_csv
from morreylab.harness import Report, _COLUMNS, config_from_pairs, run_experiment
from morreylab.weights_norms import WeightConditionKind, morrey_norm, two_weight_constant

from conftest import assert_close, random_lattice

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

T25_CONFIG = """
experiment = T25
dim = 1
level_min = -4
level_max = 0
p = 2
q = 1.5
alpha = 0.5
r1 = 2
r2 = 2
weight_w = pow:0.5
trials = 3
seed = 7
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_subcommand_success(tmp_path, capsys):
    cfg = _write(tmp_path, "t25.cfg", T25_CONFIG)
    out = str(tmp_path / "rep")
    assert cli.main(["run", cfg, "--out", out]) == 0
    assert (tmp_path / "rep.csv").exists()
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["experiment"] == "T25"
    assert doc["invariant_violations"] == 0


def test_run_seed_override_changes_output(tmp_path):
    cfg = _write(tmp_path, "t25.cfg", T25_CONFIG)
    cli.main(["run", cfg, "--out", str(tmp_path / "a")])
    cli.main(["run", cfg, "--out", str(tmp_path / "b"), "--seed", "8"])
    assert (tmp_path / "a.csv").read_text() != (tmp_path / "b.csv").read_text()


def test_run_validation_failure_exit_2(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "experiment = NOPE\n")
    assert cli.main(["run", cfg]) == 2
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_run_invariant_violation_exit_3(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "t25.cfg", T25_CONFIG)
    broken = Report(experiment="T25", columns=_COLUMNS, rows=[],
                    summary={"max_ratio": 0.0, "growth_factors": [],
                             "invariant_violations": 2})
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: broken)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "broken")]) == 3


@pytest.mark.parametrize("experiment", ["T25", "BH_DOM"])
@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_run_nan_row_exit_3(tmp_path, capsys, monkeypatch, side, experiment):
    # a nan after a finite row: Python's max over the ratios would skip it.  The record's side
    # keeps its chunks; its evaluate gives the three trials' chunk a nan second row, in a
    # ratio record and in a check record alike
    text = T25_CONFIG if experiment == "T25" else _shipped("bh_domination.cfg", level_min=-4,
                                                           trials=3, seed=7)
    cfg = _write(tmp_path, "nan.cfg", text)
    nan = float("nan")
    sides = ([1.0, nan, 1.0], [2.0] * 3) if side == "lhs" else ([1.0] * 3, [2.0, nan, 2.0])
    record = harness._EXPERIMENTS[experiment]

    def nan_side(*args):
        chunks, _ = record.side(*args)
        return chunks, lambda *arrays: sides

    monkeypatch.setitem(harness._EXPERIMENTS, experiment, record._replace(side=nan_side))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "nan")]) == 3
    assert "invariant violations: 1" in capsys.readouterr().err
    summary = json.loads((tmp_path / "nan.json").read_text(encoding="utf-8"))
    assert summary["invariant_violations"] == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow in morrey_norm
def test_run_an_infinite_side_exit_3(tmp_path, capsys):
    # p = q = 1e308 overflows the Morrey norms: 97 of the 100 rows (50 trials, two stages)
    # have an infinite side and give no estimate, so each is a failed evaluation, as a nan
    # side is; the other 3 read lhs = rhs = 0.0
    text = (CONFIGS / "t25_maximal_control.cfg").read_text(encoding="utf-8")
    assert "p = 2\n" in text and "q = 1.5\n" in text
    cfg = _write(tmp_path, "inf.cfg", text.replace("p = 2\n", "p = 1e308\n")
                 .replace("q = 1.5\n", "q = 1e308\n"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "inf")]) == 3
    assert "invariant violations: 97\n" in capsys.readouterr().err
    rows = (tmp_path / "inf.csv").read_text(encoding="utf-8").splitlines()[1:]
    sides = [row.split(",")[_COLUMNS.index("lhs"):_COLUMNS.index("rhs") + 1] for row in rows]
    assert sum("inf" in pair for pair in sides) == 97 and len(rows) == 100


@pytest.mark.parametrize("name, key", [("czd_decompose.cfg", "q0"),
                                       ("t27_weak_type.cfg", "qprime")])
def test_a_level_far_below_the_window_exits_2_without_a_huge_int(tmp_path, capsys, name, key):
    # the level is refused before a first cube index of 2^(10^7) is built (2.7 MB traced)
    lines = [line for line in (CONFIGS / name).read_text(encoding="utf-8").splitlines()
             if not line.startswith(f"{key}_")]
    cfg = _write(tmp_path, "far.cfg", "\n".join(lines + [f"{key}_level = -10000000"]) + "\n")
    tracemalloc.start()
    try:
        code = cli.main(["run", cfg, "--out", str(tmp_path / "rep")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"{key}_level, {key}_index must give a cube of the window" in capsys.readouterr().err
    assert peak < 500_000, peak


def test_t27_extremal_check_fails_on_a_zero_extremal_rhs(tmp_path, capsys, monkeypatch):
    # c_observed includes the extremal row's own ratio, so the check can fail only where
    # that ratio is INF (left out of c_observed): rhs 0 and lhs > 0
    extremal = []
    honest_pair, honest_rhs = harness.necessity_pair, harness.rhs_bilinear_morrey_from

    def remembered(*args):
        f, g, lam = honest_pair(*args)
        extremal.append(f)
        return f, g, lam

    def zeroed(f, *args):  # one call per chunk, on a copy of the pair: match by values
        return np.zeros(len(f.values)) \
            if any(np.array_equal(f.values[0], x.values) for x in extremal) \
            else honest_rhs(f, *args)

    monkeypatch.setattr(harness, "necessity_pair", remembered)
    monkeypatch.setattr(harness, "rhs_bilinear_morrey_from", zeroed)
    out = tmp_path / "t27"
    assert cli.main(["run", str(CONFIGS / "t27_weak_type.cfg"), "--out", str(out)]) == 3
    assert "invariant violations: 3" in capsys.readouterr().err
    summary = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert summary["invariant_violations"] == 3
    assert [c["passed"] for c in summary["notes"]["extremal_checks"]] == [False] * 3
    assert len(extremal) == 3


def _run_exits_3_with(tmp_path, capsys, config, count):
    """Run a shipped config; it must exit 3 and report exactly count violations."""
    out = tmp_path / "rep"
    assert cli.main(["run", str(CONFIGS / config), "--out", str(out)]) == 3
    assert f"invariant violations: {count}\n" in capsys.readouterr().err
    summary = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert summary["invariant_violations"] == count


def _flip_e0_of(monkeypatch, name):
    """Rebind harness.<name>, a forest builder, so that each forest has E_0 flipped in one cell."""
    honest = getattr(harness, name)

    def tampered(*args, **kwargs):
        d = honest(*args, **kwargs)
        e0 = d.e0.copy()
        e0[0] = not e0[0]
        return dataclasses.replace(d, e0=e0)

    monkeypatch.setattr(harness, name, tampered)


def test_cz_invariants_count_a_violated_partition(tmp_path, capsys, monkeypatch):
    # E_0 flipped in one cell breaks the partition of Q0: one message per trial (10 trials)
    _flip_e0_of(monkeypatch, "cz_decompose")
    _run_exits_3_with(tmp_path, capsys, "czd_decompose.cfg", 10)


def test_cz_invariants_count_a_violated_alpha_partition(tmp_path, capsys, monkeypatch):
    # the same flip in the |Q|^(alpha/n) variant's forest, built in the same table pass
    _flip_e0_of(monkeypatch, "cz_decompose_alpha")
    _run_exits_3_with(tmp_path, capsys, "czd_decompose.cfg", 10)


def test_cz_invariants_recheck_from_a_table_pass_of_their_own(tmp_path, capsys, monkeypatch):
    # every table of the build pass doubled: the recheck pass must find each forest's gamma
    # wrong, one message per kind and trial (10 trials, all in one chunk)
    honest, passes = harness.functional_tables, []

    def doubled_build(*args):
        tables = honest(*args)
        passes.append(args)
        if len(passes) % 2 == 0:  # a chunk's second pass rechecks its forests
            return tables
        return [{level: 2.0 * t for level, t in table.items()} for table in tables]

    monkeypatch.setattr(harness, "functional_tables", doubled_build)
    _run_exits_3_with(tmp_path, capsys, "czd_decompose.cfg", 20)
    assert len(passes) == 2
    assert all(f.values.shape[0] == 10 for f, *_ in passes)


def test_jn_counts_a_telescoping_defect(tmp_path, capsys, monkeypatch):
    # one telescoping check per stage, two stages
    monkeypatch.setattr(harness, "telescoping_defect", lambda b, norm: 1.0)
    _run_exits_3_with(tmp_path, capsys, "jn_oscillation.cfg", 2)


def test_jn_counts_exponent_ratios_out_of_order(tmp_path, capsys, monkeypatch):
    # the e = 2 ratio dips below e = 1 while e = 4 equals it, so no trial row (e4 vs e1)
    # counts: only the order check of each of the two stages does
    honest = harness.oscillation_sups

    def dipped(b, exponents):
        norm = honest(b, exponents)[0]
        return np.stack([norm * (0.5 if e == 2.0 else 1.0) for e in exponents])

    monkeypatch.setattr(harness, "oscillation_sups", dipped)
    _run_exits_3_with(tmp_path, capsys, "jn_oscillation.cfg", 2)


def test_bh_domination_counts_each_dominated_trial(tmp_path, capsys, monkeypatch):
    # a doubled bh_maximal exceeds the centered maximal functions somewhere in 97 of the 100
    # trials (seed 9); each such trial is one violation, and its row's lhs is above the
    # tolerance in its rhs
    honest = harness.bh_maximal
    monkeypatch.setattr(harness, "bh_maximal",
                        lambda f, g: LatticeFunction(f.window, 2.0 * honest(f, g).values))
    _run_exits_3_with(tmp_path, capsys, "bh_domination.cfg", 97)
    rows = (tmp_path / "rep.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert sum(float(r.split(",")[6]) > 1.0 for r in rows) == 97


def test_norm_subcommand_matches_library(tmp_path, capsys):
    w = Window(1, -3, 0)
    f = random_lattice(w, 5)
    path = tmp_path / "f.csv"
    to_csv(f, path)
    assert cli.main(["norm", str(path), "--p", "2", "--q", "1.5"]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert_close(printed, morrey_norm(f, 2.0, 1.5))


def test_norm_subcommand_with_power_weight(tmp_path, capsys):
    w = Window(1, -3, 0)
    f = random_lattice(w, 6)
    path = tmp_path / "f.csv"
    to_csv(f, path)
    assert cli.main(["norm", str(path), "--p", "2", "--q", "1.5",
                     "--weight", "pow:0.5"]) == 0
    printed = float(capsys.readouterr().out.strip())
    from morreylab.field import power_weight
    assert_close(printed, morrey_norm(f, 2.0, 1.5, w=power_weight(0.5, w)))


def test_norm_rejects_a_repeated_cell_exit_2(tmp_path, capsys):
    path = tmp_path / "f.csv"
    to_csv(random_lattice(Window(1, -2, 0), 5), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("-4,99.0\n")
    assert cli.main(["norm", str(path), "--p", "2", "--q", "1.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ") and "repeated" in err


def test_norm_refuses_a_dim_0_header_exit_2(tmp_path, capsys):
    bad = tmp_path / "dim0.csv"
    bad.write_text("-2,0,0\n0.5\n", encoding="utf-8")
    good = tmp_path / "f.csv"
    to_csv(random_lattice(Window(1, -2, 0), 5), good)
    for path, weight in ((bad, []), (good, ["--weight", f"csv:{bad}"])):
        assert cli.main(["norm", str(path), "--p", "2", "--q", "1", *weight]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation failure: bad CSV {str(bad)!r}") and "dim" in err


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(T25_CONFIG.encode() + b"# caf\xe9\n")  # one Latin-1 byte in a comment
    for argv in (["run", str(path), "--out", str(tmp_path / "rep")],
                 ["decompose", str(path), "--json", str(tmp_path / "dec.json")],
                 ["weight-const", "C29", str(path)]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation failure: config {str(path)!r} is not UTF-8")
    assert not list(tmp_path.glob("rep*")) and not (tmp_path / "dec.json").exists()


def test_weight_const_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, "wc.cfg", """
experiment = T28
dim = 1
level_min = -2
level_max = 0
alpha = 0.4
q1 = 4
q2 = 4
p = 2.2
r = 2.5
a = 1.5
r1 = 2
r2 = 2
weight_v = pow:-0.1
weight_w1 = pow:0.1
weight_w2 = pow:0.1
""")
    assert cli.main(["weight-const", "C29", cfg]) == 0
    printed = float(capsys.readouterr().out.strip())
    w = Window(1, -2, 0)
    from morreylab.field import power_weight
    e = build("T28", 1, 0.4, 4.0, 4.0, 2.2, 2.5, a=1.5, r1=2.0, r2=2.0)
    expect = two_weight_constant(WeightConditionKind.C29, power_weight(-0.1, w),
                                 power_weight(0.1, w), power_weight(0.1, w), e, w)
    assert_close(printed, expect)


def test_weight_const_missing_key_is_validation_failure(tmp_path, capsys):
    cfg = _write(tmp_path, "wc.cfg", """
experiment = T28
dim = 1
level_min = -2
level_max = 0
q2 = 4
p = 2.2
""")
    assert cli.main(["weight-const", "C29", cfg]) == 2
    assert "'q1'" in capsys.readouterr().err


def test_weight_const_defaults_weight_v_like_run(tmp_path, capsys):
    keep = [line for line in (CONFIGS / "t28_strong_maximal.cfg").read_text(encoding="utf-8")
            .splitlines() if line.split("=", 1)[0].strip() != "weight_v"]
    path = _write(tmp_path, "no_v.cfg", "\n".join(keep + [""]))
    assert cli.main(["run", path, "--out", str(tmp_path / "rep")]) == 0
    capsys.readouterr()
    assert cli.main(["weight-const", "C29", path]) == 0
    printed = capsys.readouterr().out.strip()
    cfg = cli._load_config(path)
    win = cfg.window
    kind = WeightConditionKind.C29
    from morreylab.field import power_weight
    w = power_weight(0.1, win)
    want = two_weight_constant(kind, Weight.constant(win, 1.0), w, w,
                               harness._exponent_set(cfg.params, win.dim, kind), win)
    assert printed == repr(want)


def test_weight_const_refuses_a_config_that_its_run_refuses(tmp_path, capsys):
    # a = 5 breaks the T28 regime of the config's own C29, not the T27 regime of C27
    path = _write(tmp_path, "bad_a.cfg", _shipped("t28_strong_maximal.cfg", a="5"))
    assert cli.main(["weight-const", "C27", path]) == 2
    assert "validation failure: 1<a<min(q1/r1,q2/r2) (a=5.0" in capsys.readouterr().err


@pytest.mark.parametrize("kind,config", [("C27", "t27_weak_type.cfg"),
                                         ("C211", "t29_vector_weight.cfg")])
def test_weight_const_prints_the_runners_constant(kind, config, capsys, monkeypatch):
    path = str(CONFIGS / config)
    assert cli.main(["weight-const", kind, path]) == 0
    printed = capsys.readouterr().out.strip()
    consts = []

    def recording(*args):
        consts.append(two_weight_constant(*args))
        return consts[-1]

    monkeypatch.setattr(harness, "two_weight_constant", recording)
    raw = dict(cli._load_config(path).raw, trials="2", refinements="0")
    run_experiment(config_from_pairs(sorted(raw.items())))
    assert consts[0] > 0.0 and printed == repr(consts[0])


def test_decompose_subcommand(tmp_path):
    cfg = _write(tmp_path, "dec.cfg", """
experiment = CZ_INV
dim = 1
level_min = -5
level_max = 0
q0_level = -1
q0_index = 0
theta1 = 2
theta2 = 2
seed = 12
""")
    out = tmp_path / "dec.json"
    assert cli.main(["decompose", cfg, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert {"gamma", "factor", "levels", "e_cells"} <= set(doc)


def test_decompose_rejects_an_unknown_kind(tmp_path, capsys):
    cfg = _write(tmp_path, "dec.cfg", """
experiment = CZ_INV
kind = cz-alpha
dim = 1
level_min = -5
level_max = 0
q0_level = -1
q0_index = 0
seed = 12
""")
    out = tmp_path / "dec.json"
    assert cli.main(["decompose", cfg, "--json", str(out)]) == 2
    assert "'cz-alpha'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["cz", "cz_alpha"])
def test_decompose_exits_3_on_a_violated_invariant(tmp_path, capsys, monkeypatch, kind):
    cfg = _write(tmp_path, "dec.cfg", f"""
experiment = CZ_INV
kind = {kind}
dim = 1
level_min = -5
level_max = 0
q0_level = -1
q0_index = 0
seed = 12
""")
    _flip_e0_of(monkeypatch, "cz_decompose_alpha" if kind == "cz_alpha" else "cz_decompose")
    out = tmp_path / "dec.json"
    assert cli.main(["decompose", cfg, "--json", str(out)]) == 3
    err = capsys.readouterr().err
    assert "invariant violations" in err and "partition" in err


def test_python_dash_m_runs_a_shipped_config(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = tmp_path / "t27"
    proc = subprocess.run([sys.executable, "-m", "morreylab", "run",
                           str(root / "configs" / "t27_weak_type.cfg"), "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.with_suffix(".json").read_text())["experiment"] == "T27_necessity"


# Every shipped config on a window of at most three levels with two trials, in one process.
_RUN_EVERY_CONFIG = """
import json, sys
from pathlib import Path
from morreylab import cli
from morreylab.harness import parse_config
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
codes = {}
for path in sorted(configs.glob("*.cfg")):
    cfg = parse_config(path.read_text(encoding="utf-8"))
    level_min = max(cfg.window.level_min, cfg.window.level_max - 2)
    raw = dict(cfg.raw, trials="2", level_min=str(level_min))
    small = out / path.name
    small.write_text("".join(f"{k} = {v}\\n" for k, v in raw.items()), encoding="utf-8")
    codes[path.stem] = cli.main(["run", str(small), "--out", str(out / path.stem)])
print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_shipped_configs_run_without_importing_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, which adds 15-20 ms and 1.6 MB to a process
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _RUN_EVERY_CONFIG, str(CONFIGS), str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {p.stem: 0 for p in sorted(CONFIGS.glob("*.cfg"))}
    assert not result["numpy.ma"]


@pytest.mark.parametrize("text", [
    "experiment = T23\nalpha = 0.5\nq1 = 1.8\nq2 = 1.8\np = 1.5\nr = 2.1\na = 1.5\n"
    "n_symbols = 2\nbeta_pattern = 1,2,1\ntrials = 2\n",
    "experiment = COR_BH\nalpha = 0.4\nq1 = 4\nq2 = 4\np = 2.2\nr = inf\na = 1.5\n"
    "r1 = 2\nr2 = 2\ntrials = 2\n",
], ids=["T23_beta_pattern_length", "COR_BH_alpha"])
def test_run_strong_type_bad_parameters_exit_2(tmp_path, capsys, text):
    cfg = _write(tmp_path, "bad.cfg", text)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert "validation failure" in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


def test_run_unknown_key_exit_2(tmp_path, capsys):
    # a misspelt key would otherwise fall back to its default: here 20 trials per stage
    text = (CONFIGS / "t21_two_weight.cfg").read_text(encoding="utf-8")
    cfg = _write(tmp_path, "typo.cfg", text.replace("trials = 20", "trails = 3"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert "unknown key 'trails'" in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


def test_run_repeated_refinement_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", T25_CONFIG + "refinements = 0,0\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert "refinements" in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize("name", ["t23_commutator.cfg", "t26_commutator_control.cfg"])
@pytest.mark.parametrize("n_symbols", [0, -1])
def test_run_without_a_symbol_exit_2(tmp_path, capsys, name, n_symbols):
    keep = [line for line in (CONFIGS / name).read_text(encoding="utf-8").splitlines()
            if line.split("=", 1)[0].strip() != "n_symbols"]
    cfg = _write(tmp_path, "bad.cfg", "\n".join(keep + [f"n_symbols = {n_symbols}", ""]))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert "n_symbols" in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize("depth", [-1, 257])  # the cap is harness._MAX_DEPTH = 256
def test_run_depth_out_of_range_exit_2(tmp_path, capsys, depth):
    cfg = _write(tmp_path, "bad.cfg", T25_CONFIG + f"depth = {depth}\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert "needs 0 <= depth <= 256; got depth = " in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


def test_run_depth_whose_leaf_squares_underflow_exit_2(tmp_path, capsys):
    # cells of side 2^-303 at the refined stage: the leaf midpoints 2^-560 square to 0.0
    text = (CONFIGS / "t28_strong_maximal_2d.cfg").read_text(encoding="utf-8")
    text = text.replace("level_min = -3", "level_min = -302").replace("level_max = 0",
                                                                      "level_max = -300")
    cfg = _write(tmp_path, "deep.cfg", text + "depth = 256\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert "square to 0.0 (depth must be <= 233)" in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


def test_run_power_weight_that_overflows_exit_2(tmp_path, capsys):
    # cells of side 2^-508 touch the origin: |x|^-1.99 at the quadrature's smallest leaf
    # radii is above the largest float, though the leaf squares do not underflow
    text = (CONFIGS / "t28_strong_maximal_2d.cfg").read_text(encoding="utf-8")
    for old, new in (("level_min = -3", "level_min = -508"), ("level_max = 0", "level_max = -506"),
                     ("weight_v = pow:-0.1", "weight_v = pow:-1.99"),
                     ("trials = 8", "trials = 1"), ("refinements = 0,1", "refinements = 0")):
        assert old in text
        text = text.replace(old, new)
    cfg = _write(tmp_path, "deep.cfg", text)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert "validation failure: |x|^-1.99 overflows" in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize("name", ["t28_strong_maximal.cfg", "t27_sufficiency.cfg"])
def test_run_alpha_minus_inf_is_a_validation_failure_exit_2(tmp_path, capsys, name):
    # 1/s = 1/p + 1/r - alpha/n is inf, so s = 0.0 (and t = 0.0 in T27): no 1/s may be taken
    lines = (CONFIGS / name).read_text(encoding="utf-8").splitlines()
    assert any(line.startswith("alpha = ") for line in lines)
    text = "\n".join("alpha = -inf" if line.startswith("alpha = ") else line for line in lines)
    cfg = _write(tmp_path, "bad.cfg", text + "\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert "validation failure: 0<=alpha<n (alpha=-inf, n=1); s finite and nonzero (s=0.0)" in err
    assert ("t finite and nonzero (t=0.0)" in err) == (name == "t27_sufficiency.cfg")
    assert not (tmp_path / "rep.csv").exists()


def test_run_zero_r1_is_a_validation_failure_exit_2(tmp_path, capsys):
    text = (CONFIGS / "t28_strong_maximal.cfg").read_text(encoding="utf-8")
    assert "r1 = 2\n" in text
    cfg = _write(tmp_path, "bad.cfg", text.replace("r1 = 2\n", "r1 = 0\n"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert "validation failure: 0<r1<q1 (r1=0.0, q1=4.0)" in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


def test_depth_is_checked_for_runners_that_do_not_read_it(tmp_path, capsys):
    # JN builds no power weight or kernel; the range is checked when the config is parsed
    text = (CONFIGS / "jn_oscillation.cfg").read_text(encoding="utf-8")
    cfg = _write(tmp_path, "deep.cfg", text + "\ndepth = 5000\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert "needs 0 <= depth <= 256; got depth = " in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


def _shipped(name: str, **values) -> str:
    """The text of a shipped config with the given keys set (replaced or added)."""
    keep = [line for line in (CONFIGS / name).read_text(encoding="utf-8").splitlines()
            if line.split("=", 1)[0].strip() not in values]
    return "\n".join(keep + [f"{k} = {v}" for k, v in values.items()]) + "\n"


def _run_exits_2_with(tmp_path, capsys, text, message):
    """Run a config text; it must exit 2 with message on stderr and write no report."""
    cfg = _write(tmp_path, "bad.cfg", text)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize("key", ["q1", "q2"])
@pytest.mark.parametrize("name", [
    "t21_two_weight.cfg", "t22_two_weight.cfg", "t24_commutator.cfg", "t27_sufficiency.cfg",
    "t28_strong_maximal.cfg", "t29_vector_weight.cfg", "cor_bh_maximal.cfg"])
def test_run_zero_q_is_a_validation_failure_exit_2(tmp_path, capsys, name, key):
    # 1/q = 1/q1 + 1/q2 is undefined; the exponent set may not divide (L39's q_i > 1 is below)
    cfg = _write(tmp_path, "bad.cfg", _shipped(name, **{key: "0"}))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert "validation failure: q undefined: 1/q1 + 1/q2 with q1=" in err and f"{key}=0.0" in err
    assert not (tmp_path / "rep.csv").exists()


def test_negative_seed_in_a_config_exit_2(tmp_path, capsys):
    # numpy's SeedSequence would refuse it with a message that names no key
    _run_exits_2_with(tmp_path, capsys, _shipped("jn_oscillation.cfg", seed="-1"),
                      "validation failure: JN needs seed >= 0; got seed = -1")


def test_run_negative_seed_flag_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "t25.cfg", T25_CONFIG)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep"), "--seed", "-1"]) == 2
    assert "validation failure: T25 needs seed >= 0; got seed = -1" in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize("values, message", [
    ({"q1": "0.5"}, "L39 needs q1 > 1; got q1 = 0.5"),
    ({"q1": "0"}, "L39 needs q1 > 1; got q1 = 0.0"),
    ({"q2": "0"}, "L39 needs q2 > 1; got q2 = 0.0"),
    ({"q2": "1"}, "L39 needs q2 > 1; got q2 = 1.0"),
    ({"t_hat": "1.4"}, "L39 needs t_hat >= q = 1.5; got t_hat = 1.4"),
])
def test_lemma39_domain_errors_are_validation_failures(tmp_path, capsys, values, message):
    with pytest.raises(ValidationError, match=message):
        run_experiment(harness.parse_config(_shipped("l39_joint_weight.cfg", **values)))
    _run_exits_2_with(tmp_path, capsys, _shipped("l39_joint_weight.cfg", **values),
                      f"validation failure: {message}\n")


@pytest.mark.parametrize("values, message", [
    ({"theta1": "1"}, "CZ_INV needs theta1 > 1; got theta1 = 1.0"),
    ({"theta2": "-inf"}, "CZ_INV needs theta2 > 1; got theta2 = -inf"),
    ({"r1": "3"}, "CZ_INV needs a Holder pair, 1/r1 + 1/r2 = 1; got r1 = 3.0, r2 = 2.0"),
    ({"r2": "0"}, "CZ_INV needs a Holder pair, 1/r1 + 1/r2 = 1; got r1 = 2.0, r2 = 0.0"),
    ({"alpha": "1"}, "CZ_INV needs 0 <= alpha < n = 1; got alpha = 1.0"),
])
def test_cz_invariants_domain_errors_are_validation_failures(tmp_path, capsys, values, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        run_experiment(harness.parse_config(_shipped("czd_decompose.cfg", **values)))
    _run_exits_2_with(tmp_path, capsys, _shipped("czd_decompose.cfg", **values),
                      f"validation failure: {message}\n")


@pytest.mark.parametrize("key", ["theta1", "r1"])
@pytest.mark.parametrize("command", ["run", "decompose"])
def test_czd_nan_value_is_a_validation_failure_exit_2(tmp_path, capsys, command, key):
    # a nan fails no `<=` or `>` guard, so it must be refused when the config is parsed
    cfg = _write(tmp_path, "nan.cfg", _shipped("czd_decompose.cfg", **{key: "nan"}))
    out = tmp_path / "rep"
    argv = {"run": ["run", cfg, "--out", str(out)],
            "decompose": ["decompose", cfg, "--json", str(out)]}[command]
    assert cli.main(argv) == 2
    assert f"validation failure: cannot parse value for {key!r}: 'nan'" in capsys.readouterr().err
    assert not list(tmp_path.glob("rep*"))


@pytest.mark.parametrize("name, key, value, experiment", [
    ("t27_weak_type.cfg", "vartheta1", "-inf", "T27_necessity"),
    ("l39_joint_weight.cfg", "r1", "100", "L39"),
    ("jn_oscillation.cfg", "alpha", "nan", "JN"),
    ("czd_decompose.cfg", "kind", "cz", "CZ_INV"),  # read by `morreylab decompose` only
])
def test_run_key_the_experiment_does_not_read_exit_2(tmp_path, capsys, name, key, value,
                                                     experiment):
    _run_exits_2_with(tmp_path, capsys, _shipped(name, **{key: value}),
                      f"validation failure: {experiment} does not read key {key!r}")


@pytest.mark.parametrize("name, key, value", [
    ("t21_two_weight.cfg", "top_count", "1,2"),
    ("czd_decompose.cfg", "q0_level", "abc"),
    ("t25_maximal_control.cfg", "origin_offset", "inf"),
])
def test_run_non_integer_for_an_integer_key_exit_2(tmp_path, capsys, name, key, value):
    _run_exits_2_with(tmp_path, capsys, _shipped(name, **{key: value}),
                      f"validation failure: cannot parse value for {key!r}: {value!r}")


def test_run_reports_each_missing_required_key(tmp_path, capsys):
    _run_exits_2_with(tmp_path, capsys, "experiment = SW101\nalpha = 0.5\nq1 = 3\np2 = 3.6\n",
                      "validation failure: missing required key 'q2' for SW101; "
                      "missing required key 'p1' for SW101\n")


@pytest.mark.parametrize("argv, message", [
    (["decompose", "t27_weak_type.cfg", "--json"], "decompose needs a CZ_INV config; got "
                                                   "T27_necessity"),
    (["weight-const", "C29", "jn_oscillation.cfg"], "JN does not read the exponent keys"),
    (["weight-const", "C22", "t25_maximal_control.cfg"], "T25 does not read the exponent keys"),
    (["weight-const", "C29", "sw101_power_weight.cfg"], "SW101 does not read the exponent keys"),
])
def test_command_on_a_config_of_another_experiment_exit_2(tmp_path, capsys, argv, message):
    argv = [str(CONFIGS / a) if a.endswith(".cfg") else a for a in argv]
    if argv[-1] == "--json":
        argv.append(str(tmp_path / "dec.json"))
    assert cli.main(argv) == 2
    assert f"validation failure: {message}" in capsys.readouterr().err
    assert not (tmp_path / "dec.json").exists()


def test_run_t27_necessity_with_r_equal_to_q_exit_2(tmp_path, capsys):
    # the T27 regime admits r_i = q_i, but the extremal pair's exponents q_i / (q_i - r_i) do not
    _run_exits_2_with(tmp_path, capsys,
                      _shipped("t27_weak_type.cfg", q1="2", q2="2", r1="2", r2="2"),
                      "validation failure: T27_necessity needs r1 < q1; got r1 = 2.0, q1 = 2.0; "
                      "T27_necessity needs r2 < q2; got r2 = 2.0, q2 = 2.0\n")


def test_run_beta_pattern_slot_other_than_1_or_2_exit_2(tmp_path, capsys):
    _run_exits_2_with(tmp_path, capsys, _shipped("t23_commutator.cfg", beta_pattern="3,3"),
                      "validation failure: T23 needs beta_pattern of slots 1 or 2; got "
                      "beta_pattern = (3, 3)\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # L39's (w1 w2)^1e308 overflows in numpy
@pytest.mark.parametrize("name, values, message", [
    ("cor_bh_maximal.cfg", {"p": "1e308"}, "t finite and nonzero (t=inf)"),
    ("sw101_power_weight.cfg", {"gamma1": "1e308"}, "|x|^1e+308 overflows a float or underflows"),
    ("l39_joint_weight.cfg", {"t_hat": "1e308"}, "(w1 w2)^t_hat or w_i^(-q_i') leaves the positive"),
])
def test_run_powers_past_the_float_range_exit_2(tmp_path, capsys, name, values, message):
    # s q / p is refused by the parse; the weight's averages and the joint power only by the run
    _run_exits_2_with(tmp_path, capsys, _shipped(name, **values), f"validation failure: {message}")


@pytest.mark.parametrize("name, offset", [
    ("t28_strong_maximal_2d.cfg", f"{1 << 58},{1 << 58}"),  # the quadrature's leaf midpoints
    ("t28_strong_maximal.cfg", f"{1 << 61}"),               # the 1-D weights' cell edges
    ("jn_oscillation.cfg", f"{1 << 61}"),                   # the JN log's cell centres
])
def test_run_window_past_53_bits_exit_2(tmp_path, capsys, name, offset):
    # such coordinates are no exact floats, and the int64 ones wrap from 2^63 on
    cfg = _write(tmp_path, "wide.cfg", _shipped(name, origin_offset=offset, top_count="1"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure: the coordinates of Window(dim=")
    assert err.endswith(" need more than 53 bits\n")


def test_norm_power_weight_past_53_bits_exit_2(tmp_path, capsys):
    path = tmp_path / "f.csv"
    to_csv(random_lattice(Window(1, -2, 0, origin_offset=(1 << 61,), top_count=1), 5), path)
    assert cli.main(["norm", str(path), "--p", "2", "--q", "1.5", "--weight", "pow:0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure: the coordinates of Window(dim=1, level_min=-2")
    assert "need more than 53 bits" in err


@pytest.mark.parametrize("case, message", [
    ("q_above_p", "norm needs 0 < q <= p; got q=2.0, p=1.5"),
    ("const_0", "norm needs weight = pow:G"),
    ("pow_-5", "norm needs weight = pow:G"),
    ("bad_csv_weight", "cell index (-4,) is repeated"),
])
def test_norm_bad_input_is_a_validation_failure_exit_2(tmp_path, capsys, case, message):
    good, bad = tmp_path / "f.csv", tmp_path / "bad.csv"
    to_csv(random_lattice(Window(1, -2, 0), 5), good)
    bad.write_text(good.read_text(encoding="utf-8") + "-4,99.0\n", encoding="utf-8")
    argv = {"q_above_p": [str(good), "--p", "1.5", "--q", "2"],
            "const_0": [str(good), "--p", "2", "--q", "1.5", "--weight", "const:0"],
            "pow_-5": [str(good), "--p", "2", "--q", "1.5", "--weight", "pow:-5"],
            "bad_csv_weight": [str(good), "--p", "2", "--q", "1.5", "--weight", f"csv:{bad}"]}
    assert cli.main(["norm", *argv[case]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ") and message in err


def test_weight_const_of_the_other_t21_kind_exit_2(capsys):
    # the shipped T21 set has s >= 1, so it takes C23; C22 is the kind of the sets with s < 1
    assert cli.main(["weight-const", "C22", str(CONFIGS / "t21_two_weight.cfg")]) == 2
    assert "validation failure: C22 needs s<1 and C23 needs s>=1 (s=1.5" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["C29", "CBH", "C27", "C211"])
def test_weight_const_on_the_t29_config_takes_c211_only(kind, capsys):
    # T29 names u1, u2 and no v, w1, w2: a kind but C211 would be evaluated on weights that no
    # run reads (C29 and CBH once stopped at the missing a, C27 printed such a constant)
    code = cli.main(["weight-const", kind, str(CONFIGS / "t29_vector_weight.cfg")])
    out, err = capsys.readouterr()
    if kind == "C211":
        assert code == 0 and float(out) > 0.0
    else:
        assert code == 2 and not out
        assert err == (f"validation failure: T29's weight_u1, weight_u2 are read only by C211; "
                       f"got {kind}\n")


def test_t21_at_s_equal_to_1_takes_c23(tmp_path, capsys):
    # 1/s = 1/p + 1/r - alpha = 1.25 + 0.25 - 0.5 = 1 exactly, and t = s q / p = 1
    path = _write(tmp_path, "s1.cfg", _shipped("t21_two_weight.cfg", q1="1.6", q2="1.6", p="0.8",
                                                r="4", trials="2", refinements="0"))
    assert cli.main(["run", path, "--out", str(tmp_path / "rep")]) == 0
    summary = json.loads((tmp_path / "rep.json").read_text(encoding="utf-8"))
    assert summary["notes"]["condition_kind"] == "C23"
    capsys.readouterr()
    assert cli.main(["weight-const", "C23", path]) == 0
    assert float(capsys.readouterr().out) > 0.0
    assert cli.main(["weight-const", "C22", path]) == 2
    assert "C22 needs s<1 and C23 needs s>=1 (s=1.0)" in capsys.readouterr().err


def test_a_value_error_inside_the_program_is_not_exit_2(tmp_path, monkeypatch):
    # exit 2 is bad input only: any exception but ValidationError and OSError is a bug and leaves
    # cli.main, so the command line prints its traceback and exits 1
    def broken(cfg):
        raise ValueError("an operator bug")

    monkeypatch.setattr(cli, "run_experiment", broken)
    cfg = _write(tmp_path, "t25.cfg", T25_CONFIG)
    with pytest.raises(ValueError, match="an operator bug"):
        cli.main(["run", cfg, "--out", str(tmp_path / "rep")])


def test_norm_infinite_q_exit_2(tmp_path, capsys):
    # (mean |f|^q)^(1/q) at q = inf is x ** 0.0 = 1.0 whatever f is: this norm printed 1.0
    path = tmp_path / "f.csv"
    to_csv(LatticeFunction(Window(1, -2, 0), np.linspace(0.1, 5.0, 8)), path)
    assert cli.main(["norm", str(path), "--p", "inf", "--q", "inf"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "validation failure: norm needs a finite q; got q=inf" in err


@pytest.mark.parametrize("name, values, message", [
    # every row read lhs = rhs = 1.0
    ("t25_maximal_control.cfg", {"p": "inf", "q": "inf"}, "T25 needs a finite q; got q = inf"),
    # the maximal function of the pair (inf, 1) is g's part alone
    ("t25_maximal_control.cfg", {"r1": "inf", "r2": "1"}, "T25 needs a finite r1; got r1 = inf"),
    ("t26_commutator_control.cfg", {"vartheta1": "inf"},
     "T26 needs a finite vartheta1; got vartheta1 = inf"),
    # vartheta2 r2 overflows to inf
    ("t26_commutator_control.cfg", {"vartheta2": "1e308"},
     "T26 needs a finite vartheta2 * r2; got vartheta2 = 1e+308, r2 = 2.0"),
    # the stopping-time tables ignored f
    ("czd_decompose.cfg", {"theta1": "inf"}, "CZ_INV needs a finite theta1; got theta1 = inf"),
])
def test_run_infinite_exponent_exit_2(tmp_path, capsys, name, values, message):
    keep = [line for line in (CONFIGS / name).read_text(encoding="utf-8").splitlines()
            if line.split("=", 1)[0].strip() not in values]
    cfg = _write(tmp_path, "bad.cfg", "\n".join(keep + [f"{k} = {v}" for k, v in values.items()])
                 + "\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep.csv").exists()


def test_run_window_past_the_cell_bound_exit_2(tmp_path, capsys):
    # 2^72 cells at the refined stage: without the bound np.empty refuses the draw table's
    # shape (exit 1); either way no array of that size is allocated
    text = (CONFIGS / "jn_oscillation.cfg").read_text(encoding="utf-8")
    cfg = _write(tmp_path, "wide.cfg", text.replace("level_min = -6", "level_min = -70"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert ("a stage holds at most 2^27 cells; the finest, at level_min -71, has (2 * 2^71)^1"
            in capsys.readouterr().err)
    assert not (tmp_path / "rep.csv").exists()
