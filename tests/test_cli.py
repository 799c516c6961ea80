import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from morreylab import cli, harness
from morreylab.dyadic import Window
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
    make = "cz_decompose_alpha" if kind == "cz_alpha" else "cz_decompose"
    honest = getattr(cli, make)

    def tampered(*args):
        d = honest(*args)
        e0 = d.e0.copy()
        e0[0] = not e0[0]
        return dataclasses.replace(d, e0=e0)

    monkeypatch.setattr(cli, make, tampered)
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
