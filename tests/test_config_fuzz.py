"""Fuzz over the shipped configs: one or two keys that the experiment reads, set to odd
values, must end in exit 0, 2 or 3 and raise nothing out of cli.main.  cli.main turns only a
ValidationError (or an OSError) into exit 2, so bad input that ends in any other exception
fails here.

The window, level, depth, refinements and trials keys are never set, so memory stays
bounded; every run takes two trials.  Hypothesis runs derandomized, so the examples are the
same on every run.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morreylab import cli
from morreylab.harness import _COMMON, parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_ODD = ("0", "-1", "nan", "inf", "-inf", "1e308", "abc", "1,2", "pow:-5", "const:0", "0.5", "5")
_RAW = {p.name: dict(parse_config(p.read_text(encoding="utf-8")).raw)
        for p in sorted(CONFIGS.glob("*.cfg"))}
# config -> the keys its experiment reads that the fuzz may set (JN and BH_DOM: the seed only)
_FUZZED = {name: sorted(set(parse_config(CONFIGS.joinpath(name).read_text(encoding="utf-8"))
                            .params) - set(_COMMON) | {"seed"}) for name in _RAW}


@st.composite
def odd_configs(draw):
    name = draw(st.sampled_from(sorted(_FUZZED)))
    keys = draw(st.lists(st.sampled_from(_FUZZED[name]), min_size=1, max_size=2, unique=True))
    return name, {key: draw(st.sampled_from(_ODD)) for key in keys}


# numpy's overflow warnings print on the command line and leave the exit code alone, which
# is all that is checked here: T25 and T26 with p = q = 1e308 still overflow in morrey_norm
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(odd_configs())
@example(("t22_two_weight.cfg", {"q2": "0"}))
@example(("czd_decompose.cfg", {"theta1": "nan"}))
# once a plain ValueError, each from the named place
@example(("t21_two_weight.cfg", {"weight_v": "const:0"}))  # Weight.__init__
@example(("t28_strong_maximal.cfg", {"weight_w1": "pow:-5"}))  # field.abs_power_cell_averages
@example(("sw101_power_weight.cfg", {"gamma1": "-1"}))  # field.abs_power_cell_averages
@example(("t25_maximal_control.cfg", {"alpha": "0"}))  # operators._correlation
@example(("t24_commutator_2d.cfg", {"weight_v": "pow:-5"}))  # field._grid_averages
@example(("sw101_power_weight.cfg", {"beta": "1e308"}))  # field.abs_power_cell_averages
@example(("cor_bh_maximal.cfg", {"p": "1e308"}))  # weights_norms.morrey_norm
@example(("t27_weak_type.cfg", {"q1": "5", "r1": "5"}))  # czd.necessity_pair: r1 = q1
@example(("t23_commutator.cfg", {"beta_pattern": "3,3"}))  # operators.CommutatorSpec
@example(("t25_maximal_control.cfg", {"r1": "-1", "r2": "0.5"}))  # maximal.m_alpha_r
# once exit 0 on a mean of 1.0 or a dropped function; exit 1 if the parse let one through
@example(("t25_maximal_control.cfg", {"p": "inf", "q": "inf"}))  # weights_norms.morrey_norm
@example(("t25_maximal_control.cfg", {"r1": "inf", "r2": "1"}))  # maximal.m_alpha_r
@example(("t26_commutator_control.cfg", {"vartheta1": "inf"}))  # maximal.m_alpha_r
@example(("t26_commutator_control.cfg", {"vartheta2": "1e308"}))  # maximal.m_alpha_r
@example(("czd_decompose.cfg", {"theta1": "inf"}))  # czd.cz_decompose
def test_odd_values_exit_0_2_or_3(case):
    name, values = case
    raw = dict(_RAW[name], trials="2", **values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(path), "--out", str(Path(tmp) / "rep")])
    assert code in (0, 2, 3), (name, values)
