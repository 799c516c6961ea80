"""Fuzz over the shipped configs: one or two keys that the experiment reads, set to odd
values, must end in exit 0, 2 or 3 and raise nothing out of cli.main.

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
_ODD = ("0", "-1", "nan", "inf", "-inf", "1e308", "abc", "1,2", "pow:-5", "const:0")
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


# numpy's overflow warnings (a 1e308 exponent) print on the command line and leave the exit
# code alone, which is all that is checked here
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(odd_configs())
@example(("t22_two_weight.cfg", {"q2": "0"}))
@example(("czd_decompose.cfg", {"theta1": "nan"}))
def test_odd_values_exit_0_2_or_3(case):
    name, values = case
    raw = dict(_RAW[name], trials="2", **values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(path), "--out", str(Path(tmp) / "rep")])
    assert code in (0, 2, 3), (name, values)
