"""Every shipped inequality under dilation by one level.

The windows sit on the dyadic grid about the origin, the draws depend only on a window's
shape, and power weights and kernels scale exactly.  So a config whose level keys
(level_min, level_max, q0_level, qprime_level) all move by k runs on the same inputs
dilated by 2^k, and a composed inequality of scaling degree d moves each row's ratio by
exactly 2^(k d).  Every shipped ratio composition has d = 0 (SW101's shipped config is on
balance); T29's has d = n / r (ROADMAP item 13).  CZ_INV's rows count violations and
have no ratio to scale.
"""

import math
from pathlib import Path

import pytest

from morreylab.harness import config_from_pairs, parse_config, run_experiment

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
_LEVEL_KEYS = ("level_min", "level_max", "q0_level", "qprime_level")


def _ratios(cfg) -> list[float]:
    return [row["ratio"] for row in run_experiment(cfg).rows]


def _dilated(cfg, k: int):
    """cfg with each level key it has moved by k (level_min and level_max always)."""
    pairs = dict(cfg.raw)
    for key in _LEVEL_KEYS:
        if cfg.params.get(key) is not None:
            pairs[key] = str(cfg.params[key] + k)
    return config_from_pairs(pairs.items())


_T29 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13: C211 "
                         "has no |Q'|^(1/r) factor, so T29's ratio moves by 2^(n/r) per "
                         "level of level_max")


@pytest.mark.parametrize("k", [-1, 1])
@pytest.mark.parametrize("path", [
    pytest.param(p, id=p.stem, marks=[_T29] if p.stem == "t29_vector_weight" else [])
    for p in CONFIGS if "experiment = CZ_INV" not in p.read_text(encoding="utf-8")])
def test_a_dilated_config_keeps_every_ratio(path, k):
    cfg = parse_config(path.read_text(encoding="utf-8"))
    base, moved = _ratios(cfg), _ratios(_dilated(cfg, k))
    assert len(base) == len(moved) == cfg.trials * len(cfg.refinements)
    pairs = [(a, b) for a, b in zip(base, moved) if 0.0 < a < math.inf]
    assert pairs, "no finite, positive row"
    worst = max(abs(math.log2(b / a)) for a, b in pairs)
    assert worst <= 1e-12, f"|log2(ratio'/ratio)| reaches {worst} at k = {k}"
