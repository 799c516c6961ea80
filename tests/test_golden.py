"""Every shipped config's report, the weight-const and decompose outputs and two
non-empty stopping-time forests against tests/golden/.

On the platform that produced the goldens (same Python, numpy, BLAS and
CPU features, see regen_golden.platform_fingerprint) the comparison is
byte for byte.  Elsewhere it falls back to a relative tolerance of 1e-12
and says so.  A failure names the first differing CSV row and column, the
JSON key path, or the text line.
"""

from __future__ import annotations

import json
import math
import warnings

import pytest

from regen_golden import GOLDEN, PLATFORM_FILE, SPIKED_1D_NAME, platform_fingerprint, produce

RTOL = 1e-12

GOLDEN_NAMES = sorted(p.name for p in GOLDEN.iterdir() if p.name != PLATFORM_FILE)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    return out, produce(out)


@pytest.fixture(scope="module")
def rtol():
    recorded = json.loads((GOLDEN / PLATFORM_FILE).read_text(encoding="utf-8"))
    here = platform_fingerprint()
    if recorded == here:
        return 0.0
    differ = sorted(k for k in set(recorded) | set(here) if recorded.get(k) != here.get(k))
    message = (f"golden platform differs in {differ}; comparing at rtol {RTOL} "
               "instead of byte for byte")
    print(message)
    warnings.warn(message)
    return RTOL


def _same(got, want, rtol: float) -> bool:
    if got == want:
        return True
    if rtol == 0.0 or isinstance(got, bool) or isinstance(want, bool):
        return False
    try:
        x, y = float(got), float(want)
    except (TypeError, ValueError):
        return False
    if not (math.isfinite(x) and math.isfinite(y)):
        return x == y or (math.isnan(x) and math.isnan(y))
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def _csv_diff(got: str, want: str, rtol: float):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    header = want_lines[0].split(",") if want_lines else []
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        cells_a, cells_b = a.split(","), b.split(",")
        if len(cells_a) != len(cells_b):
            return f"line {i + 1}: {len(cells_a)} cells, golden has {len(cells_b)}"
        for col, x, y in zip(header, cells_a, cells_b):
            if not _same(x, y, rtol):
                return f"row {i} (line {i + 1}), column {col!r}: {x} != golden {y}"
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, golden has {len(want_lines)}"
    return None


def _json_diff(got, want, rtol: float, path: str = "$"):
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in got:
                return f"{path}.{key}: missing, golden has {want[key]!r}"
            if key not in want:
                return f"{path}.{key}: not in golden"
            diff = _json_diff(got[key], want[key], rtol, f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (a, b) in enumerate(zip(got, want)):
            diff = _json_diff(a, b, rtol, f"{path}[{i}]")
            if diff:
                return diff
        if len(got) != len(want):
            return f"{path}: length {len(got)}, golden has {len(want)}"
        return None
    numbers = isinstance(got, (int, float)) and isinstance(want, (int, float))
    if isinstance(got, bool) != isinstance(want, bool) or (
            type(got) is not type(want) and not numbers):
        return f"{path}: {got!r} != golden {want!r}"
    return None if _same(got, want, rtol) else f"{path}: {got!r} != golden {want!r}"


def _text_diff(got: str, want: str, rtol: float):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if not _same(a, b, rtol):
            return f"line {i + 1}: {a} != golden {b}"
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, golden has {len(want_lines)}"
    return None


def first_difference(name: str, got: str, want: str, rtol: float):
    """Where got first differs from the golden text want, or None if it does not."""
    if name.endswith(".csv"):
        return _csv_diff(got, want, rtol)
    if name.endswith(".json"):
        return _json_diff(json.loads(got), json.loads(want), rtol)
    return _text_diff(got, want, rtol)


def test_every_output_has_a_golden(fresh):
    _, names = fresh
    assert sorted(names) == GOLDEN_NAMES, (
        "outputs and goldens differ; run python tests/regen_golden.py and record the "
        "change: missing goldens "
        f"{sorted(set(names) - set(GOLDEN_NAMES))}, stale goldens "
        f"{sorted(set(GOLDEN_NAMES) - set(names))}")


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_output_matches_golden(name, fresh, rtol):
    out, names = fresh
    assert name in names, f"{name} is no longer produced"
    got_bytes = (out / name).read_bytes()
    want_bytes = (GOLDEN / name).read_bytes()
    if rtol == 0.0 and got_bytes == want_bytes:
        return
    got, want = got_bytes.decode("utf-8"), want_bytes.decode("utf-8")
    diff = first_difference(name, got, want, rtol)
    if rtol == 0.0:
        pytest.fail(f"{name}: {diff or 'bytes differ, values equal (formatting)'}")
    assert diff is None, f"{name}: {diff} (rtol {rtol})"


def test_spiked_forests_are_not_empty():
    # the decompose config's forest is empty; these goldens pin real stopping cubes
    forests = json.loads((GOLDEN / SPIKED_1D_NAME).read_text(encoding="utf-8"))
    assert sorted(forests) == ["cz", "cz_alpha"]
    for doc in forests.values():
        assert doc["levels"] and not doc["cap_hit"]
        assert all(level["cubes"] for level in doc["levels"])


@pytest.mark.parametrize("name, got, want, where", [
    ("r.csv", "a,b\n1,2.0\n", "a,b\n1,2.5\n", "row 1 (line 2), column 'b'"),
    ("r.csv", "a,b\n1,2\n", "a,b\n1,2\n3,4\n", "2 lines, golden has 3"),
    ("r.json", '{"x": {"y": [1, 2.0]}}', '{"x": {"y": [1, 2.5]}}', "$.x.y[1]"),
    ("r.json", '{"x": {}}', '{"x": {"z": 1}}', "$.x.z: missing"),
    ("r.txt", "0.5\n", "0.25\n", "line 1"),
])
def test_first_difference_names_the_place(name, got, want, where):
    assert where in first_difference(name, got, want, 0.0)
    assert first_difference(name, want, want, 0.0) is None


def test_fallback_tolerance_is_relative():
    assert first_difference("r.csv", "a\n1.0000000000001\n", "a\n1.0\n", RTOL) is None
    assert first_difference("r.csv", "a\n1.000000000001\n", "a\n1.0\n", RTOL) is not None
    assert first_difference("r.json", '{"x": "inf"}', '{"x": "inf"}', RTOL) is None
    assert first_difference("r.json", '{"x": true}', '{"x": 1}', RTOL) is not None
