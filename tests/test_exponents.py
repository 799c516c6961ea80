import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.exponents import (
    INF,
    ExponentSet,
    build,
    conjugate,
    default_holder_pair,
    solve_st,
    validate,
)

from conftest import assert_close


def test_solve_st_symmetric_case():
    s, t = solve_st(1, 0.5, 1.5, 1.5, INF)
    assert_close(s, 6.0)
    assert_close(t, 6.0)


def test_solve_st_degenerate_alpha():
    s, t = solve_st(2, 0.0, 2.5, 1.25, INF)
    assert_close(s, 2.5)
    assert_close(t, 1.25)


def test_solve_st_finite_r():
    s, _ = solve_st(1, 0.5, 2.0, 1.0, 4.0)
    assert_close(s, 4.0)


def test_solve_st_rejects_infinite_s():
    with pytest.raises(ValueError, match="undefined"):
        solve_st(1, 0.5, 2.0, 1.0, INF)


def _t22_reference() -> ExponentSet:
    return build("T22", 1, 0.5, 3.0, 3.0, 1.5, INF, a=2.0, r1=2.0, r2=2.0)


def test_validate_reference_set_clean():
    assert validate(_t22_reference()) == []


def test_validate_flags_s_ge_r():
    bad = dataclasses.replace(_t22_reference(), r=4.0)
    msgs = validate(bad)
    assert any("s<r" in m for m in msgs)


def test_validate_flags_t_above_one_in_t21():
    e = dataclasses.replace(_t22_reference(), regime="T21", t=1.5, s=1.5, a=1.5)
    msgs = validate(e)
    assert any("0<t<=1" in m for m in msgs)


@pytest.mark.parametrize("regime", ["T22", "T27"])
@pytest.mark.parametrize("s", [0.0, -0.0, INF, -INF, math.nan])
def test_validate_flags_a_zero_or_non_finite_s_without_dividing(regime, s):
    e = dataclasses.replace(_t22_reference(), regime=regime, s=s, t=s)
    msgs = validate(e)
    assert f"s finite and nonzero (s={s})" in msgs
    assert (f"t finite and nonzero (t={s})" in msgs) == (regime == "T27")
    assert not any(m.startswith(("1/s=", "1/t=", "t/s=")) for m in msgs)


def test_validate_flags_a_zero_r1_without_dividing():
    e = build("T28", 1, 0.8, 4.0, 4.0, 2.2, 2.5, a=1.5, r1=0.0, r2=2.0)
    assert "0<r1<q1 (r1=0.0, q1=4.0)" in validate(e)
    msgs = validate(dataclasses.replace(_t22_reference(), r1=0.0))
    assert "1<r1<q1 (r1=0.0, q1=3.0)" in msgs
    assert not any(m.startswith("1/r1+1/r2=1") for m in msgs)


def test_default_holder_pair_symmetric():
    assert default_holder_pair(3.0, 3.0) == (2.0, 2.0)


def test_default_holder_pair_asymmetric():
    r1, r2 = default_holder_pair(2.0, 6.0)
    assert_close(r1, 4.0 / 3.0)
    assert_close(r2, 4.0)
    assert_close(1.0 / r1 + 1.0 / r2, 1.0)


def test_default_holder_pair_conjugate_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        q1, q2 = rng.uniform(1.01, 50.0, 2)
        r1, r2 = default_holder_pair(q1, q2)
        assert abs(1.0 / r1 + 1.0 / r2 - 1.0) <= 1e-12


def test_conjugate_involution():
    for x in (1.5, 2.0, 7.0):
        assert_close(conjugate(conjugate(x)), x)
    assert conjugate(INF) == 1.0
    assert conjugate(1.0) == INF


@settings(max_examples=100)
@given(st.floats(1.2, 8.0), st.floats(0.05, 0.9), st.floats(1.0, 1.8))
def test_solver_output_revalidates(q1_half, alpha_frac, p_scale):
    # constraints that only involve (s, t, p, q, r, alpha, n) never fire on solver output
    q1 = q2 = q1_half * 2.0
    q = q1_half  # harmonic mean of equal exponents
    alpha = alpha_frac / q  # keeps 1/s = 1/p - alpha positive for p close to q
    p = q * p_scale
    if 1.0 / p - alpha <= 1e-9:
        return
    e = build("T22", 1, alpha, q1, q2, p, INF, a=(1.0 + min(q1, q2)) / 2.0)
    identity_msgs = [m for m in validate(e) if m.startswith(("1/s=", "t/s=", "1/q="))]
    assert identity_msgs == []


def test_exponent_set_rejects_unknown_regime():
    with pytest.raises(ValueError):
        ExponentSet(n=1, alpha=0.5, q1=2, q2=2, q=1, p=1, r=INF, s=1, t=1, regime="nope")


def test_build_t27_weak_identity():
    e = build("T27", 1, 0.4, 4.0, 4.0, 2.2, 2.5, r1=2.0, r2=2.0)
    assert validate(e) == []
    assert_close(1.0 / e.t, 1.0 / e.q + 1.0 / e.r - e.alpha / e.n)
