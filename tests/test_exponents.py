import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.exponents import (
    INF,
    ExponentSet,
    _close,
    _le,
    build,
    conjugate,
    holder_pair,
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


# build defaults (r1, r2) to the Holder pair (q1/q, q2/q), 1/q = 1/q1 + 1/q2, in the regimes
# that read it, and leaves them unset in T21
def test_default_holder_pair_symmetric():
    for regime in ("T22", "T27", "T28"):
        e = build(regime, 1, 0.4, 3.0, 3.0, 2.0, INF)
        assert (e.r1, e.r2) == (2.0, 2.0)


def test_default_holder_pair_asymmetric():
    e = build("T28", 1, 0.4, 2.0, 6.0, 2.0, INF)
    assert_close(e.r1, 4.0 / 3.0)
    assert_close(e.r2, 4.0)
    assert_close(1.0 / e.r1 + 1.0 / e.r2, 1.0)
    assert build("T28", 1, 0.4, 2.0, 6.0, 2.0, INF, r1=1.5, r2=3.0).r1 == 1.5
    t21 = build("T21", 1, 0.4, 2.0, 6.0, 2.0, INF)
    assert t21.r1 is None and t21.r2 is None


def test_default_holder_pair_conjugate_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        q1, q2 = rng.uniform(1.01, 50.0, 2)
        e = build("T27", 1, 0.01, q1, q2, 2.0, INF)
        assert abs(1.0 / e.r1 + 1.0 / e.r2 - 1.0) <= 1e-12


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


@pytest.mark.parametrize("x,y,close,le", [
    (INF, 2e-308, False, False),
    (INF, 1e308, False, False),
    (-INF, 1.0, False, True),
    (1.0, INF, False, True),
    (INF, INF, True, True),
    (-INF, -INF, True, True),
    (-INF, INF, False, True),
    (math.nan, math.nan, False, False),
    (math.nan, 1.0, False, False),
    # finite operands keep the relative tolerance
    (1.0, 1.0 + 1e-13, True, True),
    (1.0 + 1e-13, 1.0, True, True),
    (1e300, 1e300 * (1.0 + 1e-13), True, True),
    (1.0 + 1e-9, 1.0, False, False),
    (1.0, 1.0 + 1e-9, False, True),
])
def test_close_and_le_compare_non_finite_operands_exactly(x, y, close, le):
    assert (_close(x, y), _close(y, x), _le(x, y)) == (close, close, le)


def test_validate_refuses_an_infinite_t_in_the_weak_regime():
    # T27 derives t by its own identity, so validate sees t = inf against a finite s
    e = dataclasses.replace(build("T27", 1, 0.4, 4.0, 4.0, 2.2, 2.5, r1=2.0, r2=2.0), t=INF)
    assert any(m.startswith("t finite") for m in validate(e))
    assert any(m.startswith("0<t<=s") for m in validate(e))


@pytest.mark.parametrize("r1, r2", [(INF, 1.0), (1.0, INF), (INF, INF)])
def test_a_pair_with_an_infinite_side_is_no_holder_pair(r1, r2):
    # 1/inf + 1/1 = 1, but the maximal functions of such a pair drop the first function
    assert not holder_pair(r1, r2)
    assert holder_pair(2.0, 2.0) and holder_pair(1.5, 3.0)


@pytest.mark.parametrize("regime", ["T22", "T27", "T28"])
def test_validate_refuses_an_infinite_q_in_every_regime(regime):
    # the RHS Morrey means take (mean |f|^q_i)^(1/q_i), which is 1.0 at q_i = inf
    e = build(regime, 1, 0.1, INF, 3.0, 4.0, INF, a=1.2, r1=1.5, r2=2.0)
    assert "q1,q2 finite (q1=inf, q2=3.0)" in validate(e)
    assert not any("finite (q1=" in m for m in validate(dataclasses.replace(e, q1=6.0, q=2.0)))
