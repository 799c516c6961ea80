"""Exponent arithmetic and validation for the weighted inequalities.

Each inequality regime fixes a web of index constraints; an ExponentSet
carries the full tuple and validate() returns the violated constraints as
data (never raising), so the harness can refuse to run on a bad set but
tests can also probe deliberately broken ones.

Regimes:
  T21  bilinear two-weight bound, t <= 1
  T22  bilinear two-weight bound, t > 1
  T27  weak-type characterization of the fractional maximal operator
  T28  strong-type maximal bound
  SW   power-weight (Stein-Weiss type) inequality

r = inf is the admissible sentinel everywhere; 1/r evaluates to 0.

feasible_auxiliary_indices picks the auxiliary Holder exponents the t <= 1
and t > 1 bounding routes thread through their maximal operators.  Only
existence matters, so the search is deterministic midpoint selection on each
feasible interval, and an Infeasible result names the first empty interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

INF = math.inf
_TOL = 1e-12

REGIMES = ("T21", "T22", "T27", "T28", "SW")


def inv(x: float) -> float:
    """1/x with the r = inf convention 1/inf = 0."""
    return 0.0 if x == INF else 1.0 / x


def conjugate(x: float) -> float:
    """Holder conjugate x' = x/(x-1); conjugate(inf) = 1, conjugate(1) = inf."""
    if x == INF:
        return 1.0
    if x <= 1.0:
        if x == 1.0:
            return INF
        raise ValueError(f"conjugate undefined for x = {x} <= 1")
    return x / (x - 1.0)


@dataclass(frozen=True)
class ExponentSet:
    n: int
    alpha: float
    q1: float
    q2: float
    q: float
    p: float
    r: float
    s: float
    t: float
    regime: str
    a: Optional[float] = None
    r1: Optional[float] = None
    r2: Optional[float] = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")


def solve_st(n: int, alpha: float, p: float, q: float, r: float) -> tuple[float, float]:
    """Solve 1/s = 1/p + 1/r - alpha/n and t/s = q/p for (s, t)."""
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    if r != INF and r <= 0:
        raise ValueError("r must be positive or inf")
    inv_s = 1.0 / p + inv(r) - alpha / n
    if inv_s <= 0:
        raise ValueError(f"s undefined/infinite: 1/s = {inv_s} <= 0")
    s = 1.0 / inv_s
    return s, s * q / p


def solve_weak_t(n: int, alpha: float, q: float, r: float) -> float:
    """Solve 1/t = 1/q + 1/r - alpha/n."""
    inv_t = 1.0 / q + inv(r) - alpha / n
    if inv_t <= 0:
        raise ValueError(f"t undefined/infinite: 1/t = {inv_t} <= 0")
    return 1.0 / inv_t


def default_holder_pair(q1: float, q2: float) -> tuple[float, float]:
    """The canonical starting Holder pair (q1/q, q2/q) with 1/q = 1/q1 + 1/q2."""
    if q1 <= 1 or q2 <= 1:
        raise ValueError("q1, q2 must exceed 1")
    q = 1.0 / (1.0 / q1 + 1.0 / q2)
    return q1 / q, q2 / q


def build(regime: str, n: int, alpha: float, q1: float, q2: float, p: float,
          r: float, a: Optional[float] = None, r1: Optional[float] = None,
          r2: Optional[float] = None) -> ExponentSet:
    """Assemble a full ExponentSet, deriving q, s, t from the defining identities."""
    q = 1.0 / (1.0 / q1 + 1.0 / q2)
    if regime == "T27":
        s, _ = solve_st(n, alpha, p, q, r)
        t = solve_weak_t(n, alpha, q, r)
    else:
        s, t = solve_st(n, alpha, p, q, r)
    if r1 is None and r2 is None and regime in ("T22", "T27", "T28"):
        r1, r2 = default_holder_pair(q1, q2)
    return ExponentSet(n=n, alpha=alpha, q1=q1, q2=q2, q=q, p=p, r=r, s=s, t=t,
                       regime=regime, a=a, r1=r1, r2=r2)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= _TOL * max(1.0, abs(x), abs(y))


def _le(x: float, y: float) -> bool:
    return x <= y + _TOL * max(1.0, abs(x), abs(y))


def validate(e: ExponentSet) -> list[str]:
    """Check every constraint of the set's regime; violations are data.

    Returns the empty list iff the set is admissible.  Messages name the
    constraint and quote the observed values.
    """
    v: list[str] = []

    def need(ok: bool, msg: str):
        if not ok:
            v.append(msg)

    need(e.n >= 1, f"n>=1 (n={e.n})")
    need(0.0 <= e.alpha < e.n, f"0<=alpha<n (alpha={e.alpha}, n={e.n})")
    need(_close(1.0 / e.q, 1.0 / e.q1 + 1.0 / e.q2),
         f"1/q=1/q1+1/q2 (1/q={1.0 / e.q}, 1/q1+1/q2={1.0 / e.q1 + 1.0 / e.q2})")
    need(e.q > 0 and _le(e.q, e.p), f"0<q<=p (q={e.q}, p={e.p})")
    need(e.r == INF or e.r > 0, f"r>0 or r=inf (r={e.r})")

    inv_s = 1.0 / e.p + inv(e.r) - e.alpha / e.n
    if e.regime in ("T21", "T22", "T28"):
        need(_close(1.0 / e.s, inv_s),
             f"1/s=1/p+1/r-alpha/n (1/s={1.0 / e.s}, rhs={inv_s})")
        need(_close(e.t / e.s, e.q / e.p),
             f"t/s=q/p (t/s={e.t / e.s}, q/p={e.q / e.p})")
    if e.regime == "T27":
        need(_close(1.0 / e.s, inv_s),
             f"1/s=1/p+1/r-alpha/n (1/s={1.0 / e.s}, rhs={inv_s})")
        inv_t = 1.0 / e.q + inv(e.r) - e.alpha / e.n
        need(_close(1.0 / e.t, inv_t),
             f"1/t=1/q+1/r-alpha/n (1/t={1.0 / e.t}, rhs={inv_t})")

    if e.regime == "T21":
        need(0 < e.alpha, f"0<alpha (alpha={e.alpha})")
        need(1 < e.q1 < INF and 1 < e.q2 < INF, f"1<q1,q2<inf (q1={e.q1}, q2={e.q2})")
        need(e.t > 0 and _le(e.t, 1.0), f"0<t<=1 (t={e.t})")
        need(_le(e.t, e.s), f"t<=s (t={e.t}, s={e.s})")
        need(e.alpha / e.n > inv(e.r), f"alpha/n>1/r (alpha/n={e.alpha / e.n}, 1/r={inv(e.r)})")
        need(e.a is not None and 1 < e.a < min(e.q1, e.q2),
             f"1<a<min(q1,q2) (a={e.a}, min={min(e.q1, e.q2)})")
    elif e.regime == "T22":
        need(0 < e.alpha, f"0<alpha (alpha={e.alpha})")
        need(1 < e.t, f"1<t (t={e.t})")
        need(_le(e.t, e.s), f"t<=s (t={e.t}, s={e.s})")
        need(e.s < e.r, f"s<r (s={e.s}, r={e.r})")
        need(e.alpha / e.n > inv(e.r), f"alpha/n>1/r (alpha/n={e.alpha / e.n}, 1/r={inv(e.r)})")
        need(e.a is not None and 1 < e.a < min(e.q1, e.q2),
             f"1<a<min(q1,q2) (a={e.a}, min={min(e.q1, e.q2)})")
        if e.r1 is None or e.r2 is None:
            v.append("r1,r2 required (got None)")
        else:
            need(_close(1.0 / e.r1 + 1.0 / e.r2, 1.0),
                 f"1/r1+1/r2=1 (sum={1.0 / e.r1 + 1.0 / e.r2})")
            need(1 < e.r1 < e.q1, f"1<r1<q1 (r1={e.r1}, q1={e.q1})")
            need(1 < e.r2 < e.q2, f"1<r2<q2 (r2={e.r2}, q2={e.q2})")
    elif e.regime == "T27":
        need(e.t > 0 and _le(e.t, e.s), f"0<t<=s (t={e.t}, s={e.s})")
        need(e.s < e.r, f"s<r (s={e.s}, r={e.r})")
        need(e.alpha / e.n >= inv(e.r) - _TOL,
             f"alpha/n>=1/r (alpha/n={e.alpha / e.n}, 1/r={inv(e.r)})")
        if e.r1 is None or e.r2 is None:
            v.append("r1,r2 required (got None)")
        else:
            need(0 < e.r1 <= e.q1, f"0<r1<=q1 (r1={e.r1}, q1={e.q1})")
            need(0 < e.r2 <= e.q2, f"0<r2<=q2 (r2={e.r2}, q2={e.q2})")
    elif e.regime == "T28":
        need(e.t > 0 and _le(e.t, e.s), f"0<t<=s (t={e.t}, s={e.s})")
        need(e.s < e.r, f"s<r (s={e.s}, r={e.r})")
        need(e.alpha / e.n >= inv(e.r) - _TOL,
             f"alpha/n>=1/r (alpha/n={e.alpha / e.n}, 1/r={inv(e.r)})")
        if e.r1 is None or e.r2 is None:
            v.append("r1,r2 required (got None)")
        else:
            need(0 < e.r1 < e.q1, f"0<r1<q1 (r1={e.r1}, q1={e.q1})")
            need(0 < e.r2 < e.q2, f"0<r2<q2 (r2={e.r2}, q2={e.q2})")
            if e.a is None:
                v.append("a required (got None)")
            else:
                bound = min(e.q1 / e.r1, e.q2 / e.r2)
                need(1 < e.a < bound,
                     f"1<a<min(q1/r1,q2/r2) (a={e.a}, min={bound})")
    elif e.regime == "SW":
        need(0 < e.alpha < e.n, f"0<alpha<n (alpha={e.alpha})")
        need(e.t > 1 and _le(e.t, e.s), f"1<t<=s (t={e.t}, s={e.s})")
        need(e.r == INF or e.r > e.n / (e.n - e.alpha) - _TOL,
             f"r>n/(n-alpha) (r={e.r}, n/(n-alpha)={e.n / (e.n - e.alpha)})")
    return v


# -- auxiliary index selection ---------------------------------------------------


@dataclass(frozen=True)
class ThetaWitness:
    """Auxiliary indices for the t <= 1 bounding route."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float
    theta5: float
    a_star: float


@dataclass(frozen=True)
class VarthetaWitness:
    """Auxiliary indices for the t > 1 bounding route."""

    vartheta1: float
    vartheta2: float
    vartheta3: float
    vartheta4: float
    vartheta5: float
    a_star: float
    big_l: float
    e: float


@dataclass(frozen=True)
class Infeasible:
    """Named empty interval found during auxiliary-index selection."""

    interval: str
    lo: float
    hi: float

    def __str__(self) -> str:
        return f"infeasible: {self.interval} interval ({self.lo}, {self.hi}] is empty"


Witness = Union[ThetaWitness, VarthetaWitness]


def _midpoint(lo: float, hi: float) -> float:
    return 0.5 * (lo + hi)


def feasible_auxiliary_indices(e: ExponentSet) -> Union[Witness, Infeasible]:
    """Deterministic witness for the auxiliary-index constraints of the regime.

    T21 returns a ThetaWitness, T22 a VarthetaWitness.  Each index is the
    midpoint of its feasible interval, derived in closed form from the
    conjugate-exponent inequalities the bounding routes need:

        x * conjugate(Q / (c * x)) <= conjugate(Q / a)   iff   x <= Q / (Q - a + c)

    (Q the relevant q_i, c the inner multiplier).  The search never
    optimizes; only existence is needed.
    """
    if e.regime == "T21":
        a = e.a if e.a is not None else 0.0
        if not a > 1.0:
            return Infeasible("theta3 in (1, a]", 1.0, a)
        if not (a < min(e.q1, e.q2)):
            return Infeasible("a in (1, min(q1,q2))", 1.0, min(e.q1, e.q2))
        theta3 = _midpoint(1.0, a)
        a_star = _midpoint(1.0, a)
        ub1 = e.q1 / (e.q1 - a + a_star)
        ub2 = e.q2 / (e.q2 - a + a_star)
        if ub1 <= 1.0:
            return Infeasible("theta1 in (1, q1/(q1-a+a*)]", 1.0, ub1)
        if ub2 <= 1.0:
            return Infeasible("theta2 in (1, q2/(q2-a+a*)]", 1.0, ub2)
        ub4 = e.q1 / (e.q1 - a + 1.0)
        ub5 = e.q2 / (e.q2 - a + 1.0)
        if ub4 <= 1.0:
            return Infeasible("theta4 in (1, q1/(q1-a+1)]", 1.0, ub4)
        if ub5 <= 1.0:
            return Infeasible("theta5 in (1, q2/(q2-a+1)]", 1.0, ub5)
        return ThetaWitness(
            theta1=_midpoint(1.0, ub1),
            theta2=_midpoint(1.0, ub2),
            theta3=theta3,
            theta4=_midpoint(1.0, ub4),
            theta5=_midpoint(1.0, ub5),
            a_star=a_star,
        )

    if e.regime == "T22":
        a = e.a if e.a is not None else 0.0
        if not a > 1.0:
            return Infeasible("L in (1, a]", 1.0, a)
        if not 1.0 < e.t:
            return Infeasible("t in (1, r)", 1.0, e.r)
        if not e.t < e.r:
            return Infeasible("e in (t, r)", e.t, e.r)
        big_l = _midpoint(1.0, a)
        e_hi = min(e.r, big_l * e.t)
        if e_hi <= e.t:
            return Infeasible("e in (t, min(r, L*t))", e.t, e_hi)
        ee = _midpoint(e.t, e_hi) if e_hi != INF else e.t * (1.0 + big_l) / 2.0
        th3_hi = min(big_l * e.t / ee, conjugate(e.t) / conjugate(ee), a)
        if th3_hi <= 1.0:
            return Infeasible("vartheta3 in (1, min(Lt/e, t'/e', a))", 1.0, th3_hi)
        vartheta3 = _midpoint(1.0, th3_hi)
        # a_* must leave room for r_i-inflated indices: a_* < a - q_i/r_i'
        if e.r1 is None or e.r2 is None:
            return Infeasible("a_star (r_i missing)", 0.0, 0.0)
        astar_hi = min(a, a - e.q1 / conjugate(e.r1), a - e.q2 / conjugate(e.r2))
        if astar_hi <= 1.0:
            return Infeasible("a_star in (1, min(a, a - q_i/r_i'))", 1.0, astar_hi)
        a_star = _midpoint(1.0, astar_hi)
        out = []
        for name, ri, qi, cmult in (
            ("vartheta1*r1", e.r1, e.q1, a_star),
            ("vartheta2*r2", e.r2, e.q2, a_star),
            ("vartheta4*r1", e.r1, e.q1, 1.0),
            ("vartheta5*r2", e.r2, e.q2, 1.0),
        ):
            if ri is None:
                return Infeasible(f"{name} (r_i missing)", 0.0, 0.0)
            hi = qi / (qi - a + cmult)
            if hi <= ri:
                return Infeasible(f"{name} in (r_i, q_i/(q_i-a+{cmult})]", ri, hi)
            out.append(_midpoint(ri, hi) / ri)
        return VarthetaWitness(
            vartheta1=out[0],
            vartheta2=out[1],
            vartheta3=vartheta3,
            vartheta4=out[2],
            vartheta5=out[3],
            a_star=a_star,
            big_l=big_l,
            e=ee,
        )

    raise ValueError(f"auxiliary indices are defined only for T21/T22, not {e.regime}")


def check_witness(e: ExponentSet, w: Witness) -> list[str]:
    """Independently recheck every inequality a witness must satisfy."""
    v: list[str] = []

    def need(ok: bool, msg: str):
        if not ok:
            v.append(msg)

    a = e.a
    if isinstance(w, ThetaWitness):
        need(1 < w.theta1 < e.q1, f"theta1 in (1,q1) ({w.theta1})")
        need(1 < w.theta2 < e.q2, f"theta2 in (1,q2) ({w.theta2})")
        need(1 < w.theta4 < e.q1, f"theta4 in (1,q1) ({w.theta4})")
        need(1 < w.theta5 < e.q2, f"theta5 in (1,q2) ({w.theta5})")
        need(w.theta3 > 1, f"theta3>1 ({w.theta3})")
        need(w.a_star > 1, f"a*>1 ({w.a_star})")
        need(w.a_star * w.theta1 < e.q1, f"a**theta1<q1 ({w.a_star * w.theta1})")
        need(w.a_star * w.theta2 < e.q2, f"a**theta2<q2 ({w.a_star * w.theta2})")
        terms = {
            "theta3": w.theta3,
            "q1-term(a*)": e.q1 / conjugate(w.theta1 * conjugate(e.q1 / (w.a_star * w.theta1))),
            "q2-term(a*)": e.q2 / conjugate(w.theta2 * conjugate(e.q2 / (w.a_star * w.theta2))),
            "q1-term": e.q1 / conjugate(w.theta4 * conjugate(e.q1 / w.theta4)),
            "q2-term": e.q2 / conjugate(w.theta5 * conjugate(e.q2 / w.theta5)),
        }
        for name, val in terms.items():
            need(a is not None and a >= val - _TOL, f"a>={name} (a={a}, {name}={val})")
        # the conjugate-domination bounds the routes consume
        need(w.theta1 * conjugate(e.q1 / (w.a_star * w.theta1)) <= conjugate(e.q1 / a) + _TOL,
             "theta1*(q1/(a* theta1))' <= (q1/a)'")
        need(w.theta4 * conjugate(e.q1 / w.theta4) <= conjugate(e.q1 / a) + _TOL,
             "theta4*(q1/theta4)' <= (q1/a)'")
        need(w.theta2 * conjugate(e.q2 / (w.a_star * w.theta2)) <= conjugate(e.q2 / a) + _TOL,
             "theta2*(q2/(a* theta2))' <= (q2/a)'")
        need(w.theta5 * conjugate(e.q2 / w.theta5) <= conjugate(e.q2 / a) + _TOL,
             "theta5*(q2/theta5)' <= (q2/a)'")
        return v

    if isinstance(w, VarthetaWitness):
        x1, x2 = w.vartheta1 * e.r1, w.vartheta2 * e.r2
        x4, x5 = w.vartheta4 * e.r1, w.vartheta5 * e.r2
        need(e.r1 < x1 < e.q1, f"vt1*r1 in (r1,q1) ({x1})")
        need(e.r2 < x2 < e.q2, f"vt2*r2 in (r2,q2) ({x2})")
        need(e.r1 < x4 < e.q1, f"vt4*r1 in (r1,q1) ({x4})")
        need(e.r2 < x5 < e.q2, f"vt5*r2 in (r2,q2) ({x5})")
        need(w.vartheta3 > 1, f"vartheta3>1 ({w.vartheta3})")
        need(w.big_l > 1, f"L>1 ({w.big_l})")
        need(e.t < w.e < e.r, f"e in (t,r) ({w.e})")
        need(w.e * w.vartheta3 < w.big_l * e.t + _TOL, "e*vt3 < L*t")
        need(conjugate(w.e) * w.vartheta3 < conjugate(e.t) + _TOL, "e'*vt3 < t'")
        need(w.a_star > 1, f"a*>1 ({w.a_star})")
        need(w.a_star * x1 < e.q1, f"a**vt1*r1<q1 ({w.a_star * x1})")
        need(w.a_star * x2 < e.q2, f"a**vt2*r2<q2 ({w.a_star * x2})")
        terms = {
            "vartheta3": w.vartheta3,
            "L": w.big_l,
            "q1-term(a*)": e.q1 / conjugate(x1 * conjugate(e.q1 / (w.a_star * x1))),
            "q2-term(a*)": e.q2 / conjugate(x2 * conjugate(e.q2 / (w.a_star * x2))),
            "q1-term": e.q1 / conjugate(x4 * conjugate(e.q1 / x4)),
            "q2-term": e.q2 / conjugate(x5 * conjugate(e.q2 / x5)),
        }
        for name, val in terms.items():
            need(a is not None and a >= val - _TOL, f"a>={name} (a={a}, {name}={val})")
        need(x1 * conjugate(e.q1 / (w.a_star * x1)) <= conjugate(e.q1 / a) + _TOL,
             "vt1r1*(q1/(a* vt1r1))' <= (q1/a)'")
        need(x4 * conjugate(e.q1 / x4) <= conjugate(e.q1 / a) + _TOL,
             "vt4r1*(q1/vt4r1)' <= (q1/a)'")
        need(x2 * conjugate(e.q2 / (w.a_star * x2)) <= conjugate(e.q2 / a) + _TOL,
             "vt2r2*(q2/(a* vt2r2))' <= (q2/a)'")
        need(x5 * conjugate(e.q2 / x5) <= conjugate(e.q2 / a) + _TOL,
             "vt5r2*(q2/vt5r2)' <= (q2/a)'")
        return v

    raise TypeError(f"unknown witness type {type(w)!r}")
