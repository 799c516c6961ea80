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

r = inf is the admissible sentinel everywhere; 1/r evaluates to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

INF = math.inf
_TOL = 1e-12

REGIMES = ("T21", "T22", "T27", "T28")


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


def solve_q(q1: float, q2: float) -> float:
    """Solve 1/q = 1/q1 + 1/q2 for q, which a zero q_i or a sum of 0 (or inf) leaves undefined."""
    if not (q1 and q2 and _finite_nonzero(1.0 / q1 + 1.0 / q2)):
        raise ValueError(f"q undefined: 1/q1 + 1/q2 with q1={q1}, q2={q2}")
    return 1.0 / (1.0 / q1 + 1.0 / q2)


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


def holder_pair(r1: float, r2: float) -> bool:
    """Whether r1, r2 are finite and > 0 with 1/r1 + 1/r2 = 1 to 1e-9 ((-1, 0.5) sums to 1
    but is no pair, and (inf, 1) would drop the first function); a nan r_i fails."""
    return 0 < r1 < INF and 0 < r2 < INF and abs(1.0 / r1 + 1.0 / r2 - 1.0) <= 1e-9


def default_holder_pair(q1: float, q2: float) -> tuple[float, float]:
    """The canonical starting Holder pair (q1/q, q2/q) with 1/q = 1/q1 + 1/q2."""
    if q1 <= 1 or q2 <= 1:
        raise ValueError("q1, q2 must exceed 1")
    q = solve_q(q1, q2)
    return q1 / q, q2 / q


def build(regime: str, n: int, alpha: float, q1: float, q2: float, p: float,
          r: float, a: Optional[float] = None, r1: Optional[float] = None,
          r2: Optional[float] = None) -> ExponentSet:
    """Assemble a full ExponentSet, deriving q, s, t from the defining identities."""
    q = solve_q(q1, q2)
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
    """x == y to a relative _TOL, exactly where x - y is not finite (an inf or nan operand)."""
    return abs(x - y) <= _TOL * max(1.0, abs(x), abs(y)) if math.isfinite(x - y) else x == y


def _finite_nonzero(x: float) -> bool:
    return x != 0.0 and math.isfinite(x)


def _le(x: float, y: float) -> bool:
    """x <= y to a relative _TOL, exactly where x - y is not finite (an inf or nan operand)."""
    return x <= y + _TOL * max(1.0, abs(x), abs(y)) if math.isfinite(x - y) else x <= y


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

    # s (and t in T27) divide below; alpha = -inf gives s = t = 0.0
    s_ok, t_ok = _finite_nonzero(e.s), _finite_nonzero(e.t)
    need(s_ok, f"s finite and nonzero (s={e.s})")
    inv_s = 1.0 / e.p + inv(e.r) - e.alpha / e.n
    if s_ok:
        need(_close(1.0 / e.s, inv_s), f"1/s=1/p+1/r-alpha/n (1/s={1.0 / e.s}, rhs={inv_s})")
    if e.regime == "T27":
        need(t_ok, f"t finite and nonzero (t={e.t})")
        inv_t = 1.0 / e.q + inv(e.r) - e.alpha / e.n
        if t_ok:
            need(_close(1.0 / e.t, inv_t), f"1/t=1/q+1/r-alpha/n (1/t={1.0 / e.t}, rhs={inv_t})")
    elif s_ok:  # s q / p overflows to t = inf for p near the largest float
        need(t_ok, f"t finite and nonzero (t={e.t})")
        need(_close(e.t / e.s, e.q / e.p), f"t/s=q/p (t/s={e.t / e.s}, q/p={e.q / e.p})")

    if e.regime in ("T21", "T22"):
        need(0 < e.alpha, f"0<alpha (alpha={e.alpha})")
        need(_le(e.t, e.s), f"t<=s (t={e.t}, s={e.s})")
        need(e.alpha / e.n > inv(e.r), f"alpha/n>1/r (alpha/n={e.alpha / e.n}, 1/r={inv(e.r)})")
        need(e.a is not None and 1 < e.a < min(e.q1, e.q2),
             f"1<a<min(q1,q2) (a={e.a}, min={min(e.q1, e.q2)})")
    else:
        need(e.t > 0 and _le(e.t, e.s), f"0<t<=s (t={e.t}, s={e.s})")
        need(e.alpha / e.n >= inv(e.r) - _TOL,
             f"alpha/n>=1/r (alpha/n={e.alpha / e.n}, 1/r={inv(e.r)})")
    if e.regime == "T21":
        need(1 < e.q1 < INF and 1 < e.q2 < INF, f"1<q1,q2<inf (q1={e.q1}, q2={e.q2})")
        need(e.t > 0 and _le(e.t, 1.0), f"0<t<=1 (t={e.t})")
        return v
    # the Morrey means of the right-hand side take the q_i-th powers; the r_i below are
    # bounded by the q_i, so they are finite too
    need(math.isfinite(e.q1) and math.isfinite(e.q2), f"q1,q2 finite (q1={e.q1}, q2={e.q2})")

    if e.regime == "T22":
        need(1 < e.t, f"1<t (t={e.t})")
    need(e.s < e.r, f"s<r (s={e.s}, r={e.r})")
    if e.r1 is None or e.r2 is None:
        v.append("r1,r2 required (got None)")
    elif e.regime == "T22":
        if e.r1 and e.r2:  # a zero r_i is reported below
            need(_close(1.0 / e.r1 + 1.0 / e.r2, 1.0),
                 f"1/r1+1/r2=1 (sum={1.0 / e.r1 + 1.0 / e.r2})")
        need(1 < e.r1 < e.q1, f"1<r1<q1 (r1={e.r1}, q1={e.q1})")
        need(1 < e.r2 < e.q2, f"1<r2<q2 (r2={e.r2}, q2={e.q2})")
    elif e.regime == "T27":
        need(0 < e.r1 <= e.q1, f"0<r1<=q1 (r1={e.r1}, q1={e.q1})")
        need(0 < e.r2 <= e.q2, f"0<r2<=q2 (r2={e.r2}, q2={e.q2})")
    else:
        need(0 < e.r1 < e.q1, f"0<r1<q1 (r1={e.r1}, q1={e.q1})")
        need(0 < e.r2 < e.q2, f"0<r2<q2 (r2={e.r2}, q2={e.q2})")
        if e.a is None:
            v.append("a required (got None)")
        elif e.r1 and e.r2:  # a zero r_i is reported above
            bound = min(e.q1 / e.r1, e.q2 / e.r2)
            need(1 < e.a < bound, f"1<a<min(q1/r1,q2/r2) (a={e.a}, min={bound})")
    return v
