"""Morrey norms, the weak-type functional, and the multi-weight constants.

The Morrey norm over the window is

    sup over window cubes Q of |Q|^(1/p) * (mean_Q |f|^q)^(1/q),

with the weighted version folding a weight density into the integrand
(|f|^q * w) while keeping the Lebesgue normalizer |Q|; the alternative
normalization by w(Q) would rescale ratios, not their finiteness, and reports
flag the convention.

The two-weight constants are sups over nested cube pairs (Q, Q') of a product
of a volume-ratio power, an optional |Q'|^(1/r), a power average of v on Q,
and dual-exponent power averages of w1, w2 on Q'.  The WeightConditionKind
enum picks the variant and names the exponent regime it is defined on; two
limiting conventions appear verbatim in the formulas: the v-average
degenerates to max_Q v when t = 1, and the w-average to max_{Q'} 1/w_i when
q_i = r_i.  The vector kind C211, the Muckenhoupt constant ap_constant and
the joint constant of lemma39_check are sups over single cubes instead.

Every sup is exact over the window's cube catalog and runs as field block
reductions, one level at a time.  A pair term is a factor fixed by the levels
(k, k') times an inner part on Q times an outer part on Q', so its sup is the
max over Q' of factor * (block max of the inner part over Q in Q') * outer;
float products by a positive factor are monotone, so this is exact.

Every entry point checks that its functions and weights share one window
through field._same_window; two_weight_constant then also compares that
window with its window argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .dyadic import Cube, Window
from .errors import ValidationError
from .exponents import ExponentSet, conjugate, inv, solve_q, validate
from .field import (
    LatticeFunction,
    Weight,
    _require_unbatched,
    _same_window,
    level_max,
    level_means,
    level_power_means,
    level_sup,
)

INF = math.inf


def morrey_norm(f: LatticeFunction, p: float, q: float, w: Optional[Weight] = None) -> float:
    """Morrey norm with exponents (p, q); optional weight density w.
    A batched f gives one norm per batch entry (see field.level_sup)."""
    if not (q > 0 and q <= p * (1.0 + 1e-12)):
        raise ValueError(f"need 0 < q <= p; got q={q}, p={p}")
    window = _same_window(f, w)
    dens = np.abs(f.values) ** q
    if w is not None:
        dens = dens * w.values
    return level_sup(window, lambda level: (2.0 ** (level * window.dim)) ** (1.0 / p)
                     * level_means(dens, window, level) ** (1.0 / q))


def rhs_bilinear_morrey(f: LatticeFunction, g: LatticeFunction, w1: Weight, w2: Weight,
                        p: float, q1: float, q2: float) -> float:
    """sup over cubes of |Q|^(1/p) (mean_Q (|f| w1)^q1)^(1/q1) (mean_Q (|g| w2)^q2)^(1/q2);
    one sup per batch entry for batched f and g."""
    window = _same_window(f, g, w1, w2)
    df = (np.abs(f.values) * w1.values) ** q1
    dg = (np.abs(g.values) * w2.values) ** q2
    return level_sup(window, lambda level: (2.0 ** (level * window.dim)) ** (1.0 / p)
                     * level_means(df, window, level) ** (1.0 / q1)
                     * level_means(dg, window, level) ** (1.0 / q2))


def rhs_bilinear_morrey_from(f: LatticeFunction, g: LatticeFunction, w1: Weight, w2: Weight,
                             p: float, q1: float, q2: float, q0: Cube) -> float:
    """Same sup restricted to cubes containing q0 (q0 and its ancestors)."""
    _require_unbatched(f, g)
    window = _same_window(f, g, w1, w2)
    if not window.contains_cube(q0):
        raise ValueError(f"cube {q0} not inside window")
    df = (np.abs(f.values) * w1.values) ** q1
    dg = (np.abs(g.values) * w2.values) ** q2
    # not a level_sup: the powers go on the indexed means, and numpy's scalar ** and
    # array ** can differ in the last bit (with AVX-512), which would move the T27 reports
    best = 0.0
    for level in range(q0.level, window.level_max + 1):
        shift = level - q0.level
        at = tuple((m >> shift) - a for m, a in zip(q0.index, window.index_lo(level)))
        val = (2.0 ** (level * window.dim)) ** (1.0 / p) \
            * level_means(df, window, level)[at] ** (1.0 / q1) \
            * level_means(dg, window, level)[at] ** (1.0 / q2)
        best = max(best, float(val))
    return best


def weak_morrey_functional(F: LatticeFunction, v: Weight, t: float, s: float,
                           q0: Cube) -> float:
    """Distribution-function functional |Q0|^(1/s-1/t) sup_l l * v^t({F > l})^(1/t).

    On piecewise-constant data the sup over l > 0 is attained at thresholds
    just below the achieved cell values, so the candidate set is exactly the
    distinct positive values of F on Q0.
    """
    if t <= 0 or s <= 0:
        raise ValueError("t and s must be positive")
    _require_unbatched(F)
    window = _same_window(F, v)
    sl = window.cell_offsets_of_cube(q0)
    fv = F.values[sl].ravel()
    vt = (v.values[sl].ravel() ** t) * window.cell_volume
    best = 0.0
    for lam in sorted(set(fv.tolist())):  # np.unique's values, without its numpy.ma import
        if lam <= 0.0:
            continue
        mass = float(vt[fv >= lam].sum())
        best = max(best, lam * mass ** (1.0 / t))
    return q0.volume ** (1.0 / s - 1.0 / t) * best


class WeightConditionKind(Enum):
    """Formula variants for the nested-pair weight constants.

    Each kind is defined on the exponent sets of one regime (`regime`):

    C22   T21  ratio^((1-s)/(as)),  |Q'|^(1/r), v-avg exponent at/(1-t)   (s < 1)
    C23   T21  ratio^((1-as)/(as)), |Q'|^(1/r), v-avg exponent at/(1-t)   (s >= 1)
    C24   T22  ratio^(1/(as)),      |Q'|^(1/r), v-avg exponent at
    C27   T27  ratio^(1/s),         |Q'|^(1/r), v-avg exponent t, w-exp r_i (q_i/r_i)'
    C29   T28  like C27 with w-exp r_i (q_i/(a r_i))'
    C211  T28  single-cube constant in the two weights u1, u2
    CBH   T28  like C29 without the |Q'|^(1/r) factor
    """

    C22 = "C22"
    C23 = "C23"
    C24 = "C24"
    C27 = "C27"
    C29 = "C29"
    C211 = "C211"
    CBH = "CBH"

    @property
    def regime(self) -> str:
        """The exponent regime whose sets the condition is defined on."""
        return _REGIMES[self.value]


_REGIMES = {"C22": "T21", "C23": "T21", "C24": "T22", "C27": "T27",
            "C29": "T28", "C211": "T28", "CBH": "T28"}


def _pair_exponents(kind: WeightConditionKind, e: ExponentSet) -> tuple[float, float, float, float]:
    """(ratio_exp, v_exp, d1, d2) of a pair kind: the volume-ratio power, the v-average
    exponent on Q (inf = max of v) and the exponents d_i of the w-averages
    (mean_{Q'} w_i^(-d_i))^(1/d_i) (inf = max of 1/w_i)."""
    if kind is WeightConditionKind.C27:
        return (1.0 / e.s, e.t,
                INF if e.q1 == e.r1 else e.r1 * conjugate(e.q1 / e.r1),
                INF if e.q2 == e.r2 else e.r2 * conjugate(e.q2 / e.r2))
    if kind.regime == "T28":  # C29, CBH
        return (1.0 / e.s, e.t,
                e.r1 * conjugate(e.q1 / (e.a * e.r1)), e.r2 * conjugate(e.q2 / (e.a * e.r2)))
    d1, d2 = conjugate(e.q1 / e.a), conjugate(e.q2 / e.a)
    if kind is WeightConditionKind.C24:
        return 1.0 / (e.a * e.s), e.a * e.t, d1, d2
    v_exp = INF if abs(e.t - 1.0) <= 1e-12 else e.a * e.t / (1.0 - e.t)
    if kind is WeightConditionKind.C22:
        return (1.0 - e.s) / (e.a * e.s), v_exp, d1, d2
    return (1.0 - e.a * e.s) / (e.a * e.s), v_exp, d1, d2


def two_weight_constant(kind: WeightConditionKind, v: Optional[Weight], w1: Weight,
                        w2: Weight, e: ExponentSet, window: Window) -> float:
    """Evaluate the selected weight constant over the window's cube pairs.

    e must be an admissible set of the kind's regime; of the two T21 kinds,
    C22 takes the sets with s < 1 and C23 those with s >= 1.  v may be None
    only for the single-cube kind C211, which involves the pair (w1, w2) alone.
    """
    if e.regime != kind.regime:
        raise ValueError(f"{kind.value} needs a {kind.regime} exponent set (got {e.regime})")
    violations = validate(e)
    if violations:
        raise ValueError(f"{kind.value}: inadmissible {e.regime} set: {'; '.join(violations)}")
    if kind.regime == "T21" and (e.s < 1.0) != (kind is WeightConditionKind.C22):
        raise ValueError(f"C22 needs s<1 and C23 needs s>=1 (s={e.s})")
    if _same_window(w1, v, w2) != window:
        raise ValueError("weights must live on the given window")
    n = window.dim
    inv1, inv2 = 1.0 / w1.values, 1.0 / w2.values

    if kind is WeightConditionKind.C211:
        e1 = e.r1 / (e.q1 - e.r1)
        e2 = e.r2 / (e.q2 - e.r2)
        joint = (w1.values ** (e.s / e.q1)) * (w2.values ** (e.s / e.q2))
        return level_sup(window, lambda level: level_means(joint, window, level) ** (1.0 / e.s)
                         * level_power_means(inv1, window, level, e1) ** (1.0 / e.q1)
                         * level_power_means(inv2, window, level, e2) ** (1.0 / e.q2))

    if v is None:
        raise ValueError(f"{kind.value} requires the weight v")

    ratio_exp, v_exp, d1, d2 = _pair_exponents(kind, e)
    with_qr = kind is not WeightConditionKind.CBH

    outer1 = {level: level_power_means(inv1, window, level, d1) for level in window.levels()}
    outer2 = {level: level_power_means(inv2, window, level, d2) for level in window.levels()}
    # not a level_sup: the inner table of level k is carried across the outer levels kp
    best = 0.0
    for k in window.levels():
        inner = level_power_means(v.values, window, k, v_exp)
        for kp in range(k, window.level_max + 1):
            if kp > k:
                inner = level_max(inner, window, kp)
            term = (2.0 ** ((k - kp) * n)) ** ratio_exp
            if with_qr:
                term *= (2.0 ** (kp * n)) ** inv(e.r)
            val = term * inner * outer1[kp] * outer2[kp]
            best = max(best, float(val.max()))
    return best


def ap_constant(w: Weight, p: float) -> float:
    """Muckenhoupt constant sup_Q (mean_Q w) (mean_Q w^(-1/(p-1)))^(p-1)."""
    if p <= 1:
        raise ValueError(f"p must exceed 1; got {p}")
    window = w.window
    dual = w.values ** (-1.0 / (p - 1.0))
    return level_sup(window, lambda level: level_means(w.values, window, level)
                     * level_means(dual, window, level) ** (p - 1.0))


@dataclass(frozen=True)
class JointWeightReport:
    """Joint two-weight constant plus the Muckenhoupt memberships it characterizes."""

    joint_const: float
    memberships: dict


def lemma39_check(w1: Weight, w2: Weight, q1: float, q2: float, t_hat: float) -> JointWeightReport:
    """Joint constant sup_Q (mean (w1 w2)^t_hat)^(1/t_hat) prod (mean w_i^(-q_i'))^(1/q_i')
    together with the three Muckenhoupt constants of its characterization."""
    window = _same_window(w1, w2)
    q = solve_q(q1, q2)
    if t_hat < q:
        raise ValueError(f"t_hat must be >= q = {q}; got {t_hat}")
    q1c, q2c = conjugate(q1), conjugate(q2)
    prod_th = (w1.values * w2.values) ** t_hat
    dual1 = w1.values ** (-q1c)
    dual2 = w2.values ** (-q2c)
    if not all(np.all((x > 0.0) & (x < INF)) for x in (prod_th, dual1, dual2)):
        raise ValidationError(f"(w1 w2)^t_hat or w_i^(-q_i') leaves the positive floats at "
                              f"q1 = {q1}, q2 = {q2}, t_hat = {t_hat}")
    best = level_sup(window, lambda level: level_means(prod_th, window, level) ** (1.0 / t_hat)
                     * level_means(dual1, window, level) ** (1.0 / q1c)
                     * level_means(dual2, window, level) ** (1.0 / q2c))
    memberships = {
        "joint_power": ap_constant(Weight(window, prod_th), 1.0 + t_hat * (2.0 - 1.0 / q)),
        "dual_1": ap_constant(Weight(window, dual1), q1c * (1.0 / t_hat + 2.0 - 1.0 / q)),
        "dual_2": ap_constant(Weight(window, dual2), q2c * (1.0 / t_hat + 2.0 - 1.0 / q)),
    }
    return JointWeightReport(joint_const=best, memberships=memberships)
