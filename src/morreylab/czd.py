"""Constructive stopping-time (Calderon-Zygmund) decompositions.

Given a base cube Q0 and two functions, the level-k set D_k is the union of
the dyadic subcubes of Q0 whose dilated-cube average product exceeds a
geometric threshold gamma * A^k; extracting inclusion-maximal cubes Q_j^k and
forming the exceptional sets E_j^k = Q_j^k \\ D_{k+1} and E_0 = Q0 \\ D_1
yields a forest with four exactly testable invariants:

  sandwich   gamma A^k < product(Q_j^k) <= 2^(n(1/t1+1/t2)) gamma A^k
  measure    |Q0| <= 2 |E_0| and |Q_j^k| <= 2 |E_j^k|
  partition  E_0 and the E_j^k tile Q0 with disjoint cell sets
  maximality no ancestor of Q_j^k inside Q0 crosses the level-k threshold

The threshold factor A = (4 * 18^n)^(1/t1 + 1/t2) is exactly what makes the
measure bound work through the weak (1,1) bound of the maximal function.  A
second variant weights the product by |Q|^(alpha/n).  Both read one table of
the functional per level and sweep cell masks top-down, stopping a cube when
it crosses the threshold below no stopped ancestor, so maximality holds by
construction; both stop when a level comes up empty (bounded data forces
this; a safety cap of 64 * level span guards the loop and is reported if hit).

Every cell set is a boolean mask over the finest cells of one cube: E_0
over Q0's cells, E_j^k over Q_j^k's cells.  Measures are exact integer
counts of True cells (times the cell volume), so the measure and partition
invariants need no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import Cube, Window, ancestors
from .field import (
    LatticeFunction,
    Weight,
    _require_unbatched,
    _same_window,
    dilated_means,
    expand_level,
)


@dataclass(frozen=True)
class Decomposition:
    """Stopping-time forest over a base cube."""

    base: Cube
    gamma: float
    factor: float
    levels: dict = field(default_factory=dict)       # k -> cubes Q_j^k in (level, index) order
    exceptional: dict = field(default_factory=dict)  # k -> one bool mask per Q_j^k, over its cells
    # E_0 = Q0 \ D_1 as a bool mask over Q0's cells; E_j^k = Q_j^k \ D_{k+1} likewise
    e0: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    cap_hit: bool = False


def _functional_tables(f: LatticeFunction, g: LatticeFunction, t1: float, t2: float,
                       alpha: float = None) -> dict[int, np.ndarray]:
    """Per level, (mean_{3Q} |f|^t1)^(1/t1) (mean_{3Q} |g|^t2)^(1/t2) of every cube Q,
    times |Q|^(alpha/n) unless alpha is None; in cube-index order, as level_means."""
    _require_unbatched(f, g)
    window = f.window
    n = window.dim
    pf = np.abs(f.values) ** t1
    pg = np.abs(g.values) ** t2

    def table(level):  # |Q|^(alpha/n) multiplies last: the forest goldens fix this float order
        val = dilated_means(pf, window, level) ** (1.0 / t1) \
            * dilated_means(pg, window, level) ** (1.0 / t2)
        return val if alpha is None else (2.0 ** (level * n)) ** (alpha / n) * val

    return {level: table(level) for level in window.levels()}


def _table_value(tables: dict, window: Window, q: Cube) -> float:
    return float(tables[q.level][_offsets(window, q)])


def _offsets(window: Window, q: Cube) -> tuple[int, ...]:
    return tuple(m - a for m, a in zip(q.index, window.index_lo(q.level)))


def _maximal_cubes(tables: dict, window: Window, q0: Cube,
                   threshold: float) -> tuple[list[Cube], np.ndarray]:
    """Cubes inside q0 whose functional exceeds threshold and no ancestor's does,
    in (level, index) order, and the cell mask of their union D_k."""
    per_level: list[list[Cube]] = []
    union = np.zeros(window.shape, dtype=bool)
    open_ = np.zeros(tables[q0.level].shape, dtype=bool)  # under q0, no stopped ancestor
    open_[_offsets(window, q0)] = True
    for level in range(q0.level, window.level_min - 1, -1):
        if level < q0.level:
            for axis in range(window.dim):
                open_ = np.repeat(open_, 2, axis=axis)
        hit = open_ & (tables[level] > threshold)
        if hit.any():
            lo = window.index_lo(level)
            per_level.append([Cube(level, tuple(int(i) + a for i, a in zip(at, lo)))
                              for at in np.argwhere(hit)])
            union |= expand_level(hit, window, level)
        open_ &= ~hit
        if not open_.any():
            break
    return [q for cubes in reversed(per_level) for q in cubes], union


def _decompose(window: Window, q0: Cube, tables: dict, factor: float) -> Decomposition:
    if not window.contains_cube(q0):
        raise ValueError(f"base cube {q0} not inside window")
    gamma = _table_value(tables, window, q0)
    span = max(1, window.level_max - window.level_min)
    cap = span * 64
    levels: dict[int, tuple[Cube, ...]] = {}
    d_cells: dict[int, np.ndarray] = {}  # k -> cell mask of D_k
    cap_hit = False
    k = 1
    while gamma != 0.0:  # gamma = 0 leaves the trivial forest, E_0 = Q0
        cubes, d_cells[k] = _maximal_cubes(tables, window, q0, gamma * factor ** k)
        if not cubes:
            break
        levels[k] = tuple(cubes)
        if k >= cap:
            cap_hit = True
            break
        k += 1

    empty = np.zeros(window.shape, dtype=bool)

    def outside(q: Cube, k: int) -> np.ndarray:
        return ~d_cells.get(k, empty)[window.cell_offsets_of_cube(q)]

    exceptional = {k: tuple(outside(q, k + 1) for q in cubes) for k, cubes in levels.items()}
    return Decomposition(base=q0, gamma=gamma, factor=factor, levels=levels,
                         exceptional=exceptional, e0=outside(q0, 1), cap_hit=cap_hit)


def cz_decompose(f: LatticeFunction, g: LatticeFunction, q0: Cube,
                 theta1: float, theta2: float) -> Decomposition:
    """Stopping-time decomposition driven by the unweighted average product."""
    if theta1 <= 1 or theta2 <= 1:
        raise ValueError("theta1 and theta2 must exceed 1")
    window = _same_window(f, g)
    factor = (4.0 * 18.0 ** window.dim) ** (1.0 / theta1 + 1.0 / theta2)
    return _decompose(window, q0, _functional_tables(f, g, theta1, theta2), factor)


def cz_decompose_alpha(f: LatticeFunction, g: LatticeFunction, q0: Cube,
                       r1: float, r2: float, alpha: float) -> Decomposition:
    """Variant whose threshold functional carries the volume factor |Q|^(alpha/n)."""
    if abs(1.0 / r1 + 1.0 / r2 - 1.0) > 1e-9:
        raise ValueError(f"(r1, r2) must be a Holder pair; got ({r1}, {r2})")
    window = _same_window(f, g)
    n = window.dim
    if not 0.0 <= alpha < n:
        raise ValueError(f"alpha must lie in [0, {n}); got {alpha}")
    factor = (4.0 * 18.0 ** n) ** (1.0 / r1 + 1.0 / r2)
    return _decompose(window, q0, _functional_tables(f, g, r1, r2, alpha), factor)


def verify_decomposition(d: Decomposition, f: LatticeFunction, g: LatticeFunction,
                         window: Window, t1: float, t2: float,
                         alpha: float = None) -> list[str]:
    """Recheck the four invariants from the raw data; returns violations.

    alpha = None checks the unweighted variant, otherwise the |Q|^(alpha/n)
    variant.  Measure and partition checks are exact integer cell arithmetic;
    the sandwich upper bound allows a 1e-12 relative slack for float
    regrouping.

    The functional tables are rebuilt from (f, g) rather than taken from the
    decomposition: `morreylab decompose` and CZ_INV use this as a recheck
    independent of whatever built the forest, at the cost of one more table
    pass per call.
    """
    bad: list[str] = []
    tables = _functional_tables(f, g, t1, t2, alpha)
    n = window.dim
    upper = 2.0 ** (n * (1.0 / t1 + 1.0 / t2))
    span = 1 << (d.base.level - window.level_min)
    base_cells = span ** n
    e0_cells = int(d.e0.sum())

    if d.gamma == 0.0:
        if d.levels:
            bad.append("trivial decomposition has stopping levels")
        if e0_cells != base_cells:
            bad.append("trivial decomposition must have E0 = Q0")
        return bad

    seen: set = set()
    base = window.cell_offsets_of_cube(d.base)
    covered = np.zeros(window.shape, dtype=bool)
    covered[base] = d.e0
    for k, cubes in d.levels.items():
        threshold = d.gamma * d.factor ** k
        for q, e in zip(cubes, d.exceptional[k]):
            val = _table_value(tables, f.window, q)
            if not val > threshold:
                bad.append(f"sandwich lower: level {k} cube {q} value {val} <= {threshold}")
            if val > upper * threshold * (1.0 + 1e-12):
                bad.append(f"sandwich upper: level {k} cube {q} value {val} > "
                           f"{upper * threshold}")
            q_cells = 1 << ((q.level - window.level_min) * n)
            e_cells = int(e.sum())
            if q_cells > 2 * e_cells:
                bad.append(f"measure: level {k} cube {q} has |Q|={q_cells} cells "
                           f"> 2|E|={2 * e_cells}")
            slq = window.cell_offsets_of_cube(q)
            if (covered[slq] & e).any():
                bad.append(f"partition: E-cells of level {k} cube {q} overlap earlier sets")
            covered[slq] |= e
            for anc in ancestors(q, window)[:d.base.level - q.level]:
                if _table_value(tables, f.window, anc) > threshold:
                    bad.append(f"maximality: ancestor {anc} of level {k} cube {q} "
                               f"crosses the level-{k} threshold")
            if (k, q) in seen:
                bad.append(f"duplicate stopping cube {q} at level {k}")
            seen.add((k, q))
    q0_cells = np.zeros(window.shape, dtype=bool)
    q0_cells[base] = True
    if not np.array_equal(covered, q0_cells):
        bad.append("partition: E0 and the E_j^k do not tile Q0")
    if base_cells > 2 * e0_cells:
        bad.append(f"measure: |Q0|={base_cells} cells > 2|E0|={2 * e0_cells}")
    return bad


def decomposition_to_json(d: Decomposition, window: Window) -> dict:
    """JSON-ready view: {gamma, factor, levels: [{k, cubes}], e_cells} plus flags.

    Each cube entry carries its own exceptional cells; e_cells at the top
    level is E_0.
    """
    def cell_list(mask: np.ndarray, q: Cube) -> list:
        first = np.array(q.index) << (q.level - window.level_min)
        return (np.argwhere(mask) + first).tolist()

    levels = []
    for k in sorted(d.levels):
        cubes = []
        for q, e in zip(d.levels[k], d.exceptional[k]):
            cubes.append({
                "level": q.level,
                "index": list(q.index),
                "e_cells": cell_list(e, q),
            })
        levels.append({"k": k, "cubes": cubes})
    return {
        "gamma": d.gamma,
        "factor": d.factor,
        "base": {"level": d.base.level, "index": list(d.base.index)},
        "levels": levels,
        "e_cells": cell_list(d.e0, d.base),
        "cap_hit": d.cap_hit,
        "window": {
            "dim": window.dim,
            "level_min": window.level_min,
            "level_max": window.level_max,
            "origin_offset": list(window.origin_offset),
            "top_count": window.top_count,
        },
    }


def necessity_pair(w1: Weight, w2: Weight, qp: Cube, e) -> tuple[LatticeFunction, LatticeFunction, float]:
    """Extremal input pair saturating the weak-type bound on the cube qp.

    f = chi_Q' * w1^(-q1/(q1-r1)), g = chi_Q' * w2^(-q2/(q2-r2)), and the
    matched threshold lambda = 1/2 |Q'|^(alpha/n) (mean f^r1)^(1/r1)
    (mean g^r2)^(1/r2).  Requires r_i < q_i strictly.
    """
    _require_unbatched(w1, w2)
    window = _same_window(w1, w2)
    if not window.contains_cube(qp):
        raise ValueError(f"cube {qp} not inside window")
    if e.r1 is None or e.r2 is None or e.r1 >= e.q1 or e.r2 >= e.q2:
        raise ValueError("necessity pair needs r_i < q_i strictly")
    sl = window.cell_offsets_of_cube(qp)
    fv = np.zeros(window.shape)
    gv = np.zeros(window.shape)
    fv[sl] = w1.values[sl] ** (-e.q1 / (e.q1 - e.r1))
    gv[sl] = w2.values[sl] ** (-e.q2 / (e.q2 - e.r2))
    f = LatticeFunction(window, fv)
    g = LatticeFunction(window, gv)
    mf = float((fv[sl] ** e.r1).mean()) ** (1.0 / e.r1)
    mg = float((gv[sl] ** e.r2).mean()) ** (1.0 / e.r2)
    lam = 0.5 * qp.volume ** (e.alpha / window.dim) * mf * mg
    return f, g, lam
