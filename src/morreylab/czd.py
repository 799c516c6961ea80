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
the functional per level of Q0's subtree (the cubes inside Q0, whose 3Q reach
at most one cube beyond it): |f|^t1 and |g|^t2 are taken on the cells of 3Q0
clipped to the window only, and one field.dilated_means pass over the cached
plan of (window, Q0) gives every level's means; one pass can build the
tables of both variants, each distinct power plane taken once.  Both then
sweep cell masks top-down, stopping a cube when it crosses the threshold
below no stopped ancestor, so maximality holds by construction; both stop
at the first threshold that no table entry exceeds, the level that would
come up empty, without walking it (bounded data forces this; a safety cap
of 64 * level span guards the loop and is reported if hit).

verify_decomposition rechecks a forest from the raw data: the four
invariants, and the thresholds themselves (gamma is Q0's functional, A the
factor above, and every cube above gamma A^k lies in a level-k stopping
cube, for k up to one past the last level), so a forest with a wrong gamma,
a wrong A or a missing level is reported too.  CZ_INV and `morreylab
decompose` make one build pass and one recheck pass per chunk of trials, each
one functional_tables call over the batch and the specs of every kind they
check; each trial's forests and checks take that trial's slice of the tables.
The recheck reads the raw (f, g), not the build's tables.

Every cell set is a boolean mask over the finest cells of one cube: E_0
over Q0's cells, E_j^k over Q_j^k's cells.  Measures are exact integer
counts of True cells (times the cell volume), so the measure and partition
invariants need no tolerances.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dyadic import Cube, Window, ancestors
from .exponents import holder_pair
from .field import (
    LatticeFunction,
    Weight,
    _dilated_plan,
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


def functional_tables(f: LatticeFunction, g: LatticeFunction, q0: Cube,
                       specs) -> list[dict[int, np.ndarray]]:
    """The tables of each spec (t1, t2, alpha), from one pass: per level from level_min to
    q0.level, (mean_{3Q} |f|^t1)^(1/t1) (mean_{3Q} |g|^t2)^(1/t2) of every cube Q inside q0,
    times |Q|^(alpha/n) unless alpha is None; in cube-index order from q0's first subcube of
    the level, as dilated_means.  f and g may hold a batch of the same shape; every table then
    keeps its leading axes, and each entry's slice is the float of that entry alone.  One
    dilated_means call takes each distinct |f|^t1 and |g|^t2 plane once, and each distinct
    (t1, t2) product is formed once; every table is the float it would be with its spec alone.
    Raises unless q0 is a window cube, before any table is built."""
    window = f.window
    if not window.contains_cube(q0):
        raise ValueError(f"base cube {q0} not inside window")
    n = window.dim
    frame = _dilated_plan(window, q0).frame  # the only cells the tables read
    exps = [list(dict.fromkeys(spec[i] for spec in specs)) for i in (0, 1)]  # distinct t1, t2
    mags = [np.abs(x.values[frame]) for x in (f, g)]
    means = dilated_means(np.stack([m ** t for m, ts in zip(mags, exps) for t in ts]), window, q0)
    products, tables = {}, []
    for t1, t2, alpha in specs:
        if (t1, t2) not in products:
            i, j = exps[0].index(t1), len(exps[0]) + exps[1].index(t2)
            products[t1, t2] = {level: m[i] ** (1.0 / t1) * m[j] ** (1.0 / t2)
                                for level, m in means.items()}
        val = products[t1, t2]
        # |Q|^(alpha/n) multiplies last: the forest goldens fix this float order
        tables.append(val if alpha is None else
                      {level: (2.0 ** (level * n)) ** (alpha / n) * v for level, v in val.items()})
    return tables


def _at(q0: Cube, q: Cube) -> tuple[int, ...]:
    """The table position of a window cube q inside q0: its offset from q0's first subcube."""
    return tuple(m - (a << (q0.level - q.level)) for m, a in zip(q.index, q0.index))


def _table_value(tables: dict, q0: Cube, q: Cube) -> float:
    """The table entry of a window cube q inside q0."""
    return float(tables[q.level][_at(q0, q)])


def _cubes_of(mask: np.ndarray, q0: Cube, level: int) -> list[Cube]:
    """The cubes of one level inside q0 marked by a table-shaped mask, in index order."""
    first = [m << (q0.level - level) for m in q0.index]
    return [Cube(level, tuple(int(i) + a for i, a in zip(at, first))) for at in np.argwhere(mask)]


def _inside(window: Window, q0: Cube, q: Cube) -> bool:
    """Whether q is a window cube inside the window cube q0."""
    return (q.dim == q0.dim and window.level_min <= q.level <= q0.level
            and all(m >> (q0.level - q.level) == a for m, a in zip(q.index, q0.index)))


def _maximal_cubes(tables: dict, window: Window, q0: Cube,
                   threshold: float) -> tuple[list[Cube], np.ndarray]:
    """Cubes inside q0 whose functional exceeds threshold and no ancestor's does,
    in (level, index) order, and the cell mask of their union D_k."""
    per_level: list[list[Cube]] = []
    union = np.zeros(window.shape, dtype=bool)
    q0_cells = window.cell_offsets_of_cube(q0)
    open_ = np.ones((1,) * window.dim, dtype=bool)  # cubes of q0 with no stopped ancestor
    for level in range(q0.level, window.level_min - 1, -1):
        if level < q0.level:
            for axis in range(window.dim):
                open_ = np.repeat(open_, 2, axis=axis)
        hit = open_ & (tables[level] > threshold)
        if hit.any():
            per_level.append(_cubes_of(hit, q0, level))
            union[q0_cells] |= expand_level(hit, window, level)
        open_ &= ~hit
        if not open_.any():
            break
    return [q for cubes in reversed(per_level) for q in cubes], union


def _threshold_factor(n: int, t1: float, t2: float) -> float:
    """The ratio A = (4 * 18^n)^(1/t1 + 1/t2) between consecutive stopping thresholds."""
    return (4.0 * 18.0 ** n) ** (1.0 / t1 + 1.0 / t2)


def _top(tables: dict) -> float:
    """The largest entry of the tables, nan ignored as the > tests ignore it: some entry
    exceeds a threshold exactly when this does."""
    return float(np.fmax.reduce([np.fmax.reduce(t, axis=None) for t in tables.values()]))


def _uncovered(tables: dict, window: Window, q0: Cube, cubes, threshold: float) -> list[Cube]:
    """Cubes inside q0 whose functional exceeds threshold but that lie in none of cubes
    (cubes inside q0), top level first: one mask comparison per level."""
    out = []
    for level in range(q0.level, window.level_min - 1, -1):
        if tables[level].max() <= threshold:  # most levels: one reduction rules them out
            continue
        above = tables[level] > threshold
        for q in cubes:
            if q.level >= level:  # the level's cubes inside q: a block of s per axis
                s = 1 << (q.level - level)
                above[tuple(slice(i * s, (i + 1) * s) for i in _at(q0, q))] = False
        out += _cubes_of(above, q0, level)
    return out


def _decompose(window: Window, q0: Cube, tables: dict, factor: float) -> Decomposition:
    gamma = _table_value(tables, q0, q0)
    span = max(1, window.level_max - window.level_min)
    cap = span * 64
    levels: dict[int, tuple[Cube, ...]] = {}
    d_cells: dict[int, np.ndarray] = {}  # k -> cell mask of D_k
    cap_hit = False
    top = _top(tables)
    k = 1
    # gamma = 0 leaves the trivial forest, E_0 = Q0; the walk at a threshold stops a cube
    # exactly when some entry exceeds it, so the forest ends at the first one top does not
    while gamma != 0.0 and top > gamma * factor ** k:
        cubes, d_cells[k] = _maximal_cubes(tables, window, q0, gamma * factor ** k)
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
                 theta1: float, theta2: float, *, tables: dict = None) -> Decomposition:
    """Stopping-time decomposition driven by the unweighted average product.

    tables, if given, is this spec's entry of a functional_tables pass over (f, g, q0) that
    built other specs' tables too; otherwise the tables are built here."""
    if not (1 < theta1 < math.inf and 1 < theta2 < math.inf):  # nan fails too
        raise ValueError("theta1 and theta2 must exceed 1 and be finite")
    _require_unbatched(f, g)
    window = _same_window(f, g)
    factor = _threshold_factor(window.dim, theta1, theta2)
    if tables is None:
        tables, = functional_tables(f, g, q0, [(theta1, theta2, None)])
    return _decompose(window, q0, tables, factor)


def cz_decompose_alpha(f: LatticeFunction, g: LatticeFunction, q0: Cube,
                       r1: float, r2: float, alpha: float, *, tables: dict = None) -> Decomposition:
    """Variant whose threshold functional carries the volume factor |Q|^(alpha/n); tables
    as in cz_decompose."""
    if not holder_pair(r1, r2):  # nan fails too
        raise ValueError(f"(r1, r2) must be a Holder pair; got ({r1}, {r2})")
    _require_unbatched(f, g)
    window = _same_window(f, g)
    n = window.dim
    if not 0.0 <= alpha < n:
        raise ValueError(f"alpha must lie in [0, {n}); got {alpha}")
    factor = _threshold_factor(n, r1, r2)
    if tables is None:
        tables, = functional_tables(f, g, q0, [(r1, r2, alpha)])
    return _decompose(window, q0, tables, factor)


def verify_decomposition(d: Decomposition, f: LatticeFunction, g: LatticeFunction,
                         window: Window, t1: float, t2: float,
                         alpha: float = None, *, tables: dict = None) -> list[str]:
    """Recheck the four invariants from the raw data; returns violations.

    alpha = None checks the unweighted variant, otherwise the |Q|^(alpha/n)
    variant.  Measure and partition checks are exact integer cell arithmetic;
    the sandwich upper bound allows a 1e-12 relative slack for float
    regrouping.  The thresholds are rechecked too: gamma must be Q0's
    functional and factor the A of (t1, t2), and for k = 1 .. K + 1 (K the
    last stopping level; K + 1 is skipped when the cap was hit) every cube of
    Q0's subtree above gamma A^k must lie in a level-k stopping cube, so the
    stopping cubes are exactly the maximal ones.

    The functional tables are rebuilt from (f, g) rather than taken from the
    decomposition: `morreylab decompose` and CZ_INV use this as a recheck
    independent of whatever built the forest.  They build every kind's forest
    of a chunk of trials from one table pass and recheck all of them from one
    more pass of their own, passing each forest its trial's slice of its entry
    of that pass as tables.  tables must never come from the pass that built
    d: the recheck would then share the builder's faults.  f and g are one
    trial, not a batch; they and the forest must live on window.  A stopping
    cube that is not a window cube inside Q0 is reported, and then nothing
    else is checked: the tables hold Q0's subtree only.
    """
    if _same_window(f, g) != window:
        raise ValueError("inputs must live on the given window")
    _require_unbatched(f, g)
    if tables is None:
        tables, = functional_tables(f, g, d.base, [(t1, t2, alpha)])
    bad = [f"containment: level {k} cube {q} not inside Q0"
           for k, cubes in d.levels.items() for q in cubes if not _inside(window, d.base, q)]
    if bad:
        return bad
    n = window.dim
    gamma = _table_value(tables, d.base, d.base)
    if d.gamma != gamma:
        bad.append(f"threshold: gamma {d.gamma} is not Q0's functional {gamma}")
    factor = _threshold_factor(n, t1, t2)
    if d.factor != factor:
        bad.append(f"threshold: factor {d.factor} is not A = {factor}")
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
            val = _table_value(tables, d.base, q)
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
                if _table_value(tables, d.base, anc) > threshold:
                    bad.append(f"maximality: ancestor {anc} of level {k} cube {q} "
                               f"crosses the level-{k} threshold")
            if (k, q) in seen:
                bad.append(f"duplicate stopping cube {q} at level {k}")
            seen.add((k, q))
    last = max(d.levels, default=0)
    top = _top(tables)  # of the recheck's own tables: no threshold it does not exceed is walked
    for k in range(1, last + 1 if d.cap_hit else last + 2):
        threshold = d.gamma * d.factor ** k
        if not top > threshold:
            continue
        bad += [f"coverage: cube {q} crosses the level-{k} threshold {threshold} "
                f"but lies in no level-{k} stopping cube"
                for q in _uncovered(tables, window, d.base, d.levels.get(k, ()), threshold)]
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
        "window": asdict(window),
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
