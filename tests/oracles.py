"""Brute-force oracles: the enumerations, box averages and loops that the
library's block reductions, shell sums and window sums are checked against.

A box is a (lo, hi) pair of per-axis bounds, half-open and not necessarily
dyadic.  The average of a lattice function over a box is an exact finite sum:
the overlap of the box with each cell is a product of interval lengths, and
the integral is the overlap-weighted sum of cell values.  Boxes are clipped
to the window and the clipped volume is the normalizer.

dilated_sums and dilated_means are the whole-window form of
morreylab.field.dilated_means, which reads only one cube's subtree and its
frame: the same float operations for every cube of the level, so the
Q0-local means must equal a slice of these bit for bit.

from_callable samples a function at every cell centre, one Python call per
cell: the per-cell form of the John-Nirenberg log symbol that
morreylab.harness._log_abs takes once per distinct tuple of per-axis |c|
(morreylab.field._libm_grid).  integral_abs_power_1d is the closed form of
|x|^gamma over one interval, two Python antiderivative calls per cell: the
per-cell form of the 1-D power weights, which take C pow once per distinct
|edge| and run the rest as numpy array operations.

m_alpha_r_dyadic and weight_constant take the dyadic maximal function and the
weight constants of morreylab.weights_norms.two_weight_constant as maxima over
every window cube or nested cube pair, one cube at a time.  weak_functional
takes every cell value as a threshold of the weak Morrey functional, repeats
and non-positive values included.

bh_maximal and m_alpha_r_centered are the per-cell, per-radius loop forms of
morreylab.operators.bh_maximal and of the centered mode of
morreylab.maximal.m_alpha_r; they share no code with the sums they check.
multilinear_fractional looks every factor up cell by cell at the translated
point, a second construction of bilinear_fractional.  correlation is the
kernel-offset loop that morreylab.operators._correlation replaced with its
band-limited offset plan: every offset over whole zero-padded arrays, so it
adds the exact-zero terms the plan leaves out.  Both take their kernel cells
from kernel_window: for c cells per axis, the 2 ceil(c/2) cells per axis
centred on the origin, which hold every y with |y_i| < c h / 2 wherever the
window sits.
"""

import itertools
import math

import numpy as np

from morreylab.dyadic import Cube, Window, ancestors
from morreylab.exponents import INF, conjugate
from morreylab.field import LatticeFunction, _blocks, _same_window
from morreylab.operators import dyadic_radii, kernel_cell_averages
from morreylab.weights_norms import WeightConditionKind


# -- cube geometry ------------------------------------------------------------------


def cube_side(q: Cube) -> float:
    return 2.0 ** q.level


def cube_center(q: Cube) -> tuple[float, ...]:
    s = cube_side(q)
    return tuple((m + 0.5) * s for m in q.index)


def cube_contains_point(q: Cube, x) -> bool:
    """Half-open membership: x lies in 2^level * (index + [0, 1)^n)."""
    s = cube_side(q)
    return all(m * s <= xi < (m + 1) * s for m, xi in zip(q.index, x))


def cube_contains_cube(q: Cube, other: Cube) -> bool:
    """Whether other is q or one of its dyadic descendants."""
    if other.level > q.level:
        return False
    shift = q.level - other.level
    return all((m >> shift) == p for m, p in zip(other.index, q.index))


# -- cube enumeration -------------------------------------------------------------


def cubes_at_level(window: Window, level: int):
    """The window cubes of one level, in index order."""
    if not window.level_min <= level <= window.level_max:
        raise ValueError(f"level {level} outside window levels")
    lo = window.index_lo(level)
    cnt = window.index_count(level)
    for idx in itertools.product(*(range(a, a + cnt) for a in lo)):
        yield Cube(level, idx)


def all_cubes(window: Window):
    """Every window cube, level by level from level_min, in index order."""
    for level in window.levels():
        yield from cubes_at_level(window, level)


def cell_index_of_point(window: Window, x) -> tuple[int, ...]:
    """The index of the finest window cell that holds the point x."""
    lo, hi = window_box(window)
    if not all(a <= xi < b for a, b, xi in zip(lo, hi, x)):
        raise ValueError(f"point {tuple(x)} outside window box")
    h = window.cell_side
    # floor is exact: window membership bounds the index range
    lo, c = window.cell_index_lo, window.cells_per_axis
    return tuple(min(max(int(xi // h), a), a + c - 1) for xi, a in zip(x, lo))


def cell_center(window: Window, cell_index) -> tuple[float, ...]:
    """The centre (m + 0.5) h of the finest cell with the index m."""
    h = window.cell_side
    return tuple((m + 0.5) * h for m in cell_index)


def from_callable(window: Window, fn) -> LatticeFunction:
    """fn sampled at every cell centre, one Python call per cell."""
    vals = np.empty(window.shape)
    lo = window.cell_index_lo
    for off in np.ndindex(window.shape):
        vals[off] = fn(*cell_center(window, tuple(o + a for o, a in zip(off, lo))))
    return LatticeFunction(window, vals)


def children(q: Cube) -> list[Cube]:
    """The 2^n cubes of level - 1 that partition q."""
    return [Cube(q.level - 1, tuple(2 * m + d for m, d in zip(q.index, delta)))
            for delta in itertools.product((0, 1), repeat=q.dim)]


def nested_pairs(window: Window):
    """Every (Q, Q') with Q a window cube and Q' = Q or an ancestor of Q in the window."""
    for q in all_cubes(window):
        yield q, q
        for anc in ancestors(q, window):
            yield q, anc


# -- |x|^gamma in one dimension -----------------------------------------------------


def abs_power_antiderivative(x: float, gamma: float) -> float:
    # F'(x) = |x|^gamma, F(0) = 0; valid piecewise away from 0 for gamma <= -1, where the
    # magnitude below is negative (so not math.copysign, which drops its sign)
    if gamma == -1.0:
        return math.copysign(1.0, x) * math.log(abs(x)) if x != 0.0 else -math.inf
    return math.copysign(1.0, x) * abs(x) ** (gamma + 1.0) / (gamma + 1.0)


def integral_abs_power_1d(a: float, b: float, gamma: float) -> float:
    """Exact integral of |x|^gamma over [a, b); a < b.  F(b) - F(a) also across 0, where it
    is bit for bit (F(0) - F(a)) + (F(b) - F(0)) since F(0) = 0.0."""
    if a <= 0.0 <= b and gamma <= -1.0:
        raise ValueError(f"|x|^{gamma} is not integrable on a cell touching 0")
    return abs_power_antiderivative(b, gamma) - abs_power_antiderivative(a, gamma)


# -- boxes and exact box averages ---------------------------------------------------


def cube_box(q: Cube):
    s = cube_side(q)
    return tuple(m * s for m in q.index), tuple((m + 1) * s for m in q.index)


def dilate3(q: Cube):
    """3Q, with q's centre and side 3 * 2^level: [(m - 1) s, (m + 2) s) per axis."""
    s = cube_side(q)
    return tuple((m - 1) * s for m in q.index), tuple((m + 2) * s for m in q.index)


def window_box(window: Window):
    top = 2.0 ** window.level_max
    return (tuple(o * top for o in window.origin_offset),
            tuple((o + window.top_count) * top for o in window.origin_offset))


def box_volume(box) -> float:
    return math.prod(b - a for a, b in zip(*box))


def axis_overlap_weights(window: Window, box) -> list[np.ndarray]:
    """Per axis, the overlap length of the box with every cell of the window."""
    h = window.cell_side
    out = []
    for a0, lo, hi in zip(window.cell_index_lo, *box):
        edges = np.arange(a0, a0 + window.cells_per_axis + 1) * h
        out.append(np.maximum(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0))
    return out


def weighted_box_sum(values: np.ndarray, weights: list[np.ndarray]) -> float:
    """The sum over cells of values times the overlaps, contracted one axis at a time."""
    acc = values
    for w in weights:
        acc = np.tensordot(w, acc, axes=(0, 0))
    return float(acc)


def indicator(window: Window, box) -> LatticeFunction:
    """The box indicator, exactly: each cell holds the fraction of it the box covers."""
    vals = np.ones(window.shape)
    for axis, w in enumerate(axis_overlap_weights(window, box)):
        shape = [1] * window.dim
        shape[axis] = window.cells_per_axis
        vals = vals * (w / window.cell_side).reshape(shape)
    return LatticeFunction(window, vals)


def cell_average(f: LatticeFunction, box) -> float:
    """Volume-weighted mean of f over the box clipped to the window."""
    weights = axis_overlap_weights(f.window, box)
    vol = math.prod(float(w.sum()) for w in weights)
    if vol <= 0.0:
        raise ValueError(f"box {box} misses the window")
    return weighted_box_sum(f.values, weights) / vol


def power_avg(f: LatticeFunction, box, e: float) -> float:
    """(mean over the box of |f|^e)^(1/e); e = inf gives the max over the cells it touches."""
    touched = indicator(f.window, box).values > 0
    if e == math.inf:
        if not touched.any():
            raise ValueError(f"box {box} misses the window")
        return float(np.abs(f.values[touched]).max())
    if e == 0.0:
        raise ValueError("exponent e must be nonzero")
    av = np.abs(f.values)
    if e < 0 and np.any((av == 0.0) & touched):
        raise ValueError("negative exponent with vanishing values on the box")
    return cell_average(LatticeFunction(f.window, av ** float(e)), box) ** (1.0 / e)


def dilated_sums(values: np.ndarray, window: Window, level: int) -> np.ndarray:
    """Sums over 3Q clipped to the window, for every cube Q of one level; values holds
    one entry per finest cell.  3Q is Q and its level neighbours, so the sum adds up
    the 3^n shifted block sums, taken in a frame of zeros one cube wide."""
    n = window.dim
    c = window.index_count(level)
    blocked, axes = _blocks(values, window, level)
    sums = np.zeros((c + 2,) * n)
    blocked.sum(axis=axes, out=sums[(slice(1, -1),) * n])
    total = np.zeros((c,) * n)
    for shift in itertools.product(range(3), repeat=n):
        total += sums[tuple(slice(d, d + c) for d in shift)]
    return total


def dilated_means(values: np.ndarray, window: Window, level: int) -> np.ndarray:
    """Means over 3Q clipped to the window, for every cube Q of one level, in cube-index
    order; the cell counts are dilated_sums of ones."""
    return dilated_sums(values, window, level) / dilated_sums(np.ones(window.shape), window, level)


def functional_tables(f: LatticeFunction, g: LatticeFunction, t1: float, t2: float,
                      alpha: float = None) -> dict[int, np.ndarray]:
    """morreylab.czd's stopping-time tables over the whole window: per level,
    (mean_{3Q} |f|^t1)^(1/t1) (mean_{3Q} |g|^t2)^(1/t2) of every cube Q, times
    |Q|^(alpha/n) unless alpha is None, in the float order of the library."""
    window = _same_window(f, g)
    n = window.dim
    pf = np.abs(f.values) ** t1
    pg = np.abs(g.values) ** t2

    def table(level):
        val = dilated_means(pf, window, level) ** (1.0 / t1) \
            * dilated_means(pg, window, level) ** (1.0 / t2)
        return val if alpha is None else (2.0 ** (level * n)) ** (alpha / n) * val

    return {level: table(level) for level in window.levels()}


# -- brute-force sups ----------------------------------------------------------------


def m_alpha_r_dyadic(f: LatticeFunction, g: LatticeFunction, alpha: float, r1: float,
                     r2: float) -> np.ndarray:
    """The dyadic m_alpha_r values: per cell, the max over every window cube containing it."""
    w = f.window
    out = np.zeros(w.shape)
    for q in all_cubes(w):
        sl = w.cell_offsets_of_cube(q)
        val = q.volume ** (alpha / w.dim) \
            * (np.abs(f.values[sl]) ** r1).mean() ** (1.0 / r1) \
            * (np.abs(g.values[sl]) ** r2).mean() ** (1.0 / r2)
        out[sl] = np.maximum(out[sl], val)
    return out


def weak_functional(F: LatticeFunction, v: LatticeFunction, t: float, s: float,
                    q0: Cube) -> float:
    """|Q0|^(1/s-1/t) max over the cell values l > 0 of F on q0 of l * v^t({F >= l})^(1/t),
    one threshold per cell of q0 (picked by its centre), in the float order of
    morreylab.weights_norms.weak_morrey_functional."""
    window = _same_window(F, v)
    lo = window.cell_index_lo
    cells = (tuple(o + a for o, a in zip(off, lo)) for off in np.ndindex(window.shape))
    inside = np.array([cube_contains_point(q0, cell_center(window, m)) for m in cells])
    inside = inside.reshape(window.shape)
    fv = F.values[inside]
    vt = (v.values[inside] ** t) * (2.0 ** window.level_min) ** window.dim
    best = 0.0
    for lam in fv.tolist():
        if lam > 0.0:
            best = max(best, lam * float(vt[fv >= lam].sum()) ** (1.0 / t))
    return (cube_side(q0) ** window.dim) ** (1.0 / s - 1.0 / t) * best


def weight_constant(kind, v, w1, w2, e, window) -> float:
    """two_weight_constant by raw loops: over every cube (C211) or nested pair (Q, Q')."""
    K = WeightConditionKind
    n = window.dim
    if kind is K.C211:
        e1 = e.r1 / (e.q1 - e.r1)
        e2 = e.r2 / (e.q2 - e.r2)
        best = 0.0
        for q in all_cubes(window):
            sl = window.cell_offsets_of_cube(q)
            val = ((w1.values[sl] ** (e.s / e.q1) * w2.values[sl] ** (e.s / e.q2)).mean()
                   ) ** (1 / e.s)
            val *= (w1.values[sl] ** -e1).mean() ** ((e.q1 - e.r1) / (e.r1 * e.q1))
            val *= (w2.values[sl] ** -e2).mean() ** ((e.q2 - e.r2) / (e.r2 * e.q2))
            best = max(best, val)
        return best
    if kind in (K.C22, K.C23, K.C24):
        d1 = conjugate(e.q1 / e.a)
        d2 = conjugate(e.q2 / e.a)
    elif kind is K.C27:
        d1 = e.r1 * conjugate(e.q1 / e.r1)
        d2 = e.r2 * conjugate(e.q2 / e.r2)
    else:
        d1 = e.r1 * conjugate(e.q1 / (e.a * e.r1))
        d2 = e.r2 * conjugate(e.q2 / (e.a * e.r2))
    if kind is K.C22:
        rexp = (1 - e.s) / (e.a * e.s)
    elif kind is K.C23:
        rexp = (1 - e.a * e.s) / (e.a * e.s)
    elif kind is K.C24:
        rexp = 1 / (e.a * e.s)
    else:
        rexp = 1 / e.s
    if kind in (K.C22, K.C23):
        vexp = e.a * e.t / (1 - e.t) if e.t != 1.0 else INF
    elif kind is K.C24:
        vexp = e.a * e.t
    else:
        vexp = e.t
    best = 0.0
    for q, qp in nested_pairs(window):
        ratio = 2.0 ** ((q.level - qp.level) * n)
        term = ratio ** rexp
        if kind is not K.CBH:
            term *= qp.volume ** (0.0 if e.r == INF else 1.0 / e.r)
        slq = window.cell_offsets_of_cube(q)
        slp = window.cell_offsets_of_cube(qp)
        if vexp == INF:
            term *= v.values[slq].max()
        else:
            term *= (v.values[slq] ** vexp).mean() ** (1.0 / vexp)
        term *= (w1.values[slp] ** -d1).mean() ** (1.0 / d1)
        term *= (w2.values[slp] ** -d2).mean() ** (1.0 / d2)
        best = max(best, term)
    return best


# -- loop operators ---------------------------------------------------------------


def _reflected(values: np.ndarray, m_off) -> np.ndarray:
    """Array R with R[k] = values[2*m - k] (zero outside), in offset coordinates."""
    shape = values.shape
    out = np.zeros(shape)
    dst = []
    src = []
    for ax, c in enumerate(shape):
        lo = max(0, 2 * m_off[ax] - (c - 1))
        hi = min(c - 1, 2 * m_off[ax])
        if lo > hi:
            return out
        dst.append(slice(lo, hi + 1))
        src.append(slice(2 * m_off[ax] - hi, 2 * m_off[ax] - lo + 1))
    block = values[tuple(src)]
    out[tuple(dst)] = np.flip(block, axis=tuple(range(values.ndim)))
    return out


def bh_maximal(f: LatticeFunction, g: LatticeFunction) -> LatticeFunction:
    """Bilinear maximal function over dyadic radii.

    Per cell center x the value is the max over r in dyadic_radii of the
    average of |f(x - y) g(x + y)| over y in [-r, r]^n, computed by exact
    cell sums after substituting u = x - y (x + y = 2x - u then lies in a
    reflected cell).  The normalizer is the full (2r)^n with out-of-window
    samples contributing 0; the true sup over all r > 0 is within a factor
    2^n of this dyadic sup for nonnegative integrands (reported, not assumed).
    """
    window = _same_window(f, g)
    n = window.dim
    radii = dyadic_radii(window)
    out = np.zeros(window.shape)
    for m_off in np.ndindex(window.shape):
        prod = np.abs(f.values * _reflected(g.values, m_off))
        x = cell_center(window, tuple(o + a for o, a in zip(m_off, window.cell_index_lo)))
        best = 0.0
        for r in radii:
            box = tuple(xi - r for xi in x), tuple(xi + r for xi in x)
            val = weighted_box_sum(prod, axis_overlap_weights(window, box)) / (2.0 * r) ** n
            best = max(best, val)
        out[m_off] = best
    return LatticeFunction(window, out)


def m_alpha_r_centered(f: LatticeFunction, g: LatticeFunction, alpha: float,
                       pair: tuple[float, float]) -> LatticeFunction:
    """Centered order-alpha bilinear maximal function for the exponent pair (r1, r2).

    The sup over the centered cubes [x - r, x + r]^n, r in dyadic_radii, of
    (2r)^alpha (mean |f|^r1)^(1/r1) (mean |g|^r2)^(1/r2), the means taken over
    the cube clipped to the window.
    """
    r1, r2 = float(pair[0]), float(pair[1])
    if r1 <= 0 or r2 <= 0:
        raise ValueError(f"r1, r2 must be positive; got ({r1}, {r2})")
    window = _same_window(f, g)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0; got {alpha}")
    radii = dyadic_radii(window)
    fa = np.abs(f.values) ** r1
    ga = np.abs(g.values) ** r2
    out = np.empty(window.shape)
    lo = window.cell_index_lo
    for off in np.ndindex(window.shape):
        x = cell_center(window, tuple(o + a for o, a in zip(off, lo)))
        best = 0.0
        for r in radii:
            box = tuple(xi - r for xi in x), tuple(xi + r for xi in x)
            weights = axis_overlap_weights(window, box)
            vol = 1.0
            for w in weights:
                vol *= float(w.sum())
            if vol <= 0.0:
                continue
            mf = weighted_box_sum(fa, weights) / vol
            mg = weighted_box_sum(ga, weights) / vol
            val = (2.0 * r) ** alpha * mf ** (1.0 / r1) * mg ** (1.0 / r2)
            best = max(best, val)
        out[off] = best
    return LatticeFunction(window, out)


def kernel_window(window: Window) -> Window:
    """The kernel cells of window: cell indices -ceil(c/2) .. ceil(c/2) - 1 per axis."""
    half = (window.cells_per_axis + 1) // 2
    return Window(window.dim, window.level_min, window.level_min,
                  origin_offset=(-half,) * window.dim, top_count=2 * half)


def multilinear_fractional(fs, thetas, alpha: float, depth: int = 12) -> LatticeFunction:
    """k-linear fractional integral with translation speeds theta_j != 0.

    Arguments x - theta_j * y_c generally miss the lattice corners, so each
    factor is looked up in the cell containing the translated point (half-open
    convention); theta = (1, -1) reproduces bilinear_fractional cell for cell.
    """
    if not fs:
        raise ValueError("need at least one input function")
    window = fs[0].window
    for fk in fs[1:]:
        if fk.window != window:
            raise ValueError("all inputs must live on the same window")
    thetas = [float(t) for t in thetas]
    if len(thetas) != len(fs):
        raise ValueError("thetas must match inputs")
    if any(t == 0.0 for t in thetas):
        raise ValueError("translation speeds must be nonzero")
    n = window.dim
    if not 0.0 < alpha < n:
        raise ValueError(f"alpha must lie in (0, {n}); got {alpha}")
    kwin = kernel_window(window)
    kern = kernel_cell_averages(alpha, kwin, depth)
    c, k = window.cells_per_axis, kwin.cells_per_axis
    mlo = window.cell_index_lo
    j_centers = [np.arange(k) + m + 0.5 for m in kwin.cell_index_lo]  # units of cell side
    out = np.empty(window.shape)
    for i_off in np.ndindex(window.shape):
        acc = kern.copy()
        for fk, th in zip(fs, thetas):
            axis_offs = []
            axis_masks = []
            for ax in range(n):
                xi = i_off[ax] + mlo[ax] + 0.5
                cell = np.floor(xi - th * j_centers[ax]).astype(int) - mlo[ax]
                ok = (cell >= 0) & (cell < c)
                axis_offs.append(np.where(ok, cell, 0))
                axis_masks.append(ok)
            vals = fk.values[np.ix_(*axis_offs)].copy()
            for ax, ok in enumerate(axis_masks):
                shape = [1] * n
                shape[ax] = k
                vals *= ok.reshape(shape)
            acc *= vals
        out[i_off] = acc.sum()
    return LatticeFunction(window, out * window.cell_volume)


def correlation(f: LatticeFunction, g: LatticeFunction, alpha: float, depth: int = 12,
                symbols=()) -> LatticeFunction:
    """kern(y_c) f(x - y_c) g(x + y_c), times b(x) - b(x -+ y_c) per (b, slot) in symbols,
    summed over every kernel cell y_c in np.ndindex order on zero-padded arrays."""
    window = _same_window(f, g)
    kwin = kernel_window(window)
    kern = kernel_cell_averages(alpha, kwin, depth)
    c = window.cells_per_axis
    pads = tuple(c + abs(m) + 1 for m in kwin.cell_index_lo)

    def padded(values):
        out = np.zeros(tuple(2 * p + c for p in pads))
        out[tuple(slice(p, p + c) for p in pads)] = values
        return out

    fpad, gpad = padded(f.values), padded(g.values)
    bpads = [(b.values, padded(b.values), slot) for b, slot in symbols]
    f_axes = [[slice(p - j - m, p - j - m + c) for j in range(kwin.cells_per_axis)]
              for p, m in zip(pads, kwin.cell_index_lo)]
    g_axes = [[slice(p + j + m + 1, p + j + m + 1 + c) for j in range(kwin.cells_per_axis)]
              for p, m in zip(pads, kwin.cell_index_lo)]
    out = np.zeros(window.shape)
    for j_off in np.ndindex(kwin.shape):
        fsl = tuple(axis[j] for axis, j in zip(f_axes, j_off))
        gsl = tuple(axis[j] for axis, j in zip(g_axes, j_off))
        term = kern[j_off] * fpad[fsl] * gpad[gsl]
        for b, bpad, slot in bpads:
            term = term * (b - bpad[fsl if slot == 1 else gsl])
        out += term
    return LatticeFunction(window, out * window.cell_volume)
