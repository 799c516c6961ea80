"""Quadrature implementations of the bilinear fractional integral family.

The bilinear fractional integral of order alpha in (0, n),

    (f, g) -> integral of f(x - y) g(x + y) |y|^(alpha - n) dy,

is discretized at cell centers x: the integral over each kernel cell is the
exact (or corner-refined, in n >= 2) average of |y|^(alpha - n) on the cell
times f and g sampled at the translated cell centers.  Averaging the kernel
per cell, instead of sampling it, is what keeps the scheme consistent across
the integrable singularity at y = 0; sampling would diverge there.

Translated sample points x +- y_c land exactly on lattice corners when x and
y_c are both cell centers, so the scheme reduces to index shifts and the
whole operator is a kernel-weighted correlation of the two cell arrays.
Samples falling outside the window contribute 0 (inputs are treated as
compactly supported on the window).  For a window of c cells per axis the
only kernel cells with a nonzero term are those with |y_i| < c h / 2, so the
kernel runs over the centred block of 2 ceil(c/2) cells per axis, wherever
the window sits: the operator commutes with translations of the window by
whole cells.  For the default window the block is the window's own cells.

The correlation runs over an offset plan, built once per (alpha, dim, c,
level_min, depth) and cached: for each kernel cell y_c, the kernel average
on it and the band of output cells x whose samples x - y_c and x + y_c both
fall inside the window, as one tuple of per-axis slices of the output and one
of each input.  The plan is the only cache here, so the kernel quadrature
runs once per plan; its geometry comes from field's quadrature plan of the
kernel block, which the power weights of a stage share when the window is
that block (centred on the origin).  Outside its band a term is an exact
zero, and the running sum starts at +0.0, so leaving those terms out
changes no bit of the result.  Every operator here takes a batch of inputs
(values of shape (*batch, *window.shape), see field) through the same plan,
with the same float operations per batch entry.  The correlation runs on
copies with the window axes first and the batch axes last: the plan's slices
index the leading axes, and a band of a 1-D window is one contiguous block
of its cells times the batch, not one short row per batch entry.

Per-cell outputs are independent; a fixed summation order within each cell
keeps results deterministic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .dyadic import Window
from .field import DEFAULT_DEPTH, LatticeFunction, _same_window, abs_power_cell_averages


def kernel_cell_averages(alpha: float, window: Window, depth: int = DEFAULT_DEPTH) -> np.ndarray:
    """Per-cell averages of |y|^(alpha - n) over the window's cells."""
    return abs_power_cell_averages(alpha - window.dim, window, depth)


def _axis_bands(c: int) -> list:
    """Per kernel cell index d = -ceil(c/2) .. ceil(c/2) - 1 along one axis, the
    slices of the output cells x, of f at x - y and of g at x + y, or None if no x
    has both samples inside the c cells: f reads cell x - d, g reads cell x + d + 1."""
    half = (c + 1) // 2
    bands = []
    for d in range(-half, half):
        lo, hi = max(0, d, -d - 1), min(c, c + d, c - 1 - d)
        bands.append((slice(lo, hi), slice(lo - d, hi - d), slice(lo + d + 1, hi + d + 1))
                     if lo < hi else None)
    return bands


# Bounded, so a long sweep over alphas or window sizes holds at most 8 plans.
@functools.lru_cache(maxsize=8)
def _offset_plan(alpha: float, dim: int, c: int, level_min: int, depth: int) -> tuple:
    """The (kernel value, out slices, f slices, g slices) of every kernel cell with
    a non-empty band, in np.ndindex order; each is a tuple of one slice per window
    axis, so it indexes the leading axes of an array laid out window axes first.
    The kernel cells of a window of c cells per axis at level_min are the centred
    block of cell indices -ceil(c/2) .. ceil(c/2) - 1 per axis, so windows that
    differ only in position share one plan."""
    half = (c + 1) // 2
    block = Window(dim, level_min, level_min, origin_offset=(-half,) * dim, top_count=2 * half)
    kern = kernel_cell_averages(alpha, block, depth)
    bands = _axis_bands(c)
    plan = []
    for j_off in np.ndindex(block.shape):
        per_axis = [bands[j] for j in j_off]
        if all(per_axis):
            plan.append((kern[j_off], *zip(*per_axis)))
    return tuple(plan)


@dataclass(frozen=True)
class CommutatorSpec:
    """Symbols and slot choices for an iterated commutator.

    beta_vec[i] = 1 commutes the i-th symbol against the first argument slot
    (samples at x - y), beta_vec[i] = 2 against the second (x + y).  The
    expanded integrand multiplies the kernel by
    prod_{beta=1} (b_i(x) - b_i(x - y)) * prod_{beta=2} (b_i(x) - b_i(x + y)),
    which is manifestly invariant under permuting the (symbol, slot) pairs.
    """

    b_vec: tuple
    beta_vec: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "b_vec", tuple(self.b_vec))
        object.__setattr__(self, "beta_vec", tuple(int(b) for b in self.beta_vec))
        if len(self.b_vec) != len(self.beta_vec):
            raise ValueError("b_vec and beta_vec must have equal length")
        if any(b not in (1, 2) for b in self.beta_vec):
            raise ValueError("slot markers must be 1 or 2")
        if self.b_vec:
            _same_window(*self.b_vec)


def _correlation(f: LatticeFunction, g: LatticeFunction, alpha: float, depth: int,
                 symbols: tuple) -> LatticeFunction:
    """The kernel-weighted correlation shared by the operators below.

    Sums kern(y_c) f(x - y_c) g(x + y_c) over the kernel cells y_c, each term
    times b(x) - b(x - y_c) (slot 1) or b(x) - b(x + y_c) (slot 2) for every
    (b, slot) in symbols; no symbols gives the plain bilinear integral.  f, g
    and the symbols may be batched; their batch shapes broadcast.
    """
    window = _same_window(f, g, *(b for b, _ in symbols))
    n = window.dim
    if not 0.0 < alpha < n:
        raise ValueError(f"alpha must lie in (0, {n}); got {alpha}")
    batch = np.broadcast_shapes(*(v.values.shape[:-n] for v in (f, g, *(b for b, _ in symbols))))
    nb = len(batch)

    def batch_last(values):
        # a C-order copy of values broadcast to the whole batch, window axes first
        full = np.broadcast_to(values, (*batch, *window.shape))
        return np.ascontiguousarray(np.moveaxis(full, range(nb), range(n, n + nb)))

    fv, gv = batch_last(f.values), batch_last(g.values)
    bvs = [(batch_last(b.values), slot) for b, slot in symbols]
    out = np.zeros((*window.shape, *batch))
    for kern, osl, fsl, gsl in _offset_plan(alpha, n, window.cells_per_axis, window.level_min,
                                            depth):
        term = kern * fv[fsl]
        term *= gv[gsl]
        for b, slot in bvs:
            term *= b[osl] - b[fsl if slot == 1 else gsl]
        out[osl] += term
    out *= window.cell_volume
    return LatticeFunction(window, np.moveaxis(out, range(n), range(nb, nb + n)))


def bilinear_fractional(f: LatticeFunction, g: LatticeFunction, alpha: float,
                        depth: int = DEFAULT_DEPTH) -> LatticeFunction:
    """Bilinear fractional integral of order alpha, evaluated at cell centers."""
    return _correlation(f, g, alpha, depth, ())


def commutator_iterated(spec: CommutatorSpec, f: LatticeFunction, g: LatticeFunction,
                        alpha: float, depth: int = DEFAULT_DEPTH) -> LatticeFunction:
    """Iterated commutator of the bilinear fractional integral with BMO symbols."""
    return _correlation(f, g, alpha, depth, tuple(zip(spec.b_vec, spec.beta_vec)))


def bt_alpha(f: LatticeFunction, g: LatticeFunction, alpha: float,
             depth: int = DEFAULT_DEPTH) -> LatticeFunction:
    """Power-weight companion operator: the order-(n - alpha) bilinear integral."""
    window = _same_window(f, g)
    n = window.dim
    if not 0.0 < alpha < n:
        raise ValueError(f"alpha must lie in (0, {n}); got {alpha}")
    return bilinear_fractional(f, g, n - alpha, depth)


def dyadic_radii(window: Window) -> list[float]:
    """Radii 2^(level_min - 1) .. 2^level_max used by the centered operators."""
    return [2.0 ** j for j in range(window.level_min - 1, window.level_max + 1)]


def bh_maximal(f: LatticeFunction, g: LatticeFunction) -> LatticeFunction:
    """Bilinear maximal function over dyadic radii.

    Per cell center x the value is the max over r in dyadic_radii of the
    average of |f(x - y) g(x + y)| over y in [-r, r]^n.  Cell centers sit on
    the lattice, so y = d h (h the cell side, d an integer offset vector)
    makes the integrand the whole-array shifted product
    A_d[m] = |f[m - d]| |g[m + d]|.  The box of radius h/2 is the centre
    cell, A_0.  The box of radius K h (K = 2^i) holds every offset with
    |d|_inf < K whole and each offset on the shell |d|_inf = K with weight
    1/2 per axis where |d_i| = K.  So one pass over the shells in order of
    |d|_inf computes each A_d once: a running sum of the inner shells plus
    the weighted shell K gives the sum at radius K.  Every term added is
    nonnegative, so spiky inputs lose nothing to cancellation.  Offsets with
    |d|_inf > (c - 1) // 2 (c cells per axis) put x - y or x + y outside the
    window for every x and are skipped.

    The normalizer is the full (2r)^n with out-of-window samples
    contributing 0; the true sup over all r > 0 is within a factor 2^n of
    this dyadic sup for nonnegative integrands (reported, not assumed).
    Batched inputs are padded along the trailing window axes only.
    """
    window = _same_window(f, g)
    n = window.dim
    c = window.cells_per_axis
    fpad, gpad = (np.pad(np.abs(v), [(0, 0)] * (v.ndim - n) + [(c, c)] * n)
                  for v in (f.values, g.values))
    ks = [1 << i for i in range(len(dyadic_radii(window)) - 1)]  # dyadic_radii[1:] / h
    best = np.abs(f.values) * np.abs(g.values)
    inner = best.copy()  # sum of A_d over |d|_inf < s
    for s in range(1, (c - 1) // 2 + 1):
        box = inner.copy() if s in ks else None  # the sum at radius s h
        # the shell |d|_inf = s in lexicographic order: after a leading part on the shell the
        # last coordinate takes all of -s..s, otherwise only -s or s
        full = range(-s, s + 1)
        shell = [(*lead, x) for lead in itertools.product(full, repeat=n - 1)
                 for x in (full if s in lead or -s in lead else (-s, s))]
        for d in shell:
            a = fpad[(Ellipsis, *(slice(c - di, 2 * c - di) for di in d))] \
                * gpad[(Ellipsis, *(slice(c + di, 2 * c + di) for di in d))]
            inner += a
            if box is not None:
                box += a * 0.5 ** sum(abs(di) == s for di in d)
        if box is not None:
            np.maximum(best, box / (2.0 * s) ** n, out=best)
    for k in ks:  # the shells past (c - 1) // 2 are empty
        if k > (c - 1) // 2:
            np.maximum(best, inner / (2.0 * k) ** n, out=best)
    return LatticeFunction(window, best)
