"""The k-linear fractional integral, an independent oracle for bilinear_fractional.

It looks every factor up cell by cell at the translated point instead of
shifting whole arrays, so theta = (1, -1) checks the shifted-product loop of
morreylab.operators against a second construction.
"""

import numpy as np

from morreylab.field import LatticeFunction
from morreylab.operators import kernel_cell_averages


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
    kern = kernel_cell_averages(alpha, window, depth)
    c = window.cells_per_axis
    mlo = window.cell_index_lo
    j_centers = [np.arange(c) + m + 0.5 for m in mlo]  # per-axis, units of cell side
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
                shape[ax] = c
                vals *= ok.reshape(shape)
            acc *= vals
        out[i_off] = acc.sum()
    return LatticeFunction(window, out * window.cell_volume)
