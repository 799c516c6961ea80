"""Two-dimensional checks of the dimension-generic index arithmetic."""

import numpy as np
import pytest

from morreylab.czd import cz_decompose, verify_decomposition
from morreylab.dyadic import Cube, Window
from morreylab.field import LatticeFunction
from morreylab.operators import (
    CommutatorSpec,
    bilinear_fractional,
    commutator_iterated,
    kernel_cell_averages,
)

from conftest import random_lattice
from oracles import multilinear_fractional


@pytest.fixture
def win2():
    return Window(2, -2, 0)  # [-1,1)^2, 8x8 cells


def test_bilinear_matches_direct_sum_2d(win2):
    f = random_lattice(win2, 1)
    g = random_lattice(win2, 2)
    alpha = 0.8
    out = bilinear_fractional(f, g, alpha)
    kern = kernel_cell_averages(alpha, win2)
    c = win2.cells_per_axis
    lo = win2.cell_index_lo
    h_n = win2.cell_volume
    # direct sum: f at absolute cell (m_i - m_j), g at (m_i + m_j + 1)
    for i in ((0, 0), (3, 5), (7, 7), (4, 1)):
        total = 0.0
        for j in np.ndindex(win2.shape):
            fo = tuple(i[a] - j[a] - lo[a] for a in range(2))
            go = tuple(i[a] + j[a] + lo[a] + 1 for a in range(2))
            if all(0 <= v < c for v in fo) and all(0 <= v < c for v in go):
                total += kern[j] * f.values[fo] * g.values[go]
        assert abs(out.values[i] - total * h_n) <= 1e-12 * max(1.0, abs(total * h_n))


def test_multilinear_identity_2d(win2):
    f = random_lattice(win2, 3)
    g = random_lattice(win2, 4)
    a = bilinear_fractional(f, g, 1.1)
    b = multilinear_fractional([f, g], [1.0, -1.0], 1.1)
    assert np.max(np.abs(a.values - b.values)) <= 1e-13


def test_commutator_constants_vanish_2d(win2):
    f = random_lattice(win2, 5)
    g = random_lattice(win2, 6)
    spec = CommutatorSpec((LatticeFunction.constant(win2, 3.0),), (2,))
    out = commutator_iterated(spec, f, g, 0.9)
    assert np.max(np.abs(out.values)) <= 1e-12


def test_bh_dominated_2d(win2, centered_ops):
    bh_op, centered_op = centered_ops
    f = random_lattice(win2, 7)
    g = random_lattice(win2, 8)
    bh = bh_op(f, g)
    m = centered_op(f, g, 0.0, (2.0, 2.0))
    assert np.max(bh.values - m.values) <= 1e-12
    one = LatticeFunction.constant(win2, 1.0)
    assert np.all(bh_op(one, one).values == 1.0)


def test_cz_invariants_2d():
    w = Window(2, -4, 0)
    rng = np.random.default_rng(12)
    fv = rng.uniform(0.05, 0.5, w.shape)
    gv = rng.uniform(0.05, 0.5, w.shape)
    cell = (10, 10)  # inside [0, 1/2)^2
    fv[cell] *= 1e5
    gv[cell] *= 1e5
    f = LatticeFunction(w, fv)
    g = LatticeFunction(w, gv)
    q0 = Cube(-1, (0, 0))
    d = cz_decompose(f, g, q0, 2.0, 2.0)
    assert verify_decomposition(d, f, g, w, 2.0, 2.0) == []
