import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.dyadic import Cube, Window, ancestors, parent

from conftest import assert_close
from oracles import (
    all_cubes,
    box_volume,
    cell_index_of_point,
    children,
    cube_box,
    cubes_at_level,
    dilate3,
    nested_pairs,
    window_box,
)


def test_children_bisect_interval():
    kids = children(Cube(0, (0,)))
    assert [(c.level, c.index) for c in kids] == [(-1, (0,)), (-1, (1,))]


def test_children_quadrants_square():
    kids = children(Cube(0, (0, 0)))
    assert len(kids) == 4
    assert {c.index for c in kids} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(c.level == -1 for c in kids)


def test_grandchildren_tile_unit_interval():
    # applying children twice yields 4 disjoint cubes covering [0,1)
    grand = [g for c in children(Cube(0, (0,))) for g in children(c)]
    assert len(grand) == 4
    boxes = sorted((lo, hi) for (lo,), (hi,) in map(cube_box, grand))
    assert boxes == [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]
    total = sum(hi - lo for lo, hi in boxes)
    assert total == 1.0


def test_children_partition_parent_volume():
    q = Cube(3, (-2, 5))
    kids = children(q)
    assert sum(k.volume for k in kids) == q.volume
    assert all(q.contains_cube(k) for k in kids)
    assert all(parent(k) == q for k in kids)


def test_ancestors_chain(unit_window):
    chain = ancestors(Cube(-2, (0,)), unit_window)
    assert [(a.level, a.index) for a in chain] == [(-1, (0,)), (0, (0,))]


def test_ancestors_at_top_is_empty(unit_window):
    assert ancestors(Cube(0, (0,)), unit_window) == []


def test_ancestors_outside_window_raises(unit_window):
    with pytest.raises(ValueError):
        ancestors(Cube(-2, (9,)), unit_window)


def test_ancestor_chain_lengths_sum_matches_direct_count():
    w = Window(1, -3, 0)
    total = sum(len(ancestors(q, w)) for q in all_cubes(w))
    direct = sum((w.level_max - lvl) * w.index_count(lvl) ** w.dim for lvl in w.levels())
    assert total == direct


def test_dilate3_unit_interval():
    assert dilate3(Cube(0, (0,))) == ((-1.0,), (2.0,))


def test_dilate3_keeps_center_and_triples_side():
    q = Cube(-1, (1,))
    (lo,), (hi,) = dilate3(q)
    assert_close((lo + hi) / 2, q.center[0])
    assert_close(hi - lo, 3 * q.side)


@given(st.integers(-6, 4), st.lists(st.integers(-20, 20), min_size=1, max_size=3))
def test_dilate3_volume_scaling(level, index):
    q = Cube(level, tuple(index))
    assert_close(box_volume(dilate3(q)), 3 ** q.dim * q.volume)


def test_cell_boundary_belongs_to_right_cell(unit_window):
    # half-open convention: the boundary point starts the next cell
    assert cell_index_of_point(unit_window, (0.5,)) == (2,)
    assert Cube(-2, (2,)).contains_point((0.5,))
    assert not Cube(-2, (1,)).contains_point((0.5,))


def test_cell_and_ancestors_of_point(unit_window):
    # the cubes containing x are the cell holding x and that cell's ancestors
    cell = Cube(unit_window.level_min, cell_index_of_point(unit_window, (0.3,)))
    chain = [cell] + ancestors(cell, unit_window)
    assert [(c.level, c.index) for c in chain] == [(-2, (1,)), (-1, (0,)), (0, (0,))]
    assert len(chain) == unit_window.level_max - unit_window.level_min + 1


def test_cell_and_ancestors_match_membership_filter():
    w = Window(2, -2, 0)
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = tuple(rng.uniform(lo, hi) for lo, hi in zip(*window_box(w)))
        cell = Cube(w.level_min, cell_index_of_point(w, x))
        got = {cell, *ancestors(cell, w)}
        want = {q for q in all_cubes(w) if q.contains_point(x)}
        assert got == want


def test_nested_pairs_two_level_example():
    w = Window(1, -1, 0, origin_offset=(0,), top_count=1)
    pairs = {((q.level, q.index), (p.level, p.index)) for q, p in nested_pairs(w)}
    assert pairs == {
        ((0, (0,)), (0, (0,))),
        ((-1, (0,)), (-1, (0,))),
        ((-1, (0,)), (0, (0,))),
        ((-1, (1,)), (-1, (1,))),
        ((-1, (1,)), (0, (0,))),
    }
    assert len(list(nested_pairs(w))) == 5


def test_nested_pairs_single_level_only_diagonal():
    w = Window(1, 0, 0, origin_offset=(0,), top_count=2)
    pairs = list(nested_pairs(w))
    assert all(q == p for q, p in pairs)
    assert len(pairs) == 2


def test_nested_pairs_are_setwise_nested():
    w = Window(2, -1, 0)
    for q, p in nested_pairs(w):
        assert p.contains_cube(q)


def test_levels_tile_window_box():
    w = Window(2, -2, 0)
    for lvl in w.levels():
        cubes = list(cubes_at_level(w, lvl))
        assert_close(sum(q.volume for q in cubes), box_volume(window_box(w)))
        assert len({q.index for q in cubes}) == len(cubes)


@settings(max_examples=200)
@given(st.integers(-4, 2), st.integers(-8, 8), st.integers(-4, 2), st.integers(-8, 8))
def test_nesting_trichotomy(l1, m1, l2, m2):
    a, b = Cube(l1, (m1,)), Cube(l2, (m2,))
    ((a_lo,), (a_hi,)), ((b_lo,), (b_hi,)) = cube_box(a), cube_box(b)
    inter_lo = max(a_lo, b_lo)
    inter_hi = min(a_hi, b_hi)
    disjoint = inter_lo >= inter_hi
    assert disjoint or a == b or a.contains_cube(b) or b.contains_cube(a)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0, -1, 0)
    with pytest.raises(ValueError):
        Window(1, 1, 0)
    with pytest.raises(ValueError):
        Window(1, -1, 0, origin_offset=(0, 0))
    with pytest.raises(ValueError):
        Window(1, -1, 0, top_count=0)


def test_default_window_surrounds_origin():
    w = Window(2, -1, 0)
    assert window_box(w) == ((-1.0, -1.0), (1.0, 1.0))
    assert w.contains_point((0.0, 0.0)) and w.contains_point((-1.0, -1.0))
    assert not w.contains_point((1.0, 0.0)) and not w.contains_point((0.0, -1.5))
    assert w.n_cells == 16


def test_cell_offsets_cover_cube():
    w = Window(2, -2, 0)
    q = Cube(-1, (0, -1))
    sl = w.cell_offsets_of_cube(q)
    arr = np.zeros(w.shape)
    arr[sl] = 1.0
    assert arr.sum() == 4  # 2x2 cells
    for off in itertools.product(*(range(s.start, s.stop) for s in sl)):
        idx = tuple(o + a for o, a in zip(off, w.cell_index_lo))
        center = w.cell_center(idx)
        assert q.contains_point(center)
