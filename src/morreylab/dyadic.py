"""Dyadic grids, cubes, and the truncated window of a finite cube catalog.

A dyadic cube of level k is 2^k * (m + [0,1)^n) with m an integer vector.
Cubes are half-open, so cubes of one level tile space exactly and two dyadic
cubes are always nested or disjoint.  A Window truncates the grid to the
levels [level_min, level_max] over a block of top-level cubes; every quantity
in the package is a sup/sum over the window's finite cube catalog, and
reports record the window so convergence under window growth can be studied.

Window owns where a cube sits in a table of one level's cubes (position,
block and subtree); every other module reads table positions from it.

All coordinates are dyadic rationals, which binary floats represent exactly
at the scales used here; comparisons below are therefore exact, not
tolerance-based.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Cube:
    """Dyadic cube of side 2**level with lower corner at 2**level * index."""

    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(int(i) for i in self.index))

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def volume(self) -> float:
        return 2.0 ** (self.level * self.dim)


@dataclass(frozen=True)
class Window:
    """Truncated dyadic grid: levels level_min..level_max over a top block.

    The window consists of top_count**dim cubes of level level_max whose
    indices range over origin_offset + {0, .., top_count-1}^dim, together
    with all their dyadic descendants down to level_min.  The default block
    (origin_offset = (-1, .., -1), top_count = 2) is the 2^n top cubes
    surrounding the origin.

    level_min == level_max is allowed and gives a single-level window; the
    degenerate case is needed for single-cube catalogs.
    """

    dim: int
    level_min: int
    level_max: int
    origin_offset: tuple[int, ...] = None  # type: ignore[assignment]
    top_count: int = 2

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.level_min > self.level_max:
            raise ValueError("level_min must be <= level_max")
        if self.top_count < 1:
            raise ValueError("top_count must be >= 1")
        off = self.origin_offset
        if off is None:
            off = (-1,) * self.dim
        off = tuple(int(v) for v in off)
        if len(off) != self.dim:
            raise ValueError("origin_offset length must equal dim")
        object.__setattr__(self, "origin_offset", off)

    # -- geometry -----------------------------------------------------------

    @property
    def cell_side(self) -> float:
        return 2.0 ** self.level_min

    @property
    def cells_per_axis(self) -> int:
        return self.top_count * (1 << (self.level_max - self.level_min))

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.dim

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis ** self.dim

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (self.level_min * self.dim)

    def levels(self) -> range:
        return range(self.level_min, self.level_max + 1)

    def index_lo(self, level: int) -> tuple[int, ...]:
        """Smallest cube index per axis at the given level."""
        scale = 1 << (self.level_max - level)
        return tuple(o * scale for o in self.origin_offset)

    def index_count(self, level: int) -> int:
        return self.top_count * (1 << (self.level_max - level))

    @property
    def cell_index_lo(self) -> tuple[int, ...]:
        return self.index_lo(self.level_min)

    @property
    def touches_origin(self) -> bool:
        """Whether the closed block of top cubes holds 0: o <= 0 <= o + top_count per axis."""
        return all(o <= 0 <= o + self.top_count for o in self.origin_offset)

    # -- membership ---------------------------------------------------------

    def contains_cube(self, q: Cube) -> bool:
        if q.dim != self.dim or not self.level_min <= q.level <= self.level_max:
            return False
        cnt = self.index_count(q.level)
        return all(0 <= i < cnt for i in self.position(q))

    # -- counting -----------------------------------------------------------

    def n_cubes(self) -> int:
        total = 0
        for level in self.levels():
            total += self.index_count(level) ** self.dim
        return total

    # -- table positions ----------------------------------------------------

    def position(self, q: Cube) -> tuple[int, ...]:
        """q's entry, per axis, in a table of the window's cubes of its level in index order."""
        return tuple(m - a for m, a in zip(q.index, self.index_lo(q.level)))

    def block(self, q: Cube, level: int) -> tuple[slice, ...]:
        """The slices of q's subcubes of a level (<= q.level) in a table of that level."""
        s = 1 << (q.level - level)
        return tuple(slice(i * s, (i + 1) * s) for i in self.position(q))

    def subtree(self, q: Cube) -> Window:
        """The window of the window cube q and its descendants: its tables are q's subtree."""
        return Window(self.dim, self.level_min, q.level, q.index, 1)

    def cell_offsets_of_cube(self, q: Cube) -> tuple[slice, ...]:
        """Array slices (into the finest-cell array) covered by the cube."""
        if not self.contains_cube(q):
            raise ValueError(f"cube {q} not inside window")
        return self.block(q, self.level_min)


# -- cube relations ----------------------------------------------------------


def parent(q: Cube) -> Cube:
    # python floor-division handles negative indices correctly
    return Cube(q.level + 1, tuple(m >> 1 for m in q.index))


def ancestors(q: Cube, window: Window) -> list[Cube]:
    """Strictly increasing chain of ancestors of q inside the window.

    The chain runs from the parent up to level_max; its length is
    level_max - q.level.  Raises if q is not a window cube.
    """
    if not window.contains_cube(q):
        raise ValueError(f"cube {q} not inside window")
    chain = []
    cur = q
    while cur.level < window.level_max:
        cur = parent(cur)
        chain.append(cur)
    return chain
