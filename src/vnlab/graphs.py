"""Graphs, virtual-node augmentation, and the forecasting dataset arithmetic.

The dataset side reproduces, exactly and without any data download, the
bookkeeping of a sea-surface-temperature forecasting benchmark: regular grid
graphs, calendar day counts for year-range splits, and sliding-window example
counts.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with an optional designated virtual node.

    ``n`` counts all nodes, including the virtual node when present.  Edges
    are canonical: (i, j) with i < j, sorted, no duplicates, no self loops.
    The virtual node, when present, must be adjacent to every other node and
    carries no other structural role.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    vn_index: int | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        canon = []
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"self loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {(i, j)} out of range for n={self.n}")
            canon.append((min(i, j), max(i, j)))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(canon))
        if self.vn_index is not None:
            vi = int(self.vn_index)
            if not 0 <= vi < self.n:
                raise ValueError(f"virtual node index {vi} out of range")
            object.__setattr__(self, "vn_index", vi)
            attached = {j if i == vi else i for i, j in self.edges if vi in (i, j)}
            expected = set(range(self.n)) - {vi}
            if attached != expected:
                raise ValueError(
                    "virtual node must be adjacent to exactly all other nodes"
                )

    @property
    def has_vn(self) -> bool:
        return self.vn_index is not None

    @property
    def graph_nodes(self) -> tuple[int, ...]:
        """Node ids excluding the virtual node, in ascending order."""
        return tuple(i for i in range(self.n) if i != self.vn_index)

    def degree(self, node: int) -> int:
        return sum(1 for i, j in self.edges if node in (i, j))

    def neighbors(self, node: int) -> tuple[int, ...]:
        out = [j if i == node else i for i, j in self.edges if node in (i, j)]
        return tuple(sorted(out))


def add_virtual_node(g: Graph) -> Graph:
    """Append one virtual node adjacent to every existing node."""
    if g.has_vn:
        raise ValueError("graph already has a virtual node")
    vn = g.n
    new_edges = g.edges + tuple((i, vn) for i in range(g.n))
    return Graph(g.n + 1, new_edges, vn_index=vn)


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    neighborhood: int = 8  # 4 = rook moves, 8 = rook + diagonal (king moves)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have positive extent")
        if self.neighborhood not in (4, 8):
            raise ValueError("neighborhood must be 4 or 8")


def grid_graph(spec: GridSpec) -> Graph:
    """Regular lattice with nodes indexed row-major (node = r * cols + c)."""
    if spec.neighborhood == 4:
        steps = ((0, 1), (1, 0))
    else:
        steps = ((0, 1), (1, 0), (1, 1), (1, -1))
    edges = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            a = r * spec.cols + c
            for dr, dc in steps:
                rr, cc = r + dr, c + dc
                if 0 <= rr < spec.rows and 0 <= cc < spec.cols:
                    edges.append((a, rr * spec.cols + cc))
    return Graph(spec.rows * spec.cols, tuple(edges))


# ---------------------------------------------------------------------------
# calendar and window arithmetic
# ---------------------------------------------------------------------------


def calendar_days(start_year: int, end_year: int) -> int:
    """Number of calendar days from Jan 1 of start_year through Dec 31 of end_year."""
    if end_year < start_year:
        raise ValueError("end_year must not precede start_year")
    first = datetime.date(start_year, 1, 1)
    last = datetime.date(end_year, 12, 31)
    return (last - first).days + 1


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window shape: history length and prediction length, in days."""

    history: int
    predict: int

    def __post_init__(self):
        if self.history < 1 or self.predict < 1:
            raise ValueError("window lengths must be positive")

    @property
    def span(self) -> int:
        return self.history + self.predict


def window_count(days: int, spec: WindowSpec, regions: int = 1) -> int:
    """Number of sliding-window examples over a day range, times region count.

    A window anchored at day t uses days [t, t + history) as input and
    [t + history, t + history + predict) as target; anchors slide one day at
    a time and the last anchor keeps the target fully inside the range, so a
    range of L days yields L - history - predict windows per region.
    """
    if regions < 1:
        raise ValueError("regions must be positive")
    count = days - spec.span
    if count < 0:
        count = 0
    return count * regions


@dataclass(frozen=True)
class YearSplit:
    """A named contiguous year range used as a dataset split."""

    name: str
    start_year: int
    end_year: int

    @property
    def days(self) -> int:
        return calendar_days(self.start_year, self.end_year)


BENCHMARK_SPLITS = (
    YearSplit("train", 1982, 2018),
    YearSplit("validation", 2019, 2019),
    YearSplit("test", 2020, 2021),
)

BENCHMARK_WINDOWS = (
    WindowSpec(42, 28),
    WindowSpec(42, 14),
    WindowSpec(42, 7),
)
