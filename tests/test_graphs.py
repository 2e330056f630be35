from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from vnlab import graphs
from oracles import calendar_days_oracle, grid_degree_census


# ---------------------------------------------------------------------------
# graphs and grids
# ---------------------------------------------------------------------------


def degree_census(g) -> Counter:
    """How many nodes have each degree, counted from the edge list."""
    degrees = [0] * g.n
    for i, j in g.edges:
        degrees[i] += 1
        degrees[j] += 1
    return Counter(degrees)


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        graphs.Graph(3, ((1, 1),))


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        graphs.Graph(3, ((0, 1), (1, 0)))


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(ValueError):
        graphs.Graph(2, ((0, 2),))


def test_graph_canonicalizes_edge_order():
    g = graphs.Graph(4, ((2, 1), (3, 0)))
    assert g.edges == ((0, 3), (1, 2))


def test_vn_must_touch_every_node():
    # vn marked but missing one edge
    with pytest.raises(ValueError):
        graphs.Graph(3, ((0, 2),), vn_index=2)
    g = graphs.Graph(3, ((0, 2), (1, 2)), vn_index=2)
    assert g.vn_index == 2


def test_add_virtual_node_on_path_of_three():
    path = graphs.Graph(3, ((0, 1), (1, 2)))
    g = graphs.add_virtual_node(path)
    assert g.n == 4
    assert len(g.edges) == 2 + 3
    assert g.vn_index == 3
    assert sorted(i for i, j in g.edges if j == 3) == [0, 1, 2]
    # original structure preserved
    assert (0, 1) in g.edges and (1, 2) in g.edges


def test_add_virtual_node_twice_rejected():
    g = graphs.add_virtual_node(graphs.Graph(2, ((0, 1),)))
    with pytest.raises(ValueError):
        graphs.add_virtual_node(g)


def test_add_virtual_node_to_single_node():
    g = graphs.add_virtual_node(graphs.Graph(1, ()))
    assert g.n == 2 and g.edges == ((0, 1),) and g.vn_index == 1


def test_grid_30x30_king_moves():
    g = graphs.grid_graph(graphs.GridSpec(30, 30, 8))
    assert g.n == 900
    assert len(g.edges) == 3422
    # corners, border, interior
    assert degree_census(g) == {3: 4, 5: 112, 8: 784}


def test_grid_1x1():
    g = graphs.grid_graph(graphs.GridSpec(1, 1, 8))
    assert g.n == 1 and g.edges == ()


def test_grid_2x2_king_moves_is_complete():
    g = graphs.grid_graph(graphs.GridSpec(2, 2, 8))
    assert len(g.edges) == 6  # K4


def test_grid_2x3_rook_moves():
    g = graphs.grid_graph(graphs.GridSpec(2, 3, 4))
    # edges: 2*(3-1) horizontal rows + 3*(2-1) vertical = 4 + 3
    assert len(g.edges) == 7


@given(st.integers(1, 7), st.integers(1, 7), st.sampled_from([4, 8]))
@settings(deadline=None, max_examples=60)
def test_grid_matches_degree_census_oracle(rows, cols, nb):
    g = graphs.grid_graph(graphs.GridSpec(rows, cols, nb))
    census, edge_count = grid_degree_census(rows, cols, nb)
    assert len(g.edges) == edge_count
    assert degree_census(g) == census


# ---------------------------------------------------------------------------
# calendar and windows
# ---------------------------------------------------------------------------


def test_calendar_days_benchmark_splits():
    assert graphs.calendar_days(1982, 2018) == 13514
    assert graphs.calendar_days(2019, 2019) == 365
    assert graphs.calendar_days(2020, 2021) == 731


@given(st.integers(1900, 2100), st.integers(0, 50))
@settings(deadline=None, max_examples=80)
def test_calendar_days_matches_leap_rule_oracle(start, span):
    assert graphs.calendar_days(start, start + span) == calendar_days_oracle(
        start, start + span
    )


def test_calendar_days_rejects_reversed_range():
    with pytest.raises(ValueError):
        graphs.calendar_days(2000, 1999)


def test_window_count_benchmark_cells():
    assert graphs.window_count(13514, graphs.WindowSpec(42, 28), 11) == 147_884
    assert graphs.window_count(365, graphs.WindowSpec(42, 14), 11) == 3_399
    assert graphs.window_count(731, graphs.WindowSpec(42, 7), 11) == 7_502


def test_window_count_single_region_scales_down():
    assert graphs.window_count(13514, graphs.WindowSpec(42, 28), 1) == 147_884 // 11


def test_window_count_too_short_is_zero():
    assert graphs.window_count(70, graphs.WindowSpec(42, 28)) == 0
    assert graphs.window_count(10, graphs.WindowSpec(42, 28)) == 0
