import numpy as np
import pytest

from dkoopman.graphs import (GraphError, build_graph, is_connected, laplacian,
                             parse_graph_text, preset_graph)
from dkoopman.linalg import eigenvalues

from oracles import format_graph_text


def random_graph(rng, p, connected=True):
    edges = []
    if connected and p > 1:
        order = rng.permutation(p)
        for k in range(1, p):
            edges.append((int(order[k]), int(order[rng.integers(0, k)])))
    for _ in range(int(rng.integers(0, p + 1))):
        i, j = rng.integers(0, p, size=2)
        if i != j:
            edges.append((int(i), int(j)))
    return build_graph(p, edges)


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        L = laplacian(g)
        assert np.flatnonzero(L[0] == -1.0).tolist() == [1, 2]
        assert L[1, 1] == 2.0

    def test_singleton(self):
        g = build_graph(1, [])
        assert g.p == 1 and g.edges == ()

    def test_deduplication(self):
        g = build_graph(3, [(0, 1), (1, 0)])
        assert g.edges == ((0, 1),)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            build_graph(3, [(0, 3)])

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5])
    def test_edge_not_a_pair_rejected(self, edge):
        with pytest.raises(GraphError, match="is not a vertex pair"):
            build_graph(3, [edge])

    def test_bad_vertex_count(self):
        with pytest.raises(GraphError):
            build_graph(0, [])

    @pytest.mark.parametrize("p", [True, 2.0, 2.5, "3"])
    def test_vertex_count_must_be_an_integer(self, p):
        with pytest.raises(GraphError, match=f"^vertex count must be an integer, got {p!r}$"):
            build_graph(p, [])
        assert build_graph(np.int64(2), [(0, 1)]).p == 2

    @pytest.mark.parametrize("vertex", [0.7, 2.9, True, 1.0, "1", None])
    def test_vertex_id_must_be_an_integer(self, vertex):
        # int() would truncate 0.7 and 2.9 to an edge (0, 2) and read True as 1
        with pytest.raises(GraphError, match=f"^vertex id must be an integer, got {vertex!r}$"):
            build_graph(3, [(vertex, 2)])
        with pytest.raises(GraphError, match=f"^vertex id must be an integer, got {vertex!r}$"):
            build_graph(3, [(2, vertex)])
        g = build_graph(3, [(np.int64(0), np.uint8(2))])
        assert g.edges == ((0, 2),) and type(g.edges[0][0]) is int


class TestConnectivity:
    def test_triangle_connected(self):
        assert is_connected(build_graph(3, [(0, 1), (1, 2), (2, 0)]))

    def test_two_isolated(self):
        assert not is_connected(build_graph(2, []))

    def test_path_connected(self):
        assert is_connected(build_graph(4, [(0, 1), (1, 2), (2, 3)]))

    def test_singleton_connected(self):
        assert is_connected(build_graph(1, []))


class TestLaplacian:
    def test_path3(self):
        L = laplacian(preset_graph("path", 3))
        assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_triangle(self):
        L = laplacian(preset_graph("ring", 3))
        assert np.array_equal(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_path5_fiedler_value(self):
        # path-graph spectrum: 2 - 2 cos(k pi / 5); second smallest at k = 1
        L = laplacian(preset_graph("path", 5))
        eigs = np.sort(eigenvalues(L).eigenvalues.real)
        assert eigs[1] == pytest.approx(2.0 - 2.0 * np.cos(np.pi / 5.0), abs=1e-9)

    def test_rows_sum_to_zero_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(1, 11)), connected=False)
            L = laplacian(g)
            assert np.all(L @ np.ones(g.p) == 0.0)
            assert np.array_equal(L, L.T)

    def test_connectivity_iff_single_near_zero_eigenvalue(self):
        rng = np.random.default_rng(123)
        for trial in range(120):
            g = random_graph(rng, int(rng.integers(2, 11)), connected=bool(trial % 2))
            L = laplacian(g)
            spec = eigenvalues(L, zero_tol=1e-9 * (1.0 + np.linalg.norm(L)))
            assert (spec.n_zero == 1) == is_connected(g)
            assert is_connected(L) == is_connected(g)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(1, 11)), connected=False)
            eigs = eigenvalues(laplacian(g)).eigenvalues.real
            assert eigs.min() >= -1e-10

    def test_matrix_is_read_only(self):
        L = laplacian(preset_graph("ring", 4))
        assert isinstance(L, np.ndarray) and not L.flags.writeable
        with pytest.raises(ValueError):
            L[0, 0] = 5.0


class TestPresets:
    def test_ring(self):
        assert preset_graph("ring", 5).edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        assert preset_graph("ring", 2).edges == ((0, 1),)
        assert preset_graph("ring", 1).edges == ()

    def test_ring3_equals_complete3(self):
        assert preset_graph("ring", 3).edges == preset_graph("complete", 3).edges

    def test_path(self):
        assert preset_graph("path", 4).edges == ((0, 1), (1, 2), (2, 3))

    def test_complete_count(self):
        assert len(preset_graph("complete", 6).edges) == 15

    def test_star(self):
        assert preset_graph("star", 4).edges == ((0, 1), (0, 2), (0, 3))

    def test_unknown_rejected(self):
        with pytest.raises(GraphError):
            preset_graph("torus", 4)


class TestTextFormat:
    def test_round_trip(self):
        g = build_graph(5, [(0, 1), (2, 4), (1, 3)])
        assert parse_graph_text(format_graph_text(g)) == g

    def test_parse_plain(self):
        g = parse_graph_text("3\n0 1\n1 2\n")
        assert g.p == 3 and g.edges == ((0, 1), (1, 2))

    # int reads other scripts' digits, a sign and "_"; the text format does not
    @pytest.mark.parametrize("text", ["3\n1 \u0662\n", "+3\n0 1\n", "\u0663\n0 1\n",
                                      "3\n0 +1\n", "3\n0 1_0\n"])
    def test_parse_numbers_are_ascii(self, text):
        with pytest.raises(GraphError):
            parse_graph_text(text)

    def test_parse_errors(self):
        with pytest.raises(GraphError):
            parse_graph_text("")
        with pytest.raises(GraphError):
            parse_graph_text("x\n")
        with pytest.raises(GraphError):
            parse_graph_text("3\n0 1 2\n")
        with pytest.raises(GraphError):
            parse_graph_text("3\n0 x\n")
