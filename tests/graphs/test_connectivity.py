"""Connectivity algorithms, cross-checked against networkx as an oracle."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.connectivity import (
    UnionFind,
    bfs_shortest_path,
    connecting_path,
    hop_distance,
    is_strongly_connected,
    is_weakly_connected,
    reachable_from,
    reverse_reachable,
    strongly_connected_components,
    weakly_connected_components,
)


def random_digraph(draw, max_n=10, max_m=30):
    n = draw(st.integers(1, max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_m,
        )
    )
    return n, edges


digraphs = st.builds(lambda d: d, st.integers())  # placeholder, replaced below


@st.composite
def digraph_strategy(draw):
    n = draw(st.integers(1, 10))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30
        )
    )
    return n, edges


def to_adj(n, edges):
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
    return adj


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind(range(3))
        assert uf.n_sets == 3
        assert not uf.connected(0, 1)

    def test_union_merges(self):
        uf = UnionFind(range(4))
        assert uf.union(0, 1)
        assert uf.connected(0, 1)
        assert uf.n_sets == 3

    def test_union_idempotent(self):
        uf = UnionFind(range(3))
        uf.union(0, 1)
        assert not uf.union(1, 0)

    def test_groups(self):
        uf = UnionFind(range(4))
        uf.union(0, 1)
        uf.union(2, 3)
        groups = {frozenset(g) for g in uf.groups()}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_add_after_unions(self):
        uf = UnionFind()
        uf.add("a")
        uf.add("b")
        uf.union("a", "b")
        uf.add("a")  # no-op
        assert uf.n_sets == 1

    def test_transitivity_chain(self):
        uf = UnionFind(range(100))
        for i in range(99):
            uf.union(i, i + 1)
        assert uf.connected(0, 99)
        assert uf.n_sets == 1


class TestWeakComponents:
    @given(digraph_strategy())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, graph):
        n, edges = graph
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        expected = {frozenset(c) for c in nx.weakly_connected_components(g)}
        adj = {i: set() for i in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        got = {frozenset(c) for c in weakly_connected_components(adj)}
        assert got == expected

    def test_empty_graph_connected(self):
        assert is_weakly_connected({})

    def test_outsider_neighbours_ignored(self):
        # node 9 appears only as a neighbour, not a key: induced semantics
        comps = weakly_connected_components({0: [9], 1: []})
        assert {frozenset(c) for c in comps} == {frozenset({0}), frozenset({1})}


class TestStrongComponents:
    @given(digraph_strategy())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, graph):
        n, edges = graph
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        expected = {frozenset(c) for c in nx.strongly_connected_components(g)}
        got = {
            frozenset(c)
            for c in strongly_connected_components(to_adj(n, edges))
        }
        assert got == expected

    def test_cycle_is_one_scc(self):
        adj = {0: [1], 1: [2], 2: [0]}
        assert is_strongly_connected(adj)

    def test_path_is_not_strongly_connected(self):
        assert not is_strongly_connected({0: [1], 1: [2], 2: []})

    def test_deep_path_no_recursion_error(self):
        """Iterative Tarjan must survive graphs deeper than the recursion
        limit."""
        n = 5000
        adj = {i: [i + 1] for i in range(n - 1)}
        adj[n - 1] = []
        comps = strongly_connected_components(adj)
        assert len(comps) == n


class TestReachability:
    def test_reachable_from(self):
        adj = {0: [1], 1: [2], 2: [], 3: [0]}
        assert reachable_from(adj, 0) == {0, 1, 2}

    def test_reverse_reachable(self):
        adj = {0: [1], 1: [2], 2: [], 3: [0]}
        assert reverse_reachable(adj, 2) == {0, 1, 2, 3}

    @given(digraph_strategy(), st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_reverse_is_forward_in_transpose(self, graph, start):
        n, edges = graph
        start %= n
        rev_edges = [(b, a) for a, b in edges]
        assert reverse_reachable(to_adj(n, edges), start) == reachable_from(
            to_adj(n, rev_edges), start
        )


class TestShortestPath:
    def test_trivial(self):
        assert bfs_shortest_path({0: []}, 0, 0) == [0]

    def test_simple_path(self):
        adj = {0: [1], 1: [2], 2: []}
        assert bfs_shortest_path(adj, 0, 2) == [0, 1, 2]

    def test_unreachable_returns_none(self):
        assert bfs_shortest_path({0: [], 1: []}, 0, 1) is None

    @given(digraph_strategy(), st.integers(0, 9), st.integers(0, 9))
    @settings(max_examples=50, deadline=None)
    def test_matches_networkx_length(self, graph, s, t):
        n, edges = graph
        s, t = s % n, t % n
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        path = bfs_shortest_path(to_adj(n, edges), s, t)
        try:
            expected = nx.shortest_path_length(g, s, t)
        except nx.NetworkXNoPath:
            assert path is None
            return
        assert path is not None
        assert len(path) - 1 == expected
        # and it is an actual path
        for a, b in zip(path, path[1:], strict=False):
            assert (a, b) in set(edges)


@st.composite
def sparse_graph_strategy(draw):
    """Undirected graphs sparse enough to fall apart into components
    and to grow long shortest paths."""
    n = draw(st.integers(1, 40))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n
        )
    )
    return n, edges


class TestHopDistance:
    def test_trivial(self):
        assert hop_distance(lambda u: (), 0, 0) == 0

    def test_two_components(self):
        adj = {0: [1], 1: [0, 2], 2: [1], 3: [4], 4: [3]}
        assert hop_distance(adj.__getitem__, 0, 2) == 2
        assert hop_distance(adj.__getitem__, 0, 4) is None
        assert hop_distance(adj.__getitem__, 4, 0) is None

    @given(sparse_graph_strategy(), st.integers(0, 39), st.integers(0, 39))
    @settings(max_examples=200, deadline=None)
    def test_matches_bfs_shortest_path(self, graph, s, t):
        n, edges = graph
        s, t = s % n, t % n
        undirected = to_adj(n, edges + [(b, a) for a, b in edges])
        path = bfs_shortest_path(undirected, s, t)
        expected = None if path is None else len(path) - 1
        assert hop_distance(undirected.__getitem__, s, t) == expected


class TestConnectingPath:
    def test_trivial(self):
        assert connecting_path(lambda u: (), 0, 0) == [0]

    def test_two_components(self):
        adj = {0: [1], 1: [0, 2], 2: [1], 3: [4], 4: [3]}
        assert connecting_path(adj.__getitem__, 0, 2) == [0, 1, 2]
        assert connecting_path(adj.__getitem__, 2, 0) == [2, 1, 0]
        assert connecting_path(adj.__getitem__, 0, 4) is None

    @given(sparse_graph_strategy(), st.integers(0, 39), st.integers(0, 39))
    @settings(max_examples=200, deadline=None)
    def test_walks_edges_from_s_to_t_iff_reachable(self, graph, s, t):
        n, edges = graph
        s, t = s % n, t % n
        undirected = to_adj(n, edges + [(b, a) for a, b in edges])
        path = connecting_path(undirected.__getitem__, s, t)
        if bfs_shortest_path(undirected, s, t) is None:
            assert path is None
            return
        assert path[0] == s and path[-1] == t
        assert len(set(path)) == len(path)
        assert all(b in undirected[a] for a, b in zip(path, path[1:]))
