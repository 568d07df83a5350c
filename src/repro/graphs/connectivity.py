"""Connectivity algorithms: union-find, weak/strong components, reachability.

Implemented from scratch (networkx is used only as a *test oracle*, never
at runtime) because the simulator calls these in hot monitoring loops:

* :class:`UnionFind` — path-halving + union-by-size; the workhorse for the
  per-step safety monitor of Lemma 2 (amortized near-O(1) per edge);
* :func:`weakly_connected_components` — union-find over an undirected
  adjacency, O(V + E α(V));
* :func:`first_member_labels` — the canonical component labelling the
  engine's ``component_labels`` query answers with, whoever computes it;
* :func:`strongly_connected_components` — iterative Tarjan (no recursion,
  so deep path graphs cannot blow the Python stack);
* :func:`reachable_from` / :func:`can_reach` — plain BFS utilities used by
  hibernation detection and by the universality planner's shortest paths;
* :func:`hop_distance` — bidirectional BFS over a neighbour function, for
  the engine's hop-distance query;
* :func:`connecting_path` — the same search returning some path, with
  which the SoA core repairs its component certificate.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from typing import TypeVar

__all__ = [
    "UnionFind",
    "weakly_connected_components",
    "first_member_labels",
    "is_weakly_connected",
    "strongly_connected_components",
    "is_strongly_connected",
    "reachable_from",
    "reverse_reachable",
    "bfs_shortest_path",
    "hop_distance",
    "connecting_path",
]

T = TypeVar("T", bound=Hashable)


class UnionFind:
    """Disjoint-set forest with path halving and union by size."""

    __slots__ = ("_parent", "_size", "_count")

    def __init__(self, items: Iterable[T] = ()) -> None:
        self._parent: dict[T, T] = {}
        self._size: dict[T, int] = {}
        self._count = 0
        for item in items:
            self.add(item)

    def add(self, item: T) -> None:
        """Register *item* as a singleton set (no-op if already present)."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1
            self._count += 1

    def find(self, item: T) -> T:
        """Return the canonical representative of *item*'s set."""
        parent = self._parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]  # path halving
            item = parent[item]
        return item

    def union(self, a: T, b: T) -> bool:
        """Merge the sets of *a* and *b*; return True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._count -= 1
        return True

    def connected(self, a: T, b: T) -> bool:
        """Whether *a* and *b* are currently in the same set."""
        return self.find(a) == self.find(b)

    @property
    def n_sets(self) -> int:
        """Number of disjoint sets."""
        return self._count

    def groups(self) -> list[frozenset[T]]:
        """Return the sets as a list of frozensets."""
        by_root: dict[T, set[T]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return [frozenset(g) for g in by_root.values()]

    def __contains__(self, item: T) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        return len(self._parent)


def weakly_connected_components(
    adjacency: Mapping[T, Iterable[T]]
) -> list[frozenset[T]]:
    """Connected components of an undirected adjacency mapping.

    *adjacency* maps each node to its neighbours; nodes absent from the
    mapping's keys but present as neighbours are ignored (the caller
    controls the node universe — this is what restricts components to an
    induced subgraph).
    """

    uf = UnionFind(adjacency.keys())
    for node, neighbours in adjacency.items():
        for nb in neighbours:
            if nb in uf:
                uf.union(node, nb)
    return uf.groups()


def first_member_labels(items: Iterable[T], find: Callable[[T], Hashable]) -> dict[T, T]:
    """Label each of *items* with the first item, in iteration order,
    that has the same *find* root: a labelling that names each set by
    its first member, whatever representatives *find* picked."""
    first: dict[Hashable, T] = {}
    return {item: first.setdefault(find(item), item) for item in items}


def is_weakly_connected(adjacency: Mapping[T, Iterable[T]]) -> bool:
    """Whether the undirected graph given by *adjacency* is connected."""
    if not adjacency:
        return True
    uf = UnionFind(adjacency.keys())
    for node, neighbours in adjacency.items():
        for nb in neighbours:
            if nb in uf:
                uf.union(node, nb)
    return uf.n_sets == 1


def strongly_connected_components(
    adjacency: Mapping[T, Sequence[T]]
) -> list[frozenset[T]]:
    """Tarjan's SCC algorithm, iterative formulation.

    Returns components in reverse topological order (standard for Tarjan).
    Only neighbours present in ``adjacency``'s key set are followed.
    """

    index: dict[T, int] = {}
    lowlink: dict[T, int] = {}
    on_stack: set[T] = set()
    stack: list[T] = []
    components: list[frozenset[T]] = []
    counter = 0

    for root in adjacency:
        if root in index:
            continue
        # Explicit DFS stack of (node, iterator position).
        work: list[tuple[T, int]] = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            neighbours = [n for n in adjacency.get(node, ()) if n in adjacency]
            advanced = False
            for i in range(pos, len(neighbours)):
                nb = neighbours[i]
                if nb not in index:
                    work.append((node, i + 1))
                    work.append((nb, 0))
                    advanced = True
                    break
                if nb in on_stack:
                    lowlink[node] = min(lowlink[node], index[nb])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                comp: set[T] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                components.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def is_strongly_connected(adjacency: Mapping[T, Sequence[T]]) -> bool:
    """Whether the directed graph given by *adjacency* is strongly connected."""
    if not adjacency:
        return True
    return len(strongly_connected_components(adjacency)) == 1


def reachable_from(adjacency: Mapping[T, Iterable[T]], start: T) -> set[T]:
    """Nodes reachable from *start* by directed paths (including *start*)."""
    seen = {start}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for nb in adjacency.get(node, ()):
            if nb not in seen and nb in adjacency:
                seen.add(nb)
                frontier.append(nb)
    return seen


def reverse_reachable(adjacency: Mapping[T, Iterable[T]], target: T) -> set[T]:
    """Nodes with a directed path *to* target (including *target*)."""
    reverse: dict[T, list[T]] = {node: [] for node in adjacency}
    for node, neighbours in adjacency.items():
        for nb in neighbours:
            if nb in reverse:
                reverse[nb].append(node)
    return reachable_from(reverse, target)


def bfs_shortest_path(
    adjacency: Mapping[T, Iterable[T]], start: T, goal: T
) -> list[T] | None:
    """Shortest directed path from *start* to *goal*, or ``None``.

    Used by the universality planner (Theorem 1): references are forwarded
    along shortest paths of the goal graph's bidirected extension.
    """

    if start == goal:
        return [start]
    parent: dict[T, T] = {start: start}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for nb in adjacency.get(node, ()):
            if nb in parent or nb not in adjacency:
                continue
            parent[nb] = node
            if nb == goal:
                path = [nb]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return path[::-1]
            frontier.append(nb)
    return None


def connecting_path(
    neighbours: Callable[[T], Iterable[T]], s: T, t: T
) -> list[T] | None:
    """Some *s*–*t* path (a node list from *s* to *t*) in the undirected
    graph that *neighbours* enumerates, or ``None`` when *t* is
    unreachable.

    Bidirectional BFS that always grows the smaller frontier and stops
    at the first node both searches reached, so the path need not be
    shortest; across a genuine split the search ends once the smaller
    side is exhausted.
    """
    if s == t:
        return [s]
    # node -> predecessor towards its search's root (None at the root)
    near: dict[T, T | None] = {s: None}
    far: dict[T, T | None] = {t: None}
    near_front, far_front = [s], [t]
    flipped = False
    while near_front and far_front:
        if len(near_front) > len(far_front):
            near, far, near_front, far_front = far, near, far_front, near_front
            flipped = not flipped
        nxt: list[T] = []
        for u in near_front:
            for v in neighbours(u):
                if v in near:
                    continue
                near[v] = u
                if v in far:
                    path: list[T] = []
                    x: T | None = v
                    while x is not None:
                        path.append(x)
                        x = near[x]
                    path.reverse()
                    x = far[v]
                    while x is not None:
                        path.append(x)
                        x = far[x]
                    return path[::-1] if flipped else path
                nxt.append(v)
        near_front = nxt
    return None


def hop_distance(neighbours: Callable[[T], Iterable[T]], s: T, t: T) -> int | None:
    """Length of a shortest *s*–*t* path in the undirected graph that
    *neighbours* enumerates, or ``None`` when *t* is unreachable.

    Bidirectional BFS: each round expands the smaller frontier by one
    whole level and returns the least meeting distance of the first
    level where the searches meet, so the answer is exact.
    """
    if s == t:
        return 0
    near, far = {s: 0}, {t: 0}
    near_front, far_front = [s], [t]
    while near_front and far_front:
        if len(near_front) > len(far_front):
            near, far, near_front, far_front = far, near, far_front, near_front
        best: int | None = None
        nxt: list[T] = []
        for u in near_front:
            du = near[u] + 1
            for v in neighbours(u):
                dv = far.get(v)
                if dv is not None:
                    if best is None or du + dv < best:
                        best = du + dv
                elif v not in near:
                    near[v] = du
                    nxt.append(v)
        if best is not None:
            return best
        near_front = nxt
    return None
