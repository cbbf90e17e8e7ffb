"""Membership tests and witness orderings for the graph classes the solvers
care about, plus brute-force decomposition oracles for the classes whose
recognition is hard.

Orderings are elimination orderings throughout: position i holds the i-th
vertex to be eliminated, and witness properties are stated over each
vertex's neighbors that occur *later* in the ordering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .graph import (
    Graph,
    SizeCapError,
    CliqueCountExceeded,
    find_independent_subset,
    independence_bounded,
    is_independent,
    maximal_cliques_containing,
)

Ordering = tuple[int, ...]


def _check_permutation(g: Graph, order) -> tuple[list[int], list[int]]:
    """The ordering as a list, and each vertex's position in it."""
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertex ids")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    return order, pos


def maximum_cardinality_search(g: Graph) -> Ordering:
    """Maximum cardinality search selection order.

    Repeatedly selects an unvisited vertex with the most visited neighbors,
    the lowest id among ties.  If g is chordal, the reverse of the returned
    order is a perfect elimination ordering.  A graph that prefers its CSR
    arrays keeps the counts in an int64 array and takes its argmax, whose
    first maximum is the lowest id; every other graph keeps a bucket queue
    of heaps over its adjacency sets.  Both give the same order.
    """
    if g.prefers_csr:
        return _mcs_csr(g)
    n = g.n
    adj = g.adj
    weight = [0] * n
    unvisited = set(range(n))
    # a heap of ids per weight: highest weight wins, and its heap gives the
    # lowest id in O(log n) even when the bucket is large (every vertex of
    # an edgeless graph, every leaf of a star).  A vertex is pushed once per
    # weight it takes and picked by the entry of its last weight; each other
    # entry lies below its weight and is skipped when popped
    buckets: list[list[int]] = [list(range(n))] + [[] for _ in range(n)]
    top = 0
    order = []
    for _ in range(n):
        while True:
            while not buckets[top]:
                top -= 1
            v = heappop(buckets[top])
            if weight[v] == top:
                break
        unvisited.remove(v)
        order.append(v)
        for u in adj[v] & unvisited:
            weight[u] += 1
            heappush(buckets[weight[u]], u)
        # every weight was at most top, so none now exceeds top + 1
        top += 1
    return tuple(order)


def _mcs_csr(g: Graph) -> Ordering:
    indptr, indices = g.csr
    ptr = indptr.tolist()
    n = g.n
    count = np.zeros(n, dtype=np.int64)
    order = []
    for _ in range(n):
        v = int(count.argmax())
        order.append(v)
        count[indices[ptr[v]:ptr[v + 1]]] += 1
        # at most n - 1 later neighbours add to it, so it stays below zero
        count[v] = -n
    return tuple(order)


def verify_peo(g: Graph, order) -> bool:
    """True iff every vertex's later neighbors form a clique.

    O(n+m) (Tarjan and Yannakakis, SIAM J. Comput. 1984): it suffices that
    each vertex's later neighbors other than the earliest, p, are adjacent
    to p.  The ordering ``is_chordal`` last verified on g passes at once,
    and a non-permutation raises ValueError.  A graph that prefers its CSR
    arrays and has at most _PAIR_MATRIX_CELLS vertex pairs runs the same
    test vectorised; every other one takes set differences.
    """
    order = tuple(order)
    if order == g._peo:
        return True
    order, pos = _check_permutation(g, order)
    if g.prefers_csr and g.n * g.n <= _PAIR_MATRIX_CELLS:
        return _verify_peo_csr(g, order, pos)
    adj = g.adj
    earlier: set[int] = set()
    for v in order:
        later = adj[v] - earlier
        if len(later) > 1:
            p = min(later, key=pos.__getitem__)
            # every later vertex but p must lie in adj[p]; p itself never does
            if len(later - adj[p]) > 1:
                return False
        earlier.add(v)
    return True


# _verify_peo_csr looks pairs up in an n-by-n bool matrix, which verify_peo
# caps at this many cells (16 MiB, n = 4096); larger graphs take the set loop
_PAIR_MATRIX_CELLS = 1 << 24


def _verify_peo_csr(g: Graph, order: list[int], pos: list[int]) -> bool:
    indptr, indices = g.csr
    n = g.n
    pos = np.array(pos, dtype=np.int64)
    rows = np.repeat(np.arange(n), np.diff(indptr))  # each entry's vertex
    later_pos = pos[indices]
    later = later_pos > pos[rows]
    # each vertex's earliest later neighbour p, as a position; n if none
    first = np.full(n, n, dtype=np.int64)
    full = np.flatnonzero(np.diff(indptr))
    first[full] = np.minimum.reduceat(np.where(later, later_pos, n), indptr[full])
    p = np.array(order + [0], dtype=np.int64)[first]
    # every later neighbour u but p must lie in p's row: the pair (p, u)
    # must be an edge
    ask = later & (later_pos != first[rows])
    adjacent = np.zeros(n * n, dtype=bool)
    adjacent[rows * n + indices] = True
    return not (ask & ~adjacent[p[rows] * n + indices]).any()


def is_chordal(g: Graph) -> Ordering | None:
    """A perfect elimination ordering if g is chordal, else None."""
    order = tuple(reversed(maximum_cardinality_search(g)))
    if not verify_peo(g, order):
        return None
    g._peo = order
    return order


def find_hole(g: Graph) -> tuple[int, ...] | None:
    """An induced cycle of length >= 4, or None if g is chordal.

    Locates a PEO violation (vertex with two nonadjacent later neighbors)
    and closes a shortest path between the two offenders that avoids the
    rest of the violating vertex's neighborhood.
    """
    order = tuple(reversed(maximum_cardinality_search(g)))
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    for v in order:
        later = sorted(u for u in g.adj[v] if pos[u] > pos[v])
        for i, a in enumerate(later):
            for b in later[i + 1 :]:
                if g.has_edge(a, b):
                    continue
                # shortest a-b path avoiding N[v] \ {a, b}; with v it closes
                # a cycle, and taking a *shortest* such path makes it induced
                # except possibly for chords into v, which are excluded.
                banned = (g.adj[v] | {v}) - {a, b}
                parent = {a: None}
                queue = deque([a])
                while queue:
                    x = queue.popleft()
                    if x == b:
                        break
                    for y in sorted(g.adj[x]):
                        if y not in parent and y not in banned:
                            parent[y] = x
                            queue.append(y)
                if b not in parent:
                    continue
                path = []
                x: int | None = b
                while x is not None:
                    path.append(x)
                    x = parent[x]
                cycle = tuple([v] + path[::-1])
                if len(cycle) >= 4:
                    return cycle
    return None


def is_cluster(g: Graph) -> bool:
    """True iff every connected component is a clique."""
    return find_cluster_violation(g) is None


def find_cluster_violation(g: Graph) -> tuple[int, int, int] | None:
    """An induced path (u, v, w) witnessing that g is not a cluster graph."""
    for v in range(g.n):
        nb = sorted(g.adj[v])
        for i, a in enumerate(nb):
            for b in nb[i + 1 :]:
                if not g.has_edge(a, b):
                    return (a, v, b)
    return None


def is_k_mino(g: Graph, k: int) -> bool:
    """True iff every vertex lies in at most k maximal cliques."""
    if k < 1:
        raise ValueError("k must be positive")
    for v in range(g.n):
        try:
            maximal_cliques_containing(g, v, cap=k)
        except CliqueCountExceeded:
            return False
    return True


def is_k1k_free(g: Graph, k: int) -> tuple[int, frozenset[int]] | None:
    """None if g has no induced K_{1,k}; otherwise a witness
    (center, k pairwise nonadjacent neighbors)."""
    if k < 1:
        raise ValueError("k must be positive")
    for v in range(g.n):
        leaves = find_independent_subset(g, g.adj[v], k)
        if leaves is not None:
            return (v, leaves)
    return None


def _two_clique_coverable(g: Graph, verts: frozenset[int]) -> bool:
    """Can G[verts] be covered by at most two cliques?

    Equivalent to 2-colorability of the complement of G[verts].
    """
    verts_list = sorted(verts)
    color: dict[int, int] = {}
    for start in verts_list:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in verts_list:
                if y == x or g.has_edge(x, y):
                    continue  # complement edge iff non-adjacent
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def _greedy_peel(g: Graph, removable) -> Ordering | None:
    """Repeatedly delete the lowest-id remaining vertex v for which
    removable(v, its remaining neighbors) holds; the deletion order, or None
    once no remaining vertex is removable.  Sound and complete for a
    hereditary class, where a removable vertex never blocks another."""
    alive = set(range(g.n))
    order = []
    while alive:
        v = next((v for v in sorted(alive) if removable(v, g.adj[v] & alive)), None)
        if v is None:
            return None
        order.append(v)
        alive.discard(v)
    return tuple(order)


def two_simplicial_ordering(g: Graph) -> Ordering | None:
    """An ordering where each vertex's later neighbors split into at most two
    cliques, if one exists, by greedy peeling."""
    return _greedy_peel(g, lambda v, nb: _two_clique_coverable(g, nb))


def verify_inductive_k_independent(g: Graph, order, k: int) -> bool:
    """True iff each vertex's closed later neighborhood has independence
    number at most k under the given ordering."""
    if k < 1:
        raise ValueError("k must be positive")
    order, pos = _check_permutation(g, order)
    for v in order:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        if not independence_bounded(g, later + [v], k):
            return False
    return True


def find_inductive_k_independent_ordering(g: Graph, k: int) -> Ordering | None:
    """Greedy peeling witness for inductive k-independence, or None.

    A vertex is removable when its closed neighborhood in the remaining
    graph has independence number at most k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return _greedy_peel(g, lambda v, nb: independence_bounded(g, [*nb, v], k))


@dataclass(frozen=True)
class ClusterChordalDecomposition:
    """Disjoint split of an edge set into a cluster part and a chordal part,
    with a perfect elimination ordering certifying the chordal side."""

    cluster_edges: frozenset[tuple[int, int]]
    chordal_edges: frozenset[tuple[int, int]]
    peo: Ordering


def brute_force_cluster_chordal(
    g: Graph, edge_cap: int = 24
) -> ClusterChordalDecomposition | None:
    """Exhaustive search for a split E = E1 (cluster) + E2 (chordal).

    Explores the 2^|E| disjoint assignments with pruning on the cluster
    side: a cluster component must stay a clique, and all of its internal
    pairs must be cluster-assigned.  Refuses graphs with more than edge_cap
    edges.  The chordal side is preferred per edge, so the first witness
    found for a chordal input is the all-chordal split.
    """
    edges = sorted(g.edges())
    if len(edges) > edge_cap:
        raise SizeCapError(
            f"{len(edges)} edges exceed the brute-force cap of {edge_cap}"
        )

    comp = list(range(g.n))  # union-find over the cluster side

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    members: list[set[int]] = [{v} for v in range(g.n)]
    edge_index = {e: i for i, e in enumerate(edges)}
    assignment: list[int | None] = [None] * len(edges)  # 0 cluster / 1 chordal

    def chordal_side_ok() -> Ordering | None:
        chordal = [e for e, a in zip(edges, assignment) if a == 1]
        return is_chordal(Graph(g.n, chordal))

    def rec(i: int) -> ClusterChordalDecomposition | None:
        if i == len(edges):
            peo = chordal_side_ok()
            if peo is None:
                return None
            return ClusterChordalDecomposition(
                cluster_edges=frozenset(
                    e for e, a in zip(edges, assignment) if a == 0
                ),
                chordal_edges=frozenset(
                    e for e, a in zip(edges, assignment) if a == 1
                ),
                peo=peo,
            )
        u, v = edges[i]
        ru, rv = find(u), find(v)
        # chordal side first; illegal if u, v already share a cluster component
        if ru != rv:
            assignment[i] = 1
            got = rec(i + 1)
            if got is not None:
                return got
        # cluster side: merging two components requires every cross pair to
        # be an edge of g not already forced onto the chordal side
        assignment[i] = 0
        ok = True
        if ru != rv:
            for a in members[ru]:
                for b in members[rv]:
                    key = (a, b) if a < b else (b, a)
                    j = edge_index.get(key)
                    if j is None or assignment[j] == 1:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            if ru != rv:
                saved = (ru, rv, set(members[ru]), set(members[rv]))
                comp[ru] = rv
                members[rv] |= members[ru]
            got = rec(i + 1)
            if got is not None:
                return got
            if ru != rv:
                comp[saved[0]] = saved[0]
                members[saved[0]] = saved[2]
                members[saved[1]] = saved[3]
        assignment[i] = None
        return None

    return rec(0)


def hamiltonicity_via_decomposition(g: Graph, edge_cap: int = 24) -> bool:
    """Hamiltonicity test for cubic triangle-free graphs via decompositions.

    Picks an arbitrary vertex and tries deleting each of its three incident
    edges; the graph is Hamiltonian iff some deletion leaves a
    cluster+chordal graph.
    """
    if g.n < 3:
        raise ValueError("graph too small to be cubic")
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise ValueError("graph is not cubic")
    for v in range(g.n):
        nb = sorted(g.adj[v])
        for i, a in enumerate(nb):
            for b in nb[i + 1 :]:
                if g.has_edge(a, b):
                    raise ValueError("graph contains a triangle")
    v = 0
    all_edges = g.edges()
    for u in sorted(g.adj[v]):
        key = (v, u) if v < u else (u, v)
        rest = [e for e in all_edges if e != key]
        if brute_force_cluster_chordal(Graph(g.n, rest), edge_cap=edge_cap):
            return True
    return False
