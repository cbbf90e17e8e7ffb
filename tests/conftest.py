import itertools
import random

import pytest

from mwccs.generators import random_chordal
from mwccs.graph import Graph


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def interval_graph(n: int, span: float, seed: int) -> Graph:
    """The intersection graph of n random intervals of length at most span
    in [0, 1 + span)."""
    rng = random.Random(seed)
    ivs = [(a, a + span * rng.random()) for a in (rng.random() for _ in range(n))]
    return Graph(n, [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if ivs[u][0] <= ivs[v][1] and ivs[v][0] <= ivs[u][1]
    ])


def cluster_graph(sizes) -> Graph:
    """Disjoint cliques of the given sizes, on consecutive ids."""
    edges, start = [], 0
    for size in sizes:
        edges += itertools.combinations(range(start, start + size), 2)
        start += size
    return Graph(start, edges)


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture(params=[False, True], ids=["sets", "csr"])
def forced_view(request, monkeypatch):
    """Force Graph.prefers_csr each way, so that the set loops and the CSR
    loops both run whatever a graph's density."""
    monkeypatch.setattr(Graph, "prefers_csr", property(lambda g: request.param))
    return request.param


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, a.edges() + shifted)


def mixed_graphs(count: int, seed: int):
    """n = 0 and n = 1, then count graphs cycling through random chordal,
    random (mostly non-chordal), disconnected and complete ones."""
    rng = random.Random(seed)
    yield Graph(0)
    yield Graph(1)
    for i in range(count):
        n = rng.randint(2, 40)
        kind = i % 4
        if kind == 0:
            yield random_chordal(n, rng.randint(1, 8), rng.getrandbits(32))
        elif kind == 1:
            yield random_graph(n, rng.random(), rng.getrandbits(32))
        elif kind == 2:
            k = rng.randint(1, n - 1)
            yield disjoint_union(
                random_chordal(k, rng.randint(1, 6), rng.getrandbits(32)),
                random_graph(n - k, rng.random(), rng.getrandbits(32)),
            )
        else:
            yield complete_graph(n)
