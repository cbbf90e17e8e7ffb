"""Seeded random instance factories for tests, benchmarks, and the CLI.

All generators are deterministic functions of their seed (python's
random.Random, i.e. Mersenne Twister, which is stable across platforms).
"""

from __future__ import annotations

import random

from .graph import Graph, MulticoloredCliqueInstance, WeightedInstance


def random_chordal(n: int, max_clique: int, seed: int) -> Graph:
    """Chordal graph built by attaching each new vertex to a clique.

    Maintains a pool of cliques; vertex t joins a random sub-clique of size
    at most max_clique - 1 drawn from a random pool member, which keeps the
    graph chordal with clique number at most max_clique (reverse insertion
    order is a perfect elimination ordering).
    """
    if max_clique < 1:
        raise ValueError("max_clique must be positive")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    pool: list[tuple[int, ...]] = [()]
    for t in range(n):
        base = pool[rng.randrange(len(pool))]
        limit = min(len(base), max_clique - 1)
        size = rng.randint(0, limit) if limit > 0 else 0
        attach = tuple(sorted(rng.sample(base, size))) if size else ()
        edges.extend((u, t) for u in attach)
        pool.append(attach + (t,))
    return Graph(n, edges)


def random_cluster(n: int, max_cluster: int, seed: int) -> tuple[Graph, tuple[int, ...]]:
    """Disjoint cliques with sizes up to max_cluster, plus the label vector."""
    if max_cluster < 1:
        raise ValueError("max_cluster must be positive")
    rng = random.Random(seed)
    labels = [0] * n
    edges: list[tuple[int, int]] = []
    v = 0
    cluster = 0
    while v < n:
        size = rng.randint(1, min(max_cluster, n - v))
        group = list(range(v, v + size))
        for a in range(len(group)):
            labels[group[a]] = cluster
            for b in range(a + 1, len(group)):
                edges.append((group[a], group[b]))
        v += size
        cluster += 1
    return Graph(n, edges), tuple(labels)


def overlay_cluster_chordal(
    cluster_part: Graph,
    chordal_part: Graph,
    weights=None,
) -> WeightedInstance:
    """Edge-wise union of a cluster graph and a chordal graph, with the
    decomposition witness attached.

    Shared edges are tagged onto the chordal side (which keeps that side
    unchanged); the cluster tag then covers only the remaining clique
    edges.  If stripping the shared edges broke the cluster side, the
    instance refuses its witness with ValueError when it is made.
    """
    if cluster_part.n != chordal_part.n:
        raise ValueError("parts must have the same vertex count")
    n = cluster_part.n
    chordal_edges = frozenset(chordal_part.edges())
    cluster_edges = frozenset(cluster_part.edges()) - chordal_edges
    union = sorted(cluster_edges | chordal_edges)
    if weights is None:
        weights = tuple([1] * n)
    return WeightedInstance(
        Graph(n, union),
        tuple(weights),
        cluster_edges=cluster_edges,
        chordal_edges=chordal_edges,
    )


def random_cluster_chordal_instance(
    n: int,
    max_cluster: int,
    max_clique: int,
    max_w: int,
    seed: int,
) -> WeightedInstance:
    """Random witnessed cluster+chordal instance with edge-disjoint parts.

    Draws the chordal side first, then groups vertices into clusters that
    contain no chordal edge, so both witness sides are valid by
    construction.
    """
    rng = random.Random(seed)
    chordal = random_chordal(n, max_clique, rng.getrandbits(32))
    order = list(range(n))
    rng.shuffle(order)
    groups: list[list[int]] = []
    for v in order:
        candidates = [
            g
            for g in groups
            if len(g) < max_cluster and all(not chordal.has_edge(v, u) for u in g)
        ]
        if candidates and rng.random() < 0.8:
            candidates[rng.randrange(len(candidates))].append(v)
        else:
            groups.append([v])
    cluster_edges = [
        (min(a, b), max(a, b))
        for g in groups
        for i, a in enumerate(g)
        for b in g[i + 1 :]
    ]
    weights = tuple(rng.randint(0, max_w) for _ in range(n))
    return overlay_cluster_chordal(Graph(n, cluster_edges), chordal, weights)


def random_multicolored_clique(
    k: int,
    class_sizes,
    edge_probability: float,
    plant_clique: bool,
    seed: int,
) -> MulticoloredCliqueInstance:
    """Random instance with k independent classes and i.i.d. cross edges;
    optionally forces one transversal to be complete."""
    sizes = list(class_sizes)
    if len(sizes) != k:
        raise ValueError("need one class size per color class")
    rng = random.Random(seed)
    classes = []
    start = 0
    for s in sizes:
        classes.append(tuple(range(start, start + s)))
        start += s
    n = start
    edges = set()
    for i in range(k):
        for j in range(i + 1, k):
            for u in classes[i]:
                for v in classes[j]:
                    if rng.random() < edge_probability:
                        edges.add((u, v))
    if plant_clique:
        if any(s == 0 for s in sizes):
            raise ValueError("cannot plant a clique with an empty class")
        picks = [cls[rng.randrange(len(cls))] for cls in classes]
        for a in range(k):
            for b in range(a + 1, k):
                u, v = sorted((picks[a], picks[b]))
                edges.add((u, v))
    return MulticoloredCliqueInstance(Graph(n, sorted(edges)), tuple(classes))


def random_weights(inst: WeightedInstance, max_w: int, seed: int) -> WeightedInstance:
    """Same instance with fresh i.i.d. uniform integer weights in [0, max_w]."""
    if max_w < 0:
        raise ValueError("max_w must be non-negative")
    rng = random.Random(seed)
    return WeightedInstance(
        inst.graph,
        tuple(rng.randint(0, max_w) for _ in range(inst.graph.n)),
        colors=inst.colors,
        clusters=inst.clusters,
        cluster_edges=inst.cluster_edges,
        chordal_edges=inst.chordal_edges,
    )
