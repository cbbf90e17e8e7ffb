import copy
import itertools
import pickle
import random

import numpy as np
import pytest

from mwccs.graph import (
    MAX_SEARCH_NODES,
    CliqueCountExceeded,
    Graph,
    MulticoloredCliqueInstance,
    SizeCapError,
    Solution,
    ValidationError,
    WeightedInstance,
    _has_sets,
    find_independent_subset,
    independence_bounded,
    induced_subgraph,
    is_c_colorable,
    is_clique,
    is_independent,
    maximal_cliques_containing,
    neighborhood,
)

from conftest import (
    adopted,
    cluster_graph,
    complete_graph,
    cycle_graph,
    interval_graph,
    mixed_graphs,
    path_graph,
    random_graph,
    star_graph,
)


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(2,1\)$"):
        Graph(3, [(0, 1), (1, 2), (2, 1)])


def test_graph_checks_one_shot_edge_iterators():
    with pytest.raises(ValueError, match=r"^duplicate edge \(1,0\)$"):
        Graph(3, (e for e in [(0, 1), (1, 0)]))
    edges = [(0, 1), (1, 2), (0, 2)]
    assert Graph(3, iter(edges)) == Graph(3, edges)
    # several faults: the first edge at fault names the error
    with pytest.raises(ValueError, match=r"^duplicate edge \(1,0\)$"):
        Graph(3, iter([(0, 1), (1, 0), (2, 5)]))
    with pytest.raises(ValueError, match=r"^edge \(2,5\) out of range for n=3$"):
        Graph(3, iter([(0, 1), (2, 5), (1, 0)]))
    with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
        Graph(3, [(0, 1), (2, 2), (1, 0)])


def test_masks_are_built_on_first_read():
    g = random_graph(30, 0.3, 2)
    assert g._mask is None
    assert g.mask == tuple(sum(1 << u for u in g.adj[v]) for v in range(g.n))
    assert g.mask is g.mask


def _reference_is_independent(g, s):
    return not any(g.has_edge(u, v) for u, v in itertools.combinations(s, 2))


def test_is_independent_matches_reference():
    # each graph, and a copy adopted from its CSR arrays, which is_independent
    # reads without building the sets
    rng = random.Random(6)
    verdicts = {True: 0, False: 0}
    dense = [interval_graph(120, 0.4, 7), cluster_graph([70, 1, 50])]
    for g in [*mixed_graphs(150, seed=23), *dense]:
        twin = adopted(g)
        for _ in range(8):
            s = rng.sample(range(g.n), rng.randint(0, min(g.n, 5)))
            want = _reference_is_independent(g, s)
            for h in (g, twin):
                assert is_independent(h, s) == want
                assert is_independent(h, iter(s + s)) == want  # repeats are one vertex
            verdicts[want] += 1
        assert not _has_sets(twin)
    assert min(verdicts.values()) > 300
    for g in (path_graph(3), adopted(path_graph(3))):
        with pytest.raises(ValueError, match="out of range"):
            is_independent(g, [0, g.n])
        with pytest.raises(ValueError, match="out of range"):
            is_independent(g, [-1])


def test_csr_view_matches_the_sets():
    for g in [*mixed_graphs(60, seed=3), interval_graph(120, 0.4, 7)]:
        twin = adopted(g)
        indptr, indices = twin.csr
        assert indptr.dtype == indices.dtype == np.int64
        assert not indptr.flags.writeable and not indices.flags.writeable
        rows = [indices[a:b].tolist() for a, b in zip(indptr, indptr[1:])]
        assert rows == [sorted(s) for s in g.adj]
        assert twin.m == g.m and indices.size == 2 * g.m
        assert not _has_sets(twin)


def test_adopted_graph_builds_its_sets_on_first_read():
    want = interval_graph(80, 0.4, 9)
    g = adopted(want)
    assert not _has_sets(g) and g.m == want.m
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        g.nope
    assert not _has_sets(g)
    # rows ascend, which is the insertion order of Graph(n, sorted(edges))
    assert [list(s) for s in g.adj] == [list(s) for s in want.adj]
    assert g == want and g.adj is g.adj and _has_sets(g)
    # copy and pickle restore an adopted graph, its sets built or not
    for make in (copy.copy, lambda h: pickle.loads(pickle.dumps(h))):
        for h in (g, adopted(want)):
            twin = make(h)
            assert twin == want and twin.m == want.m


def test_prefers_csr_on_large_dense_graphs_only():
    # graphs read from a file, as their adopted twins are
    assert adopted(interval_graph(200, 0.4, 2)).prefers_csr
    assert adopted(complete_graph(60)).prefers_csr
    assert not adopted(complete_graph(33)).prefers_csr  # degree 32 < 32 + 33/256
    assert not adopted(Graph(0)).prefers_csr and not adopted(Graph(5000)).prefers_csr
    # cliques of 41: degree 40 passes 32 + 328/256 but not 32 + 2583/256
    assert adopted(cluster_graph([41] * 8)).prefers_csr
    assert not adopted(cluster_graph([41] * 63)).prefers_csr


def test_graphs_built_from_edges_never_prefer_csr():
    # only a graph adopted from arrays has them; none is built from sets
    dense = adopted(interval_graph(200, 0.4, 2))
    built = [
        *mixed_graphs(40, seed=5),
        interval_graph(200, 0.4, 2),
        complete_graph(60),
        induced_subgraph(dense, range(150))[0],
    ]
    for g in built:
        assert type(g) is Graph and not g.prefers_csr and not hasattr(g, "csr")


def test_neighborhood():
    k3 = complete_graph(3)
    assert neighborhood(k3, 0) == {1, 2}
    iso = Graph(2, [])
    assert neighborhood(iso, 1, closed=True) == {1}
    p4 = path_graph(4)
    assert neighborhood(p4, 1) == {0, 2}
    with pytest.raises(ValueError):
        neighborhood(k3, 5)


def test_induced_subgraph():
    k3 = complete_graph(3)
    sub, mapping = induced_subgraph(k3, {0, 1})
    assert sub == complete_graph(2) and mapping == (0, 1)
    p4 = path_graph(4)
    sub, _ = induced_subgraph(p4, {0, 2})
    assert sub.m == 0 and sub.n == 2
    c4 = cycle_graph(4)
    for triple in itertools.combinations(range(4), 3):
        sub, _ = induced_subgraph(c4, triple)
        assert sub.n == 3 and sub.m == 2  # deleting one cycle vertex leaves P3
    # identity on the full vertex set
    g = random_graph(8, 0.4, 1)
    sub, mapping = induced_subgraph(g, range(8))
    assert sub == g and mapping == tuple(range(8))


def test_is_independent():
    assert is_independent(complete_graph(3), set())
    assert not is_independent(complete_graph(3), {0, 1})
    assert is_independent(cycle_graph(4), {0, 2})


def _reference_is_independent(g, s):
    """Bitmask check: no vertex's neighbour mask meets the set's mask."""
    verts = list(s)
    taken = sum(1 << v for v in verts)
    return all(g.mask[v] & taken == 0 for v in verts)


def test_is_independent_matches_mask_reference():
    rng = random.Random(5)
    verdicts = {True: 0, False: 0}
    for g in mixed_graphs(600, seed=5):
        greedy = set()
        for v in rng.sample(range(g.n), g.n):
            if g.adj[v].isdisjoint(greedy):
                greedy.add(v)
        sets = [set(), greedy, set(range(g.n))]
        sets += [{v for v in range(g.n) if rng.random() < p} for p in (0.1, 0.3)]
        if g.m:
            u, v = rng.choice(g.edges())
            sets.append(greedy | {u, v})
        for s in sets:
            want = _reference_is_independent(g, s)
            assert is_independent(g, s) == want, (g, s)
            verdicts[want] += 1
    assert min(verdicts.values()) > 1000
    for bad in ({3}, {0, -1}):
        with pytest.raises(ValueError, match="out of range"):
            is_independent(path_graph(3), bad)


def test_independence_bounded():
    star = star_graph(3)
    assert not independence_bounded(star, {1, 2, 3}, 2)
    assert independence_bounded(complete_graph(5), range(5), 1)
    # alpha(C5) = 2, checked against enumeration of all triples
    c5 = cycle_graph(5)
    assert independence_bounded(c5, range(5), 2)
    assert not any(
        is_independent(c5, t) for t in itertools.combinations(range(5), 3)
    )


def test_independence_bounded_matches_is_independent():
    for seed in range(40):
        g = random_graph(seed % 9 + 2, 0.4, seed)
        rng = random.Random(seed)
        verts = [v for v in range(g.n) if rng.random() < 0.7]
        if not verts:
            continue
        assert is_independent(g, verts) == (
            not independence_bounded(g, verts, len(verts) - 1)
        )


def _first_independent_subset(g, s, size):
    """Recursive reference: branch on the lowest vertex, taking it first."""

    def rec(avail, chosen, need):
        if need == 0:
            return frozenset(chosen)
        if len(avail) < need:
            return None
        v, rest = avail[0], avail[1:]
        got = rec([u for u in rest if u not in g.adj[v]], chosen + [v], need - 1)
        return got if got is not None else rec(rest, chosen, need)

    return rec(sorted(s), [], size)


def test_find_independent_subset_branch_order():
    assert find_independent_subset(path_graph(5), range(5), 2) == {0, 2}
    assert find_independent_subset(path_graph(5), {1, 2, 3, 4}, 2) == {1, 3}
    for seed in range(60):
        g = random_graph(seed % 10 + 2, 0.45, seed)
        rng = random.Random(seed)
        verts = [v for v in range(g.n) if rng.random() < 0.8]
        for size in range(4):
            assert find_independent_subset(g, verts, size) == (
                _first_independent_subset(g, verts, size)
            ), f"seed {seed} size {size}"


def test_large_sets_stay_within_the_recursion_limit():
    n = 3000
    assert find_independent_subset(path_graph(n), range(n), 1500) == set(range(0, n, 2))
    k = complete_graph(1100)
    assert find_independent_subset(k, range(1100), 2) is None
    assert independence_bounded(k, range(1100), 1)


def test_is_clique():
    assert is_clique(complete_graph(4), range(4))
    assert is_clique(cycle_graph(4), set()) and is_clique(cycle_graph(4), {2})
    assert is_clique(cycle_graph(4), {0, 1})
    assert not is_clique(cycle_graph(4), {0, 1, 2})
    with pytest.raises(ValueError):
        is_clique(cycle_graph(4), {5})


def test_is_c_colorable():
    k3 = complete_graph(3)
    assert is_c_colorable(k3, 3) is not None
    assert is_c_colorable(k3, 2) is None
    c5 = cycle_graph(5)
    assert is_c_colorable(c5, 2) is None
    col = is_c_colorable(c5, 3)
    assert col is not None
    for u, v in c5.edges():
        assert col[u] != col[v]
    assert is_c_colorable(Graph(0, []), 0) == {}
    assert is_c_colorable(path_graph(3), 0) is None
    for seed in range(10):
        g = random_graph(7, 0.5, seed)
        assert is_c_colorable(g, g.n) is not None


def test_maximal_cliques_containing():
    k4 = complete_graph(4)
    assert maximal_cliques_containing(k4, 1) == [frozenset(range(4))]
    p3 = path_graph(3)
    assert sorted(map(sorted, maximal_cliques_containing(p3, 1))) == [[0, 1], [1, 2]]
    star = star_graph(3)
    assert len(maximal_cliques_containing(star, 0)) == 3
    with pytest.raises(CliqueCountExceeded):
        maximal_cliques_containing(star, 0, cap=2)
    # cap equal to the count does not trigger
    assert len(maximal_cliques_containing(star, 0, cap=3)) == 3


def test_weighted_instance_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        WeightedInstance(g, (1, 2))
    with pytest.raises(ValueError):
        WeightedInstance(g, (1, -1, 2))
    with pytest.raises(ValueError):
        WeightedInstance(g, (1, 1, 1), colors=(0, 1, 1))
    with pytest.raises(ValueError):
        WeightedInstance(g, (1, 1, 1), cluster_edges=frozenset([(0, 1)]))
    # partition must cover the edges exactly
    with pytest.raises(ValueError):
        WeightedInstance(
            g, (1, 1, 1),
            cluster_edges=frozenset([(0, 1)]),
            chordal_edges=frozenset(),
        )
    # a witness is checked when the instance is made: P3 is not a cluster
    # graph, C4 is not chordal
    with pytest.raises(ValueError, match="induced path 1-2-3"):
        WeightedInstance(
            g, (1, 1, 1),
            cluster_edges=frozenset(g.edges()),
            chordal_edges=frozenset(),
        )
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="induced cycle"):
        WeightedInstance.unit(
            c4, cluster_edges=frozenset(), chordal_edges=frozenset(c4.edges())
        )
    inst = WeightedInstance(
        g, (1, 2, 3),
        cluster_edges=frozenset([(0, 1)]),
        chordal_edges=frozenset([(1, 2)]),
    )
    assert inst.has_decomposition
    assert inst.weight_of({0, 2}) == 4


def test_weighted_instance_induce_keeps_tags():
    g = path_graph(4)
    inst = WeightedInstance(
        g, (5, 6, 7, 8), colors=(1, 2, 1, 2),
        cluster_edges=frozenset([(0, 1)]),
        chordal_edges=frozenset([(1, 2), (2, 3)]),
    )
    sub, mapping = inst.induce({1, 2, 3})
    assert mapping == (1, 2, 3)
    assert sub.weights == (6, 7, 8)
    assert sub.colors == (2, 1, 2)
    assert sub.cluster_edges == frozenset()
    assert sub.chordal_edges == frozenset([(0, 1), (1, 2)])


def test_solution_validation():
    g = path_graph(3)
    inst = WeightedInstance(g, (1, 2, 3))
    Solution(frozenset({0, 2}), 4).validate(inst)
    with pytest.raises(ValidationError):
        Solution(frozenset({0, 1}), 3).validate(inst)  # not independent
    with pytest.raises(ValidationError):
        Solution(frozenset({0, 2}), 5).validate(inst)  # wrong weight
    # adjacent same-color pair rejected under an assignment
    with pytest.raises(ValidationError):
        Solution(frozenset({0, 1}), 3, {0: 1, 1: 1}).validate(inst, 2)
    Solution(frozenset({0, 1}), 3, {0: 1, 1: 2}).validate(inst, 2)


def test_mcc_instance_validation():
    g = Graph(4, [(0, 2), (1, 3)])
    MulticoloredCliqueInstance(g, ((0, 1), (2, 3)))
    with pytest.raises(ValueError):  # class not independent
        MulticoloredCliqueInstance(g, ((0, 2), (1, 3)))
    with pytest.raises(ValueError):  # not a cover
        MulticoloredCliqueInstance(g, ((0, 1), (2,)))


def test_independent_subset_search_is_capped():
    # alpha(C_41) = 20; refuting 21 branches past the cap
    with pytest.raises(SizeCapError, match=f"popped {MAX_SEARCH_NODES + 1} nodes"):
        find_independent_subset(cycle_graph(41), range(41), 21)
