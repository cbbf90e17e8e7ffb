import hashlib
import itertools
import json
import random

import pytest

from mwccs import recognition
from mwccs.dp import max_weight_is_chordal
from mwccs.graph import Graph, SizeCapError, WeightedInstance
from mwccs.oracle import brute_find_hole, brute_hamiltonian_cycle
from mwccs.recognition import (
    brute_force_cluster_chordal,
    find_cluster_violation,
    find_hole,
    find_inductive_k_independent_ordering,
    hamiltonicity_via_decomposition,
    is_chordal,
    is_cluster,
    is_k1k_free,
    is_k_mino,
    maximum_cardinality_search,
    two_simplicial_ordering,
    verify_inductive_k_independent,
    verify_peo,
)
from mwccs.generators import random_chordal
from mwccs.treedecomp import clique_tree_from_peo

from conftest import (
    cluster_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    interval_graph,
    mixed_graphs,
    path_graph,
    petersen_graph,
    random_graph,
    star_graph,
)


def test_mcs_and_peo_basics():
    k3 = complete_graph(3)
    for perm in itertools.permutations(range(3)):
        assert verify_peo(k3, perm)  # every ordering of a clique works
    c4 = cycle_graph(4)
    order = tuple(reversed(maximum_cardinality_search(c4)))
    assert not verify_peo(c4, order)
    tree = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert verify_peo(tree, tuple(reversed(maximum_cardinality_search(tree))))
    # P3 with ends eliminated first
    assert verify_peo(path_graph(3), (0, 2, 1))
    with pytest.raises(ValueError):
        verify_peo(k3, (0, 1))


def test_peo_memo_leaves_other_orderings_to_the_full_check(monkeypatch):
    full = []
    check = recognition._check_permutation
    monkeypatch.setattr(
        recognition, "_check_permutation", lambda g, o: full.append(o) or check(g, o)
    )
    g = path_graph(5)
    peo = is_chordal(g)
    del full[:]
    assert verify_peo(g, iter(peo)) and full == []
    other = (0, 1, 2, 3, 4) if peo != (0, 1, 2, 3, 4) else (4, 3, 2, 1, 0)
    assert verify_peo(g, other) and len(full) == 1
    assert not verify_peo(g, (2, 0, 1, 3, 4)) and len(full) == 2
    with pytest.raises(ValueError):
        verify_peo(g, (0, 1, 2, 3))


def test_is_chordal():
    assert is_chordal(complete_graph(3)) is not None
    assert is_chordal(cycle_graph(5)) is None
    g = random_chordal(20, 4, seed=3)
    peo = is_chordal(g)
    assert peo is not None and verify_peo(g, peo)


def test_is_chordal_agrees_with_hole_search():
    for seed in range(120):
        g = random_graph(seed % 8 + 3, 0.35, seed)
        chordal = is_chordal(g) is not None
        assert chordal == (brute_find_hole(g) is None), f"seed {seed}"


def test_find_hole_returns_induced_cycle():
    for seed in range(60):
        g = random_graph(seed % 7 + 4, 0.4, seed * 7 + 1)
        hole = find_hole(g)
        if hole is None:
            assert is_chordal(g) is not None
            continue
        k = len(hole)
        assert k >= 4
        for i, u in enumerate(hole):
            for j in range(i + 1, k):
                consecutive = j - i == 1 or (i == 0 and j == k - 1)
                assert g.has_edge(u, hole[j]) == consecutive


def test_is_cluster():
    two_cliques = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert is_cluster(two_cliques)
    assert not is_cluster(path_graph(3))  # a path on three vertices
    assert is_cluster(Graph(1, []))
    a, v, b = find_cluster_violation(path_graph(3))
    assert v == 1 and {a, b} == {0, 2}


def test_is_k_mino():
    star = star_graph(3)
    assert is_k_mino(star, 3)
    assert not is_k_mino(star, 2)
    assert is_k_mino(complete_graph(5), 1)


def test_is_k1k_free():
    star = star_graph(3)
    witness = is_k1k_free(star, 3)
    assert witness is not None
    center, leaves = witness
    assert center == 0 and leaves == {1, 2, 3}
    assert is_k1k_free(cycle_graph(5), 3) is None  # claw-free
    cluster = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert is_k1k_free(cluster, 2) is None


def test_two_simplicial_ordering():
    order = two_simplicial_ordering(complete_bipartite(2, 4))
    assert order is not None
    assert two_simplicial_ordering(star_graph(3)) is not None
    # K33: every vertex has three pairwise nonadjacent neighbors, so no
    # vertex is ever removable
    assert two_simplicial_ordering(complete_bipartite(3, 3)) is None


def test_two_simplicial_witness_is_inductive_two_independent():
    for seed in range(25):
        g = random_graph(7, 0.45, seed + 500)
        order = two_simplicial_ordering(g)
        if order is not None:
            assert verify_inductive_k_independent(g, order, 2)


def test_verify_inductive_k_independent():
    g = random_chordal(15, 4, seed=9)
    peo = is_chordal(g)
    assert verify_inductive_k_independent(g, peo, 1)
    for perm in itertools.permutations(range(4)):
        assert not verify_inductive_k_independent(cycle_graph(4), perm, 1)


def _random_unit_interval_graph(n, rng):
    starts = [rng.uniform(0, n / 2) for _ in range(n)]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if abs(starts[u] - starts[v]) <= 1.0
    ]
    return Graph(n, edges)


def test_two_overlaid_unit_interval_graphs_are_inductive_three_independent():
    for seed in range(15):
        rng = random.Random(seed)
        n = 10
        g1 = _random_unit_interval_graph(n, rng)
        g2 = _random_unit_interval_graph(n, rng)
        union = Graph(n, sorted(set(g1.edges()) | set(g2.edges())))
        order = find_inductive_k_independent_ordering(union, 3)
        assert order is not None
        assert verify_inductive_k_independent(union, order, 3)


def test_find_inductive_k_independent_ordering():
    g = random_chordal(12, 3, seed=4)
    order = find_inductive_k_independent_ordering(g, 1)
    assert order is not None and verify_peo(g, order)
    assert find_inductive_k_independent_ordering(star_graph(4), 3) is not None
    # finder success always passes the verifier
    for seed in range(30):
        g = random_graph(8, 0.4, seed + 900)
        for k in (1, 2):
            order = find_inductive_k_independent_ordering(g, k)
            if order is not None:
                assert verify_inductive_k_independent(g, order, k)


def test_peeled_orderings_pinned():
    # the greedy peelers' exact orderings (None where peeling sticks) on
    # seeded random graphs, so that their tie rule (lowest id first) and
    # their verdicts cannot drift
    got = []
    for i in range(400):
        rng = random.Random(i)
        g = random_graph(rng.randint(1, 18), rng.random(), i)
        got.append(
            [two_simplicial_ordering(g)]
            + [find_inductive_k_independent_ordering(g, k) for k in (1, 2, 3)]
        )
    found = [sum(row[j] is not None for row in got) for j in range(4)]
    assert found == [348, 184, 350, 400]
    digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert digest == "a21aff8c313026b92b2b94ffbdd64e86d96159876a33586aac1eb6f74562812c"


def test_brute_force_cluster_chordal():
    g = random_chordal(7, 3, seed=2)
    dec = brute_force_cluster_chordal(g)
    assert dec is not None and dec.cluster_edges == frozenset()
    assert brute_force_cluster_chordal(complete_bipartite(2, 4)) is None
    c6_minus = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    assert brute_force_cluster_chordal(c6_minus) is not None
    with pytest.raises(SizeCapError):
        brute_force_cluster_chordal(complete_graph(9))  # 36 edges


def test_brute_force_cluster_chordal_witness_is_valid():
    for seed in range(25):
        g = random_graph(6, 0.45, seed + 40)
        dec = brute_force_cluster_chordal(g)
        if dec is None:
            continue
        assert dec.cluster_edges | dec.chordal_edges == frozenset(g.edges())
        assert is_cluster(Graph(g.n, sorted(dec.cluster_edges)))
        hside = Graph(g.n, sorted(dec.chordal_edges))
        assert is_chordal(hside) is not None
        assert verify_peo(hside, dec.peo)
        # composed graph sits inside the 2-simplicial class
        assert two_simplicial_ordering(g) is not None


def test_cluster_graphs_are_chordal():
    for seed in range(20):
        from mwccs.generators import random_cluster

        g, _ = random_cluster(12, 4, seed)
        assert is_chordal(g) is not None


def test_k_minoes_are_k1_kplus1_free():
    for seed in range(30):
        g = random_graph(7, 0.5, seed + 77)
        for k in (2, 3):
            if is_k_mino(g, k):
                assert is_k1k_free(g, k + 1) is None


def test_hamiltonicity_via_decomposition():
    k33 = complete_bipartite(3, 3)
    assert hamiltonicity_via_decomposition(k33)
    assert not hamiltonicity_via_decomposition(petersen_graph())
    prism = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                      (0, 3), (1, 4), (2, 5)])
    with pytest.raises(ValueError):
        hamiltonicity_via_decomposition(prism)  # triangles
    with pytest.raises(ValueError):
        hamiltonicity_via_decomposition(path_graph(4))  # not cubic


def test_hamiltonicity_matches_brute_force():
    cube = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                     (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)])
    for g in (complete_bipartite(3, 3), cube, petersen_graph()):
        assert hamiltonicity_via_decomposition(g) == brute_hamiltonian_cycle(g)


def _reference_verify_peo(g, order):
    """The quadratic definition: every vertex's later neighbors pairwise
    adjacent."""
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertex ids")
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        for i, a in enumerate(later):
            for b in later[i + 1 :]:
                if not g.has_edge(a, b):
                    return False
    return True


def test_verify_peo_matches_quadratic_reference():
    rng = random.Random(8)
    verdicts = {True: 0, False: 0}
    for trial in range(5000):
        n = rng.randint(0, 10)
        if trial % 3 == 0:
            g = random_chordal(n, rng.randint(1, 5), trial)
        else:
            g = random_graph(n, rng.random(), trial)
        orders = [list(range(n)), list(reversed(maximum_cardinality_search(g)))]
        orders.append(rng.sample(range(n), n))
        for order in orders:
            want = _reference_verify_peo(g, order)
            assert verify_peo(g, order) == want, (trial, order)
            verdicts[want] += 1
        # non-permutations: a repeat, a missing id, an id out of range
        broken = [list(range(n)) + [0], list(range(n))[:-1], list(range(1, n + 1))]
        if n >= 2:
            perm = rng.sample(range(n), n)
            broken.append(perm[:-1] + perm[:1])
        for order in broken if n else [[0]]:
            with pytest.raises(ValueError):
                _reference_verify_peo(g, order)
            with pytest.raises(ValueError):
                verify_peo(g, order)
    assert min(verdicts.values()) > 2000


def test_recognition_cliff_one_clique_of_1200():
    n = 1200
    g = complete_graph(n)
    peo = is_chordal(g)
    assert peo is not None
    td = clique_tree_from_peo(g, peo)
    assert len(td) == 1 and td.bags[0] == frozenset(range(n))
    weights = tuple((v * 37) % 1000 for v in range(n))
    sol = max_weight_is_chordal(WeightedInstance(g, weights), peo)
    # 27 and 1027 both weigh 999; the PEO eliminates 1027 first, and the
    # forward pass marks only a strictly larger residual
    assert max(weights) == weights[27] == weights[1027] == 999
    assert sol.vertices == {1027} and sol.weight == 999


def _reference_mcs(g):
    """Bucket-queue MCS with a visited flag per vertex and the top bucket
    raised to each bumped weight; lowest id breaks ties."""
    n = g.n
    weight = [0] * n
    visited = [False] * n
    buckets = [set(range(n))] + [set() for _ in range(n)]
    top = 0
    order = []
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        v = min(buckets[top])
        buckets[top].discard(v)
        visited[v] = True
        order.append(v)
        for u in g.adj[v]:
            if not visited[u]:
                buckets[weight[u]].discard(u)
                weight[u] += 1
                buckets[weight[u]].add(u)
                top = max(top, weight[u])
    return tuple(order)


def test_mcs_matches_bucket_reference():
    chordal = 0
    for g in mixed_graphs(600, seed=17):
        order = maximum_cardinality_search(g)
        assert order == _reference_mcs(g), g
        chordal += verify_peo(g, order[::-1])
    assert 300 < chordal < 600
    big = complete_graph(300)
    assert maximum_cardinality_search(big) == _reference_mcs(big) == tuple(range(300))


def test_array_loops_match_the_references(monkeypatch):
    # the tests above run the set loops on their small graphs; forced onto
    # the CSR arrays, they check the array loops against the same
    # references, non-permutations and the _peo memo included
    monkeypatch.setattr(Graph, "prefers_csr", property(lambda g: True))
    test_mcs_and_peo_basics()
    test_peo_memo_leaves_other_orderings_to_the_full_check(monkeypatch)
    test_mcs_matches_bucket_reference()
    test_verify_peo_matches_quadratic_reference()


def _dense_graphs():
    """(graph, chordal?) pairs of dense graphs."""
    yield interval_graph(100, 0.5, 1), True
    yield interval_graph(200, 0.4, 2), True
    yield interval_graph(300, 0.3, 3), True
    yield cluster_graph([100, 1, 60, 99, 40]), True
    # an interval graph less one edge that closes a hole
    g = interval_graph(150, 0.5, 4)
    yield Graph(g.n, g.edges()[:-1]), False


@pytest.mark.parametrize("on_sets", [False, True], ids=["arrays", "sets"])
def test_dense_graphs_match_the_references(on_sets, monkeypatch):
    # dense graphs select the arrays; forced onto the set loops, they check
    # those on dense graphs too
    graphs = list(_dense_graphs())
    assert all(g.prefers_csr for g, _ in graphs)
    if on_sets:
        monkeypatch.setattr(Graph, "prefers_csr", property(lambda g: False))
    rng = random.Random(5)
    verdicts = {True: 0, False: 0}
    for g, chordal in graphs:
        mcs = maximum_cardinality_search(g)
        assert mcs == _reference_mcs(g)
        peo = mcs[::-1]
        # an MCS order, it with its ends swapped, and a random order
        orders = [peo, peo[-1:] + peo[1:-1] + peo[:1], tuple(rng.sample(range(g.n), g.n))]
        for order in orders:
            want = _reference_verify_peo(g, order)
            assert verify_peo(g, order) == want
            # past the pair matrix's cells, the set loop checks the order
            with monkeypatch.context() as patch:
                patch.setattr(recognition, "_PAIR_MATRIX_CELLS", 0)
                assert verify_peo(g, order) == want
            verdicts[want] += 1
        assert (is_chordal(g) is not None) == chordal
    assert min(verdicts.values()) >= 4


def test_mcs_is_the_identity_on_many_components():
    # every pick is the lowest id of a large bucket
    assert maximum_cardinality_search(Graph(20000)) == tuple(range(20000))
    triangles = cluster_graph([3] * 5000)
    assert not triangles.prefers_csr
    assert maximum_cardinality_search(triangles) == tuple(range(15000))
    star = Graph(20001, [(0, v) for v in range(1, 20001)])
    assert maximum_cardinality_search(star) == tuple(range(20001))
