import hashlib
import random
from collections import deque

import pytest

from mwccs.generators import random_chordal
from mwccs.graph import Graph, is_clique, maximal_cliques_containing
from mwccs.recognition import is_chordal
from mwccs.treedecomp import (
    TreeDecomposition,
    bag_alpha,
    clique_tree_from_peo,
    normalize_binary,
    verify_tree_decomposition,
)

from conftest import complete_graph, cycle_graph, path_graph


def test_clique_tree_basics():
    k3 = complete_graph(3)
    td = clique_tree_from_peo(k3, is_chordal(k3))
    assert len(td) == 1 and td.bags[0] == frozenset(range(3))
    p3 = path_graph(3)
    td = clique_tree_from_peo(p3, is_chordal(p3))
    assert sorted(map(sorted, td.bags)) == [[0, 1], [1, 2]]
    with pytest.raises(ValueError):
        clique_tree_from_peo(cycle_graph(4), (0, 1, 2, 3))


def test_clique_tree_of_three_tree():
    g = random_chordal(12, 4, seed=11)
    td = clique_tree_from_peo(g, is_chordal(g))
    assert verify_tree_decomposition(g, td)
    for bag in td.bags:
        assert len(bag) <= 4
        verts = sorted(bag)
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                assert g.has_edge(a, b)


def test_clique_tree_random_chordal_invariants():
    for seed in range(200):
        n = seed % 48 + 2
        g = random_chordal(n, 4, seed)
        td = clique_tree_from_peo(g, is_chordal(g))
        assert verify_tree_decomposition(g, td), f"seed {seed}"
        assert bag_alpha(g, td) <= 1, f"seed {seed}"
        assert len(td) <= max(n, 1), f"seed {seed}"


def test_verify_tree_decomposition_rejects_bad_ones():
    p3 = path_graph(3)
    # edge {1,2} never co-bagged
    td = TreeDecomposition([frozenset({0, 1}), frozenset({2})], [None, 0], 0)
    assert not verify_tree_decomposition(p3, td)
    # occurrence set of vertex 0 is disconnected
    g = path_graph(3)
    td = TreeDecomposition(
        [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})],
        [None, 0, 1],
        0,
    )
    assert not verify_tree_decomposition(g, td)
    # missing vertex
    td = TreeDecomposition([frozenset({0, 1})], [None], 0)
    assert not verify_tree_decomposition(p3, td)


def test_normalize_binary():
    p3 = path_graph(3)
    td = clique_tree_from_peo(p3, is_chordal(p3))
    norm = normalize_binary(td)
    assert norm.is_binary_form() and len(norm) == len(td)

    # star-shaped decomposition: root with three children
    bag = frozenset({0})
    star = TreeDecomposition([bag, bag, bag, bag], [None, 0, 0, 0], 0)
    norm = normalize_binary(star)
    assert norm.is_binary_form()
    assert len(norm) <= 3 * len(star)
    g1 = Graph(1, [])
    assert verify_tree_decomposition(g1, norm)

    single = TreeDecomposition([frozenset({0})], [None], 0)
    assert len(normalize_binary(single)) == 1


def test_normalize_binary_preserves_validity():
    for seed in range(40):
        g = random_chordal(seed % 20 + 2, 4, seed + 1000)
        td = clique_tree_from_peo(g, is_chordal(g))
        norm = normalize_binary(td)
        assert norm.is_binary_form()
        assert verify_tree_decomposition(g, norm)
        assert len(norm) <= 3 * len(td)
        for i, kids in enumerate(norm.children):
            if len(kids) == 2:
                assert norm.bags[kids[0]] == norm.bags[i] == norm.bags[kids[1]]


def test_bag_alpha():
    g = random_chordal(10, 3, seed=5)
    td = clique_tree_from_peo(g, is_chordal(g))
    assert bag_alpha(g, td) <= 1
    c4 = cycle_graph(4)
    td = TreeDecomposition(
        [frozenset({0, 1, 3}), frozenset({1, 2, 3})], [None, 0], 0
    )
    assert verify_tree_decomposition(c4, td)
    assert bag_alpha(c4, td) == 2
    empty = Graph(0, [])
    td0 = TreeDecomposition([frozenset()], [None], 0)
    assert bag_alpha(empty, td0) == 0


def _reference_verify_tree_decomposition(g, td):
    """Vertex coverage, edge coverage by bag-set intersection, and a BFS
    per vertex over the bags holding it."""
    if any(v < 0 or v >= g.n for bag in td.bags for v in bag):
        return False
    holding = [set() for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            holding[v].add(i)
    if any(not h for h in holding):
        return False
    for u, v in g.edges():
        if holding[u].isdisjoint(holding[v]):
            return False
    for v in range(g.n):
        hold = holding[v]
        start = next(iter(hold))
        seen = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            nbrs = list(td.children[x])
            if td.parent[x] is not None:
                nbrs.append(td.parent[x])
            for y in nbrs:
                if y in hold and y not in seen:
                    seen.add(y)
                    queue.append(y)
        if seen != hold:
            return False
    return True


def _corrupted(td, n, rng):
    """A copy of td with one random defect that may or may not break it:
    a vertex dropped from or added to a bag, or a bag moved under another
    parent; None if the move would not leave a tree."""
    bags = [set(b) for b in td.bags]
    parent = list(td.parent)
    i = rng.randrange(len(bags))
    kind = rng.randrange(3)
    if kind == 0 and bags[i]:
        bags[i].discard(rng.choice(sorted(bags[i])))
    elif kind == 1:
        bags[i].add(rng.randrange(n + 1))  # n itself is out of range
    elif parent[i] is not None:
        parent[i] = rng.randrange(len(bags))
    try:
        return TreeDecomposition(bags, parent, td.root)
    except ValueError:
        return None


def test_verify_tree_decomposition_matches_bfs_reference():
    rng = random.Random(5)
    verdicts = {True: 0, False: 0}
    for trial in range(1500):
        n = rng.randint(1, 10)
        full = random_chordal(n, rng.randint(1, 5), trial)
        td = clique_tree_from_peo(full, is_chordal(full))
        # the clique tree of a chordal supergraph decomposes any spanning
        # subgraph too; an extra edge may leave it uncovered
        edges = [e for e in full.edges() if rng.random() < 0.8]
        if rng.random() < 0.3:
            u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if u != v and (min(u, v), max(u, v)) not in edges:
                edges.append((u, v))
        g = Graph(n, edges)
        cases = [td] + [_corrupted(td, n, rng) for _ in range(3)]
        for case in cases:
            if case is None:
                continue
            for form in (case, normalize_binary(case)):
                want = _reference_verify_tree_decomposition(g, form)
                assert verify_tree_decomposition(g, form) == want, trial
                verdicts[want] += 1
    assert min(verdicts.values()) > 2000


def test_bag_alpha_of_one_bag_path():
    n = 3000
    g = path_graph(n)
    assert bag_alpha(g, TreeDecomposition([frozenset(range(n))], [None], 0)) == n // 2
    # non-chordal bags keep the branching search: C5 plus a disjoint edge
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)])
    assert bag_alpha(g, TreeDecomposition([frozenset(range(7))], [None], 0)) == 3


# sha256 over (PEO, sorted bags, parents, root) of 200 random chordal
# graphs, recorded before verify_peo and verify_tree_decomposition became
# linear; MCS and the clique-tree construction must stay byte-stable
_PINNED_CLIQUE_TREES = "92b39ccc95aa1323f78f909956dadf60b1d99ffb60e619e5fefd765003a9e6ed"


def test_peo_and_clique_tree_pinned():
    h = hashlib.sha256()
    for seed in range(200):
        g = random_chordal(seed % 90 + 1, seed % 9 + 1, seed + 7000)
        peo = is_chordal(g)
        td = clique_tree_from_peo(g, peo)
        h.update(repr((peo, [sorted(b) for b in td.bags], td.parent, td.root)).encode())
    assert h.hexdigest() == _PINNED_CLIQUE_TREES


def _random_simplicial_order(g, rng):
    """A perfect elimination ordering drawn by eliminating, again and again,
    a uniformly chosen simplicial vertex of what is left."""
    left = set(range(g.n))
    order = []
    while left:
        v = rng.choice([u for u in sorted(left) if is_clique(g, g.adj[u] & left)])
        order.append(v)
        left.remove(v)
    return tuple(order)


def _shuffled_disjoint_union(parts, rng):
    """Disjoint union of the graphs in parts, vertex ids shuffled."""
    n = sum(p.n for p in parts)
    label = list(range(n))
    rng.shuffle(label)
    edges, base = [], 0
    for p in parts:
        edges += [(label[base + u], label[base + v]) for u, v in p.edges()]
        base += p.n
    return Graph(n, edges)


def _maximal_cliques(g):
    return {q for v in range(g.n) for q in maximal_cliques_containing(g, v)}


# sha256 over (PEO, sorted bags, parents, root) of clique trees built from
# random simplicial elimination orders and from MCS orders of disconnected
# graphs, recorded on the union-find construction
_PINNED_ORDER_CLIQUE_TREES = "4d29e7feeed4b30df9c5d05b85705f4485bfa80173629ac2ce3a314595ac67c9"


def test_clique_trees_of_simplicial_orders_and_disconnected_graphs_pinned():
    rng = random.Random(31)
    h = hashlib.sha256()
    for trial in range(160):
        if trial % 2:
            parts = [
                random_chordal(rng.randint(1, 15), rng.randint(1, 5), 9000 + 3 * trial + j)
                for j in range(rng.randint(2, 4))
            ]
            g = _shuffled_disjoint_union(parts, rng)
        else:
            g = random_chordal(rng.randint(1, 40), rng.randint(1, 6), 9000 + trial)
        for peo in (is_chordal(g), _random_simplicial_order(g, rng)):
            td = clique_tree_from_peo(g, peo)
            assert verify_tree_decomposition(g, td), trial
            # one bag per maximal clique, none twice
            assert len(set(td.bags)) == len(td), trial
            assert set(td.bags) == _maximal_cliques(g), trial
            h.update(repr((peo, [sorted(b) for b in td.bags], td.parent, td.root)).encode())
    assert h.hexdigest() == _PINNED_ORDER_CLIQUE_TREES


def _random_rooted_tree(rng):
    """A rooted tree of at most 40 bags, some with three or more children
    and some equal to their parent's bag, under shuffled node ids."""
    size = rng.randint(1, 40)
    # half the nodes hang under one of the first four, which makes wide nodes
    parent = [None] + [
        rng.randrange(min(i, 4) if rng.random() < 0.5 else i) for i in range(1, size)
    ]
    bags = []
    for i in range(size):
        if i and rng.random() < 0.4:
            bags.append(bags[parent[i]])
        else:
            bags.append(frozenset(rng.sample(range(8), rng.randint(0, 4))))
    label = list(range(size))
    rng.shuffle(label)
    new_bags, new_parent = [None] * size, [None] * size
    for i in range(size):
        new_bags[label[i]] = bags[i]
        new_parent[label[i]] = None if parent[i] is None else label[parent[i]]
    return TreeDecomposition(new_bags, new_parent, label[0])


# sha256 over (sorted bags, parents, root) of the binary normal forms of
# random rooted trees, recorded on the worklist of build and attach steps
_PINNED_NORMAL_FORMS = "b6d222b03487570fd51261c13d63cbb6b64d98fb2300acd7de31828cd0cacdb0"


def test_normal_forms_of_random_rooted_trees_pinned():
    rng = random.Random(47)
    h = hashlib.sha256()
    wide = 0
    for trial in range(400):
        td = _random_rooted_tree(rng)
        wide += any(len(k) >= 3 for k in td.children)
        norm = normalize_binary(td)
        assert norm.is_binary_form() and len(norm) <= 3 * len(td), trial
        h.update(repr(([sorted(b) for b in norm.bags], norm.parent, norm.root)).encode())
    assert wide > 100
    assert h.hexdigest() == _PINNED_NORMAL_FORMS
