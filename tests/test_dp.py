import hashlib
import itertools
import random

import numpy as np
import pytest

from mwccs.dp import (
    ColorfulDP,
    _pair_table,
    _supersets,
    max_weight_colorful_is,
    max_weight_is_chordal,
)
from mwccs.generators import random_chordal
from mwccs.graph import Graph, SizeCapError, WeightedInstance
from mwccs.oracle import brute_colorful_is, brute_mwis
from mwccs.recognition import is_chordal
from mwccs.treedecomp import (
    TreeDecomposition,
    bag_alpha,
    clique_tree_from_peo,
    normalize_binary,
    verify_tree_decomposition,
)

from conftest import complete_graph, cycle_graph, interval_graph, path_graph


def _clique_tree(g):
    return clique_tree_from_peo(g, is_chordal(g))


def _random_colored_chordal(seed, n_max=14, c_max=4, w_max=100):
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    c = rng.randint(1, c_max)
    g = random_chordal(n, rng.randint(2, 4), seed)
    return (
        WeightedInstance(
            g,
            tuple(rng.randint(0, w_max) for _ in range(n)),
            colors=tuple(rng.randint(1, c) for _ in range(n)),
        ),
        c,
    )


def test_single_vertex():
    inst = WeightedInstance(Graph(1, []), (5,), colors=(1,))
    sol = max_weight_colorful_is(inst, _clique_tree(inst.graph), 1, c=1)
    assert sol.weight == 5 and sol.vertices == {0}


def test_edge_blocks_colorful_pair():
    inst = WeightedInstance(Graph(2, [(0, 1)]), (4, 7), colors=(1, 2))
    sol = max_weight_colorful_is(inst, _clique_tree(inst.graph), 1, c=2)
    assert sol.weight == 7 and sol.vertices == {1}


def test_p4_example():
    # all 16 subsets checked by hand give 6 via {0, 3}
    g = path_graph(4)
    inst = WeightedInstance(g, (3, 4, 5, 3), colors=(1, 2, 1, 2))
    sol = max_weight_colorful_is(inst, _clique_tree(g), 1, c=2)
    assert sol.weight == 6
    assert sol.vertices == {0, 3}


def test_repeated_color_limits_selection():
    g = Graph(3, [])
    inst = WeightedInstance(g, (9, 8, 2), colors=(1, 1, 2))
    sol = max_weight_colorful_is(inst, _clique_tree(g), 1, c=2)
    assert sol.weight == 11 and sol.vertices == {0, 2}


def test_matches_oracle_on_random_chordal():
    for seed in range(120):
        inst, c = _random_colored_chordal(seed)
        td = _clique_tree(inst.graph)
        got = max_weight_colorful_is(inst, td, 1, c=c)
        want = brute_colorful_is(inst)
        assert got.weight == want.weight, f"seed {seed}"


def test_empty_graph():
    inst = WeightedInstance(Graph(0, []), (), colors=None)
    td = TreeDecomposition([frozenset()], [None], 0)
    inst = WeightedInstance(Graph(0, []), (), colors=())
    sol = max_weight_colorful_is(inst, td, 1, c=0)
    assert sol.weight == 0 and sol.vertices == frozenset()


def _alpha_two_case(seed):
    """Chordal graph with one edge per large bag removed: the clique tree
    stays a valid decomposition of the sparser graph with bag independence
    two."""
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    g = random_chordal(n, 4, seed)
    td = _clique_tree(g)
    removed = set()
    for bag in td.bags:
        verts = sorted(bag)
        if len(verts) >= 2:
            pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
            removed.add(pairs[rng.randrange(len(pairs))])
    edges = [e for e in g.edges() if e not in removed]
    sparser = Graph(n, edges)
    return sparser, td, rng


def test_alpha_two_path_matches_oracle():
    hits = 0
    for seed in range(80):
        sparser, td, rng = _alpha_two_case(seed)
        if not verify_tree_decomposition(sparser, td):
            continue
        alpha = bag_alpha(sparser, td)
        if alpha > 2:
            continue
        hits += alpha == 2
        c = rng.randint(1, 3)
        inst = WeightedInstance(
            sparser,
            tuple(rng.randint(0, 50) for _ in range(sparser.n)),
            colors=tuple(rng.randint(1, c) for _ in range(sparser.n)),
        )
        got = max_weight_colorful_is(inst, td, 2, c=c)
        want = brute_colorful_is(inst)
        assert got.weight == want.weight, f"seed {seed}"
    assert hits >= 20  # the sweep genuinely exercises alpha = 2 tables


def test_alpha_violation_rejected():
    g = Graph(3, [])
    td = TreeDecomposition([frozenset({0, 1, 2})], [None], 0)
    inst = WeightedInstance(g, (1, 1, 1), colors=(1, 2, 3))
    with pytest.raises(ValueError):
        max_weight_colorful_is(inst, td, 2, c=3)
    sol = max_weight_colorful_is(inst, td, 3, c=3)
    assert sol.weight == 3


def test_argument_errors():
    g = path_graph(3)
    inst = WeightedInstance(g, (1, 1, 1), colors=(1, 1, 2))
    bad_td = TreeDecomposition([frozenset({0, 1})], [None], 0)
    with pytest.raises(ValueError):
        max_weight_colorful_is(inst, bad_td, 1, c=2)
    td = _clique_tree(g)
    with pytest.raises(ValueError):
        max_weight_colorful_is(inst, td, 1, c=1)  # color 2 out of range
    with pytest.raises(ValueError):
        max_weight_colorful_is(inst, td, 1, c=31)
    no_colors = WeightedInstance(g, (1, 1, 1))
    with pytest.raises(ValueError):
        max_weight_colorful_is(no_colors, td, 1, c=1)


def test_monotone_in_colors_and_vertices():
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        g = random_chordal(n, 3, seed + 50)
        c = rng.randint(2, 3)
        colors = [rng.randint(1, c) for _ in range(n)]
        weights = tuple(rng.randint(0, 30) for _ in range(n))
        inst = WeightedInstance(g, weights, colors=tuple(colors))
        base = max_weight_colorful_is(inst, _clique_tree(g), 1, c=c).weight

        # refine one repeated color class into a fresh color
        dup = [col for col in set(colors) if colors.count(col) > 1]
        if dup:
            refined = list(colors)
            refined[refined.index(dup[0])] = c + 1
            inst2 = WeightedInstance(g, weights, colors=tuple(refined))
            assert (
                max_weight_colorful_is(inst2, _clique_tree(g), 1, c=c + 1).weight
                >= base
            )

        if n >= 2:
            keep = [v for v in range(n) if v != rng.randrange(n)]
            sub, _ = inst.induce(keep)
            assert (
                max_weight_colorful_is(sub, _clique_tree(sub.graph), 1, c=c).weight
                <= base
            )


def test_join_fallback_for_large_color_counts(monkeypatch):
    # force the outer loop over the colors past the pair table, which serves
    # selections with more than _PAIR_TABLE_MAX_C free colors
    import mwccs.dp as dp_mod

    monkeypatch.setattr(dp_mod, "_PAIR_TABLE_MAX_C", 1)
    for seed in range(15):
        inst, c = _random_colored_chordal(seed + 600, n_max=9, c_max=3, w_max=20)
        td = _clique_tree(inst.graph)
        got = max_weight_colorful_is(inst, td, 1, c=c)
        want = brute_colorful_is(inst)
        assert got.weight == want.weight, f"seed {seed}"


def test_pair_table_enumerates_exactly_three_to_the_c():
    for c in range(0, 9):
        full, sub, other_base, starts, counts = _pair_table(c)
        assert len(full) == 3**c
        assert counts.sum() == 3**c
        # submask discipline
        assert ((full & sub) == sub).all()
        # against a loop: grouped by C ascending, submasks ascending within
        want = [(C, s) for C in range(1 << c) for s in range(C + 1) if s & C == s]
        assert list(zip(full.tolist(), sub.tolist())) == want
        assert (other_base == full & ~sub).all()
        assert counts.tolist() == [1 << C.bit_count() for C in range(1 << c)]
        assert starts.tolist() == [sum(counts.tolist()[:C]) for C in range(1 << c)]
        assert {a.dtype for a in (full, sub, other_base, starts, counts)} == {np.dtype(np.int64)}


def test_supersets_split_every_color_set_around_the_selection():
    for c in range(7):
        for m in range(1 << c):
            free = c - m.bit_count()
            sup = _supersets(c, m)
            assert sup.tolist() == [C for C in range(1 << c) if C & m == m]
            full, sub, other, starts, counts = _pair_table(free)
            real_c, real_sub, real_other = sup[full], sup[sub], sup[other]
            assert ((real_sub | real_other) == real_c).all()
            assert ((real_sub & real_other) == m).all()
            for k, C in enumerate(sup.tolist()):
                seg = real_sub[starts[k] : starts[k] + counts[k]].tolist()
                assert seg == [s for s in range(C + 1) if s & C == s and s & m == m]


def test_thirteen_colors_match_oracle():
    # c = 13 puts the empty selection past the 3^12 pair table
    joins = 0
    for seed in (3, 6, 14):
        rng = random.Random(seed)
        g = random_chordal(14, 3, seed)
        inst = WeightedInstance(
            g,
            tuple(rng.randint(0, 40) for _ in range(14)),
            colors=tuple(rng.randint(1, 13) for _ in range(14)),
        )
        td = _clique_tree(g)
        joins += sum(len(ch) == 2 for ch in normalize_binary(td).children)
        got = max_weight_colorful_is(inst, td, 1, c=13)
        assert got.weight == brute_colorful_is(inst).weight, f"seed {seed}"
    assert joins >= 3


def _runs_digest(runs):
    """Digest of the witnesses of best_full and best_by_color_count of each
    (run, c) pair."""
    h = hashlib.sha256()
    for run, c in runs:
        sols = [run.best_full()] + run.best_by_color_count(c)
        h.update(repr([sorted(s.vertices) for s in sols]).encode())
    return h.hexdigest()


def _witness_digest(seeds):
    """Digest of the witnesses on 0/1 weights, where nearly every optimum is
    tied."""

    def runs():
        for seed in seeds:
            rng = random.Random(seed)
            n = rng.randint(1, 14)
            c = rng.randint(1, 8)
            g = random_chordal(n, rng.randint(2, 5), seed)
            inst = WeightedInstance(g, tuple(rng.randint(0, 1) for _ in range(n)))
            colors = [rng.randint(1, c) for _ in range(n)]
            yield ColorfulDP(inst, _clique_tree(g), 1).solve(colors, c), c

    return _runs_digest(runs())


_PINNED_WITNESSES = "bba6dcd1746c79522bedbbcc4436c87a80adc964216dd9e1f3eedb278dca2812"
_PINNED_THIRTEEN = "f3f6aaa7b59e7fd94fb55698aaa3f9dea3291a3f0609dc12a2a10d81d439d8de"
_PINNED_ALPHA_TWO = "b847aa2f1355cc1afdf04ccd50e1740bb2e89bd9bfff0fc8e17dfb4126a3a5f4"


def test_tied_witnesses_are_pinned(monkeypatch):
    # recorded with the full 3^c join; 185 join bags over these instances
    assert _witness_digest(range(300)) == _PINNED_WITNESSES
    # the outer loop past the pair table breaks ties the same way
    import mwccs.dp as dp_mod

    monkeypatch.setattr(dp_mod, "_PAIR_TABLE_MAX_C", 2)
    assert _witness_digest(range(300)) == _PINNED_WITNESSES


def test_tied_witnesses_at_thirteen_colors_are_pinned():
    # recorded with a backpointer stored for every table cell; c = 13 leaves
    # the empty selection 13 free colors, so its join rows run the splits of
    # the color past the 3^12 pair table, and 0/1 weights tie
    joins = 0
    runs = []
    for seed in range(12):
        rng = random.Random(seed)
        g = random_chordal(14, 3, seed)
        inst = WeightedInstance(g, tuple(rng.randint(0, 1) for _ in range(14)))
        colors = [rng.randint(1, 13) for _ in range(14)]
        engine = ColorfulDP(inst, _clique_tree(g), 1)
        joins += len(engine.join_children)
        runs.append((engine.solve(colors, 13), 13))
    assert joins >= 10
    assert _runs_digest(runs) == _PINNED_THIRTEEN


def test_tied_witnesses_at_alpha_two_are_pinned():
    # recorded with a backpointer stored for every table cell; two-vertex
    # selections make single-child groups of several members
    runs = []
    for seed in range(80):
        sparser, td, rng = _alpha_two_case(seed)
        if not verify_tree_decomposition(sparser, td) or bag_alpha(sparser, td) != 2:
            continue
        c = rng.randint(1, 4)
        inst = WeightedInstance(
            sparser, tuple(rng.randint(0, 1) for _ in range(sparser.n))
        )
        colors = [rng.randint(1, c) for _ in range(sparser.n)]
        runs.append((ColorfulDP(inst, td, 2).solve(colors, c), c))
    assert len(runs) >= 20
    assert _runs_digest(runs) == _PINNED_ALPHA_TWO


def test_one_bag_of_1100_vertices():
    n = 1100
    g = Graph(n, itertools.combinations(range(n), 2))
    td = TreeDecomposition([frozenset(range(n))], [None], 0)
    inst = WeightedInstance(
        g, tuple(v % 7 for v in range(n)), colors=tuple(v % 3 + 1 for v in range(n))
    )
    # any order of a clique is a PEO
    assert max_weight_is_chordal(inst, tuple(range(n))).vertices == {6}
    assert max_weight_colorful_is(inst, td, 1, c=3).vertices == {6}


def test_best_by_color_count_bounds_cardinality():
    for seed in range(20):
        inst, c = _random_colored_chordal(seed + 300, n_max=10, c_max=4, w_max=9)
        td = _clique_tree(inst.graph)
        vec = ColorfulDP(inst, td, 1).solve(inst.colors, c).best_by_color_count(c)
        prev = -1
        for b, sol in enumerate(vec):
            assert len(sol.vertices) <= b
            assert sol.weight >= prev
            prev = sol.weight
        assert vec[c].weight == brute_colorful_is(inst).weight


def test_chordal_mwis_examples():
    k3 = complete_graph(3)
    inst = WeightedInstance(k3, (2, 9, 4))
    assert max_weight_is_chordal(inst, is_chordal(k3)).weight == 9
    p3 = path_graph(3)
    inst = WeightedInstance(p3, (3, 4, 3))
    sol = max_weight_is_chordal(inst, is_chordal(p3))
    assert sol.weight == 6 and sol.vertices == {0, 2}


def test_chordal_mwis_matches_oracle():
    # 0-1 and 0-3 weights make ties, where the backward pass could go wrong
    for max_w in (99, 1, 3):
        for seed in range(80):
            rng = random.Random(seed)
            n = rng.randint(1, 15)
            g = random_chordal(n, rng.randint(2, 4), seed + 7)
            inst = WeightedInstance(g, tuple(rng.randint(0, max_w) for _ in range(n)))
            got = max_weight_is_chordal(inst, is_chordal(g))
            assert got.weight == brute_mwis(inst).weight, f"max_w {max_w} seed {seed}"


def test_chordal_mwis_requires_peo():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    inst = WeightedInstance(c4, (1, 1, 1, 1))
    for order in itertools.permutations(range(4)):
        with pytest.raises(ValueError):
            max_weight_is_chordal(inst, order)
    # P3 is chordal, but eliminating its middle vertex first is no PEO
    inst = WeightedInstance(path_graph(3), (1, 1, 1))
    with pytest.raises(ValueError):
        max_weight_is_chordal(inst, (1, 0, 2))


# the witnesses the set loops gave before the CSR view existed
_PINNED_DENSE_MWIS = [
    {17, 21, 42, 47, 54, 58, 62, 79, 84, 101, 108, 114, 118},
    {1, 4, 6, 17, 21, 45, 53, 62, 89, 90, 92, 101, 118, 129, 145, 160, 174, 186, 193, 198},
]


def test_chordal_mwis_on_both_views(forced_view):
    # the set rows and the CSR rows give one witness; on the dense graphs
    # the dual check inside certifies it optimal
    test_chordal_mwis_examples()
    test_chordal_mwis_matches_oracle()
    test_chordal_mwis_requires_peo()
    for seed, (n, span) in enumerate([(120, 0.4), (200, 0.3)]):
        g = interval_graph(n, span, seed)
        inst = WeightedInstance(g, tuple(random.Random(seed).choices(range(4), k=n)))
        sol = max_weight_is_chordal(inst, is_chordal(g))
        assert sol.vertices == _PINNED_DENSE_MWIS[seed]


def test_colorful_dp_refuses_tables_past_the_cell_cap():
    # one vertex of color 30: 2 selections x 2^30 color sets is past 2^27
    inst = WeightedInstance(Graph(1), (5,), colors=(30,))
    td = _clique_tree(inst.graph)
    with pytest.raises(SizeCapError, match="table cells"):
        max_weight_colorful_is(inst, td, 1)


def test_color_zero_excludes_vertices():
    # color 0 leaves a vertex out of every colorful selection, so the optimum
    # equals that of the same instance with those vertices weighing nothing
    for seed in range(60):
        inst, c = _random_colored_chordal(seed + 500, n_max=12)
        rng = random.Random(seed)
        zero = {v for v in range(inst.graph.n) if rng.random() < 0.4}
        colors = tuple(0 if v in zero else col for v, col in enumerate(inst.colors))
        engine = ColorfulDP(inst, _clique_tree(inst.graph), 1)
        sol = engine.solve(colors, c).best_full()
        assert not sol.vertices & zero, f"seed {seed}"
        light = WeightedInstance(
            inst.graph,
            tuple(0 if v in zero else w for v, w in enumerate(inst.weights)),
            colors=inst.colors,
        )
        assert sol.weight == brute_colorful_is(light).weight, f"seed {seed}"
    with pytest.raises(ValueError, match="0..c"):
        engine.solve((-1,) * inst.graph.n, c)


def test_single_child_group_past_32767_members():
    # two disjoint K_182 under a root bag {364}: all 33,489 child selections
    # form one group, and the witness {181, 363} sits past index 2^15
    k = 182
    cliques = (range(k), range(k, 2 * k))
    g = Graph(2 * k + 1, [e for q in cliques for e in itertools.combinations(q, 2)])
    weights = [0] * (2 * k + 1)
    weights[k - 1] = weights[2 * k - 1] = 5
    inst = WeightedInstance(
        g, tuple(weights), colors=tuple(1 if v < k else 2 for v in range(2 * k + 1))
    )
    td = TreeDecomposition([frozenset({2 * k}), frozenset(range(2 * k))], [None, 0], 0)
    sol = max_weight_colorful_is(inst, td, 2, c=2)
    assert sol.vertices == {k - 1, 2 * k - 1} and sol.weight == 10


def test_alpha_checks_refuse_a_search_past_the_cap():
    # one bag holding C_41 (alpha 20): asking whether 21 independent
    # vertices exist branches past find_independent_subset's node cap
    g = cycle_graph(41)
    td = TreeDecomposition([frozenset(range(41))], [None], 0)
    with pytest.raises(SizeCapError, match="independent-subset search"):
        ColorfulDP(WeightedInstance.unit(g), td, 20)
    with pytest.raises(SizeCapError, match="independent-subset search"):
        bag_alpha(g, td)


def test_non_colorful_rows_are_one_read_only_row():
    # every non-colorful row of a run, join bags' included, is the same
    # read-only NEG row, so no bag can write through a shared row; color 0
    # excludes a vertex, so its selections are not colorful
    joined = 0
    for seed in range(40):
        inst, c = _random_colored_chordal(seed)
        rng = random.Random(seed)
        colors = tuple(col * (rng.random() < 0.7) for col in inst.colors)
        engine = ColorfulDP(inst, _clique_tree(inst.graph), 1)
        run = engine.solve(colors, c)
        rows = []
        for x, sels in enumerate(engine.sels):
            joined += x in engine.join_children
            for s, row in zip(sels, run.values[x]):
                if len({colors[v] for v in s} - {0}) < len(s):
                    rows.append(row)
        assert not any(row.flags.writeable for row in rows), seed
        assert len({id(row) for row in rows}) <= 1, seed
    assert joined > 0
