import functools
import hashlib
import json
import math
import random
import time
from types import SimpleNamespace

import pytest

from mwccs import colorcoding
from mwccs.colorcoding import (
    FAMILY_CAP,
    ClusterChordalEngine,
    ClusterChordalSolver,
    ColoringFamilySpec,
    Mode,
    _assemble,
    _class_vector_fn,
    _colorings,
    _cover_bound,
    _greedy_floor,
    _size_partitions,
    _vertex_family,
    enumerate_size_partitions,
    mwccs_cluster_chordal,
    mwccs_from_mwis,
    mwis_cluster_chordal,
)
from mwccs.generators import (
    overlay_cluster_chordal,
    random_chordal,
    random_cluster,
    random_cluster_chordal_instance,
)
from mwccs.graph import (
    Graph,
    SizeCapError,
    Solution,
    WeightedInstance,
    solution_sort_key,
)
from mwccs.oracle import brute_mwccs, brute_mwis
from mwccs.dp import max_weight_is_chordal
from mwccs.recognition import is_chordal

from conftest import cycle_graph

EX = ColoringFamilySpec(Mode.EXHAUSTIVE)


def _chordal_with_singletons(inst):
    return WeightedInstance(
        inst.graph,
        inst.weights,
        cluster_edges=frozenset(),
        chordal_edges=frozenset(inst.graph.edges()),
    )


def _brute_bounded_solver(sub, max_bound):
    sols = [brute_mwis(sub, ell_cap=b) for b in range(max_bound + 1)]
    return [sol.weight for sol in sols], sols.__getitem__


def test_enumerate_size_partitions():
    parts = list(enumerate_size_partitions(2, 2))
    assert len(parts) == 6
    assert set(parts) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    assert list(enumerate_size_partitions(0, 3)) == [(0, 0, 0)]
    assert set(enumerate_size_partitions(3, 1)) == {(0,), (1,), (2,), (3,)}
    for ell, c in ((3, 2), (4, 3), (2, 4)):
        assert len(list(enumerate_size_partitions(ell, c))) == math.comb(ell + c, c)
    assert len(set(enumerate_size_partitions(4, 3))) == math.comb(7, 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.0)
    with pytest.raises(ValueError):
        ColoringFamilySpec(trial_cap=0)


def test_decomposition_parts():
    inst = random_cluster_chordal_instance(10, 3, 3, 5, seed=1)
    clusters, chordal_g, peo = inst.parts
    assert sorted(v for comp in clusters for v in comp) == list(range(10))
    assert peo == is_chordal(chordal_g)
    bare = WeightedInstance.unit(cycle_graph(4))
    with pytest.raises(ValueError, match="neither witnessed"):
        bare.parts


def test_mwccs_from_mwis_single_color_equals_solver():
    for seed in range(10):
        rng = random.Random(seed)
        inst = random_cluster_chordal_instance(8, 3, 3, 9, seed=seed)
        ell = rng.randint(0, 4)
        got = mwccs_from_mwis(inst, 1, ell, _brute_bounded_solver, EX)
        want = brute_mwis(inst, ell_cap=ell)
        assert got.weight == want.weight


def test_mwccs_from_mwis_everything_fits():
    g = Graph(3, [(0, 1)])
    inst = WeightedInstance(g, (2, 3, 4))
    got = mwccs_from_mwis(inst, 3, 3, _brute_bounded_solver, EX)
    assert got.weight == 9  # every graph is n-colorable
    got.validate(inst, 3)


def test_mwccs_from_mwis_c5():
    inst = WeightedInstance.unit(cycle_graph(5))
    got = mwccs_from_mwis(inst, 2, 5, _brute_bounded_solver, EX)
    assert got.weight == 4  # odd cycle: one vertex must go
    got.validate(inst, 2)


def test_mwccs_from_mwis_matches_brute_on_random_graphs():
    from conftest import random_graph

    for seed in range(15):
        rng = random.Random(seed)
        g = random_graph(7, 0.4, seed + 20)
        inst = WeightedInstance(g, tuple(rng.randint(0, 9) for _ in range(7)))
        c, ell = rng.randint(1, 3), rng.randint(0, 4)
        got = mwccs_from_mwis(inst, c, ell, _brute_bounded_solver, EX)
        want = brute_mwccs(inst, c, ell_cap=ell)
        assert got.weight == want.weight, (seed, c, ell)


def test_mwis_cluster_chordal_pure_chordal():
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        g = random_chordal(n, 3, seed + 40)
        weights = tuple(rng.randint(0, 20) for _ in range(n))
        inst = _chordal_with_singletons(WeightedInstance(g, weights))
        full = max_weight_is_chordal(WeightedInstance(g, weights), is_chordal(g))
        ell = n  # budget large enough for the unrestricted optimum
        got = mwis_cluster_chordal(inst, ell, EX)
        assert got.weight == full.weight


def test_mwis_cluster_chordal_pure_cluster():
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        g, labels = random_cluster(n, 3, seed)
        weights = tuple(rng.randint(1, 9) for _ in range(n))
        inst = WeightedInstance(
            g,
            weights,
            cluster_edges=frozenset(g.edges()),
            chordal_edges=frozenset(),
        )
        ell = rng.randint(0, 4)
        got = mwis_cluster_chordal(inst, ell, EX)
        # exchange argument: pick the heaviest vertex of the ell best clusters
        per_cluster: dict[int, int] = {}
        for v in range(n):
            per_cluster[labels[v]] = max(
                per_cluster.get(labels[v], 0), weights[v]
            )
        want = sum(sorted(per_cluster.values(), reverse=True)[:ell])
        assert got.weight == want


def test_mwis_cluster_chordal_strip_sample():
    for seed in range(12):
        inst = random_cluster_chordal_instance(12, 3, 3, 20, seed=seed + 100)
        got = mwis_cluster_chordal(inst, 4, EX)
        want = brute_mwis(inst, ell_cap=4)
        assert got.weight == want.weight, f"seed {seed}"


def test_mwis_cluster_chordal_requires_witness():
    # without a witness only a chordal graph can be split
    bare = WeightedInstance.unit(cycle_graph(4))
    with pytest.raises(ValueError):
        mwis_cluster_chordal(bare, 2, EX)
    with pytest.raises(ValueError):
        mwccs_cluster_chordal(bare, 2, 3, EX)


def test_plain_chordal_input_is_split_into_singleton_clusters():
    # an unwitnessed chordal instance answers as its singleton-witnessed copy
    for i in range(10):
        rng = random.Random(i)
        n = 5 + i  # past IDENTITY_COLOR_CAP an inner query takes cluster subsets
        plain = WeightedInstance(
            random_chordal(n, 3, i + 500), tuple(rng.randint(0, 3) for _ in range(n))
        )
        witnessed = _chordal_with_singletons(plain)
        clusters, chordal_g, _ = plain.parts
        assert clusters == [frozenset((v,)) for v in range(n)]
        assert chordal_g == plain.graph
        c, ell = rng.randint(1, 3), rng.randint(1, 5)
        for spec in (EX, ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.1, seed=i)):
            got = []
            for inst in (plain, witnessed):
                stats: dict = {}
                sol = mwccs_cluster_chordal(inst, c, ell, spec, stats)
                got.append((sol.vertices, sol.weight, sol.color_assignment, stats))
                stats = {}
                sol = mwis_cluster_chordal(inst, ell, spec, stats)
                got.append((sol.vertices, sol.weight, sol.color_assignment, stats))
            assert got[:2] == got[2:], (i, spec.mode)


def test_pipeline_c1_matches_mwis():
    for seed in range(6):
        inst = random_cluster_chordal_instance(9, 3, 3, 9, seed=seed + 7)
        a = mwccs_cluster_chordal(inst, 1, 3, EX)
        b = mwis_cluster_chordal(inst, 3, EX)
        assert a.weight == b.weight


def test_pipeline_zero_budget():
    inst = random_cluster_chordal_instance(6, 2, 3, 5, seed=2)
    sol = mwccs_cluster_chordal(inst, 2, 0, EX)
    assert sol.weight == 0 and sol.vertices == frozenset()


def test_pipeline_matches_brute():
    for seed in range(10):
        rng = random.Random(seed)
        inst = random_cluster_chordal_instance(10, 3, 3, 15, seed=seed + 31)
        c, ell = rng.randint(1, 2), rng.randint(1, 5)
        stats = {}
        got = mwccs_cluster_chordal(inst, c, ell, EX, stats)
        want = brute_mwccs(inst, c, ell_cap=ell)
        assert got.weight == want.weight, (seed, c, ell)
        assert stats["trials"] >= 1
        got.validate(inst, c)
        assert len(got.vertices) <= ell


def test_pipeline_monotone_in_c_and_ell():
    inst = random_cluster_chordal_instance(10, 3, 3, 9, seed=77)
    w = {}
    for c in (1, 2, 3):
        for ell in (1, 2, 3, 4):
            w[c, ell] = mwccs_cluster_chordal(inst, c, ell, EX).weight
    for c in (1, 2):
        for ell in (1, 2, 3, 4):
            assert w[c + 1, ell] >= w[c, ell]
    for c in (1, 2, 3):
        for ell in (1, 2, 3):
            assert w[c, ell + 1] >= w[c, ell]


def test_randomized_always_feasible_and_deterministic():
    inst = random_cluster_chordal_instance(10, 3, 3, 20, seed=5)
    spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.2, seed=123, trial_cap=7)
    a = mwccs_cluster_chordal(inst, 2, 4, spec)
    b = mwccs_cluster_chordal(inst, 2, 4, spec)
    a.validate(inst, 2)
    assert len(a.vertices) <= 4
    assert solution_sort_key(a) == solution_sort_key(b)
    other = mwccs_cluster_chordal(
        inst, 2, 4, ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.2, seed=124)
    )
    other.validate(inst, 2)  # different seed still feasible


def test_randomized_mostly_finds_optimum():
    spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.01, seed=9)
    match = 0
    for seed in range(30):
        inst = random_cluster_chordal_instance(9, 3, 3, 12, seed=seed + 400)
        got = mwccs_cluster_chordal(inst, 2, 4, spec)
        want = brute_mwccs(inst, 2, ell_cap=4)
        match += got.weight == want.weight
    assert match >= 29


def test_randomized_mwis_cluster_chordal():
    spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.01, seed=3)
    for seed in range(10):
        inst = random_cluster_chordal_instance(9, 3, 3, 9, seed=seed + 800)
        got = mwis_cluster_chordal(inst, 3, spec)
        got.validate(inst)
        assert len(got.vertices) <= 3
        assert got.weight <= brute_mwis(inst, ell_cap=3).weight


def test_exhaustive_cap_directs_to_randomized():
    inst = random_cluster_chordal_instance(26, 3, 3, 5, seed=6)
    with pytest.raises(SizeCapError, match="randomized"):
        mwccs_cluster_chordal(inst, 3, 4, EX)
    # randomized mode with a small trial cap still runs
    spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.5, seed=0, trial_cap=3)
    sol = mwccs_cluster_chordal(inst, 3, 4, spec)
    sol.validate(inst, 3)


def test_hash_family_cap():
    # 18 clusters, ell=8: the exact family would need C(18, 8) x 56 x 2^8 cells
    g, labels = random_cluster(28, 2, seed=1)
    inst = WeightedInstance(
        g,
        tuple([1] * 28),
        cluster_edges=frozenset(g.edges()),
        chordal_edges=frozenset(),
    )
    assert len(inst.parts[0]) == 18
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match="627314688 table cells"):
        mwis_cluster_chordal(inst, 8, EX)
    assert time.perf_counter() - start < 1.0  # refused before any DP run
    spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.5, seed=0, trial_cap=3)
    sol = mwis_cluster_chordal(inst, 8, spec)
    sol.validate(inst)
    assert len(sol.vertices) <= 8


def test_exhaustive_inner_cluster_subsets_match_brute():
    # 13 singleton clusters exceed IDENTITY_COLOR_CAP, so bounded_vector runs
    # one DP per 2-subset of the clusters
    assert colorcoding.IDENTITY_COLOR_CAP < 13
    rng = random.Random(1)
    g = random_chordal(13, 3, 1)
    inst = _chordal_with_singletons(
        WeightedInstance(g, tuple(rng.randint(1, 9) for _ in range(13)))
    )
    stats: dict = {}
    got = mwis_cluster_chordal(inst, 2, EX, stats)
    assert stats["trials"] == math.comb(13, 2)
    assert got.weight == brute_mwis(inst, ell_cap=2).weight
    # pinned among tied optima: {4, 10} weighs 16 too
    assert sorted(got.vertices) == [4, 5]


def _eager_bounded_vector(engine, ell, family=None):
    """Every run's witness at every bound, folded so that the first run in
    family order to reach the heaviest weight wins: the witnesses
    bounded_vector must build lazily.  The family defaults to the
    k-subset family of a class past IDENTITY_COLOR_CAP clusters."""
    d = len(engine.clusters)
    best = [Solution(frozenset(), 0, None)] * (ell + 1)
    if family is None:
        family = colorcoding._subset_colorings(d, d if d <= ell else ell)
    for f in family:
        vec = engine._run(f, max(f)).best_by_color_count(min(ell, max(f)))
        for b in range(ell + 1):
            cand = vec[min(b, len(vec) - 1)]
            if cand.weight > best[b].weight:
                best[b] = Solution(cand.vertices, cand.weight, None)
    return best


def test_exhaustive_inner_sweep_past_the_identity_cap_matches_brute():
    for n in (13, 14, 15):
        rng = random.Random(n)
        inst = _chordal_with_singletons(
            WeightedInstance(
                random_chordal(n, 3, n), tuple(rng.randint(0, 9) for _ in range(n))
            )
        )
        engine = ClusterChordalEngine(inst)
        for ell in range(1, 5):
            stats: dict = {}
            weights, witness = engine.bounded_vector(ell, EX, stats)
            assert stats["trials"] == math.comb(n, ell)  # one run per ell-subset
            eager = _eager_bounded_vector(engine, ell)
            for b, weight in enumerate(weights):
                assert weight == brute_mwis(inst, ell_cap=b).weight, (n, ell, b)
                # ties between k-subset runs keep the eager fold's witness
                assert witness(b) == eager[b], (n, ell, b)


def _tie_heavy_set():
    """Small witnessed instances with weights 0..3, so optima are often tied."""
    out = []
    for i in range(40):
        rng = random.Random(i)
        inst = random_cluster_chordal_instance(rng.randint(5, 9), 3, 3, 3, seed=1000 + i)
        out.append((inst, rng.randint(1, 3), rng.randint(1, 4)))
    return out


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_pinned_exhaustive_witnesses_and_randomized_weights():
    # digests recorded before the coloring families were merged: exhaustive
    # witnesses must not move, randomized runs may pick another tied witness
    cases = _tie_heavy_set()
    witnesses = []
    for inst, c, ell in cases:
        sol = mwccs_cluster_chordal(inst, c, ell, EX)
        witnesses.append(
            [sorted(sol.vertices), sorted(sol.color_assignment.items()), sol.weight]
        )
    assert _digest(witnesses) == (
        "2034da14d3c946ed8bed291ce6d86fb382778f19293d5cff96c3d70296d478ea"
    )
    spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.1, seed=7)
    weights = [mwccs_cluster_chordal(inst, c, ell, spec).weight for inst, c, ell in cases]
    assert _digest(weights) == (
        "34f22d0eb7239c7365b0d431d8fc0165f9c1cc657464ed125493eea3144c4700"
    )


def test_family_cap_at_creation(monkeypatch):
    assert FAMILY_CAP == 2**24
    # the cap is on the partitions of m items into at most k blocks
    for m, k in ((25, 2), (16, 3), (14, 4)):
        _, family = _colorings(m, k, 1.0, EX)
        assert next(family) == (1,) * m
    for m, k in ((26, 2), (17, 3), (15, 4)):
        with pytest.raises(SizeCapError, match="randomized"):
            _colorings(m, k, 1.0, EX)
    # the count stops once it passes the cap, so a refusal is instant
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match="randomized"):
        _colorings(20000, 30, 1.0, EX)
    assert time.perf_counter() - start < 0.5
    # a randomized family draws ceil(base * ln(1/epsilon)) colorings under
    # the same cap, base past the float range included, unless a trial cap
    # bounds the draws
    rnd = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.5)
    assert next(_colorings(3, 2, (FAMILY_CAP - 1) / math.log(2), rnd)[1])
    capped = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.5, trial_cap=2)
    for base in ((FAMILY_CAP + 1) / math.log(2), 2**1100):
        with pytest.raises(SizeCapError, match="trial cap"):
            _colorings(3, 2, base, rnd)
        assert len(list(_colorings(3, 2, base, capped)[1])) == 2
    # both levels ask for the capped family; a stub stands in for the walk
    made = []

    def no_walk(m, k):
        made.append((m, k))
        return iter(())

    monkeypatch.setattr(colorcoding, "_partition_colorings", no_walk)
    path24 = Graph(24, [(i, i + 1) for i in range(23)])
    outer = WeightedInstance.unit(path24)
    assert mwccs_from_mwis(outer, 2, 3, _brute_bounded_solver, EX).weight == 0
    with pytest.raises(SizeCapError):
        mwccs_from_mwis(
            WeightedInstance.unit(Graph(26, [])), 2, 3, _brute_bounded_solver, EX
        )
    assert made == [(24, 2)]
    # inner queries never walk set partitions, whatever their cluster count
    engine = ClusterChordalEngine(_chordal_with_singletons(outer))
    assert engine.bounded_vector(2, EX)[0] == [0, 1, 2]
    thirteen = _chordal_with_singletons(WeightedInstance.unit(Graph(13, [])))
    for spec in (EX, ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.5, seed=0)):
        assert ClusterChordalEngine(thirteen).bounded_vector(2, spec)[0] == [0, 1, 2]
    assert made == [(24, 2)]


def _unpruned_walk(colorings, c, ell, class_vector):
    """The subgraph reduction's walk without the weight bound: every
    coloring's classes are queried.  Returns (best, trials)."""
    best = Solution(frozenset(), 0, {})
    trials = 0
    for coloring in colorings:
        trials += 1
        classes: list[list[int]] = [[] for _ in range(c)]
        for v, col in enumerate(coloring):
            classes[col - 1].append(v)
        blocks = [frozenset(cls) for cls in classes if cls]
        pairs = [class_vector(b) for b in blocks]
        if sum(p[1][-1] for p in pairs) <= best.weight:
            continue
        best_total, best_bounds = best.weight, None
        for bounds in _size_partitions(ell, len(blocks)):
            total = sum(p[1][b] for p, b in zip(pairs, bounds))
            if total > best_total:
                best_total, best_bounds = total, bounds
        if best_bounds is not None:
            best = _assemble(best_bounds, [p[0] for p in pairs])
    return best, trials


def _assert_matches_unpruned(got, stats, inst, c, ell, solver, spec):
    # the reference walk queries every coloring on purpose, so it memoizes
    # its class queries; the walk under test keeps nothing across colorings
    class_vector = functools.cache(_class_vector_fn(inst, ell, solver))
    want, trials = _unpruned_walk(_vertex_family(inst, c, ell, spec)[1], c, ell, class_vector)
    assert got.weight == want.weight
    assert got.vertices == want.vertices
    assert got.color_assignment == want.color_assignment
    assert stats["trials"] == trials


def test_pruned_walk_matches_unpruned_walk():
    # weights 0..3 make optima tied often, so a skipped coloring that would
    # have won a tie would show up as a different witness
    for i in range(300):
        rng = random.Random(i)
        inst = random_cluster_chordal_instance(rng.randint(5, 10), 3, 3, 3, seed=3000 + i)
        c, ell = rng.randint(1, 3), rng.randint(1, 5)
        for spec in (EX, ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.1, seed=i)):
            stats: dict = {}
            got = mwccs_from_mwis(inst, c, ell, _brute_bounded_solver, spec, stats)
            _assert_matches_unpruned(got, stats, inst, c, ell, _brute_bounded_solver, spec)
    # the full pipeline, whose class vectors come from the cluster engine
    for i, (inst, c, ell) in enumerate(_tie_heavy_set()):
        for spec in (EX, ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.1, seed=i)):
            stats = {}
            got = mwccs_cluster_chordal(inst, c, ell, spec, stats)
            solver = ClusterChordalSolver(spec).solve_vector
            _assert_matches_unpruned(got, stats, inst, c, ell, solver, spec)
    # without a witness, on random graphs
    from conftest import random_graph

    for i in range(60):
        rng = random.Random(i)
        n = rng.randint(4, 8)
        inst = WeightedInstance(
            random_graph(n, 0.4, i + 70), tuple(rng.randint(0, 3) for _ in range(n))
        )
        c, ell = rng.randint(1, 3), rng.randint(1, 5)
        for spec in (EX, ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.1, seed=i)):
            stats = {}
            got = mwccs_from_mwis(inst, c, ell, _brute_bounded_solver, spec, stats)
            _assert_matches_unpruned(got, stats, inst, c, ell, _brute_bounded_solver, spec)


def test_randomized_walk_below_the_greedy_floor_matches_unpruned_walk():
    # one or two colorings often miss the greedy feasible weight, so a
    # randomized walk must not skip colorings whose bound is below it
    below = 0
    for i in range(200):
        rng = random.Random(i)
        inst = random_cluster_chordal_instance(rng.randint(5, 10), 3, 3, 9, seed=9000 + i)
        c, ell = rng.randint(2, 3), rng.randint(2, 5)
        spec = ColoringFamilySpec(Mode.RANDOMIZED, seed=i, trial_cap=rng.randint(1, 2))
        stats: dict = {}
        got = mwccs_from_mwis(inst, c, ell, _brute_bounded_solver, spec, stats)
        below += got.weight < _greedy_floor(inst, c, ell)
        _assert_matches_unpruned(got, stats, inst, c, ell, _brute_bounded_solver, spec)
    assert below > 0


def test_cover_bound_is_admissible():
    # one cluster may feed several classes and chordal edges join clusters,
    # so the cover is built per class from every edge of the graph
    for i in range(150):
        rng = random.Random(i)
        inst = random_cluster_chordal_instance(rng.randint(4, 9), 3, 3, 9, seed=8000 + i)
        n, w, mask = inst.graph.n, inst.weights, inst.graph.mask
        order = sorted(range(n), key=lambda v: -w[v])
        c, ell = rng.randint(1, 3), rng.randint(1, 5)
        ceiling = _cover_bound([0] * n, c, ell, w, order, mask)
        assert ceiling >= brute_mwccs(inst, c, ell).weight
        class_vector = _class_vector_fn(inst, ell, _brute_bounded_solver)
        for _ in range(4):
            coloring = tuple(rng.randint(1, c) for _ in range(n))
            blocks = [
                frozenset(v for v, col in enumerate(coloring) if col == k)
                for k in range(1, c + 1)
            ]
            vecs = [class_vector(b)[1] for b in blocks if b]
            optimum = max(
                sum(v[b] for v, b in zip(vecs, bounds))
                for bounds in _size_partitions(ell, len(vecs))
            )
            assert _cover_bound(coloring, 1, ell, w, order, mask) >= optimum


def test_cover_bound_sees_chordal_edges():
    # a chordal triangle of singleton clusters: two of its vertices may
    # share a class, but not both enter that class's answer
    inst = WeightedInstance(
        Graph(4, [(0, 1), (1, 2), (0, 2)]), (5, 4, 3, 1),
        cluster_edges=frozenset(), chordal_edges=frozenset({(0, 1), (1, 2), (0, 2)}),
    )
    order, mask = [0, 1, 2, 3], inst.graph.mask
    coloring = (1, 1, 2, 2)
    assert _cover_bound(coloring, 1, 3, inst.weights, order, mask) == 9
    assert _cover_bound([0] * 4, 2, 3, inst.weights, order, mask) == 10
    stats: dict = {}
    got = mwccs_cluster_chordal(inst, 2, 3, EX, stats)
    assert got.weight == brute_mwccs(inst, 2, 3).weight == 10
    assert stats["skipped"] > 0


def test_skipped_colorings_make_no_solver_calls():
    calls = []

    def counting_solver(sub, max_bound):
        calls.append(max_bound)
        return _brute_bounded_solver(sub, max_bound)

    inst = random_cluster_chordal_instance(8, 3, 3, 9, seed=11)
    stats: dict = {}
    got = mwccs_from_mwis(inst, 2, 3, counting_solver, EX, stats)
    pruned_calls = len(calls)
    calls.clear()
    want, trials = _unpruned_walk(
        _vertex_family(inst, 2, 3, EX)[1], 2, 3, _class_vector_fn(inst, 3, counting_solver)
    )
    assert got.weight == want.weight and stats["trials"] == trials
    assert 0 < stats["skipped"] <= trials
    assert pruned_calls < len(calls)


def test_family_size_is_returned_with_the_family():
    for m in range(10):
        for k in range(1, 5):
            size, family = _colorings(m, k, 1.0, EX)
            assert size == len(list(colorcoding._partition_colorings(m, k)))
            assert size == len(list(family))
    for base in (1.0, 2**6, 3**5):
        for cap in (None, 1, 10**9):
            spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.05, seed=4, trial_cap=cap)
            size, family = _colorings(5, 3, base, spec)
            assert size == colorcoding._randomized_trials(base, spec)
            assert size == len(list(family))


def test_walk_stops_at_the_ceiling(monkeypatch):
    inst = random_cluster_chordal_instance(22, 3, 3, 30, 7)
    c, ell = 2, 8
    n, w = inst.graph.n, inst.weights
    order = sorted(range(n), key=lambda v: -w[v])
    ceiling = _cover_bound([0] * n, c, ell, w, order, inst.graph.mask)
    made = [0]  # exhaustive colorings made, or random values drawn
    at_assemble: list[int] = []
    real_partitions, real_assemble = colorcoding._partition_colorings, _assemble

    def counted_partitions(m, k):
        for coloring in real_partitions(m, k):
            made[0] += 1
            yield coloring

    class CountingRandom(random.Random):
        def randint(self, a, b):
            made[0] += 1
            return super().randint(a, b)

    def noted_assemble(bounds, witnesses):
        at_assemble.append(made[0])
        return real_assemble(bounds, witnesses)

    monkeypatch.setattr(colorcoding, "_partition_colorings", counted_partitions)
    monkeypatch.setattr(colorcoding, "random", SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(colorcoding, "_assemble", noted_assemble)
    randomized = ColoringFamilySpec(Mode.RANDOMIZED, seed=3)
    for spec, size, per_coloring in (
        (EX, 2**21, 1),  # S(22, 1) + S(22, 2) set partitions
        (randomized, math.ceil(2**8 * math.log(100)), n),  # n draws per coloring
    ):
        made[0] = 0
        at_assemble.clear()
        stats: dict = {}
        got = mwccs_cluster_chordal(inst, c, ell, spec, stats)
        assert got.weight == ceiling
        assert stats["trials"] == size
        # nothing was made or drawn after the incumbent reached the ceiling
        assert made[0] == at_assemble[-1] < size * per_coloring
        assert stats["skipped"] >= size - made[0] // per_coloring


def test_witnesses_are_built_only_for_incumbents(monkeypatch):
    from mwccs.dp import ColorfulDP, ColorfulRun

    real_solution_at, real_assemble = ColorfulRun._solution_at, _assemble
    real_solve = ColorfulDP.solve
    real_bounded_vector = ClusterChordalEngine.bounded_vector
    built: list[int] = []  # witnesses built by the current _assemble call
    outside = []
    solves = [0]
    reruns = []  # DP runs each witness(b) call made

    def counted_solution_at(run, C, sel):
        if built:
            built[-1] += 1
        else:
            outside.append((C, sel))
        return real_solution_at(run, C, sel)

    def noted_assemble(bounds, witnesses):
        built.append(0)
        try:
            return real_assemble(bounds, witnesses)
        finally:
            assert built.pop() <= len(bounds)

    def counted_solve(dp, colors, c):
        solves[0] += 1
        return real_solve(dp, colors, c)

    def counted_bounded_vector(engine, ell, spec, stats=None):
        weights, witness = real_bounded_vector(engine, ell, spec, stats)

        def counted_witness(b):
            before = solves[0]
            sol = witness(b)
            reruns.append(solves[0] - before)
            return sol

        return weights, counted_witness

    monkeypatch.setattr(ColorfulRun, "_solution_at", counted_solution_at)
    monkeypatch.setattr(colorcoding, "_assemble", noted_assemble)
    monkeypatch.setattr(ColorfulDP, "solve", counted_solve)
    monkeypatch.setattr(ClusterChordalEngine, "bounded_vector", counted_bounded_vector)
    for i, (inst, c, ell) in enumerate(_tie_heavy_set()):
        for spec in (EX, ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.1, seed=i)):
            mwccs_cluster_chordal(inst, c, ell, spec)
    # classes above have at most 12 clusters, so one inner run per query;
    # these singleton-cluster classes run one DP per ell-subset, often tied
    for n in range(13, 17):
        rng = random.Random(n)
        inst = _chordal_with_singletons(
            WeightedInstance(
                random_chordal(n, 3, n), tuple(rng.randint(0, 3) for _ in range(n))
            )
        )
        for ell in range(2, 5):
            for spec in (EX, ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.1, seed=n)):
                mwccs_cluster_chordal(inst, 1, ell, spec)
    assert outside == []
    # a witness reruns at most its winning coloring, and some do
    assert max(reruns) == 1


def test_randomized_inner_witnesses_past_the_held_cell_budget(monkeypatch):
    # a cell budget of one run sends the query to the randomized family, whose
    # witnesses come from the first winning draw at each bound
    spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.01, seed=2)
    for n in (13, 14):
        rng = random.Random(n)
        inst = _chordal_with_singletons(
            WeightedInstance(
                random_chordal(n, 3, n), tuple(rng.randint(0, 3) for _ in range(n))
            )
        )
        engine = ClusterChordalEngine(inst)
        ell = 3
        monkeypatch.setattr(colorcoding, "MAX_CELLS", engine.dp.num_sels << ell)
        weights, witness = engine.bounded_vector(ell, spec)
        _, family = _colorings(n, ell, math.e**ell, spec)
        eager = _eager_bounded_vector(engine, ell, family)
        assert weights == [sol.weight for sol in eager]
        assert [witness(b) for b in range(ell + 1)] == eager
