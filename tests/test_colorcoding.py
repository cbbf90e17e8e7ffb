import concurrent.futures
import hashlib
import json
import math
import os
import random

import pytest

from mwccs import colorcoding
from mwccs.colorcoding import (
    FAMILY_CAP,
    ClusterChordalEngine,
    ColoringFamilySpec,
    Mode,
    _colorings,
    decomposition_parts,
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
from mwccs.treedecomp import clique_tree_from_peo

from conftest import cycle_graph

EX = ColoringFamilySpec(Mode.EXHAUSTIVE)


def _chordal_with_singletons(inst):
    return WeightedInstance(
        inst.graph,
        inst.weights,
        cluster_edges=frozenset(),
        chordal_edges=frozenset(inst.graph.edges()),
    )


def _brute_bounded_solver(sub, bound):
    return brute_mwis(sub, ell_cap=bound)


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
    clusters, chordal_g = decomposition_parts(inst)
    assert sorted(v for comp in clusters for v in comp) == list(range(10))
    assert is_chordal(chordal_g) is not None
    bare = WeightedInstance.unit(cycle_graph(4))
    with pytest.raises(ValueError):
        decomposition_parts(bare)


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
        full = max_weight_is_chordal(
            WeightedInstance(g, weights),
            clique_tree_from_peo(g, is_chordal(g)),
        )
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
    with pytest.raises(ValueError):
        mwis_cluster_chordal(WeightedInstance.unit(cycle_graph(4)), 2, EX)


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
    # many clusters, several colors: the enumerated family would be huge
    g, labels = random_cluster(28, 2, seed=1)
    inst = WeightedInstance(
        g,
        tuple([1] * 28),
        cluster_edges=frozenset(g.edges()),
        chordal_edges=frozenset(),
    )
    with pytest.raises(SizeCapError):
        mwis_cluster_chordal(inst, 6, EX)


def test_parallel_jobs_match_sequential():
    inst = random_cluster_chordal_instance(10, 3, 3, 9, seed=15)
    spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.1, seed=2)
    seq = mwccs_cluster_chordal(inst, 2, 3, spec, jobs=1)
    par = mwccs_cluster_chordal(inst, 2, 3, spec, jobs=2)
    assert solution_sort_key(seq) == solution_sort_key(par)


def test_jobs_must_be_positive():
    inst = random_cluster_chordal_instance(6, 2, 3, 5, seed=2)
    spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.1, seed=2)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            mwccs_cluster_chordal(inst, 2, 3, spec, jobs=jobs)


def test_pool_workers_bounded_by_jobs_chunks_and_cpus(monkeypatch):
    sizes: list[int] = []

    class InlinePool:
        """Records max_workers and runs the chunks here; starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    inst = random_cluster_chordal_instance(10, 3, 3, 9, seed=15)
    spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.1, seed=2)
    seq_stats: dict = {}
    seq = mwccs_cluster_chordal(inst, 2, 3, spec, seq_stats)
    for jobs, workers in ((2, 2), (5000, 3)):
        sizes.clear()
        stats: dict = {}
        got = mwccs_cluster_chordal(inst, 2, 3, spec, stats, jobs=jobs)
        assert sizes == [workers]
        assert solution_sort_key(got) == solution_sort_key(seq)
        assert stats == seq_stats
    # two colorings make two chunks, whatever jobs asks for
    sizes.clear()
    capped = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.1, seed=2, trial_cap=2)
    mwccs_cluster_chordal(inst, 2, 3, capped, jobs=5000)
    assert sizes == [2]


def test_exhaustive_inner_set_partitions_match_brute():
    # 13 singleton clusters exceed IDENTITY_COLOR_CAP, so bounded_vector walks
    # the set partitions of the clusters into at most ell blocks
    assert colorcoding.IDENTITY_COLOR_CAP < 13
    rng = random.Random(1)
    g = random_chordal(13, 3, 1)
    inst = _chordal_with_singletons(
        WeightedInstance(g, tuple(rng.randint(1, 9) for _ in range(13)))
    )
    stats: dict = {}
    got = mwis_cluster_chordal(inst, 2, EX, stats)
    assert stats["trials"] == 2**12  # S(13, 1) + S(13, 2)
    assert got.weight == brute_mwis(inst, ell_cap=2).weight
    assert sorted(got.vertices) == [4, 10]  # the witness before the family rewrite


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
    for m, k in ((24, 2), (12, 4)):  # k^m equals the cap: accepted
        family = _colorings(m, k, 1.0, EX)
        assert next(family) == (1,) * m
    for m, k in ((25, 2), (13, 4)):
        with pytest.raises(SizeCapError, match="randomized"):
            _colorings(m, k, 1.0, EX)
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
            WeightedInstance.unit(Graph(25, [])), 2, 3, _brute_bounded_solver, EX
        )
    engine = ClusterChordalEngine(_chordal_with_singletons(outer))
    assert [s.weight for s in engine.bounded_vector(2, EX)] == [0, 0, 0]
    with pytest.raises(SizeCapError):
        ClusterChordalEngine(
            _chordal_with_singletons(WeightedInstance.unit(Graph(13, [])))
        ).bounded_vector(4, EX)
    assert made == [(24, 2), (24, 2)]
