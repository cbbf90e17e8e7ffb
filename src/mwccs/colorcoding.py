"""Color-coding reductions and the composed solver pipeline.

Two reductions are layered here.  The subgraph reduction turns max-weight
c-colorable subgraph into bounded-size max-weight independent set queries:
color the vertices, split a size budget among the color classes, solve each
class independently and take the union.  The cluster reduction turns
bounded MWIS on a cluster+chordal graph into colorful independent set on
the chordal part by coloring whole clusters.

Both levels take their colorings from one family, made by `_colorings` in
one of two modes.  EXHAUSTIVE yields one coloring per partition of the
items into color classes (renaming colors never changes an optimum, so one
representative per partition suffices) and is exact; it is refused when it
is made if it stands for more than 2^24 colorings.  RANDOMIZED draws the
level's number of independent uniform colorings from a seeded stream and is
optimal with probability at least 1 - epsilon, always returning a feasible
set.

The subgraph reduction keeps the first coloring, in family order, that
reaches the heaviest weight.  With jobs > 1 a randomized family is split
into contiguous chunks that run the same loop in a process pool; a later
chunk's answer replaces an earlier one only if it is strictly heavier, so
the answer is the sequential one whatever the number of workers.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator

from .dp import ColorfulDP, MAX_COLORS
from .graph import (
    Graph,
    SizeCapError,
    Solution,
    ValidationError,
    WeightedInstance,
    better_solution,
)
from .recognition import find_cluster_violation, is_chordal
from .treedecomp import clique_tree_from_peo

FAMILY_CAP = 1 << 24  # cap on the k^m colorings of m items with k colors
IDENTITY_COLOR_CAP = 12  # clusters used directly as colors up to this count


class Mode(str, Enum):
    EXHAUSTIVE = "exhaustive"
    RANDOMIZED = "randomized"


@dataclass(frozen=True)
class ColoringFamilySpec:
    """How coloring families are generated.

    seed feeds a fixed PRNG (python's Mersenne Twister via random.Random),
    so randomized runs are reproducible across platforms.  trial_cap
    overrides the derived repetition count.
    """

    mode: Mode = Mode.EXHAUSTIVE
    epsilon: float = 0.01
    seed: int = 0
    trial_cap: int | None = None

    def __post_init__(self):
        if self.mode == Mode.RANDOMIZED and not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        if self.trial_cap is not None and self.trial_cap < 1:
            raise ValueError("trial_cap must be positive")


def enumerate_size_partitions(ell: int, c: int) -> Iterator[tuple[int, ...]]:
    """All c-tuples of non-negative sizes with sum at most ell.

    Yields exactly binomial(ell + c, c) tuples, each once.
    """
    if ell < 0:
        raise ValueError("ell must be non-negative")
    if c < 1:
        raise ValueError("c must be positive")
    acc: list[int] = []

    def rec(i: int, left: int):
        if i == c:
            yield tuple(acc)
            return
        for v in range(left + 1):
            acc.append(v)
            yield from rec(i + 1, left - v)
            acc.pop()

    yield from rec(0, ell)


def _partition_colorings(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """One coloring of range(m) per partition into at most k blocks.

    Blocks are ordered by their smallest item and block j gets color j, so
    the colorings are the restricted growth strings, yielded in
    lexicographic order.
    """
    a = [1] * m
    top = [1] * m  # top[i] = max(a[: i + 1])
    while True:
        yield tuple(a)
        i = m - 1
        while i > 0 and (a[i] > top[i - 1] or a[i] == k):
            i -= 1
        if i <= 0:
            return
        a[i] += 1
        top[i] = max(top[i - 1], a[i])
        for j in range(i + 1, m):
            a[j] = 1
            top[j] = top[i]


def _randomized_trials(base: float, spec: ColoringFamilySpec) -> int:
    need = base * math.log(1.0 / spec.epsilon)
    if need > 1e18 or math.isinf(need):
        if spec.trial_cap is None:
            raise SizeCapError(
                "randomized repetition count overflows; supply a trial cap"
            )
        return spec.trial_cap
    trials = max(1, math.ceil(need))
    if spec.trial_cap is not None:
        trials = min(trials, spec.trial_cap)
    return trials


def _colorings(
    m: int, k: int, base: float, spec: ColoringFamilySpec
) -> Iterator[tuple[int, ...]]:
    """The family of colorings of m items with colors 1..k.

    EXHAUSTIVE: one coloring per partition of the items into at most k
    blocks, refused here, before any coloring is made, when k^m exceeds
    FAMILY_CAP.  RANDOMIZED: _randomized_trials(base, spec) uniform draws
    from random.Random(spec.seed).
    """
    if spec.mode == Mode.EXHAUSTIVE:
        if k**m > FAMILY_CAP:
            raise SizeCapError(
                f"enumerating {k}^{m} colorings exceeds the exhaustive cap; "
                "use randomized mode"
            )
        return _partition_colorings(m, k)
    trials = _randomized_trials(base, spec)
    rng = random.Random(spec.seed)
    return (tuple(rng.randint(1, k) for _ in range(m)) for _ in range(trials))


def decomposition_parts(inst: WeightedInstance) -> tuple[list[frozenset[int]], Graph]:
    """Split a witnessed instance into (ordered clusters, chordal-side graph).

    Clusters are the components of the cluster-tagged edges plus singleton
    vertices, ordered by smallest member.  Raises if the cluster side is
    not a cluster graph.
    """
    if not inst.has_decomposition:
        raise ValueError(
            "instance carries no cluster/chordal edge partition witness"
        )
    n = inst.graph.n
    cluster_g = Graph(n, sorted(inst.cluster_edges))
    viol = find_cluster_violation(cluster_g)
    if viol is not None:
        raise ValueError(
            f"cluster-tagged edges are not a cluster graph: induced path {viol}"
        )
    chordal_g = Graph(n, sorted(inst.chordal_edges))
    seen = [False] * n
    clusters: list[frozenset[int]] = []
    for v in range(n):
        if not seen[v]:
            comp = frozenset(cluster_g.adj[v] | {v})
            for u in comp:
                seen[u] = True
            clusters.append(comp)
    return clusters, chordal_g


class ClusterChordalEngine:
    """Bounded MWIS on one cluster+chordal instance, for many colorings.

    Builds the chordal side's clique tree once; every cluster coloring then
    reuses the same DP structure.
    """

    def __init__(self, inst: WeightedInstance):
        self.inst = inst
        self.clusters, self.chordal_g = decomposition_parts(inst)
        peo = is_chordal(self.chordal_g)
        if peo is None:
            raise ValueError("chordal-tagged edges do not form a chordal graph")
        self.td = clique_tree_from_peo(self.chordal_g, peo)
        self.cluster_of = [0] * inst.graph.n
        for i, comp in enumerate(self.clusters):
            for v in comp:
                self.cluster_of[v] = i
        self.dp = ColorfulDP(
            WeightedInstance(self.chordal_g, inst.weights), self.td, 1
        )

    def _run(self, f: tuple[int, ...], c: int):
        colors = tuple(f[self.cluster_of[v]] for v in range(self.inst.graph.n))
        return self.dp.solve(colors, c)

    def bounded_vector(
        self, ell: int, spec: ColoringFamilySpec, stats: dict | None = None
    ) -> list[Solution]:
        """Entry b holds an optimal independent set of at most b vertices of
        the full graph, for b = 0..ell (exact in EXHAUSTIVE mode)."""
        if ell < 0:
            raise ValueError("ell must be non-negative")
        n = self.inst.graph.n
        empty = Solution(frozenset(), 0, None)
        if ell == 0 or n == 0:
            return [empty] * (ell + 1)
        d = len(self.clusters)
        if spec.mode == Mode.EXHAUSTIVE and d <= IDENTITY_COLOR_CAP:
            # few clusters: the cluster ids themselves are the colors, so one
            # DP run is exact; its bound b is the root optimum over color
            # subsets of size at most b
            family = [tuple(range(1, d + 1))]
        else:
            family = _colorings(d, ell, math.e**ell, spec)
        best = [empty] * (ell + 1)
        trials = 0
        for f in family:
            k = max(f)
            vec = self._run(f, k).best_by_color_count(min(ell, k))
            for b in range(ell + 1):
                cand = vec[min(b, len(vec) - 1)]
                stripped = Solution(cand.vertices, cand.weight, None)
                best[b] = better_solution(best[b], stripped)
            trials += 1
        if stats is not None:
            stats["trials"] = stats.get("trials", 0) + trials
        for b, sol in enumerate(best):
            sol.validate(self.inst)  # independence in the full graph
            if len(sol.vertices) > b:
                raise ValidationError("bounded MWIS witness exceeds its bound")
        return best


def mwis_cluster_chordal(
    inst: WeightedInstance,
    ell: int,
    spec: ColoringFamilySpec,
    stats: dict | None = None,
) -> Solution:
    """Max-weight independent set with at most ell vertices of a
    cluster+chordal graph, given the decomposition witness."""
    engine = ClusterChordalEngine(inst)
    vec = engine.bounded_vector(ell, spec, stats)
    return vec[ell]


class ClusterChordalSolver:
    """Bounded-MWIS callable for the subgraph reduction, with a vector
    entry point so one engine sweep serves every bound of a color class.

    Inner queries run exhaustively (they are exact and the sub-instances
    are small); if an inner exhaustive sweep is refused for size and the
    surrounding run is randomized, the inner query falls back to the
    randomized family with the caller's epsilon.
    """

    def __init__(self, spec: ColoringFamilySpec):
        self.spec = spec
        self.exhaustive = ColoringFamilySpec(
            Mode.EXHAUSTIVE, seed=spec.seed, trial_cap=spec.trial_cap
        )

    def solve_vector(self, sub: WeightedInstance, max_bound: int) -> list[Solution]:
        engine = ClusterChordalEngine(sub)
        try:
            return engine.bounded_vector(max_bound, self.exhaustive)
        except SizeCapError:
            if self.spec.mode == Mode.RANDOMIZED:
                return engine.bounded_vector(max_bound, self.spec)
            raise

    def __call__(self, sub: WeightedInstance, bound: int) -> Solution:
        return self.solve_vector(sub, bound)[bound]


def _assemble(bounds: tuple[int, ...], vectors: list[list[Solution]]) -> Solution:
    verts: set[int] = set()
    assignment: dict[int, int] = {}
    weight = 0
    for i, b in enumerate(bounds):
        sol = vectors[i][b]
        verts |= sol.vertices
        weight += sol.weight
        for v in sol.vertices:
            assignment[v] = i + 1
    return Solution(frozenset(verts), weight, assignment)


def _class_vector_fn(inst, ell, solver):
    """Memoized per-class bound vectors in the parent instance's vertex ids.

    Uses the solver's vector entry point when it has one (so one engine
    sweep serves every bound of a color class), otherwise one call per
    bound.
    """
    vector_fn = getattr(solver, "solve_vector", None)
    cache: dict[frozenset[int], tuple[list[Solution], tuple[int, ...]]] = {}

    def class_vector(block: frozenset[int]) -> tuple[list[Solution], tuple[int, ...]]:
        got = cache.get(block)
        if got is not None:
            return got
        sub, mapping = inst.induce(block)
        bmax = min(ell, len(block))
        if vector_fn is not None:
            raw = vector_fn(sub, bmax)
        else:
            raw = [solver(sub, b) for b in range(bmax + 1)]
        sols = []
        for b, sol in enumerate(raw):
            verts = frozenset(mapping[v] for v in sol.vertices)
            lifted = Solution(verts, sol.weight, None)
            lifted.validate(inst)
            if len(verts) > b:
                raise ValidationError("bounded solver exceeded its size bound")
            sols.append(lifted)
        while len(sols) < ell + 1:
            sols.append(sols[-1])
        got = (sols, tuple(s.weight for s in sols))
        cache[block] = got
        return got

    return class_vector


@lru_cache(maxsize=None)
def _size_partitions(ell: int, j: int) -> tuple[tuple[int, ...], ...]:
    return tuple(enumerate_size_partitions(ell, j))


def _best_over_colorings(colorings, c, ell, class_vector) -> tuple[Solution, int]:
    """Optimum over a run of vertex colorings, and the number of colorings.

    The first coloring in order that reaches the heaviest weight wins, with
    its first heaviest size split; so does a run split into chunks whose
    answers are merged in order on strictly heavier weight.
    """
    best = Solution(frozenset(), 0, {})
    trials = 0
    for coloring in colorings:
        trials += 1
        classes: list[list[int]] = [[] for _ in range(c)]
        for v, col in enumerate(coloring):
            classes[col - 1].append(v)
        blocks = [frozenset(cls) for cls in classes if cls]
        pairs = [class_vector(b) for b in blocks]
        cap = 0
        for p in pairs:
            cap += p[1][-1]
        if cap <= best.weight:
            continue  # not even every class at the full budget beats best
        wvecs = [p[1] for p in pairs]
        best_total = best.weight
        best_bounds = None
        for bounds in _size_partitions(ell, len(blocks)):
            total = 0
            for i, b in enumerate(bounds):
                total += wvecs[i][b]
            if total > best_total:
                best_total = total
                best_bounds = bounds
        if best_bounds is not None:
            best = _assemble(best_bounds, [p[0] for p in pairs])
    return best, trials


def _vertex_colorings(
    inst: WeightedInstance, c: int, ell: int, spec: ColoringFamilySpec
) -> Iterator[tuple[int, ...]]:
    """The subgraph reduction's family; empty when the budget is zero."""
    if c < 1:
        raise ValueError("c must be positive")
    if c > MAX_COLORS:
        raise ValueError(f"c must be at most {MAX_COLORS}")
    if ell < 0:
        raise ValueError("ell must be non-negative")
    n = inst.graph.n
    if ell == 0 or n == 0:
        return iter(())
    return _colorings(n, c, float(c) ** ell, spec)


def _checked(inst, c, ell, best: Solution, trials: int, stats) -> Solution:
    """Epilogue of a sequential or pooled run: count its colorings and
    re-validate the witness."""
    if stats is not None:
        stats["trials"] = stats.get("trials", 0) + trials
    best.validate(inst, c)
    if len(best.vertices) > ell:
        raise ValidationError("solution exceeds the vertex budget")
    return best


def mwccs_from_mwis(
    inst: WeightedInstance,
    c: int,
    ell: int,
    mwis_bounded_solver: Callable[[WeightedInstance, int], Solution],
    spec: ColoringFamilySpec,
    stats: dict | None = None,
) -> Solution:
    """Max-weight induced c-colorable subgraph with at most ell vertices,
    via bounded MWIS on the classes of vertex colorings.

    The solver must be exact on induced sub-instances (the class is
    hereditary).  EXHAUSTIVE mode walks every coloring of the vertex set
    into at most c classes and is exact; RANDOMIZED mode draws
    ceil(c^ell * ln(1/epsilon)) uniform colorings.
    """
    family = _vertex_colorings(inst, c, ell, spec)
    class_vector = _class_vector_fn(inst, ell, mwis_bounded_solver)
    best, trials = _best_over_colorings(family, c, ell, class_vector)
    return _checked(inst, c, ell, best, trials, stats)


def mwccs_cluster_chordal(
    inst: WeightedInstance,
    c: int,
    ell: int,
    spec: ColoringFamilySpec,
    stats: dict | None = None,
    jobs: int = 1,
) -> Solution:
    """The full pipeline: max-weight c-colorable subgraph with at most ell
    vertices of a cluster+chordal graph with a given decomposition witness.

    With jobs > 1, a randomized run splits its colorings into contiguous
    chunks for a process pool of min(jobs, chunks, CPUs) workers; the
    answer is the one jobs=1 gives.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    _, chordal_g = decomposition_parts(inst)  # validate the witness up front
    if is_chordal(chordal_g) is None:
        raise ValueError("chordal-tagged edges do not form a chordal graph")
    solver = ClusterChordalSolver(spec)
    if spec.mode == Mode.RANDOMIZED and jobs > 1:
        family = list(_vertex_colorings(inst, c, ell, spec))
        workers = min(jobs, len(family), os.cpu_count() or 1)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            size = -(-len(family) // workers)
            chunks = [family[i : i + size] for i in range(0, len(family), size)]
            best = Solution(frozenset(), 0, {})
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                args = [(inst, c, ell, solver, chunk) for chunk in chunks]
                for got in pool.map(_chunk_best, args):
                    if got.weight > best.weight:  # earlier chunks win ties
                        best = got
            return _checked(inst, c, ell, best, len(family), stats)
    return mwccs_from_mwis(inst, c, ell, solver, spec, stats)


def _chunk_best(args) -> Solution:
    inst, c, ell, solver, colorings = args
    class_vector = _class_vector_fn(inst, ell, solver)
    return _best_over_colorings(colorings, c, ell, class_vector)[0]
