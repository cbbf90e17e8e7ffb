"""Color-coding reductions and the composed solver pipeline.

Two reductions are layered here.  The subgraph reduction turns max-weight
c-colorable subgraph into bounded-size max-weight independent set queries:
color the vertices, split a size budget among the color classes, solve each
class independently and take the union.  The cluster reduction turns
bounded MWIS on a cluster+chordal graph into colorful independent set on
the chordal part by coloring whole clusters.

The subgraph reduction's colorings come from `_colorings` in one of two
modes.  EXHAUSTIVE yields one coloring per partition of the vertices into
color classes (renaming colors never changes an optimum, so one
representative per partition suffices) and is exact.  RANDOMIZED draws
independent uniform colorings from a seeded stream and is optimal with
probability at least 1 - epsilon, always returning a feasible set.  Either
family is refused when it is made if it holds more than FAMILY_CAP (2^24)
colorings, unless a trial cap bounds the randomized draws.

The cluster reduction is exact in both modes within the DP's MAX_CELLS
budget: an answer holds at most ell clusters, so one DP run per k-subset of
the d clusters (colors 1..k, the rest excluded with color 0) finds it, at
C(d, k) x selections x 2^k table cells.  Over the budget EXHAUSTIVE refuses
and RANDOMIZED draws the randomized family of cluster colorings.

The subgraph reduction keeps the first coloring, in family order, that
reaches the heaviest weight.  Its answer holds at most ell vertices and at
most one vertex per clique inside a class, so the ell heaviest cliques of
any clique cover of the classes bound a coloring's optimum; a coloring
whose bound does not beat the incumbent could not replace it and is
skipped before any class query.  Once the incumbent reaches the ceiling (the
same bound on the whole vertex set) the walk stops, and the colorings never
made count as skipped.  The walk reads only the weights of class queries;
a class's witness is built only when its coloring becomes the incumbent.
A class query keeps the same tie rule over its inner runs: the first run in
family order that reaches a bound's weight holds that bound's witness, and
the query keeps that run's coloring, not the run.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator

from .dp import MAX_CELLS, MAX_COLORS, ColorfulDP
from .graph import (
    SizeCapError,
    Solution,
    ValidationError,
    WeightedInstance,
    induced_subgraph,
    is_c_colorable,
)
from .treedecomp import clique_tree_from_peo

FAMILY_CAP = 1 << 24  # cap on a family's colorings, enumerated or drawn
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
    """ceil(base * ln(1/epsilon)) draws, at most spec.trial_cap of them;
    more than FAMILY_CAP draws are refused unless a trial cap is given."""
    try:
        need = math.ceil(base * math.log(1.0 / spec.epsilon))
    except OverflowError:  # the product is past the float range
        need = math.inf
    if spec.trial_cap is not None:
        return min(need, spec.trial_cap)
    if need > FAMILY_CAP:
        raise SizeCapError(
            f"drawing {need:.3g} colorings exceeds the cap of {FAMILY_CAP}; "
            "supply a trial cap"
        )
    return need


def _partition_count(m: int, k: int, cap: int) -> int:
    """Partitions of m items into at most k blocks: the sum of the Stirling
    numbers S(m, j) for j <= k.  The count never falls as m grows, so once
    the count of the first i items passes cap, that count is returned."""
    row = [1] + [0] * k  # row[j] = S(i, j), from i = 0
    for _ in range(m):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
        if sum(row) > cap:
            break
    return sum(row)


def _colorings(
    m: int, k: int, base: float, spec: ColoringFamilySpec
) -> tuple[int, Iterator[tuple[int, ...]]]:
    """The family of colorings of m items with colors 1..k: its size and a
    lazy iterator over it.

    EXHAUSTIVE: one coloring per partition of the items into at most k
    blocks, refused here, before any coloring is made, when there are more
    than FAMILY_CAP of them.  RANDOMIZED: _randomized_trials(base, spec)
    uniform draws from random.Random(spec.seed), each drawn when it is
    pulled.
    """
    if spec.mode == Mode.EXHAUSTIVE:
        size = _partition_count(m, k, FAMILY_CAP)
        if size > FAMILY_CAP:
            raise SizeCapError(
                f"enumerating the partitions of {m} items into at most {k} "
                f"blocks exceeds the exhaustive cap of {FAMILY_CAP} colorings; "
                "use randomized mode"
            )
        return size, _partition_colorings(m, k)
    trials = _randomized_trials(base, spec)
    rng = random.Random(spec.seed)
    return trials, (tuple(rng.randint(1, k) for _ in range(m)) for _ in range(trials))


def _subset_colorings(d: int, k: int) -> Iterator[tuple[int, ...]]:
    """Per k-subset of range(d), in combinations order, the coloring that
    gives the chosen items colors 1..k and every other item color 0."""
    for chosen in itertools.combinations(range(d), k):
        f = [0] * d
        for col, i in enumerate(chosen, 1):
            f[i] = col
        yield tuple(f)


class ClusterChordalEngine:
    """Bounded MWIS on one cluster+chordal instance, for many colorings.

    Builds the chordal side's clique tree once; every cluster coloring then
    reuses the same DP structure.
    """

    def __init__(self, inst: WeightedInstance):
        self.inst = inst
        self.clusters, self.chordal_g, peo = inst.parts
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
    ) -> tuple[list[int], Callable[[int], Solution]]:
        """Bounded MWIS of the full graph for every bound b = 0..ell, as
        (weights, witness): weights[b] is the weight of an optimal
        independent set of at most b vertices and witness(b) builds one
        (exact unless RANDOMIZED mode draws its family because the exact
        one exceeds MAX_CELLS).

        Runs are compared on their root tables.  At each bound the first
        run in family order that reaches the heaviest weight wins, with its
        run's first maximum; only its coloring is kept.  witness(b) builds
        from the query's last run when that run won, else from one rerun of
        the winning coloring, so a query holds one run at a time.
        """
        if ell < 0:
            raise ValueError("ell must be non-negative")
        n = self.inst.graph.n
        empty = Solution(frozenset(), 0, None)
        if ell == 0 or n == 0:
            return [0] * (ell + 1), lambda b: empty
        d = len(self.clusters)
        # an answer holds at most ell clusters, one vertex each, so some
        # k-subset of the clusters holds all of them once k >= min(d, ell);
        # with k = d the cluster ids are the colors and one run is exact
        size = d if d <= IDENTITY_COLOR_CAP or d <= ell else ell
        cells = math.comb(d, size) * self.dp.num_sels << size
        if cells <= MAX_CELLS:
            family = _subset_colorings(d, size)
        elif spec.mode == Mode.EXHAUSTIVE:
            raise SizeCapError(
                f"exact inner query needs {cells} table cells (C({d}, {size}) "
                f"cluster subsets x {self.dp.num_sels} selections x 2^{size} "
                f"color sets); cap is {MAX_CELLS}; use randomized mode"
            )
        elif self.dp.num_sels << ell > MAX_CELLS:
            # priced before the family's base e^ell, which may pass the
            # float range
            raise SizeCapError(
                f"randomized inner query needs {self.dp.num_sels} selections x "
                f"2^{ell} color sets per run; cap is {MAX_CELLS} table cells"
            )
        else:
            _, family = _colorings(d, ell, math.e**ell, spec)
        weights = [0] * (ell + 1)
        # per bound: (coloring, C, sel) of the first run in family order that
        # reaches the bound's weight, or None for the empty set
        held: list = [None] * (ell + 1)
        trials = 0
        for f in family:
            k = max(f)
            run = self._run(f, k)
            keys = run.color_count_keys(min(ell, k))
            for b in range(ell + 1):
                value, C, sel = keys[min(b, len(keys) - 1)]
                if value > weights[b]:
                    weights[b], held[b] = value, (f, C, sel)
            trials += 1
        if stats is not None:
            stats["trials"] = stats.get("trials", 0) + trials
        last = (f, run)  # the one run the query holds; no family is empty

        def witness(b: int) -> Solution:
            nonlocal last
            if held[b] is None:
                return empty
            g, C, sel = held[b]
            if g != last[0]:
                last = (g, self._run(g, max(g)))  # deterministic: same tables
            sol = last[1]._solution_at(C, sel)
            sol = Solution(sol.vertices, sol.weight, None)
            sol.validate(self.inst)  # independence in the full graph
            if len(sol.vertices) > b:
                raise ValidationError("bounded MWIS witness exceeds its bound")
            return sol

        return weights, witness


def mwis_cluster_chordal(
    inst: WeightedInstance,
    ell: int,
    spec: ColoringFamilySpec,
    stats: dict | None = None,
) -> Solution:
    """Max-weight independent set with at most ell vertices of a
    cluster+chordal graph, split as `WeightedInstance.parts` splits it:
    along its witness, or into singleton clusters when it has none and is
    chordal."""
    _, witness = ClusterChordalEngine(inst).bounded_vector(ell, spec, stats)
    return witness(ell)


class ClusterChordalSolver:
    """The subgraph reduction's class solver: solve_vector answers every
    bound of a color class with one engine sweep.

    Inner queries follow `ClusterChordalEngine.bounded_vector`: exact within
    MAX_CELLS, where the k-subset family costs C(d, k) x selections x 2^k
    cells; over it a randomized run draws the randomized family with the
    caller's epsilon and an exhaustive run is refused.
    """

    def __init__(self, spec: ColoringFamilySpec):
        self.spec = spec

    def solve_vector(
        self, sub: WeightedInstance, max_bound: int
    ) -> tuple[list[int], Callable[[int], Solution]]:
        return ClusterChordalEngine(sub).bounded_vector(max_bound, self.spec)


def _assemble(
    bounds: tuple[int, ...], witnesses: list[Callable[[int], Solution]]
) -> Solution:
    verts: set[int] = set()
    assignment: dict[int, int] = {}
    weight = 0
    for i, b in enumerate(bounds):
        sol = witnesses[i](b)
        verts |= sol.vertices
        weight += sol.weight
        for v in sol.vertices:
            assignment[v] = i + 1
    return Solution(frozenset(verts), weight, assignment)


def _class_vector_fn(inst, ell, solver):
    """Per-class bound vectors in the parent instance's vertex ids.

    class_vector(block) makes one call solver(sub, bmax) on the class's
    induced sub-instance, with bmax = min(ell, |block|), and returns
    (witness, weights): weights[b] for b = 0..ell is the class's bounded
    MWIS weight at bound b, and witness(b) builds, lifts and validates its
    witness.  A query keeps nothing across colorings: a class recurs in
    the pruned walk too seldom to pay for a cache, and an exhaustive walk
    with c = 2 never repeats one (a block B occurs only in the partition
    {B, V - B}).
    """

    def class_vector(block: frozenset[int]):
        sub, mapping = inst.induce(block)
        bmax = min(ell, len(block))
        weights, witness = solver(sub, bmax)
        weights = tuple(weights) + (weights[-1],) * (ell - bmax)

        def lifted(b: int) -> Solution:
            b = min(b, len(block))  # past the class size the vector is flat
            sol = witness(b)
            verts = frozenset(mapping[v] for v in sol.vertices)
            sol = Solution(verts, sol.weight, None)
            sol.validate(inst)
            if len(verts) > b:
                raise ValidationError("bounded solver exceeded its size bound")
            if sol.weight != weights[b]:
                raise ValidationError("class witness disagrees with its weight")
            return sol

        return lifted, weights

    return class_vector


@lru_cache(maxsize=None)
def _size_partitions(ell: int, j: int) -> tuple[tuple[int, ...], ...]:
    return tuple(enumerate_size_partitions(ell, j))


def _cover_bound(part, cap, ell, weights, order, mask) -> int:
    """Upper bound on the weight of at most ell vertices that hold at most
    cap vertices of any clique inside one part (part[v] is v's part).

    A greedy clique cover of each part: vertices, heaviest first (order),
    join the first clique of their part that they are adjacent to all of
    (mask[v] is v's neighbor bitmask), else open one.  The ell heaviest of
    the cliques' cap heaviest members bound the weight; as vertices come
    heaviest first, the walk stops at the ell-th of them.
    """
    cliques: dict[int, list[list[int]]] = {}
    total = taken = 0
    for v in order:
        own = cliques.setdefault(part[v], [])
        for q in own:
            if not q[0] & ~mask[v]:
                q[0] |= 1 << v
                break
        else:
            q = [1 << v, 0]
            own.append(q)
        if q[1] < cap:
            q[1] += 1
            total += weights[v]
            taken += 1
            if taken == ell:
                break
    return total


def _greedy_floor(inst: WeightedInstance, c: int, ell: int) -> int:
    """Weight of a feasible answer: vertices, heaviest first, join while the
    set stays c-colorable and holds at most ell vertices."""
    chosen: list[int] = []
    for v in sorted(range(inst.graph.n), key=lambda v: -inst.weights[v]):
        if len(chosen) == ell:
            break
        if is_c_colorable(induced_subgraph(inst.graph, chosen + [v])[0], c) is not None:
            chosen.append(v)
    return sum(inst.weights[v] for v in chosen)


def _best_over_colorings(
    size, colorings, c, ell, class_vector, weights, mask, floor=0
) -> tuple[Solution, int]:
    """Optimum over a family of size vertex colorings, and the number of
    colorings skipped by the weight bound or the ceiling.

    The first coloring in order that reaches the heaviest weight wins, with
    its first heaviest size split.  The bound is a greedy clique cover of
    each class in the graph whose neighbor bitmasks are mask.  A coloring
    whose bound is below floor is skipped too, which keeps the answer only
    if the answer reaches floor.  Once the incumbent reaches the ceiling no
    further coloring is pulled; the rest count as skipped.  Only the new
    incumbent's class witnesses are built.
    """
    best = Solution(frozenset(), 0, {})
    walked = skipped = 0
    order = sorted(range(len(weights)), key=lambda v: -weights[v])
    # no bound exceeds this: a clique holds at most c vertices of the answer
    ceiling = _cover_bound([0] * len(weights), c, ell, weights, order, mask)
    if ceiling == 0:  # the empty incumbent is already at the ceiling
        colorings = ()
    for coloring in colorings:
        walked += 1
        bound = _cover_bound(coloring, 1, ell, weights, order, mask)
        if bound <= best.weight or bound < floor:
            skipped += 1
            continue
        classes: list[list[int]] = [[] for _ in range(c)]
        for v, col in enumerate(coloring):
            classes[col - 1].append(v)
        blocks = [frozenset(cls) for cls in classes if cls]
        pairs = [class_vector(b) for b in blocks]
        if sum(p[1][-1] for p in pairs) <= best.weight:
            continue  # not even every class at the full budget beats best
        best_total, best_bounds = best.weight, None
        for bounds in _size_partitions(ell, len(blocks)):
            total = sum(p[1][b] for p, b in zip(pairs, bounds))
            if total > best_total:
                best_total, best_bounds = total, bounds
        if best_bounds is not None:
            best = _assemble(best_bounds, [p[0] for p in pairs])
            if best.weight >= ceiling:
                break
    return best, skipped + size - walked


def _vertex_family(
    inst: WeightedInstance, c: int, ell: int, spec: ColoringFamilySpec
) -> tuple[int, Iterator[tuple[int, ...]]]:
    """The subgraph reduction's family, as _colorings gives it; empty when
    the budget is zero."""
    if c < 1:
        raise ValueError("c must be positive")
    if c > MAX_COLORS:
        raise ValueError(f"c must be at most {MAX_COLORS}")
    if ell < 0:
        raise ValueError("ell must be non-negative")
    n = inst.graph.n
    if ell == 0 or n == 0:
        return 0, iter(())
    # an answer holds at most n vertices
    return _colorings(n, c, c ** min(ell, n), spec)


def mwccs_from_mwis(
    inst: WeightedInstance,
    c: int,
    ell: int,
    class_solver: Callable[
        [WeightedInstance, int], tuple[list[int], Callable[[int], Solution]]
    ],
    spec: ColoringFamilySpec,
    stats: dict | None = None,
) -> Solution:
    """Max-weight induced c-colorable subgraph with at most ell vertices,
    via bounded MWIS on the classes of vertex colorings.

    class_solver(sub, max_bound) answers one color class, an induced
    sub-instance, for every bound at once: it returns (weights, witness),
    where weights[b] for b = 0..max_bound is the weight of a heaviest
    independent set of at most b vertices and witness(b) builds one.  It
    must be exact on induced sub-instances (the class is hereditary); it is
    called once per class a coloring queries.  EXHAUSTIVE mode walks the
    colorings of the vertex set into at most c classes, one per set
    partition, and is exact; RANDOMIZED mode draws ceil(c^min(ell, n) *
    ln(1/epsilon)) uniform colorings.  Either is refused past FAMILY_CAP
    colorings unless spec.trial_cap bounds the draws.  The walk stops once
    the incumbent reaches the ceiling, so later colorings are never made or
    drawn, and builds witnesses only for its incumbents' classes.  stats
    gains "trials" (the family's size, walked or not) and "skipped"
    (colorings ruled out by the weight bound or never walked).
    """
    size, family = _vertex_family(inst, c, ell, spec)
    class_vector = _class_vector_fn(inst, ell, class_solver)
    # an exhaustive walk is exact, so its answer reaches any feasible weight;
    # a randomized family may fall short of it, and gets no floor
    floor = _greedy_floor(inst, c, ell) if spec.mode == Mode.EXHAUSTIVE else 0
    best, skipped = _best_over_colorings(
        size, family, c, ell, class_vector, inst.weights, inst.graph.mask, floor
    )
    if stats is not None:
        stats["trials"] = stats.get("trials", 0) + size
        stats["skipped"] = stats.get("skipped", 0) + skipped
    best.validate(inst, c)
    if len(best.vertices) > ell:
        raise ValidationError("solution exceeds the vertex budget")
    return best


def mwccs_cluster_chordal(
    inst: WeightedInstance,
    c: int,
    ell: int,
    spec: ColoringFamilySpec,
    stats: dict | None = None,
) -> Solution:
    """The full pipeline: max-weight c-colorable subgraph with at most ell
    vertices of a cluster+chordal graph, split as `WeightedInstance.parts`
    splits it; an instance it cannot split is refused before the walk."""
    inst.parts  # raises ValueError on an unwitnessed non-chordal graph
    return mwccs_from_mwis(
        inst, c, ell, ClusterChordalSolver(spec).solve_vector, spec, stats
    )
