"""The benchmark's workloads: seeded inputs, the timed call, and the
correctness reference for each operation.

One op is one solve call on one instance.  Every workload repeats a fixed
schedule of operation shapes ("a round"); the seed only changes the random
graphs, weights and colorings drawn for each shape.  Keeping the shapes
fixed keeps the mix of cheap and expensive ops the same on every seed, so
the latency percentiles and throughput of two seeds are comparable.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

# the timed calls go through module attributes, so that the traced run's
# wrappers (installed on the package's modules) see them
from mwccs import cli, colorcoding, dp, recognition, treedecomp
from mwccs import (
    ColoringFamilySpec,
    Graph,
    Mode,
    Solution,
    ValidationError,
    WeightedInstance,
    clique_tree_from_peo,
    is_c_colorable,
    is_chordal,
    is_independent,
    induced_subgraph,
    normalize_binary,
    write_instance,
)
from mwccs.generators import random_chordal, random_cluster_chordal_instance
from mwccs.oracle import COLORFUL_CAP, brute_colorful_is, brute_mwccs

# brute_mwccs walks all 2^n subsets; past this size the bounded search
# below (exact too, and much faster for ell <= 5) is used instead
BRUTE_MWCCS_MAX_N = 14


EXACT, FLOOR, RANDOMIZED = "exact", "floor", "randomized"


class WrongAnswer(Exception):
    """An op returned a witness that fails the benchmark's own checks."""


@dataclass
class Case:
    """One op: its shape, the call to time, and how to check the answer."""

    shape: str
    solve: Callable[[], object]
    # turns the call's return value into (weight, outer colorings); raises
    # WrongAnswer on an invalid witness.  Runs outside the timed region.
    collect: Callable[[object], tuple[int, int]]
    # the reference weight; runs only after the timed phase
    reference: Callable[[], int]
    # how the weight must compare with the reference: EXACT, equal to it;
    # FLOOR, at least it (a heavier validated witness is never wrong);
    # RANDOMIZED, an exact optimum that a 1 - epsilon solver may fall short
    # of, which only lowers optimum_rate
    kind: str
    _ref: int | None = field(default=None, repr=False)

    def reference_weight(self) -> int:
        if self._ref is None:
            self._ref = self.reference()
        return self._ref


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    limit_s: int  # per-op time limit (signal.alarm); a failure is entered at it
    shapes: tuple  # one round, in schedule order
    pool_rounds: int  # distinct rounds of inputs; later rounds reuse them
    make_round: Callable[["Workload", int, int, str], list[Case]]
    warm_colors: tuple[int, ...] = ()  # dp pair tables built during set-up
    # at least this many ops run, in whole rounds: p90 has at least ten
    # samples beyond it, and a run spans enough of the machine's speed drift
    min_ops: int = 120
    # False: sized so that no op fails, so any failed op makes the run
    # incorrect; True: the ops are meant to fail and are only counted
    failures_expected: bool = False

    def round_cases(self, seed: int, r: int, workdir: str) -> list[Case]:
        cases = self.make_round(self, seed, r, workdir)
        random.Random(f"order/{self.name}/{seed}/{r}").shuffle(cases)
        return cases


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


# ---------------------------------------------------------------- checks


def _check_witness(sol: Solution, inst: WeightedInstance, c: int, ell: int) -> None:
    try:
        sol.validate(inst, c)
    except ValidationError as exc:
        raise WrongAnswer(f"witness fails validation: {exc}") from exc
    if len(sol.vertices) > ell:
        raise WrongAnswer(f"witness has {len(sol.vertices)} > ell={ell} vertices")


def max_ccs_bounded(inst: WeightedInstance, c: int, ell: int) -> int:
    """Exact max weight of an induced c-colorable subgraph on at most ell
    vertices, by branch and bound over vertices in falling weight order.

    c-colorability is hereditary, so a non-colorable partial set prunes its
    whole subtree; the bound is the weight of the heaviest remaining
    vertices that still fit in the budget.
    """
    g, w = inst.graph, inst.weights
    order = sorted(range(g.n), key=lambda v: -w[v])
    ws = [w[v] for v in order]
    chosen: list[int] = []
    best = 0

    def colorable() -> bool:
        if len(chosen) <= c:
            return True
        sub, _ = induced_subgraph(g, chosen)
        return is_c_colorable(sub, c) is not None

    def rec(i: int, acc: int) -> None:
        nonlocal best
        best = max(best, acc)
        room = ell - len(chosen)
        if room == 0 or i == len(order) or acc + sum(ws[i : i + room]) <= best:
            return
        chosen.append(order[i])
        if colorable():
            rec(i + 1, acc + ws[i])
        chosen.pop()
        rec(i + 1, acc)

    rec(0, 0)
    return best


def _mwccs_reference(inst: WeightedInstance, c: int, ell: int) -> int:
    if inst.graph.n <= BRUTE_MWCCS_MAX_N:
        return brute_mwccs(inst, c, ell).weight
    return max_ccs_bounded(inst, c, ell)


def greedy_colorful_floor(inst: WeightedInstance) -> int:
    """Weight of a heaviest-first greedy colorful independent set: a floor
    for the exact optimum."""
    g, w, col = inst.graph, inst.weights, inst.colors
    taken = 0
    used: set[int] = set()
    total = 0
    for v in sorted(range(g.n), key=lambda v: (-w[v], v)):
        if g.mask[v] & taken or col[v] in used:
            continue
        taken |= 1 << v
        used.add(col[v])
        total += w[v]
    return total


def interval_mwis(intervals, weights) -> int:
    """Exact max-weight set of pairwise disjoint closed intervals
    (weighted interval scheduling)."""
    import bisect

    order = sorted(range(len(intervals)), key=lambda v: intervals[v][1])
    ends = [intervals[v][1] for v in order]
    best = [0] * (len(order) + 1)
    for i, v in enumerate(order):
        j = bisect.bisect_left(ends, intervals[v][0], 0, i)  # ends < start
        best[i + 1] = max(best[i], best[j] + weights[v])
    return best[-1]


# ---------------------------------------------------------------- pipelines

EXHAUSTIVE = ColoringFamilySpec(Mode.EXHAUSTIVE)


def _pipeline_case(inst, c, ell, spec, kind, shape) -> Case:
    def solve():
        stats: dict = {}
        sol = colorcoding.mwccs_cluster_chordal(inst, c, ell, spec, stats)
        return sol, stats.get("trials", 0)

    def collect(out):
        sol, trials = out
        _check_witness(sol, inst, c, ell)
        return sol.weight, trials

    return Case(shape, solve, collect, lambda: _mwccs_reference(inst, c, ell), kind)


def _exhaustive_round(wl: Workload, seed: int, r: int, workdir: str) -> list[Case]:
    cases = []
    for k, (n, c, ell) in enumerate(wl.shapes):
        inst = random_cluster_chordal_instance(
            n, 3, 3, 30, _rng(wl.name, seed, r, k).getrandbits(32)
        )
        cases.append(_pipeline_case(inst, c, ell, EXHAUSTIVE, EXACT, f"n={n} c={c} ell={ell}"))
    return cases


def _randomized_round(wl: Workload, seed: int, r: int, workdir: str) -> list[Case]:
    cases = []
    for k, (n, c, ell) in enumerate(wl.shapes):
        rng = _rng(wl.name, seed, r, k)
        inst = random_cluster_chordal_instance(n, 3, 3, 30, rng.getrandbits(32))
        spec = ColoringFamilySpec(Mode.RANDOMIZED, epsilon=0.01, seed=rng.getrandbits(32))
        cases.append(_pipeline_case(inst, c, ell, spec, RANDOMIZED, f"n={n} c={c} ell={ell}"))
    return cases


# ---------------------------------------------------------------- colorful DP


def _one_join_graph(n: int, rng: random.Random) -> Graph:
    """random_chordal(n, 5, .) drawn until its binary clique tree has exactly
    one join bag, of two vertices.

    The c > 12 join runs in pure Python and costs ~3^c steps per colorful
    join selection, so its time swings by seconds with the number of join
    bags; fixing that number keeps every c=13 op the same size.
    """
    while True:
        g = random_chordal(n, 5, rng.getrandbits(32))
        td = normalize_binary(clique_tree_from_peo(g, is_chordal(g)))
        joins = [x for x, ch in enumerate(td.children) if len(ch) == 2]
        if len(joins) == 1 and len(td.bags[joins[0]]) == 2:
            return g


def _colorful_case(g: Graph, c: int, rng: random.Random, shape: str) -> Case:
    n = g.n
    inst = WeightedInstance(
        g,
        tuple(rng.randint(0, 30) for _ in range(n)),
        colors=tuple(rng.randint(1, c) for _ in range(n)),
    )

    def solve():
        peo = recognition.is_chordal(inst.graph)
        td = treedecomp.clique_tree_from_peo(inst.graph, peo)
        return dp.max_weight_colorful_is(inst, td, 1, c)

    def collect(sol):
        _check_witness(sol, inst, c, c)
        if not is_independent(g, sol.vertices):
            raise WrongAnswer("witness is not independent")
        if sol.color_assignment != {v: inst.colors[v] for v in sol.vertices}:
            raise WrongAnswer("witness colors differ from the instance's")
        if len(set(sol.color_assignment.values())) != len(sol.vertices):
            raise WrongAnswer("witness repeats a color")
        return sol.weight, 0

    if n <= COLORFUL_CAP:
        return Case(shape, solve, collect, lambda: brute_colorful_is(inst).weight, EXACT)
    return Case(shape, solve, collect, lambda: greedy_colorful_floor(inst), FLOOR)


def _colorful_round(wl: Workload, seed: int, r: int, workdir: str) -> list[Case]:
    cases = []
    for k, (n, cs) in enumerate(wl.shapes):
        rng = _rng(wl.name, seed, r, k)
        g = _one_join_graph(n, rng) if 13 in cs else random_chordal(n, 5, rng.getrandbits(32))
        for c in cs:
            cases.append(_colorful_case(g, c, rng, f"n={n} c={c}"))
    return cases


# ---------------------------------------------------------------- chordal MWIS


def random_interval_instance(n: int, span: float, rng: random.Random):
    """Interval graph of n closed intervals in [0, 1] with lengths in
    [span/2, span]; the clique number grows like n * span."""
    ivs = []
    for _ in range(n):
        a = rng.random() * (1.0 - span)
        ivs.append((a, a + span * rng.uniform(0.5, 1.0)))
    by_start = sorted(range(n), key=lambda v: ivs[v][0])
    edges = []
    for i, u in enumerate(by_start):
        for v in by_start[i + 1 :]:
            if ivs[v][0] > ivs[u][1]:
                break
            edges.append((min(u, v), max(u, v)))
    weights = tuple(rng.randint(1, 100) for _ in range(n))
    return WeightedInstance(Graph(n, edges), weights), ivs


def read_solution_file(path: str) -> tuple[int, frozenset[int]]:
    weight, verts = None, None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, rest = line.strip().partition(" ")
            if key == "weight":
                weight = int(rest)
            elif key == "vertices":
                verts = frozenset(int(t) - 1 for t in rest.split())
    if weight is None or verts is None:
        raise WrongAnswer(f"solution file {path} lacks weight or vertices")
    return weight, verts


def _dense_round(wl: Workload, seed: int, r: int, workdir: str) -> list[Case]:
    cases = []
    for k, (n, span) in enumerate(wl.shapes):
        inst, ivs = random_interval_instance(n, span, _rng(wl.name, seed, r, k))
        path = os.path.join(workdir, f"r{r}-{k}.iki")
        out = os.path.join(workdir, f"r{r}-{k}.sol")
        write_instance(inst, path)

        def solve(path=path, out=out):
            return cli.main(["solve", "mwis", path, "-o", out])

        def collect(rc, inst=inst, out=out, n=n):
            if rc != 0:
                raise WrongAnswer(f"cli exited {rc}")
            weight, verts = read_solution_file(out)
            os.remove(out)
            sol = Solution(verts, weight, None)
            _check_witness(sol, inst, 1, n)
            return weight, 0

        def reference(inst=inst, ivs=ivs):
            return interval_mwis(ivs, inst.weights)

        cases.append(Case(f"n={n} span={span}", solve, collect, reference, EXACT))
    return cases


# ---------------------------------------------------------------- registry

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "pipeline-exhaustive",
            "the subgraph reduction's set-partition walk, size-partition "
            "combine and one engine build per class block, on tiny graphs",
            limit_s=30,
            shapes=(
                # (n, c, ell) with criterion-3 parameters.  The shapes form
                # cost tiers sized so that the median and p90 ranks of a run
                # fall inside a tier of like-cost shapes, not on a step
                # between tiers: 10 near-free, 5 at n=7 (median), 6 at
                # n=8..9, 3 at n=10 (p90), 1 at n=11
                (4, 1, 3), (6, 1, 5), (8, 1, 2), (9, 1, 1), (10, 1, 4),
                (12, 1, 5), (7, 2, 0), (12, 3, 0), (4, 2, 3), (4, 3, 5),
                (7, 2, 4), (7, 3, 3), (7, 2, 2), (7, 3, 5), (7, 2, 1),
                (8, 2, 1), (8, 3, 5), (8, 2, 4), (9, 2, 3), (9, 3, 4), (9, 2, 5),
                (10, 2, 5), (10, 3, 2), (10, 2, 3),
                (11, 2, 4),
            ),
            pool_rounds=5,
            make_round=_exhaustive_round,
            warm_colors=tuple(range(1, 13)),
            min_ops=125,
        ),
        Workload(
            "pipeline-randomized",
            "the randomized outer loop, class-vector cache misses and the "
            "cluster reduction's choice of inner family",
            limit_s=30,
            shapes=(
                # (n, c, ell) in tiers, as for pipeline-exhaustive: 7 at
                # c=2 ell=3, 6 at c=2 ell=4 (median), 4 at c=3 ell=3, 3 at
                # c=3 ell=4 (p90)
                (14, 2, 3), (16, 2, 3), (18, 2, 3), (20, 2, 3), (22, 2, 3),
                (24, 2, 3), (26, 2, 3),
                (14, 2, 4), (15, 2, 4), (16, 2, 4), (17, 2, 4), (18, 2, 4),
                (19, 2, 4),
                (14, 3, 3), (18, 3, 3), (22, 3, 3), (26, 3, 3),
                (14, 3, 4), (14, 3, 4), (14, 3, 4),
            ),
            pool_rounds=6,
            make_round=_randomized_round,
            warm_colors=tuple(range(1, 13)),
        ),
        Workload(
            "colorful-dp",
            "join bags' 3^c subset pairs and single-child grouping of the "
            "colorful DP; color coding is bypassed",
            limit_s=30,
            shapes=(
                # (n, color counts solved on one graph) in tiers, as for
                # pipeline-exhaustive: 12 at n=200 c=8, 6 at n=400 c=8
                # (median), 8 mixed, 2 at n=2000 c=8 (p90), then c=12, c=13
                (200, (8, 8, 8, 8, 9)),
                (200, (8, 8, 8, 8, 9)),
                (200, (8, 8, 8, 8, 10)),
                (400, (8, 8, 8, 8, 8, 8, 9, 10)),
                (600, (9,)),
                (1000, (8, 9)),
                (2000, (8, 8)),
                (100, (12,)),
                (14, (13,)),
            ),
            pool_rounds=5,
            make_round=_colorful_round,
            warm_colors=(8, 9, 10, 11, 12),
            min_ops=150,
        ),
        Workload(
            "chordal-dense",
            "CLI parse, MCS, PEO checks and clique tree on a few large dense "
            "chordal graphs; no colorful DP or color coding",
            limit_s=30,
            shapes=(
                # (n, interval span): max clique about 50 to 150
                (150, 0.3), (200, 0.25), (250, 0.25), (300, 0.2),
                (300, 0.3), (400, 0.15), (160, 0.6), (200, 0.7),
            ),
            pool_rounds=5,
            make_round=_dense_round,
        ),
        Workload(
            "randomized-cliff",
            "randomized pipeline past the inner-cap cliff: a color class "
            "with more than 12 clusters stalls the inner enumeration",
            limit_s=5,
            shapes=((30, 2, 3), (36, 2, 3), (40, 2, 3), (40, 3, 3)),
            pool_rounds=2,
            make_round=_randomized_round,
            warm_colors=tuple(range(1, 13)),
            min_ops=1,
            failures_expected=True,
        ),
    )
}
