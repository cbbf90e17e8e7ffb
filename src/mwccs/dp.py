"""Bottom-up dynamic programs over tree decompositions.

The colorful program computes, for every bag X, color subset C and
selection S of at most alpha independent bag vertices, the heaviest
independent set of the subtree graph that meets X exactly in S and uses
pairwise distinct colors from C.  Leaves score w(S); a single child is
combined through selections grouped by their intersection with the parent
bag (this grouping is what keeps the per-bag cost near n^alpha instead of
n^(2*alpha)); a join bag with two equal children splits the free colors
disjointly between the subtrees.  Both children are infeasible on any color
set missing colors(S), so a join enumerates only the 3^(c-|colors(S)|)
splits of the colors outside colors(S), batched over the selections of a
bag; past 12 free colors the splits of the remaining colors run as an outer
loop over the 3^12 pair table.

A solve computes maxima only.  The run keeps every bag's table, and
reconstruction finds the argmax of each bag on the witness path alone: the
first maximal member of a single-child group, the smallest maximal sub mask
of a join.  Those tables are exactly the cells MAX_CELLS counts, and the
joins' 3^(c-|colors(S)|) pairs are summed against MAX_JOIN_PAIRS; both caps
refuse a solve before any table is made.

Weights use int64 arrays with a large negative sentinel for infeasible
entries; instance construction bounds total weight so sums never wrap.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .graph import (
    SizeCapError,
    Solution,
    ValidationError,
    WeightedInstance,
    independence_bounded,
    is_independent,
)
from .recognition import verify_peo
from .treedecomp import TreeDecomposition, normalize_binary, verify_tree_decomposition

NEG = -(2**61)
FEAS_MIN = -(2**60)
MAX_COLORS = 30
# table entries of one solve, summed over every bag's selections; a run holds
# them all, so this also bounds its memory (1 GiB of int64 at the cap)
MAX_CELLS = 1 << 27
MAX_JOIN_PAIRS = 1 << 30  # (color set, sub mask) pairs split by one solve's joins
_PAIR_TABLE_MAX_C = 12  # join pair arrays up to 3^12 rows; more free colors loop outside
_JOIN_BLOCK = 1 << 20  # pair cells per batch of join rows, which bounds the temporaries


@lru_cache(maxsize=None)
def _pair_table(c: int):
    """All (C, C_sub) pairs with C_sub subset of C, flat and grouped by C.

    Exactly 3^c rows; within a C segment submasks ascend.
    """
    full = sub = np.zeros(1, dtype=np.int64)
    for i in range(c):  # each color is outside C, in C only, or in both
        full = np.concatenate((full, full | 1 << i, full | 1 << i))
        sub = np.concatenate((sub, sub, sub | 1 << i))
    order = np.argsort(full << c | sub)
    full, sub = full[order], sub[order]
    assert full.size == 3**c
    counts = np.bincount(full, minlength=1 << c)
    return full, sub, full & ~sub, np.cumsum(counts) - counts, counts


@lru_cache(maxsize=None)
def _popcounts(c: int) -> np.ndarray:
    return np.array([x.bit_count() for x in range(1 << c)], dtype=np.int64)


@lru_cache(maxsize=None)
def _supersets(c: int, m: int) -> np.ndarray:
    """The supersets of color mask m among c colors, ascending: entry x
    spreads the bits of x over the colors outside m, lowest first.

    Checked once per (c, m): mapped through this array, every pair of the
    free colors' pair table splits its set C into two parts that share
    exactly m, and the free index keeps the submask order of the real masks.
    """
    sup = np.array([m], dtype=np.int64)
    for j in range(c):
        if not m >> j & 1:
            sup = np.concatenate([sup, sup | (1 << j)])
    low = min(sup.size.bit_length() - 1, _PAIR_TABLE_MAX_C)
    full_f, sub_f, other_f, _, _ = _pair_table(low)
    sub, other = sup[sub_f], sup[other_f]
    assert np.all((sub | other) == sup[full_f]) and np.all((sub & other) == m)
    width = 1 << low
    assert np.all(sup.reshape(-1, width) == (sup[::width, None] | sup[None, :width]))
    assert np.all(np.diff(sup) > 0)
    sup.flags.writeable = False  # one cached array serves every caller
    return sup


def _high_splits(h: int):
    """(sub part, other part) for every disjoint split of h colors."""
    full = (1 << h) - 1
    for hs in range(1 << h):
        rest = full & ~hs
        ho = rest
        while True:
            yield hs, ho
            if ho == 0:
                break
            ho = (ho - 1) & rest


def _join_rows(a_rows, b_rows, masks, ws, c: int):
    """Join tables for selections whose color masks have one popcount.

    a_rows and b_rows hold the children's rows (one per selection), masks
    the selections' color masks and ws their weights.  Each row is gathered
    onto its free colors and split over their pair table.
    """
    free = c - masks[0].bit_count()
    low = min(free, _PAIR_TABLE_MAX_C)
    full_f, sub_f, other_f, starts, _ = _pair_table(low)
    sups = [_supersets(c, m) for m in masks]
    af = np.array([row[sup] for row, sup in zip(a_rows, sups)])
    bf = np.array([row[sup] for row, sup in zip(b_rows, sups)])
    # both children are infeasible wherever C misses a selected color, so
    # the pairs never enumerated can never win
    assert np.count_nonzero(np.array(a_rows + b_rows) > FEAS_MIN) == (
        np.count_nonzero(af > FEAS_MIN) + np.count_nonzero(bf > FEAS_MIN)
    )
    width = 1 << low
    best = np.full_like(af, NEG)
    for hs, ho in _high_splits(free - low):
        vals = np.take(af[:, hs * width : (hs + 1) * width], sub_f, axis=1)
        vals += np.take(bf[:, ho * width : (ho + 1) * width], other_f, axis=1)
        blk = best[:, (hs | ho) * width : ((hs | ho) + 1) * width]
        np.maximum(blk, np.maximum.reduceat(vals, starts, axis=1), out=blk)
    out = np.full((len(masks), 1 << c), NEG, dtype=np.int64)
    for r, sup in enumerate(sups):
        out[r, sup] = best[r] - ws[r]
    return out


def _join_bag(avals, bvals, meta, c: int, neg: np.ndarray):
    """Tables of a join bag from its two children's tables; meta holds
    (color mask, colorful, weight) per selection, and every non-colorful
    selection gets the run's read-only NEG row neg."""
    arrs: list[np.ndarray] = [neg] * len(meta)
    by_count: dict[int, list[int]] = {}
    for i, (mask, colorful, _) in enumerate(meta):
        if colorful:
            by_count.setdefault(mask.bit_count(), []).append(i)
    for count, rows in by_count.items():
        step = max(1, _JOIN_BLOCK // 3 ** min(c - count, _PAIR_TABLE_MAX_C))
        for lo in range(0, len(rows), step):
            chunk = rows[lo : lo + step]
            out = _join_rows(
                [avals[i] for i in chunk],
                [bvals[i] for i in chunk],
                [meta[i][0] for i in chunk],
                [meta[i][2] for i in chunk],
                c,
            )
            for r, i in enumerate(chunk):
                arrs[i] = out[r]
    return arrs


class ColorfulDP:
    """Reusable DP engine: the tree/selection structure is precomputed once,
    after which solve() may be called with many different colorings."""

    def __init__(self, inst: WeightedInstance, td: TreeDecomposition, alpha: int):
        if alpha < 1:
            raise ValueError("alpha must be positive")
        g = inst.graph
        if not td.is_binary_form():
            td = normalize_binary(td)
        for bag in td.bags:
            if not independence_bounded(g, bag, alpha):
                raise ValueError(
                    f"a bag has more than alpha={alpha} pairwise nonadjacent vertices"
                )
        self.inst = inst
        self.td = td
        self.alpha = alpha
        self.order = td.postorder()

        self.sels: list[list[frozenset[int]]] = []
        for bag in td.bags:
            verts = sorted(bag)
            # a single vertex is independent, since graphs have no self-loops
            lst = [frozenset()] + [frozenset((v,)) for v in verts]
            for size in range(2, alpha + 1):
                for comb in itertools.combinations(verts, size):
                    if is_independent(g, comb):
                        lst.append(frozenset(comb))
            self.sels.append(lst)
        self.num_sels = sum(len(lst) for lst in self.sels)

        # per single-child bag: child selections grouped by intersection with
        # the parent bag, and per parent selection its group key + moved part
        self.single_link: dict[int, dict] = {}
        self.join_children: dict[int, tuple[int, int]] = {}
        for x in range(len(td)):
            ch = td.children[x]
            if len(ch) == 1:
                y = ch[0]
                groups: dict[frozenset[int], list[int]] = {}
                for j, sprime in enumerate(self.sels[y]):
                    groups.setdefault(sprime & td.bags[x], []).append(j)
                link = []
                for s in self.sels[x]:
                    sstar = s & td.bags[y]
                    moved = tuple(sorted(s - sstar))
                    link.append((sstar, moved))
                self.single_link[x] = {"groups": groups, "link": link}
            elif len(ch) == 2:
                assert td.bags[ch[0]] == td.bags[x] == td.bags[ch[1]]
                self.join_children[x] = (ch[0], ch[1])

    def solve(self, colors, c: int) -> "ColorfulRun":
        """Run the DP under the given vertex coloring with colors 1..c; a
        vertex of color 0 is excluded (its mask bit is 0, so no selection
        holding it is colorful)."""
        if c < 0 or c > MAX_COLORS:
            raise ValueError(f"color count must be in 0..{MAX_COLORS}")
        g = self.inst.graph
        w = self.inst.weights
        if len(colors) != g.n:
            raise ValueError("coloring length must equal vertex count")
        if any(not 0 <= col <= c for col in colors):
            raise ValueError("vertex colors must lie in 0..c")
        nc = 1 << c
        if self.num_sels * nc > MAX_CELLS:
            raise SizeCapError(
                f"colorful DP needs {self.num_sels * nc} table cells "
                f"({self.num_sels} selections x 2^{c} color sets); cap is {MAX_CELLS}"
            )
        cmask = [(1 << col) >> 1 for col in colors]
        call = np.arange(nc, dtype=np.int64)
        neg = np.full(nc, NEG, dtype=np.int64)  # every non-colorful row
        neg.flags.writeable = False
        holding: dict[int, np.ndarray] = {}  # color mask -> C holds it

        def holds(mask: int) -> np.ndarray:
            hit = holding.get(mask)
            if hit is None:
                hit = holding[mask] = (call & mask) == mask
            return hit

        td = self.td
        values: list[list[np.ndarray]] = [[] for _ in td.bags]

        def sel_colmask(s: frozenset[int]) -> int:
            mask = 0
            for v in s:
                mask |= cmask[v]
            return mask

        sel_meta: list[list[tuple[int, bool, int]]] = []  # (colmask, colorful, weight)
        for x in range(len(td)):
            meta = []
            for s in self.sels[x]:
                mask = sel_colmask(s)
                meta.append((mask, mask.bit_count() == len(s), sum(w[v] for v in s)))
            sel_meta.append(meta)
        pairs = sum(
            3 ** (c - mask.bit_count())
            for x in self.join_children
            for mask, colorful, _ in sel_meta[x]
            if colorful
        )
        if pairs > MAX_JOIN_PAIRS:
            raise SizeCapError(
                f"colorful DP joins need {pairs} subset pairs "
                f"(3^(free colors) per colorful join row); cap is {MAX_JOIN_PAIRS}"
            )

        for x in self.order:
            kids = td.children[x]
            arrs: list[np.ndarray] = []
            if not kids:
                for mask, colorful, ws in sel_meta[x]:
                    arrs.append(np.where(holds(mask), ws, NEG) if colorful else neg)
            elif len(kids) == 1:
                y = kids[0]
                info = self.single_link[x]
                child_vals = values[y]
                gmax = {
                    key: child_vals[members[0]] if len(members) == 1
                    else np.maximum.reduce([child_vals[j] for j in members])
                    for key, members in info["groups"].items()
                }
                for i, s in enumerate(self.sels[x]):
                    mask, colorful, ws = sel_meta[x][i]
                    if not colorful:
                        arrs.append(neg)
                        continue
                    sstar, moved = info["link"][i]
                    if not moved:
                        # every row is exactly NEG wherever C misses its
                        # selection's colors, and each member of group sstar
                        # holds the colors of sstar = s: no np.where needed
                        arrs.append(gmax[sstar])
                        continue
                    dmask = 0
                    extra = 0
                    for v in moved:
                        dmask |= cmask[v]
                        extra += w[v]
                    base = gmax[sstar][call & ~dmask] + extra
                    arrs.append(np.where(holds(mask), base, NEG))
            else:
                y, z = self.join_children[x]
                arrs = _join_bag(values[y], values[z], sel_meta[x], c, neg)
            values[x] = arrs

        return ColorfulRun(self, colors, c, tuple(cmask), values)


class ColorfulRun:
    """Finished DP run: every bag's table, from which reconstruction finds
    the argmax of each bag on the witness path."""

    def __init__(self, engine, colors, c, cmask, values):
        self.engine = engine
        self.colors = colors
        self.c = c
        self.cmask = cmask
        self.values = values
        self.root_vals = values[engine.td.root]

    def _reconstruct(self, start_c: int, start_sel: int) -> frozenset[int]:
        eng = self.engine
        td = eng.td
        chosen: set[int] = set()
        stack = [(td.root, start_c, start_sel)]
        while stack:
            x, C, i = stack.pop()
            s = eng.sels[x][i]
            chosen.update(s)
            kids = td.children[x]
            if not kids:
                continue
            if len(kids) == 1:
                y = kids[0]
                sstar, moved = eng.single_link[x]["link"][i]
                dmask = 0
                for v in moved:
                    dmask |= self.cmask[v]
                cprime = C & ~dmask
                child = self.values[y]
                members = eng.single_link[x]["groups"][sstar]
                # max keeps the first member with the maximum
                j = max(members, key=lambda k: child[k][cprime])
                stack.append((y, cprime, j))
            else:
                y, z = eng.join_children[x]
                smask = 0
                for v in s:
                    smask |= self.cmask[v]
                # the smallest sub mask with smask <= sub <= C and the
                # maximum: the candidates ascend and argmax keeps the first
                sup = _supersets(self.c, smask)
                subs = sup[(sup & ~C) == 0]
                split = self.values[y][i][subs] + self.values[z][i][(C & ~subs) | smask]
                sub = int(subs[np.argmax(split)])
                stack.append((y, sub, i))
                stack.append((z, (C & ~sub) | smask, i))
        return frozenset(chosen)

    def _solution_at(self, C: int, sel: int) -> Solution:
        verts = self._reconstruct(C, sel)
        sol = Solution(
            verts,
            self.engine.inst.weight_of(verts),
            {v: self.colors[v] for v in verts},
        )
        # witness re-validation happens on every call, not just in tests
        sol.validate(self.engine.inst, self.c)
        if len({self.colors[v] for v in verts}) != len(verts):
            raise ValidationError("witness has repeated colors")
        expected = int(self.root_vals[sel][C])
        if sol.weight != expected:
            raise ValidationError(
                f"witness weight {sol.weight} disagrees with table value {expected}"
            )
        return sol

    def best_full(self) -> Solution:
        """Optimum over all colorful independent sets (all c colors usable)."""
        full = (1 << self.c) - 1
        best_val = FEAS_MIN
        best_sel = 0
        for i, arr in enumerate(self.root_vals):
            v = int(arr[full])
            if v > best_val:
                best_val = v
                best_sel = i
        if best_val <= FEAS_MIN:
            # the empty selection is always feasible, so this cannot happen
            raise ValidationError("DP root has no feasible entry")
        return self._solution_at(full, best_sel)

    def color_count_keys(self, max_count: int) -> list[tuple[int, int, int]]:
        """Entry b: (value, C, sel) of the optimum among solutions using at
        most b distinct colors (hence at most b vertices), read from the root
        table alone; prefix-maximal, the first maximum in (sel, C) order.
        _solution_at(C, sel) builds its witness."""
        pops = _popcounts(self.c)
        table = np.stack(self.root_vals)
        out: list[tuple[int, int, int]] = []
        cur = (FEAS_MIN, 0, 0)
        for b in range(max_count + 1):
            if b <= self.c:
                positions = np.flatnonzero(pops == b)
                vals = table[:, positions]
                sel, j = divmod(int(np.argmax(vals)), positions.size)
                if int(vals[sel, j]) > cur[0]:
                    cur = (int(vals[sel, j]), int(positions[j]), sel)
            out.append(cur)
        return out

    def best_by_color_count(self, max_count: int) -> list[Solution]:
        """Entry b: the witness of color_count_keys' entry b; prefix-maximal,
        never None."""
        built: dict[tuple[int, int], Solution] = {}
        out: list[Solution] = []
        for _, C, sel in self.color_count_keys(max_count):
            if (C, sel) not in built:
                built[C, sel] = self._solution_at(C, sel)
            out.append(built[C, sel])
        return out


def _check_td(inst: WeightedInstance, td: TreeDecomposition) -> None:
    if not verify_tree_decomposition(inst.graph, td):
        raise ValueError("not a valid tree decomposition of the instance graph")


def max_weight_colorful_is(
    inst: WeightedInstance,
    td: TreeDecomposition,
    alpha: int,
    c: int | None = None,
) -> Solution:
    """Max-weight independent set with pairwise distinct colors.

    Requires per-vertex colors on the instance and a tree decomposition
    whose bags have independence number at most alpha.
    """
    if inst.colors is None:
        raise ValueError("instance has no vertex colors")
    if c is None:
        c = inst.num_colors
    if inst.graph.n and max(inst.colors) > c:
        raise ValueError("vertex color exceeds the declared color count")
    _check_td(inst, td)
    engine = ColorfulDP(inst, td, alpha)
    return engine.solve(inst.colors, c).best_full()


def max_weight_is_chordal(inst: WeightedInstance, peo) -> Solution:
    """Max-weight independent set of a chordal graph in O(n+m) from a perfect
    elimination ordering (A. Frank, 1976).

    A forward pass over the PEO marks each vertex whose residual weight is
    still positive and subtracts that residual from its later neighbours; a
    backward pass over the marked vertices keeps each one with no kept
    neighbour.  It is exact because the marks form a clique-cover dual: each
    mark charges its residual to the clique of its vertex and later
    neighbours, the charges on the cliques through any vertex cover its
    weight, and each charged clique holds exactly one kept vertex, so the
    dual's value equals the kept weight.  Both passes read each marked
    vertex's row from the view ``prefers_csr`` selects, so a dense graph
    from the bulk parse never builds its adjacency sets.
    """
    g = inst.graph
    if not verify_peo(g, peo):
        raise ValueError("ordering is not a perfect elimination ordering")
    if g.prefers_csr:
        indptr, indices = g.csr
        ptr = indptr.tolist()

        def row(v):
            return indices[ptr[v]:ptr[v + 1]].tolist()
    else:
        row = g.adj.__getitem__
    residual = list(inst.weights)
    marked: list[int] = []
    dual = 0
    for v in peo:
        r = residual[v]
        if r > 0:
            marked.append(v)
            dual += r
            # only the later neighbours' residuals are read again
            for u in row(v):
                residual[u] -= r
    kept: set[int] = set()
    for v in reversed(marked):
        if kept.isdisjoint(row(v)):
            kept.add(v)

    sol = Solution(frozenset(kept), inst.weight_of(kept), None)
    sol.validate(inst)
    if sol.weight != dual:
        raise ValidationError("chordal MWIS witness weight disagrees with its dual")
    return sol
