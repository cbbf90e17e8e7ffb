"""Bottom-up dynamic programs over tree decompositions.

The colorful program computes, for every bag X, color subset C and
selection S of at most alpha independent bag vertices, the heaviest
independent set of the subtree graph that meets X exactly in S and uses
pairwise distinct colors from C.  Leaves score w(S); a single child is
combined through selections grouped by their intersection with the parent
bag (this grouping is what keeps the per-bag cost near n^alpha instead of
n^(2*alpha)); a join bag with two equal children splits the free colors
(those outside colors(S)) disjointly between the subtrees.

A join splits only the free colors that both subtrees carry.  A child's
table is NEG wherever C misses colors(S), depends on C only through the
colors of S and of the vertices strictly below it, and is monotone in C.
So with P the free colors below both children, for C holding colors(S)

    best[C] = max over T subset of C & P of a[C & ~(P & ~T)] + b[C & ~T] - w(S):

every other free color of C goes to both sides, yet at most one side can
use it, so each term is the value of a disjoint split, and each disjoint
split is matched by the term of its T & P.  The tables are those of the
full 3^(free) enumeration.  With at most _WHOLE_ROW_MAX_P colors in P, the
2^|P| terms are read off whole rows; with more, each row is gathered onto
its free colors and split over the pair table of P, the other free colors
riding along as a broadcast axis, and past 12 colors in P the splits of the
rest run as an outer loop over the 3^12 pair table.

A solve computes maxima only.  The run keeps every bag's table, and
reconstruction finds the argmax of each bag on the witness path alone: the
first maximal member of a single-child group, the smallest maximal sub mask
of a join.  Those tables are exactly the cells MAX_CELLS counts, and the
elements the joins enumerate (2^|P| x 2^c per whole-row join row,
3^|P| x 2^(free-|P|) per paired one) are summed against MAX_JOIN_PAIRS; both
caps refuse a solve before any table is made.

Weights use int64 arrays with a large negative sentinel for infeasible
entries; instance construction bounds total weight so sums never wrap.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

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
MAX_JOIN_PAIRS = 1 << 30  # elements one solve's joins enumerate, as _join_elements counts
_PAIR_TABLE_MAX_C = 12  # join pair arrays up to 3^12 rows; more shared colors loop outside
# join rows with at most this many free colors below both children split
# whole rows.  Replaying the 5,594 joins of two colorful-dp rounds (seeds
# 1000-1001) six times, each bound first in turn, on one pinned vCPU of a
# 2-vCPU VM took 7.73 s with every row in the pair form and 5.75 / 3.87 /
# 3.39 / 3.41 / 3.71 s with this bound at 0 / 1 / 2 / 3 / 4
_WHOLE_ROW_MAX_P = 2
_JOIN_BLOCK = 1 << 20  # elements enumerated per batch of join rows, which bounds the temporaries


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


def _submasks(mask: int) -> np.ndarray:
    """Every submask of mask, ascending: entry x spreads the bits of x over
    the bits of mask, lowest first."""
    sub = np.zeros(1, dtype=np.int64)
    while mask:
        low = mask & -mask
        sub = np.concatenate((sub, sub | low))
        mask ^= low
    return sub


@lru_cache(maxsize=None)
def _supersets(c: int, m: int) -> np.ndarray:
    """The supersets of color mask m among c colors, ascending: entry x
    spreads the bits of x over the colors outside m, lowest first."""
    sup = m | _submasks((1 << c) - 1 & ~m)
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


def _join_elements(mask: int, shared: int, c: int) -> int:
    """Elements one colorful join row enumerates, for a selection of color
    mask `mask` whose children carry the colors `shared` below them: with p
    shared free colors, 2^p whole rows of 2^c up to _WHOLE_ROW_MAX_P, else
    the 3^p pairs of the shared colors for each of the 2^(free-p) sets of
    the other free colors."""
    p = (shared & ~mask).bit_count()
    if p <= _WHOLE_ROW_MAX_P:
        return 1 << p + c
    return 3**p << c - mask.bit_count() - p


def _join_whole_rows(a, b, masks, ws, shared: int, c: int) -> np.ndarray:
    """Join tables of rows with one set both = shared & ~mask of shared free
    colors: best[C] is the maximum over T subset of both of
    a[C & ~(both & ~T)] + b[C & ~T], read off the children's whole rows."""
    call = np.arange(1 << c, dtype=np.int64)
    ms = np.array(masks, dtype=np.int64)[:, None]
    hold = (call & ms) == ms
    # both children are infeasible wherever C misses a selected color
    assert not ((np.maximum(a, b) > FEAS_MIN) & ~hold).any()
    both = shared & ~masks[0]
    best = reduce(np.maximum, (
        (a if t == both else a[:, call & ~(both & ~t)]) + (b if t == 0 else b[:, call & ~t])
        for t in _submasks(both).tolist()
    ))
    return np.where(hold, best - np.array(ws, dtype=np.int64)[:, None], NEG)


def _join_pair_rows(a, b, masks, ws, shared: int, c: int) -> np.ndarray:
    """Join tables of rows with equal numbers of free colors and of shared
    free colors both = shared & ~mask.  Each row is gathered onto the
    supersets of its mask, laid out as (other free colors) x (both), and
    split over the pair table of both, while the other free colors ride
    along on both sides; past _PAIR_TABLE_MAX_C shared colors the splits of
    the rest run as an outer loop."""
    full = (1 << c) - 1
    gather: dict[int, np.ndarray] = {}
    for m in masks:
        if m not in gather:
            both = shared & ~m
            gather[m] = (m | _submasks(full & ~m & ~both)[:, None] | _submasks(both)).ravel()
    rows = np.arange(len(masks))[:, None]
    idx = np.array([gather[m] for m in masks])
    af, bf = a[rows, idx], b[rows, idx]
    # both children are infeasible wherever C misses a selected color, so
    # the pairs never enumerated can never win
    assert np.count_nonzero(a > FEAS_MIN) + np.count_nonzero(b > FEAS_MIN) == (
        np.count_nonzero(af > FEAS_MIN) + np.count_nonzero(bf > FEAS_MIN)
    )
    # one line per (row, set of other free colors), indexed by the shared ones
    p = (shared & ~masks[0]).bit_count()
    af, bf = af.reshape(-1, 1 << p), bf.reshape(-1, 1 << p)
    low = min(p, _PAIR_TABLE_MAX_C)
    _, sub_f, other_f, starts, _ = _pair_table(low)
    width = 1 << low
    step = max(1, _JOIN_BLOCK // 3**low)  # lines per block; splits one long row
    best = np.full_like(af, NEG)
    for lo in range(0, af.shape[0], step):
        for hs, ho in _high_splits(p - low):
            vals = np.take(af[lo : lo + step, hs * width : (hs + 1) * width], sub_f, axis=1)
            vals += np.take(bf[lo : lo + step, ho * width : (ho + 1) * width], other_f, axis=1)
            blk = best[lo : lo + step, (hs | ho) * width : ((hs | ho) + 1) * width]
            np.maximum(blk, np.maximum.reduceat(vals, starts, axis=1), out=blk)
    out = np.full(a.shape, NEG, dtype=np.int64)
    out[rows, idx] = best.reshape(len(masks), -1) - np.array(ws, dtype=np.int64)[:, None]
    return out


def _join_bag(avals, bvals, meta, shared: int, c: int, neg: np.ndarray):
    """Tables of a join bag from its two children's tables; meta holds
    (color mask, colorful, weight) per selection, shared the colors below
    both children, and every non-colorful selection gets the run's
    read-only NEG row neg.

    A colorful row splits only its free colors in shared.  Rows with few
    of them are batched by that set and joined on whole rows; the others
    are batched by their numbers of free and shared free colors and joined
    over the pair table of the shared ones.  Each batch stays under
    _JOIN_BLOCK enumerated elements, or is one row.
    """
    arrs: list[np.ndarray] = [neg] * len(meta)
    batches: dict[tuple, list[int]] = {}
    for i, (mask, colorful, _) in enumerate(meta):
        if colorful:
            both = shared & ~mask
            if both.bit_count() <= _WHOLE_ROW_MAX_P:
                key = (_join_whole_rows, both)
            else:
                key = (_join_pair_rows, both.bit_count(), mask.bit_count())
            batches.setdefault(key, []).append(i)
    for (join, *_), rows in batches.items():
        step = max(1, _JOIN_BLOCK // _join_elements(meta[rows[0]][0], shared, c))
        for lo in range(0, len(rows), step):
            chunk = rows[lo : lo + step]
            out = join(
                np.array([avals[i] for i in chunk]),
                np.array([bvals[i] for i in chunk]),
                [meta[i][0] for i in chunk],
                [meta[i][2] for i in chunk],
                shared,
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
                # the vertices of the child's bag that x forgets
                forgot = tuple(sorted(td.bags[y] - td.bags[x]))
                self.single_link[x] = {"groups": groups, "link": link, "forgot": forgot}
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
        below = [0] * len(td)  # colors of the vertices strictly below each bag
        for x in self.order:
            kids = td.children[x]
            if len(kids) == 1:
                mask = below[kids[0]]
                for v in self.single_link[x]["forgot"]:
                    mask |= cmask[v]
                below[x] = mask
            elif kids:
                below[x] = below[kids[0]] | below[kids[1]]
        shared = {x: below[y] & below[z] for x, (y, z) in self.join_children.items()}
        pairs = sum(
            _join_elements(mask, shared[x], c)
            for x in self.join_children
            for mask, colorful, _ in sel_meta[x]
            if colorful
        )
        if pairs > MAX_JOIN_PAIRS:
            raise SizeCapError(
                f"colorful DP joins need {pairs} subset pairs (3^p x 2^(free - p) "
                f"per colorful join row, p its free colors below both children, "
                f"or 2^(p+c) for p <= {_WHOLE_ROW_MAX_P}); cap is {MAX_JOIN_PAIRS}"
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
                arrs = _join_bag(values[y], values[z], sel_meta[x], shared[x], c, neg)
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
    read from a file never builds its adjacency sets.
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
