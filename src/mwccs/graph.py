"""Core graph representation and the primitive predicates everything else builds on.

Vertices are dense 0-based ids.  Vertex sets cross the public API as
frozensets.  A ``Graph`` has two views of its edges, each built on first
read from the other: adjacency sets (``adj``) and CSR arrays (``csr``).
The chordal front end (recognition, chordal MWIS) runs its whole-graph
passes on the arrays when ``prefers_csr`` holds, on dense graphs, and on
the sets everywhere else; ``is_independent`` reads the sets once they are
built and the arrays' rows before.  The bitmask searches below, the
cover bound and the oracles work on int bitmasks, which ``Graph`` builds
per vertex on the first read of ``mask``; the front end never pays for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Weights are non-negative ints.  Totals must stay below this bound so the
# DP's int64 arithmetic (including the -inf sentinel) cannot overflow.
MAX_TOTAL_WEIGHT = 2**53

# find_independent_subset refuses, with SizeCapError, a search that pops more
# nodes than this: 0.3 s of branching on a 60-vertex path, 1.7 s on a
# 3000-vertex one (2-vCPU host; a node's cost grows with the mask width).
MAX_SEARCH_NODES = 1_000_000

# A graph prefers its CSR arrays when 2m >= n * (CSR_MIN_DEGREE + n /
# CSR_SCAN_VERTICES).  MCS plus the PEO check, sets against arrays (2-vCPU
# VM, Python 3.11, numpy 2.4), on interval graphs: n=32 and degree 9, 88 /
# 80 us; n=64, degree 19, 287 / 153 us; n=256, degree 78, 3477 / 1028 us;
# on chordal graphs of n=4, 5 / 28 us.  The arrays tie near degree 10; the
# degree bound stays well above that, so graphs of a few dozen vertices,
# such as the pipelines' class sides, keep the set loops and never pay
# numpy's per-call cost.  The array MCS scans all n counts per step, hence
# the n / CSR_SCAN_VERTICES term: a 100k-vertex path took 1.38 s on the
# arrays against 0.12 s on the sets.
CSR_MIN_DEGREE = 32
CSR_SCAN_VERTICES = 256


class SizeCapError(RuntimeError):
    """Raised when an input exceeds the hard cap of an exponential routine."""


class CliqueCountExceeded(RuntimeError):
    """Raised when a vertex lies in more maximal cliques than the cap allows."""

    def __init__(self, vertex: int, cap: int):
        super().__init__(f"vertex {vertex} lies in more than {cap} maximal cliques")
        self.vertex = vertex
        self.cap = cap


class ValidationError(RuntimeError):
    """A solver produced a result that failed its own re-validation."""


def _vertex_mask(g: "Graph", s) -> int:
    mask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return frozenset(out)


class Graph:
    """Undirected simple graph over vertex ids {0, ..., n-1}.

    Immutable after construction; safe to share across workers.  Three
    views of the edges are built on first read and kept: the adjacency sets
    (``adj``) unless the graph was made from them, the CSR arrays (``csr``)
    unless it was made from them (``_adopt``, which gives an
    ``_AdoptedGraph``), and the per-vertex bitmasks (``mask``).
    Two threads that read a view at once may both build it; each stores an
    equal value, so the race is idempotent and sharing stays safe.
    ``is_chordal`` caches the PEO it verified in ``_peo``, and ``m`` its
    count of edges, the same way.
    """

    __slots__ = ("n", "adj", "_csr", "_mask", "_m", "_peo")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._mask: tuple[int, ...] | None = None
        self._m: int | None = None
        self._peo: tuple[int, ...] | None = None

    @staticmethod
    def _adopt(n: int, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """A graph over the CSR arrays (indptr, indices), int64, each row
        strictly ascending, whose symmetry, range and lack of self-loops the
        caller has checked; the bulk parse builds it this way, without sets.
        It is an ``_AdoptedGraph``, which builds them on first read."""
        g = _AdoptedGraph.__new__(_AdoptedGraph)
        indptr.flags.writeable = indices.flags.writeable = False
        g.n, g._csr, g._m = n, (indptr, indices), indices.size // 2
        g._mask = g._peo = None
        return g

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices), read-only int64 arrays: vertex v's neighbours
        are indices[indptr[v]:indptr[v + 1]], strictly ascending."""
        csr = self._csr
        if csr is None:
            rows = [sorted(s) for s in self.adj]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum([len(r) for r in rows], out=indptr[1:])
            indices = np.fromiter(
                itertools.chain.from_iterable(rows), dtype=np.int64, count=2 * self.m
            )
            indptr.flags.writeable = indices.flags.writeable = False
            csr = self._csr = (indptr, indices)
        return csr

    @property
    def prefers_csr(self) -> bool:
        """True when the whole-graph passes run faster on ``csr`` than on
        ``adj``: the graph is large and dense enough (see CSR_MIN_DEGREE).
        No graph of at most CSR_MIN_DEGREE vertices is, so those never
        count their edges here."""
        n = self.n
        return n > CSR_MIN_DEGREE and (
            2 * self.m >= n * (CSR_MIN_DEGREE + n / CSR_SCAN_VERTICES)
        )

    @property
    def mask(self) -> tuple[int, ...]:
        """Each vertex's neighbours as an int bitmask."""
        mask = self._mask
        if mask is None:
            mask = self._mask = tuple(sum(1 << u for u in s) for s in self.adj)
        return mask

    @property
    def m(self) -> int:
        m = self._m
        if m is None:
            m = self._m = sum(map(len, self.adj)) // 2
        return m

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# Graph's ``adj`` slot: reading it raises AttributeError while it is unset
_adj_slot = Graph.adj


def _has_sets(g: Graph) -> bool:
    """Whether g's adjacency sets are built; never builds them."""
    try:
        _adj_slot.__get__(g)
    except AttributeError:
        return False
    return True


class _AdoptedGraph(Graph):
    """A Graph adopted from CSR arrays.  Its ``adj`` slot stays unset until
    the first read, which lands in ``__getattr__`` and builds the sets from
    the rows.  A class of its own keeps that hook off plain graphs: on
    Python 3.11 a class with ``__getattr__`` loses the specialised slot
    read, about 25 ns more per read of ``adj``.

    The sets iterate as ``Graph(n, sorted(edges))``'s do: that graph adds
    each vertex's lower neighbours, then its upper ones, both ascending,
    which is the row's order, and freezes a set, whose table is sized unlike
    one frozen straight from a list.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        # plain lookup failed: for adj, the slot is unset
        if name != "adj":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        indptr, indices = self._csr
        ptr, idx = indptr.tolist(), indices.tolist()
        adj = tuple(frozenset(set(idx[a:b])) for a, b in zip(ptr, ptr[1:]))
        self.adj = adj
        return adj


def neighborhood(g: Graph, v: int, closed: bool = False) -> frozenset[int]:
    """Open neighborhood N(v), or N[v] = N(v) + {v} when closed is set."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return g.adj[v] | {v} if closed else g.adj[v]


def induced_subgraph(g: Graph, s) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by s, relabeled to dense ids.

    Returns (subgraph, mapping) where mapping[new_id] == old_id; the mapping
    is sorted, so relabeling is deterministic.
    """
    verts = sorted(s)
    if verts and not (0 <= verts[0] and verts[-1] < g.n):
        raise ValueError("vertex set out of range")
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[u], index[v])
        for u in verts
        for v in g.adj[u]
        if u < v and v in index
    ]
    return Graph(len(verts), edges), tuple(verts)


def is_independent(g: Graph, s) -> bool:
    """True iff no edge of g joins two vertices of s."""
    verts = frozenset(s)
    for v in verts:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    if type(g) is _AdoptedGraph and not _has_sets(g):
        return _independent_on_rows(g, verts)
    adj = g.adj
    return all(adj[v].isdisjoint(verts) for v in verts)


def _independent_on_rows(g: Graph, verts: frozenset[int]) -> bool:
    """is_independent on a graph adopted from CSR arrays whose sets nothing
    has read: the rows of verts cost less than building every set.  Once the
    sets are built they win, as in the colorful DP's one call per bag subset.
    A function of its own keeps the closure cells of its generator out of
    every is_independent call, about 70 ns each."""
    indptr, indices = g.csr
    inside = np.zeros(g.n, dtype=bool)
    inside[list(verts)] = True
    return not any(inside[indices[indptr[v]:indptr[v + 1]]].any() for v in verts)


def find_independent_subset(g: Graph, s, size: int) -> frozenset[int] | None:
    """Some independent subset of s of exactly the given size, or None.

    Bounded branch-and-prune: only explores as far as needed to certify
    existence, so it stays cheap when size is small.  Branches on the lowest
    available vertex, taking it before skipping it; an explicit stack keeps
    large sets within reach of the recursion limit.  Raises SizeCapError once
    the search pops more than MAX_SEARCH_NODES nodes.
    """
    if size <= 0:
        return frozenset()
    avail = _vertex_mask(g, s)
    nbr = g.mask
    stack = [(avail, 0, size)]
    popped = 0
    while stack:
        avail_mask, chosen, need = stack.pop()
        popped += 1
        if popped > MAX_SEARCH_NODES:
            raise SizeCapError(
                f"independent-subset search of size {size} popped {popped} "
                f"nodes, past the cap of {MAX_SEARCH_NODES}"
            )
        if need == 0:
            return _mask_to_set(chosen)
        if avail_mask.bit_count() < need:
            continue
        bit = avail_mask & -avail_mask
        v = bit.bit_length() - 1
        stack.append((avail_mask & ~bit, chosen, need))
        stack.append((avail_mask & ~nbr[v] & ~bit, chosen | bit, need - 1))
    return None


def is_clique(g: Graph, s) -> bool:
    """True iff every two vertices of s are adjacent."""
    verts = list(s)
    want = _vertex_mask(g, verts)
    nbr = g.mask
    return all((nbr[v] | 1 << v) & want == want for v in verts)


def independence_bounded(g: Graph, s, k: int) -> bool:
    """True iff every independent subset of G[s] has size at most k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 1:
        return is_clique(g, s)
    return find_independent_subset(g, s, k + 1) is None


def is_c_colorable(g: Graph, c: int) -> dict[int, int] | None:
    """A proper coloring with colors {1..c} if one exists, else None.

    Backtracking over degree-ordered vertices with the usual color-symmetry
    break (a vertex may only open one fresh color).
    """
    if c < 0:
        raise ValueError("c must be non-negative")
    if g.n == 0:
        return {}
    if c == 0:
        return None
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors: dict[int, int] = {}

    def rec(i: int, used: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        banned = {colors[u] for u in g.adj[v] if u in colors}
        for col in range(1, min(c, used + 1) + 1):
            if col in banned:
                continue
            colors[v] = col
            if rec(i + 1, max(used, col)):
                return True
            del colors[v]
        return False

    return dict(colors) if rec(0, 0) else None


def _max_cliques_of_mask(g: Graph, cand: int):
    """Yield all maximal cliques (as masks) of the subgraph induced by cand."""
    # Bron-Kerbosch with greedy pivoting, all sets held as bitmasks.
    nbr = g.mask

    def rec(r: int, p: int, x: int):
        if p == 0 and x == 0:
            yield r
            return
        pivot_pool = p | x
        pivot = -1
        best = -1
        pool = pivot_pool
        while pool:
            u = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            deg = (p & nbr[u]).bit_count()
            if deg > best:
                best = deg
                pivot = u
        branch = p & ~nbr[pivot]
        while branch:
            v = (branch & -branch).bit_length() - 1
            bit = 1 << v
            branch &= branch - 1
            yield from rec(r | bit, p & nbr[v], x & nbr[v])
            p &= ~bit
            x |= bit

    yield from rec(0, cand, 0)


def maximal_cliques_containing(
    g: Graph, v: int, cap: int | None = None
) -> list[frozenset[int]]:
    """All maximal cliques of g that contain v.

    Enumeration is restricted to G[N(v)] (a maximal clique through v is v
    plus a maximal clique of its neighborhood).  If cap is given and more
    than cap cliques exist, CliqueCountExceeded is raised; callers probing
    "at most k cliques?" pass cap=k+1 and catch the signal.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    nbr = g.mask
    nb_mask = nbr[v]
    out: list[frozenset[int]] = []
    for clique_mask in _max_cliques_of_mask(g, nb_mask):
        full = _mask_to_set(clique_mask | (1 << v))
        # maximality: nothing in N[v] extends the clique
        all_mask = clique_mask | (1 << v)
        for u in g.adj[v]:
            assert (1 << u) & all_mask or (nbr[u] & all_mask) != all_mask, (
                f"clique {sorted(full)} extendable by {u}"
            )
        out.append(full)
        if cap is not None and len(out) > cap:
            raise CliqueCountExceeded(v, cap)
    out.sort(key=sorted)
    return out


@dataclass(frozen=True)
class WeightedInstance:
    """A graph plus per-vertex weights, optional colors / cluster labels, and
    an optional edge partition witnessing a cluster+chordal decomposition.

    The edge partition, when present, assigns every edge to exactly one
    side, and the constructor splits the instance along it (``parts``): an
    instance whose cluster-tagged edges are not a cluster graph, or whose
    chordal-tagged edges are not chordal, is refused with ValueError when
    it is made.
    """

    graph: Graph
    weights: tuple[int, ...]
    colors: tuple[int, ...] | None = None
    clusters: tuple[int, ...] | None = None
    cluster_edges: frozenset[tuple[int, int]] | None = None
    chordal_edges: frozenset[tuple[int, int]] | None = None

    def __post_init__(self):
        n = self.graph.n
        if len(self.weights) != n:
            raise ValueError("weights length must equal vertex count")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if sum(self.weights) > MAX_TOTAL_WEIGHT:
            raise ValueError("total weight exceeds the supported accumulator range")
        if self.colors is not None:
            if len(self.colors) != n:
                raise ValueError("colors length must equal vertex count")
            if any(c < 1 for c in self.colors):
                raise ValueError("colors are 1-based")
        if self.clusters is not None and len(self.clusters) != n:
            raise ValueError("cluster labels length must equal vertex count")
        if (self.cluster_edges is None) != (self.chordal_edges is None):
            raise ValueError("edge partition needs both sides (either may be empty)")
        if self.cluster_edges is not None:
            norm_c = frozenset(
                (u, v) if u < v else (v, u) for u, v in self.cluster_edges
            )
            norm_h = frozenset(
                (u, v) if u < v else (v, u) for u, v in self.chordal_edges
            )
            object.__setattr__(self, "cluster_edges", norm_c)
            object.__setattr__(self, "chordal_edges", norm_h)
            all_edges = frozenset((u, v) for u, v in self.graph.edges())
            if norm_c | norm_h != all_edges:
                raise ValueError("edge partition does not cover the edge set")
            if norm_c & norm_h:
                raise ValueError("edge partition sides must be disjoint")
            self.parts  # split now, so a witness is checked when it is made

    @classmethod
    def unit(cls, graph: Graph, **kw) -> "WeightedInstance":
        return cls(graph, tuple([1] * graph.n), **kw)

    @property
    def has_decomposition(self) -> bool:
        return self.cluster_edges is not None

    @cached_property
    def parts(self) -> tuple[list[frozenset[int]], Graph, tuple[int, ...]]:
        """The cluster reduction's parts: (ordered clusters, chordal-side
        graph, a perfect elimination ordering of that graph).

        A witnessed instance splits along its edge tags: the clusters are
        the components of the cluster-tagged edges, singleton vertices
        included, ordered by smallest member, and the chordal-tagged edges
        make the chordal side.  An instance without a witness is a chordal
        graph with singleton clusters, if its graph is chordal.  Raises
        ValueError, with 1-based vertex ids, when the cluster side is not a
        cluster graph or the chordal side is not chordal.
        """
        from . import recognition  # recognition imports this module

        n = self.graph.n
        if not self.has_decomposition:
            peo = recognition.is_chordal(self.graph)
            if peo is None:
                raise ValueError(
                    "instance is neither witnessed cluster+chordal nor chordal"
                )
            return [frozenset((v,)) for v in range(n)], self.graph, peo
        cluster_g = Graph(n, sorted(self.cluster_edges))
        viol = recognition.find_cluster_violation(cluster_g)
        if viol is not None:
            path = "-".join(str(v + 1) for v in viol)
            raise ValueError(
                f"C-tagged edges are not a cluster graph: induced path {path}"
            )
        chordal_g = Graph(n, sorted(self.chordal_edges))
        peo = recognition.is_chordal(chordal_g)
        if peo is None:
            cycle = "-".join(str(v + 1) for v in recognition.find_hole(chordal_g))
            raise ValueError(f"H-tagged edges are not chordal: induced cycle {cycle}")
        seen = [False] * n
        clusters = []
        for v in range(n):
            if not seen[v]:
                comp = frozenset(cluster_g.adj[v] | {v})
                for u in comp:
                    seen[u] = True
                clusters.append(comp)
        return clusters, chordal_g, peo

    @property
    def num_colors(self) -> int:
        return max(self.colors) if self.colors else 0

    def weight_of(self, s) -> int:
        return sum(self.weights[v] for v in s)

    def induce(self, s) -> tuple["WeightedInstance", tuple[int, ...]]:
        """Induced sub-instance on s, with the new-id -> old-id mapping."""
        sub, mapping = induced_subgraph(self.graph, s)
        index = {v: i for i, v in enumerate(mapping)}
        keep = set(mapping)

        def filt(pairs):
            return frozenset(
                (index[u], index[v])
                for u, v in pairs
                if u in keep and v in keep
            )

        return (
            WeightedInstance(
                sub,
                tuple(self.weights[v] for v in mapping),
                colors=tuple(self.colors[v] for v in mapping) if self.colors else None,
                clusters=(
                    tuple(self.clusters[v] for v in mapping) if self.clusters else None
                ),
                cluster_edges=(
                    filt(self.cluster_edges) if self.cluster_edges is not None else None
                ),
                chordal_edges=(
                    filt(self.chordal_edges) if self.chordal_edges is not None else None
                ),
            ),
            mapping,
        )


@dataclass
class Solution:
    """A vertex set with its total weight and an optional color assignment."""

    vertices: frozenset[int]
    weight: int
    color_assignment: dict[int, int] | None = None

    def validate(self, inst: WeightedInstance, c: int | None = None) -> None:
        """Re-check the solution against the instance; raises ValidationError.

        Without a color assignment the vertex set must be independent; with
        one, the assignment must properly color the induced subgraph.
        """
        if any(not 0 <= v < inst.graph.n for v in self.vertices):
            raise ValidationError("solution vertex out of range")
        if self.weight != inst.weight_of(self.vertices):
            raise ValidationError("reported weight does not match vertex weights")
        if self.color_assignment is None:
            if not is_independent(inst.graph, self.vertices):
                raise ValidationError("solution set is not independent")
        else:
            if set(self.color_assignment) != set(self.vertices):
                raise ValidationError("color assignment does not cover the solution")
            for v, col in self.color_assignment.items():
                if col < 1 or (c is not None and col > c):
                    raise ValidationError(f"color {col} out of range at vertex {v}")
            for u in self.vertices:
                for v in inst.graph.adj[u]:
                    if v in self.color_assignment and u < v:
                        if self.color_assignment[u] == self.color_assignment[v]:
                            raise ValidationError(
                                f"adjacent vertices {u},{v} share a color"
                            )


def solution_sort_key(sol: Solution):
    """Deterministic preference order: heavier first, then lexicographically
    smallest vertex set, then smallest color assignment."""
    assign = (
        tuple(sorted(sol.color_assignment.items())) if sol.color_assignment else ()
    )
    return (-sol.weight, tuple(sorted(sol.vertices)), assign)


@dataclass(frozen=True)
class MulticoloredCliqueInstance:
    """A graph whose vertices are partitioned into independent color classes."""

    graph: Graph
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            if tuple(sorted(cls)) != tuple(cls):
                raise ValueError("each class must be listed in sorted order")
            for v in cls:
                if not 0 <= v < self.graph.n:
                    raise ValueError(f"class vertex {v} out of range")
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two classes")
                seen.add(v)
            if not is_independent(self.graph, cls):
                raise ValueError("color classes must be independent sets")
        if len(seen) != self.graph.n:
            raise ValueError("classes must cover every vertex")

    @property
    def k(self) -> int:
        return len(self.classes)
