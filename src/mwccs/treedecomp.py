"""Tree decompositions: clique trees of chordal graphs, validation, and the
binary normal form the dynamic program consumes."""

from __future__ import annotations

from .graph import Graph, find_independent_subset, induced_subgraph, is_clique
from .recognition import is_chordal, verify_peo


class TreeDecomposition:
    """Rooted tree of bags.  parent[i] is None exactly for the root."""

    __slots__ = ("bags", "parent", "root", "children")

    def __init__(self, bags, parent, root):
        self.bags: list[frozenset[int]] = [frozenset(b) for b in bags]
        self.parent: list[int | None] = list(parent)
        self.root = root
        if len(self.bags) != len(self.parent):
            raise ValueError("bags and parent arrays differ in length")
        if not self.bags:
            raise ValueError("a decomposition needs at least one bag")
        if self.parent[root] is not None:
            raise ValueError("root must have no parent")
        children: list[list[int]] = [[] for _ in self.bags]
        root_count = 0
        for i, p in enumerate(self.parent):
            if p is None:
                root_count += 1
            else:
                children[p].append(i)
        if root_count != 1:
            raise ValueError("exactly one bag may be parentless")
        self.children = children
        # reachability from the root certifies the parent array is a tree
        seen = 0
        stack = [root]
        while stack:
            x = stack.pop()
            seen += 1
            stack.extend(children[x])
        if seen != len(self.bags):
            raise ValueError("parent pointers do not form a tree")

    def __len__(self):
        return len(self.bags)

    def postorder(self) -> list[int]:
        out: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                out.append(node)
            else:
                stack.append((node, True))
                for ch in reversed(self.children[node]):
                    stack.append((ch, False))
        return out

    def is_binary_form(self) -> bool:
        for i, ch in enumerate(self.children):
            if len(ch) > 2:
                return False
            if len(ch) == 2 and not (
                self.bags[ch[0]] == self.bags[i] == self.bags[ch[1]]
            ):
                return False
        return True


def clique_tree_from_peo(g: Graph, peo) -> TreeDecomposition:
    """Clique tree of a chordal graph from a perfect elimination ordering.

    bag(i) is the i-th eliminated vertex v plus its later neighbors, and
    up(i) is the position of v's earliest later neighbor, or i + 1 when v
    has none.  later(v) lies inside bag(up(i)), so bag(up(i)) is a subset of
    bag(i) exactly when v has one later neighbor more than the vertex at
    up(i) (Blair and Peyton, 1993).  Walking the positions in order, each
    bag not yet owned absorbs the bags up its up chain while they are
    subsets and unowned.  The survivors are the maximal cliques, kept in
    elimination order; each hangs under the owner of the bag its chain
    stopped at, and the owner of the last position is the root.
    """
    if not verify_peo(g, peo):
        raise ValueError("ordering is not a perfect elimination ordering")
    order = list(peo)
    n = g.n
    if n == 0:
        return TreeDecomposition([frozenset()], [None], 0)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    later = [[u for u in g.adj[v] if pos[u] > i] for i, v in enumerate(order)]
    up = [min(pos[u] for u in lv) if lv else i + 1 for i, lv in enumerate(later)]

    owner = [-1] * n
    bags: list[frozenset[int]] = []
    stop: list[int] = []
    for i, v in enumerate(order):
        if owner[i] >= 0:
            continue
        owner[i] = len(bags)
        bags.append(frozenset([v] + later[i]))
        j = i
        while (
            up[j] < n and owner[up[j]] < 0 and len(later[j]) == len(later[up[j]]) + 1
        ):
            j = up[j]
            owner[j] = owner[i]
        stop.append(up[j])
    # only the chain through the last position stops past the end
    parent = [owner[s] if s < n else None for s in stop]
    return TreeDecomposition(bags, parent, owner[n - 1])


def verify_tree_decomposition(g: Graph, td: TreeDecomposition) -> bool:
    """Check the three defining conditions: bags cover the vertices, every
    edge lies in some bag, and each vertex's bags form a subtree.

    O(sum of bag sizes + m): v's bags form a subtree iff one tree edge fewer
    than there are of them joins two of them, and two subtrees meet iff one
    holds the other's top bag, so edge uv is covered iff top(u) holds v or
    top(v) holds u.
    """
    n, bags = g.n, td.bags
    if any(v < 0 or v >= n for bag in bags for v in bag):
        return False
    components = [0] * n
    top = [0] * n
    for x in td.postorder():  # a subtree's top bag comes last
        for v in bags[x]:
            components[v] += 1
            top[v] = x
        if td.parent[x] is not None:
            for v in bags[x] & bags[td.parent[x]]:
                components[v] -= 1
    if any(k != 1 for k in components):
        return False
    return all(u in bags[top[v]] for u in range(n) for v in g.adj[u] - bags[top[u]])


def normalize_binary(td: TreeDecomposition) -> TreeDecomposition:
    """Binary normal form: every bag has at most two children, and a bag
    with two children equals both of them.

    A bag whose children break this hangs its first child under a fresh
    copy of itself and the rest under a second copy, which is checked the
    same way; at worst this triples the number of bags.
    """
    bags: list[frozenset[int]] = []
    parent: list[int | None] = []
    # explicit worklist of (old bag, new parent); deep decompositions would
    # blow the recursion limit
    stack: list[tuple[int, int | None]] = [(td.root, None)]
    while stack:
        old, par = stack.pop()
        bag, kids = td.bags[old], td.children[old]
        bags.append(bag)
        parent.append(par)
        me = len(bags) - 1
        t = 0  # kids[t:] hang under me
        while len(kids) - t > 2 or (
            len(kids) - t == 2 and not td.bags[kids[t]] == bag == td.bags[kids[t + 1]]
        ):
            bags += [bag, bag]
            parent += [me, me]
            stack.append((kids[t], me + 1))
            me += 2
            t += 1
        for k in kids[t:]:
            stack.append((k, me))

    out = TreeDecomposition(bags, parent, 0)
    assert len(out) <= 3 * len(td), "normalization exceeded the 3x bag bound"
    assert out.is_binary_form()
    return out


def bag_alpha(g: Graph, td: TreeDecomposition) -> int:
    """Largest independence number over the bags: 1 on a clique, greedy
    along a perfect elimination ordering on any other chordal bag (maximum
    there, Gavril 1972), branching search on the rest."""
    best = 0
    for bag in td.bags:
        if is_clique(g, bag):
            best = max(best, min(len(bag), 1))
            continue
        sub, _ = induced_subgraph(g, bag)
        peo = is_chordal(sub)
        if peo is not None:
            taken = 0
            for v in peo:
                if not sub.mask[v] & taken:
                    taken |= 1 << v
            best = max(best, taken.bit_count())
            continue
        size = best
        while find_independent_subset(g, bag, size + 1) is not None:
            size += 1
        best = max(best, size)
    return best

