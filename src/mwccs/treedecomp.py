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

    bag(v) = {v} + later neighbors of v; bag(v)'s parent is the bag of v's
    earliest-eliminated later neighbor.  Bags comparable with their parent
    are merged, which leaves one bag per maximal clique.
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

    bag_of = {}
    bags = []
    parent_vertex: list[int | None] = []
    for i, v in enumerate(order):
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        bag_of[v] = len(bags)
        bags.append(frozenset([v] + later))
        if later:
            parent_vertex.append(min(later, key=lambda u: pos[u]))
        elif i + 1 < n:
            # no later neighbor: attach to the next bag in elimination order
            # (the bags share nothing, so the tree conditions are unaffected)
            parent_vertex.append(order[i + 1])
        else:
            parent_vertex.append(None)

    parent: list[int | None] = [
        bag_of[pv] if pv is not None else None for pv in parent_vertex
    ]

    # merge any bag into its parent when one contains the other
    alive = [True] * len(bags)
    merged_into = list(range(len(bags)))

    def rep(i: int) -> int:
        while merged_into[i] != i:
            merged_into[i] = merged_into[merged_into[i]]
            i = merged_into[i]
        return i

    for i in range(len(bags)):
        cur = rep(i)
        while parent[cur] is not None:
            par = rep(parent[cur])
            if par == cur:
                parent[cur] = None
                break
            if bags[par] <= bags[cur]:
                # absorb the parent: cur inherits its parent pointer
                merged_into[par] = cur
                alive[par] = False
                parent[cur] = parent[par]
            elif bags[cur] <= bags[par]:
                merged_into[cur] = par
                alive[cur] = False
                cur = par
            else:
                break

    index = {}
    new_bags = []
    for i in range(len(bags)):
        if alive[i]:
            index[i] = len(new_bags)
            new_bags.append(bags[i])
    new_parent: list[int | None] = [None] * len(new_bags)
    for i in range(len(bags)):
        if alive[i]:
            p = parent[i]
            new_parent[index[i]] = index[rep(p)] if p is not None else None
    # the last vertex's bag starts parentless; such a bag is only ever
    # absorbed by a child, which inherits no parent, so its survivor is root
    root = index[rep(bag_of[order[-1]])]
    return TreeDecomposition(new_bags, new_parent, root)


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

    Offending bags get two equal copies attached as their only children,
    with the original children distributed below; at worst this triples the
    number of bags.
    """
    bags: list[frozenset[int]] = []
    parent: list[int | None] = []

    def add(bag: frozenset[int], par: int | None) -> int:
        bags.append(bag)
        parent.append(par)
        return len(bags) - 1

    # explicit worklist; deep decompositions would blow the recursion limit
    stack: list[tuple] = [("build", td.root, None)]
    while stack:
        item = stack.pop()
        if item[0] == "build":
            _, old, par = item
            me = add(td.bags[old], par)
            stack.append(("attach", me, td.bags[old], tuple(td.children[old])))
            continue
        _, me, bag, kids = item
        if not kids:
            continue
        if len(kids) == 1:
            stack.append(("build", kids[0], me))
        elif len(kids) == 2 and td.bags[kids[0]] == bag == td.bags[kids[1]]:
            stack.append(("build", kids[0], me))
            stack.append(("build", kids[1], me))
        else:
            left = add(bag, me)
            stack.append(("build", kids[0], left))
            right = add(bag, me)
            stack.append(("attach", right, bag, kids[1:]))

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

