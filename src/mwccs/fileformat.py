"""Line-oriented instance and solution files.

Instance format (UTF-8, LF, 1-based vertex ids):

    c free-form comment
    p iki <n> <m>
    w <v> <weight>      optional; absent vertices weigh 1
    col <v> <color>     optional per-vertex color
    cl <v> <cluster-id> optional per-vertex cluster label (also used as the
                        class id of multicolored-clique instances)
    e <u> <v> [C|H]     edge, optionally tagged cluster-side / chordal-side

Either every edge is tagged (the tags then witness a cluster+chordal
decomposition and are validated) or none is.  Writers emit a canonical
form: sorted vertices and edges, trailing newline, fully deterministic.

An untagged instance in canonical form (the header, ascending ``w`` lines,
then ``e u v`` lines ascending with u < v; single spaces, plain ASCII ids,
LF ends) is parsed in bulk.  Every other text, faulty ones included, takes
the line loop, which reports each fault with its line.
"""

from __future__ import annotations

import re

import numpy as np

from .graph import Graph, MulticoloredCliqueInstance, Solution, WeightedInstance
from .recognition import find_cluster_violation, find_hole, is_chordal


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# One line each of the canonical untagged form; ids and weights of at most 18
# digits fit int64.  subn checks a block in flat memory: a fullmatch over a
# repeated group keeps a backtracking stack (4.3 MB more peak RSS on 24k
# edges), and possessive repeats need Python 3.11.
_HEADER = re.compile(r"p iki ([0-9]{1,18}) ([0-9]{1,18})\n")
_W_LINE = re.compile(r"w [1-9][0-9]{0,17} [0-9]{1,18}\n")
_E_LINE = re.compile(r"e [1-9][0-9]{0,17} [1-9][0-9]{0,17}\n")


def _columns(block: str, kind: str):
    a = np.fromstring(block.replace(kind, ""), dtype=np.int64, sep=" ")
    return a[0::2], a[1::2]


def _parse_canonical(text: str) -> WeightedInstance | None:
    """The instance if text is in canonical untagged form, else None."""
    head = _HEADER.match(text)
    if head is None:
        return None
    n, m = int(head[1]), int(head[2])
    # the edge block starts at the first `e` line, if any
    cut = text.find("\ne ", head.end() - 1) + 1 or len(text)
    wblock, eblock = text[head.end():cut], text[cut:]
    e_rest, k = _E_LINE.subn("", eblock)
    if k != m or e_rest or _W_LINE.sub("", wblock):
        return None
    ids, vals = _columns(wblock, "w")
    u, v = _columns(eblock, "e")
    # strictly ascending pairs with u < v: no self-loop or duplicate, and the
    # order of the line loop's sorted(edges)
    ascending = (u[:-1] < u[1:]) | ((u[:-1] == u[1:]) & (v[:-1] < v[1:]))
    checks = (ids <= n, ids[:-1] < ids[1:], u < v, v <= n, ascending)
    if not all(c.all() for c in checks):
        return None
    graph = Graph(n, zip((u - 1).tolist(), (v - 1).tolist()))
    weights = dict(zip(ids.tolist(), vals.tolist()))
    return WeightedInstance(graph, tuple(weights.get(x, 1) for x in range(1, n + 1)))


def parse_instance_text(text: str) -> WeightedInstance:
    inst = _parse_canonical(text)
    if inst is not None:
        return inst
    n = None
    m = None
    weights: dict[int, int] = {}
    colors: dict[int, int] = {}
    clusters: dict[int, int] = {}
    edges: dict[tuple[int, int], str | None] = {}

    def vertex(tok: str, lineno: int) -> int:
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"bad vertex id {tok!r}", lineno)
        if n is None or not 1 <= v <= n:
            raise ParseError(f"vertex {v} out of range", lineno)
        return v - 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "c" and raw.strip()[:2] in ("c", "c "):
            continue
        kind = parts[0]
        if kind == "e":
            if n is None:
                raise ParseError("header must come first", lineno)
            if len(parts) not in (3, 4):
                raise ParseError("`e` takes two vertices and an optional tag", lineno)
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                u = v = -1
            if not (0 <= u < n and 0 <= v < n):
                vertex(parts[1], lineno)  # raises the first id's error, if any
                vertex(parts[2], lineno)
            if u == v:
                raise ParseError("self-loop", lineno)
            tag = None
            if len(parts) == 4:
                if parts[3] not in ("C", "H"):
                    raise ParseError(f"edge tag must be C or H, got {parts[3]!r}", lineno)
                tag = parts[3]
            key = (u, v) if u < v else (v, u)
            if key in edges:
                raise ParseError(f"duplicate edge {u + 1} {v + 1}", lineno)
            edges[key] = tag
        elif kind == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "iki":
                raise ParseError("header must be `p iki <n> <m>`", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer header fields", lineno)
            if n < 0 or m < 0:
                raise ParseError("negative header fields", lineno)
        elif kind in ("w", "col", "cl"):
            if n is None:
                raise ParseError("header must come first", lineno)
            if len(parts) != 3:
                raise ParseError(f"`{kind}` takes vertex and value", lineno)
            v = vertex(parts[1], lineno)
            try:
                val = int(parts[2])
            except ValueError:
                raise ParseError(f"bad {kind} value {parts[2]!r}", lineno)
            store = {"w": weights, "col": colors, "cl": clusters}[kind]
            if v in store:
                raise ParseError(f"duplicate `{kind}` line for vertex {v + 1}", lineno)
            if kind == "w" and val < 0:
                raise ParseError("weights must be non-negative", lineno)
            if kind == "col" and val < 1:
                raise ParseError("colors are 1-based", lineno)
            store[v] = val
        else:
            raise ParseError(f"unknown line kind {kind!r}", lineno)

    if n is None:
        raise ParseError("missing `p iki` header")
    if m != len(edges):
        raise ParseError(f"header declares {m} edges, found {len(edges)}")

    tags = set(edges.values())
    if None in tags and len(tags) > 1:
        raise ParseError("either all edges carry a C/H tag or none does")
    cluster_edges = chordal_edges = None
    if edges and None not in tags:
        cluster_edges = frozenset(e for e, t in edges.items() if t == "C")
        chordal_edges = frozenset(e for e, t in edges.items() if t == "H")

    if colors and len(colors) != n:
        raise ParseError("col lines must cover every vertex or none")
    if clusters and len(clusters) != n:
        raise ParseError("cl lines must cover every vertex or none")

    inst = WeightedInstance(
        Graph(n, sorted(edges)),
        tuple(weights.get(v, 1) for v in range(n)),
        colors=tuple(colors[v] for v in range(n)) if colors else None,
        clusters=tuple(clusters[v] for v in range(n)) if clusters else None,
        cluster_edges=cluster_edges,
        chordal_edges=chordal_edges,
    )

    if inst.has_decomposition:
        cg = Graph(n, sorted(inst.cluster_edges))
        viol = find_cluster_violation(cg)
        if viol is not None:
            a, b, c_ = (x + 1 for x in viol)
            raise ParseError(
                f"C-tagged edges are not a cluster graph: induced path {a}-{b}-{c_}"
            )
        hg = Graph(n, sorted(inst.chordal_edges))
        if is_chordal(hg) is None:
            hole = find_hole(hg)
            cyc = "-".join(str(v + 1) for v in hole) if hole else "?"
            raise ParseError(
                f"H-tagged edges are not chordal: induced cycle {cyc}"
            )
    return inst


def parse_instance(path) -> WeightedInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_text(fh.read())


def instance_to_text(inst: WeightedInstance, comments=()) -> str:
    n = inst.graph.n
    lines = [f"c {c}" for c in comments]
    lines.append(f"p iki {n} {inst.graph.m}")
    if any(w != 1 for w in inst.weights):
        lines.extend(f"w {v + 1} {inst.weights[v]}" for v in range(n))
    if inst.colors is not None:
        lines.extend(f"col {v + 1} {inst.colors[v]}" for v in range(n))
    if inst.clusters is not None:
        lines.extend(f"cl {v + 1} {inst.clusters[v]}" for v in range(n))
    edges = sorted(inst.graph.edges())
    if inst.has_decomposition:
        cl = inst.cluster_edges
        lines.extend(f"e {u + 1} {v + 1} {'C' if (u, v) in cl else 'H'}" for u, v in edges)
    else:
        lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def write_instance(inst: WeightedInstance, path, comments=()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_text(inst, comments))


def solution_to_text(
    sol: Solution,
    mode: str,
    seed: int,
    trials: int,
    elapsed_ms: int | None = None,
) -> str:
    """Canonical solution document.

    elapsed_ms is emitted only when supplied, keeping default output
    byte-stable across runs with the same seed.
    """
    lines = [f"weight {sol.weight}"]
    lines.append(("vertices " + " ".join(str(v + 1) for v in sorted(sol.vertices))).rstrip())
    if sol.color_assignment is not None:
        for v in sorted(sol.color_assignment):
            lines.append(f"col {v + 1} {sol.color_assignment[v]}")
    lines.append(f"mode {mode}")
    lines.append(f"seed {seed}")
    lines.append(f"trials {trials}")
    if elapsed_ms is not None:
        lines.append(f"elapsed_ms {elapsed_ms}")
    return "\n".join(lines) + "\n"


def write_solution(sol: Solution, path, mode: str, seed: int, trials: int,
                   elapsed_ms: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(solution_to_text(sol, mode, seed, trials, elapsed_ms))


def parse_solution_text(text: str) -> tuple[Solution, dict]:
    weight = None
    vertices: list[int] = []
    assignment: dict[int, int] = {}
    meta: dict[str, object] = {}
    saw_col = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, *args = line.split()
        try:
            if key == "weight":
                weight = int(args[0])
            elif key == "vertices":
                vertices = [int(x) - 1 for x in args]
            elif key == "col":
                saw_col = True
                assignment[int(args[0]) - 1] = int(args[1])
            elif key in ("mode", "seed", "trials", "elapsed_ms"):
                meta[key] = args[0] if key == "mode" else int(args[0])
            else:
                raise ParseError(f"unknown solution field {key!r}", lineno)
        except ParseError:
            raise
        except (IndexError, ValueError):
            raise ParseError(f"malformed `{key}` line", lineno) from None
    if weight is None:
        raise ParseError("solution lacks a weight")
    sol = Solution(frozenset(vertices), weight, assignment if saw_col else None)
    return sol, meta


def mcc_from_instance(inst: WeightedInstance) -> MulticoloredCliqueInstance:
    """Interpret cluster labels as the class partition of a
    multicolored-clique instance."""
    if inst.clusters is None:
        raise ValueError("instance carries no class labels (`cl` lines)")
    by_label: dict[int, list[int]] = {}
    for v, lab in enumerate(inst.clusters):
        by_label.setdefault(lab, []).append(v)
    classes = tuple(tuple(sorted(by_label[lab])) for lab in sorted(by_label))
    return MulticoloredCliqueInstance(inst.graph, classes)
