"""Line-oriented instance and solution files.

Instance format (UTF-8, LF, 1-based vertex ids):

    c free-form comment
    p iki <n> <m>
    w <v> <weight>      optional; absent vertices weigh 1
    col <v> <color>     optional per-vertex color
    cl <v> <cluster-id> optional per-vertex cluster label (also used as the
                        class id of multicolored-clique instances)
    e <u> <v> [C|H]     edge, optionally tagged cluster-side / chordal-side

Either every edge is tagged or none is.  Tags witness a cluster+chordal
decomposition, which ``WeightedInstance`` checks when the parsed instance
is made; a witness it refuses is a ParseError naming an induced path of
the C side or an induced cycle of the H side.  Writers emit a canonical
form: sorted vertices and edges, trailing newline, fully deterministic.

An untagged instance in canonical form (the header, ascending ``w`` lines,
then ``e u v`` lines ascending with u < v; single spaces, plain ASCII ids,
LF ends) is parsed in bulk: its lines are scanned as bytes with numpy.
Every other text, faulty ones included, takes the line loop, which reports
each fault with its line.  Both hand the checked edges to the graph as CSR
arrays, and no adjacency set is built until something reads one.  A header
of more than MAX_VERTICES vertices is refused with SizeCapError up front.
"""

from __future__ import annotations

import re

import numpy as np

from .graph import (
    Graph, MulticoloredCliqueInstance, SizeCapError, Solution, WeightedInstance
)

MAX_VERTICES = 1 << 20  # a header's n sizes per-vertex arrays and tuples


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# The header of the canonical untagged form; ids and weights of at most 18
# digits fit int64.
_HEADER = re.compile(r"p iki ([0-9]{1,18}) ([0-9]{1,18})\n")
_PLACES = 10 ** np.arange(18, dtype=np.int64)


def _digits(digits, end, width):
    """The numbers of width 1..18 digits without a leading zero ending before
    the offsets end, or None if any is malformed."""
    if (width < 1).any() or (width > 18).any() or (
        (digits[end - width] == 0) & (width > 1)
    ).any():
        return None
    out = np.zeros(end.size, dtype=np.int64)
    for k in range(int(width.max(initial=0))):
        # end - 1 - k may reach before the buffer for a number narrower than
        # k + 1; the index wraps (the widest number bounds how far) and is
        # masked out.  The uint8 digits are widened before the multiply:
        # NumPy 1's value-based casting would keep uint8 * int64 scalar in
        # uint8 and wrap
        out += np.where(width > k, digits[end - 1 - k], 0).astype(np.int64) * _PLACES[k]
    return out


def _scan_lines(body: str):
    """(kind bytes, first numbers, second numbers) of body's lines if each
    is `<kind> <a> <b>` with a one-byte kind, single spaces, numbers as in
    _digits and an LF end; else None."""
    if not body.isascii():
        return None
    buf = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    lines = ends.size
    if buf.size and buf[-1] != 10:
        return None
    starts = np.append(0, ends + 1)[:-1]
    spaces = np.flatnonzero(buf == 32)
    digits = buf - 48  # wraps: every non-digit byte is 10 or more
    # with first == starts + 1 and each second strictly inside its line, the
    # 2 * lines spaces are exactly two per line; the kind bytes, spaces and
    # LFs take 4 * lines bytes, so the digit count leaves none for anything
    # else
    if spaces.size != 2 * lines or np.count_nonzero(digits < 10) != buf.size - 4 * lines:
        return None
    first, second = spaces[0::2], spaces[1::2]
    if (first != starts + 1).any():
        return None
    a = _digits(digits, second, second - first - 1)
    b = _digits(digits, ends, ends - second - 1)
    if a is None or b is None:
        return None
    return buf[starts], a, b


def _csr(n: int, u, v) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of the 0-based edges (u, v), strictly ascending with
    u < v.  Row x holds x's lower neighbours (the u of edges (u, x), in v's
    stable order) and then its upper ones (the v of edges (x, v), in order),
    so every row ascends."""
    lower = np.bincount(v, minlength=n)
    upper = np.bincount(u, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lower + upper, out=indptr[1:])
    indices = np.empty(2 * u.size, dtype=np.int64)
    # numpy's stable sort of 16-bit keys is a radix sort: 0.17 ms against
    # 0.46 ms for int64 keys on the 15k edges of an n=250 interval graph
    # (2-vCPU VM)
    order = np.argsort(v.astype(np.uint16) if n <= 1 << 16 else v, kind="stable")
    # the k-th edge of a row's lower (upper) run, in that order, lands k
    # places after the run's start
    k = np.arange(u.size)
    vs = v[order]
    indices[indptr[vs] + k - (np.cumsum(lower) - lower)[vs]] = u[order]
    indices[indptr[u] + lower[u] + k - (np.cumsum(upper) - upper)[u]] = v
    return indptr, indices


def _instance(n: int, u, v, weights: tuple[int, ...], **kw) -> WeightedInstance:
    try:
        return WeightedInstance(Graph._adopt(n, *_csr(n, u, v)), weights, **kw)
    except ValueError as exc:  # total weight over the bound, or a bad witness
        raise ParseError(str(exc)) from None


def _parse_canonical(text: str) -> WeightedInstance | None:
    """The instance if text is in canonical untagged form, else None."""
    head = _HEADER.match(text)
    if head is None:
        return None
    n, m = int(head[1]), int(head[2])
    if n > MAX_VERTICES:
        return None  # the line loop refuses it
    lines = _scan_lines(text[head.end():])
    if lines is None:
        return None
    kinds, a, b = lines
    nw = kinds.size - m  # the last m lines are the edges
    if nw < 0 or (kinds[:nw] != ord("w")).any() or (kinds[nw:] != ord("e")).any():
        return None
    ids, vals, u, v = a[:nw], b[:nw], a[nw:], b[nw:]
    # strictly ascending pairs with u < v: no self-loop or duplicate, and the
    # order of the line loop's sorted(edges)
    ascending = (u[:-1] < u[1:]) | ((u[:-1] == u[1:]) & (v[:-1] < v[1:]))
    checks = (ids >= 1, ids <= n, ids[:-1] < ids[1:], u >= 1, u < v, v <= n, ascending)
    if not all(c.all() for c in checks):
        return None
    weights = np.ones(n, dtype=np.int64)
    weights[ids - 1] = vals
    return _instance(n, u - 1, v - 1, tuple(weights.tolist()))


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
            u, v = vertex(parts[1], lineno), vertex(parts[2], lineno)
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
            if n > MAX_VERTICES:
                raise SizeCapError(f"header declares {n} vertices; cap is {MAX_VERTICES}")
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

    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return _instance(
        n,
        *pairs.T,
        tuple(weights.get(v, 1) for v in range(n)),
        colors=tuple(colors[v] for v in range(n)) if colors else None,
        clusters=tuple(clusters[v] for v in range(n)) if clusters else None,
        cluster_edges=cluster_edges,
        chordal_edges=chordal_edges,
    )


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
