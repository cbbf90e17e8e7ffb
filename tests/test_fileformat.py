import random
import tracemalloc

import numpy as np
import pytest

from mwccs import fileformat
from mwccs.fileformat import (
    ParseError,
    instance_to_text,
    mcc_from_instance,
    parse_instance,
    parse_instance_text,
    parse_solution_text,
    solution_to_text,
    write_instance,
)
from mwccs.generators import (
    random_chordal,
    random_cluster_chordal_instance,
    random_weights,
)
from mwccs.graph import Graph, SizeCapError, Solution, WeightedInstance, _has_sets

from conftest import adopted, interval_graph


def test_header_only():
    inst = parse_instance_text("p iki 0 0\n")
    assert inst.graph.n == 0


def test_basic_instance():
    text = "c a comment\np iki 3 2\nw 1 5\ne 1 2\ne 2 3\n"
    inst = parse_instance_text(text)
    assert inst.graph.n == 3 and inst.graph.m == 2
    assert inst.weights == (5, 1, 1)  # missing w lines default to 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance_text("p iki 2 2\ne 1 2\ne 2 1\n")
    assert "duplicate edge" in str(err.value) and err.value.line == 3
    with pytest.raises(ParseError):
        parse_instance_text("p iki 2 1\ne 1 1\n")  # self loop
    with pytest.raises(ParseError):
        parse_instance_text("p iki 2 1\ne 1 3\n")  # range
    with pytest.raises(ParseError):
        parse_instance_text("e 1 2\np iki 2 1\n")  # header late
    with pytest.raises(ParseError):
        parse_instance_text("p iki 2 2\ne 1 2\n")  # edge count mismatch
    with pytest.raises(ParseError):
        parse_instance_text("p iki 2 1\ne 1 2 C\np iki 2 1\n")  # dup header



@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p iki 3 1\ne x 2\n", 2, "bad vertex id 'x'"),
        ("p iki 3 1\ne 1 y\n", 2, "bad vertex id 'y'"),
        ("p iki 3 1\ne 2.0 1\n", 2, "bad vertex id '2.0'"),
        # the first id's error wins, whatever is wrong with the second
        ("p iki 3 1\ne x 9\n", 2, "bad vertex id 'x'"),
        ("p iki 3 1\ne 9 x\n", 2, "vertex 9 out of range"),
        ("p iki 3 1\ne 0 2\n", 2, "vertex 0 out of range"),
        ("p iki 3 1\ne 1 4\n", 2, "vertex 4 out of range"),
        ("p iki 0 1\ne 1 1\n", 2, "vertex 1 out of range"),
        ("p iki 3 1\ne 2 2\n", 2, "self-loop"),
        ("p iki 3 2\ne 1 2\nc note\ne 2 1\n", 4, "duplicate edge 2 1"),
        ("p iki 3 1\ne 1 2 X\n", 2, "edge tag must be C or H, got 'X'"),
        ("p iki 3 1\ne 1\n", 2, "`e` takes two vertices and an optional tag"),
        ("p iki 3 1\ne 1 2 C H\n", 2, "`e` takes two vertices and an optional tag"),
        ("e 1 2\np iki 3 1\n", 1, "header must come first"),
        ("p iki 3 1\nc\te 1 2\n", 2, "unknown line kind 'c'"),
        ("p iki 3 2\ne 1 2 C\ne 2 3\n", None, "either all edges carry a C/H tag or none does"),
        # canonical-looking files with a fault leave the bulk path for the loop
        ("p iki 3 2\ne 1 2\ne 2 1\n", 3, "duplicate edge 2 1"),
        ("p iki 3 2\ne 1 2\ne 1 2\n", 3, "duplicate edge 1 2"),
        ("p iki 3 2\nw 1 5\nw 2 1\nw 3 1\ne 1 2\ne 3 3\n", 6, "self-loop"),
        ("p iki 3 2\ne 1 2\ne 0 3\n", 3, "vertex 0 out of range"),
        ("p iki 3 2\ne 1 2\ne 2 4\n", 3, "vertex 4 out of range"),
        ("p iki 3 2\ne 1 2\n", None, "header declares 2 edges, found 1"),
        ("p iki 3 1\ne 1 2\ne 2 3\n", None, "header declares 1 edges, found 2"),
        ("p iki 3 1\nw 1 2\nw 1 3\ne 1 2\n", 3, "duplicate `w` line for vertex 1"),
        ("p iki 3 1\nw 4 2\ne 1 2\n", 2, "vertex 4 out of range"),
        ("p iki 3 1\ne 1 12345678901234567890\n", 2, "vertex 12345678901234567890 out of range"),
    ],
)
def test_edge_line_errors_keep_messages(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert err.value.line == line
    assert str(err.value) == (f"line {line}: {message}" if line else message)


def _generator_instances():
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        g = random_chordal(n, 6, seed)
        yield WeightedInstance.unit(g)
        yield random_weights(WeightedInstance.unit(g), 9, seed)
        yield random_cluster_chordal_instance(n, 3, 4, 9, seed)
        # an interval graph, edges drawn in no particular order
        ivs = [(a, a + rng.uniform(0.05, 0.4)) for a in (rng.random() for _ in range(n))]
        edges = [
            (u, v) for u in range(n) for v in range(n)
            if u < v and ivs[u][0] <= ivs[v][1] and ivs[v][0] <= ivs[u][1]
        ]
        rng.shuffle(edges)
        yield random_weights(WeightedInstance.unit(Graph(n, edges)), 50, seed)


def _dense_instance():
    g = interval_graph(150, 0.5, 11)
    assert adopted(g).prefers_csr  # read from its file, it runs on the arrays
    return random_weights(WeightedInstance.unit(g), 50, 11)


def test_canonical_text_parses_like_the_line_loop():
    cases = [(instance_to_text(inst), inst) for inst in _generator_instances()]
    cases.append((instance_to_text(_dense_instance()), _dense_instance()))
    # accepted but not canonical: unsorted edges, a leading zero, w out of order
    cases += [
        ("p iki 3 2\ne 2 3\ne 1 2\n", None),
        ("p iki 3 1\ne 01 2\n", None),
        ("p iki 3 1\nw 2 7\nw 1 4\ne 1 2\n", None),
    ]
    for text, inst in cases:
        bulk = parse_instance_text(text)
        # a comment line is not canonical, so the line loop parses this copy
        loop = parse_instance_text("c note\n" + text)
        assert bulk == loop
        assert [list(s) for s in bulk.graph.adj] == [list(s) for s in loop.graph.adj]
        if inst is not None and not inst.has_decomposition:
            assert bulk == inst and fileformat._parse_canonical(text) is not None


def test_both_parses_give_one_csr():
    # the bulk parse and the line loop both hand their arrays to the graph
    # and build no sets; a witness reads them when the instance is made
    for inst in [*_generator_instances(), _dense_instance()]:
        text = instance_to_text(inst)
        bulk = parse_instance_text(text).graph
        loop = parse_instance_text("c note\n" + text).graph
        if not inst.has_decomposition:
            assert not _has_sets(bulk) and not _has_sets(loop)
        (bptr, bidx), (lptr, lidx) = bulk.csr, loop.csr
        assert bptr.dtype == bidx.dtype == np.int64
        assert np.array_equal(bptr, lptr) and np.array_equal(bidx, lidx)
        for a, b in zip(bptr.tolist(), bptr.tolist()[1:]):
            assert (np.diff(bidx[a:b]) > 0).all()


@pytest.mark.parametrize("n", [fileformat.MAX_VERTICES + 1, 10**18 - 1, 10**18])
def test_headers_past_the_vertex_cap_are_refused_up_front(n):
    # the 18-digit header is canonical, the 19-digit one is not; a comment
    # sends each through the line loop too
    for text in (f"p iki {n} 0\n", f"c note\np iki {n} 0\n", f"p iki {n} 1\ne 1 2\n"):
        tracemalloc.start()
        with pytest.raises(SizeCapError, match=f"{n} vertices; cap is"):
            parse_instance_text(text)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20  # nothing sized by n was allocated


def _parity(text):
    """Parse text and the same text under a leading comment, which the line
    loop takes; both must give one instance or one error a line apart."""
    results = []
    for body in (text, "c x\n" + text):
        try:
            inst = parse_instance_text(body)
            results.append((inst, [list(s) for s in inst.graph.adj]))
        except ParseError as err:
            message = str(err).split(": ", 1)[-1] if err.line else str(err)
            results.append((message, err.line))
    (first, a), (second, b) = results
    if isinstance(first, str) or isinstance(second, str):
        assert first == second
        assert (a, b) == (None, None) or (a is not None and a + 1 == b), text
    else:
        assert first == second and a == b, text
    return results[0]


@pytest.mark.parametrize(
    "text, bulk",
    [
        ("p iki 3 2\r\ne 1 2\r\ne 2 3\r\n", False),  # CRLF
        ("p iki 3 2\ne 1\t2\ne 2 3\n", False),  # a tab
        ("p iki 3 2\ne 1  2\ne 2 3\n", False),  # a double space
        ("p iki 3 2\ne 1 2\ne 2 3", False),  # no final newline
        ("p iki 3 2\ne 1 2\ne 2 3\n7", False),  # a digit after the final newline
        ("p iki 3 2\ne 0 1\ne 2 3\n", False),
        ("p iki 3 2\ne 01 2\ne 2 3\n", False),
        ("p iki 3 2\ne 1 2\ne 2 1234567890123456789\n", False),  # 19 digits
        ("p iki 3 0\n", True),  # m = 0, no edge lines
        ("p iki 3 0\nw 1 4\nw 2 0\n", True),  # a weight of 0
        ("p iki 3 2\nw 1 0\nw 2 5\nw 3 7\ne 1 2\ne 2 3\n", True),
        # numbers past one and two bytes: every digit place must be read in
        # int64, not in the digits' uint8
        ("p iki 301 2\nw 1 300\nw 2 70000\ne 5 300\ne 5 301\n", True),
        ("p iki 3 1\nw 3 123456789012345\ne 1 2\n", True),
        ("p iki 3 2\ne 1 2\ne \u0662 3\n", False),  # a non-ASCII digit
        ("p iki 3 2\nw 1 \u0663\ne 1 2\ne 2 3\n", False),
    ],
)
def test_scanner_cases_parse_like_the_line_loop(text, bulk):
    _parity(text)
    assert (fileformat._parse_canonical(text) is not None) == bulk


def test_mutated_canonical_texts_parse_like_the_line_loop():
    # seeded single-byte edits of generator texts, with and without w lines;
    # some stay canonical and reach the bulk path
    rng = random.Random(22)
    alphabet = list("0123456789 ewc\n\r\t+-") + ["\u0663"]
    bulk = 0
    for trial in range(2400):
        n = rng.randint(1, 12)
        inst = WeightedInstance.unit(random_chordal(n, 4, trial))
        if trial % 2:
            inst = random_weights(inst, 9, trial)
        text = instance_to_text(inst)
        at = rng.randrange(len(text))
        edit, ch = rng.randrange(3), rng.choice(alphabet)
        if edit == 0:
            text = text[:at] + ch + text[at + 1 :]
        elif edit == 1:
            text = text[:at] + ch + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
        _parity(text)
        bulk += fileformat._parse_canonical(text) is not None
    assert bulk > 100


def test_comments_and_spacing():
    inst = parse_instance_text("p iki 3 2\n  c  spaced comment\nc\n e  1   2 \ne +2 3\n")
    assert inst.graph.edges() == [(0, 1), (1, 2)]


def test_tag_discipline():
    with pytest.raises(ParseError, match="all edges"):
        parse_instance_text("p iki 3 2\ne 1 2 C\ne 2 3\n")
    inst = parse_instance_text("p iki 3 2\ne 1 2 C\ne 2 3 H\n")
    assert inst.cluster_edges == frozenset({(0, 1)})
    assert inst.chordal_edges == frozenset({(1, 2)})


def test_witness_validation_reports_p3():
    bad = "p iki 3 2\ne 1 2 C\ne 2 3 C\n"
    with pytest.raises(ParseError, match="induced path"):
        parse_instance_text(bad)


def test_witness_validation_reports_hole():
    bad = "p iki 4 4\ne 1 2 H\ne 2 3 H\ne 3 4 H\ne 1 4 H\n"
    with pytest.raises(ParseError, match="induced cycle"):
        parse_instance_text(bad)


def test_partial_labels_rejected():
    with pytest.raises(ParseError, match="every vertex"):
        parse_instance_text("p iki 2 0\ncol 1 1\n")
    with pytest.raises(ParseError, match="every vertex"):
        parse_instance_text("p iki 2 0\ncl 1 1\n")


def test_round_trip_instances(tmp_path):
    import random

    for seed in range(100):
        rng = random.Random(seed)
        if seed % 2:
            inst = random_cluster_chordal_instance(rng.randint(1, 12), 3, 3, 9, seed)
        else:
            g = random_chordal(rng.randint(1, 12), 3, seed)
            inst = random_weights(WeightedInstance.unit(g), 9, seed)
            if seed % 4 == 0:
                inst = WeightedInstance(
                    inst.graph,
                    inst.weights,
                    colors=tuple(rng.randint(1, 3) for _ in range(g.n)),
                    clusters=tuple(rng.randint(0, 2) for _ in range(g.n)),
                )
        path = tmp_path / f"inst{seed}.iki"
        write_instance(inst, path)
        back = parse_instance(path)
        if inst.graph.m == 0 and inst.has_decomposition:
            # a vacuous witness has no edges to carry its tags
            assert back.graph == inst.graph and back.weights == inst.weights
        else:
            assert back == inst, f"seed {seed}"
        # canonical writer is a fixpoint
        assert instance_to_text(back) == instance_to_text(inst)


def test_round_trip_solutions():
    sol = Solution(frozenset({0, 4, 2}), 17, {0: 1, 2: 2, 4: 1})
    text = solution_to_text(sol, "exhaustive", 7, 99)
    back, meta = parse_solution_text(text)
    assert back.vertices == sol.vertices
    assert back.weight == 17
    assert back.color_assignment == sol.color_assignment
    assert meta == {"mode": "exhaustive", "seed": 7, "trials": 99}
    # empty solution, no assignment
    text = solution_to_text(Solution(frozenset(), 0, None), "randomized", 0, 3)
    back, meta = parse_solution_text(text)
    assert back.vertices == frozenset() and back.color_assignment is None


@pytest.mark.parametrize(
    "text, line",
    [
        ("weight\n", 1),
        ("weight 3\ncol 1\n", 2),
        ("weight 3\ntrials\n", 2),
        ("weight 3\nvertices 1 x\n", 2),
    ],
)
def test_malformed_solution_lines_raise_parse_errors(text, line):
    with pytest.raises(ParseError) as err:
        parse_solution_text(text)
    assert err.value.line == line


def test_elapsed_only_on_request():
    sol = Solution(frozenset(), 0, None)
    assert "elapsed_ms" not in solution_to_text(sol, "m", 0, 1)
    assert "elapsed_ms 5" in solution_to_text(sol, "m", 0, 1, elapsed_ms=5)


def test_mcc_from_instance():
    text = "p iki 4 1\ncl 1 0\ncl 2 0\ncl 3 1\ncl 4 1\ne 1 3\n"
    mcc = mcc_from_instance(parse_instance_text(text))
    assert mcc.classes == ((0, 1), (2, 3))
    with pytest.raises(ValueError):
        mcc_from_instance(parse_instance_text("p iki 1 0\n"))
