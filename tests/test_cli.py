import hashlib
import subprocess
import sys
import time

import pytest

from mwccs import recognition
from mwccs.cli import main
from mwccs.fileformat import (
    instance_to_text,
    parse_instance,
    parse_solution_text,
    write_instance,
)
from mwccs.generators import (
    random_chordal,
    random_cluster_chordal_instance,
    random_weights,
)
from mwccs.graph import Graph, WeightedInstance, _has_sets
from mwccs.oracle import brute_mwccs, brute_mwis

from conftest import cycle_graph, interval_graph, path_graph


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def witnessed(tmp_path):
    inst = random_cluster_chordal_instance(10, 3, 3, 9, seed=21)
    path = tmp_path / "inst.iki"
    write_instance(inst, path)
    return inst, str(path)


def test_solve_mwccs_matches_oracle(witnessed, capsys, tmp_path):
    inst, path = witnessed
    out_path = tmp_path / "sol.txt"
    code, out, err = run_cli(
        ["solve", "mwccs", path, "--c", "2", "--ell", "4", "-o", str(out_path)],
        capsys,
    )
    assert code == 0
    sol, meta = parse_solution_text(out_path.read_text())
    assert sol.weight == brute_mwccs(inst, 2, ell_cap=4).weight
    assert meta["mode"] == "exhaustive"
    assert "elapsed_ms" not in meta


def test_solve_determinism_byte_identical(witnessed, capsys, tmp_path):
    _, path = witnessed
    outs = []
    for name in ("a.txt", "b.txt"):
        out_path = tmp_path / name
        code, _, _ = run_cli(
            ["solve", "mwccs", path, "--c", "2", "--ell", "4",
             "--mode", "randomized", "--epsilon", "0.2", "--seed", "5",
             "-o", str(out_path)],
            capsys,
        )
        assert code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def test_solve_mwccs_on_plain_chordal(tmp_path, capsys):
    # no witness: a chordal instance is treated as singleton clusters
    inst = WeightedInstance(path_graph(4), (3, 4, 5, 3))
    path = tmp_path / "p4.iki"
    write_instance(inst, path)
    code, out, _ = run_cli(
        ["solve", "mwccs", str(path), "--c", "2", "--ell", "4"], capsys
    )
    assert code == 0
    sol, _ = parse_solution_text(out)
    # the whole path is bipartite, so everything fits in two colors
    assert sol.weight == brute_mwccs(inst, 2, ell_cap=4).weight == 15


def test_solve_mwccs_past_the_identity_cap(tmp_path, capsys):
    # color classes of 13-15 singleton clusters take the k-subset family
    inst = random_weights(WeightedInstance.unit(random_chordal(14, 3, 0)), 3, 1)
    path = tmp_path / "c14.iki"
    write_instance(inst, path)
    code, out, _ = run_cli(
        ["solve", "mwccs", str(path), "--c", "2", "--ell", "3"], capsys
    )
    assert code == 0
    sol, _ = parse_solution_text(out)
    assert sol.weight == brute_mwccs(inst, 2, ell_cap=3).weight == 9


def test_solve_mwis_direct_and_budgeted(tmp_path, capsys):
    inst = WeightedInstance(path_graph(4), (3, 4, 5, 3))
    path = tmp_path / "p4.iki"
    write_instance(inst, path)
    code, out, _ = run_cli(["solve", "mwis", str(path)], capsys)
    assert code == 0
    sol, meta = parse_solution_text(out)
    assert sol.weight == 8 and meta["mode"] == "direct"
    code, out, _ = run_cli(["solve", "mwis", str(path), "--ell", "1"], capsys)
    sol, _ = parse_solution_text(out)
    assert sol.weight == 5


def test_solve_colorful(tmp_path, capsys):
    inst = WeightedInstance(path_graph(4), (3, 4, 5, 3), colors=(1, 2, 1, 2))
    path = tmp_path / "p4c.iki"
    write_instance(inst, path)
    code, out, _ = run_cli(["solve", "colorful", str(path)], capsys)
    assert code == 0
    sol, _ = parse_solution_text(out)
    assert sol.weight == 6


def test_solve_mwis_direct_builds_no_clique_tree(tmp_path, capsys, monkeypatch):
    from mwccs import cli

    def no_tree(g, peo):
        raise AssertionError("clique tree built")

    monkeypatch.setattr(cli, "clique_tree_from_peo", no_tree)
    g = random_chordal(14, 4, seed=5)
    inst = random_weights(WeightedInstance.unit(g), 9, seed=6)
    path = tmp_path / "ch.iki"
    write_instance(inst, path)
    code, out, _ = run_cli(["solve", "mwis", str(path)], capsys)
    assert code == 0
    sol, _ = parse_solution_text(out)
    assert sol.weight == brute_mwis(inst).weight


def test_solve_mwis_direct_builds_no_mask(tmp_path, capsys, monkeypatch):
    read = []

    def no_mask(g):
        read.append(g)
        raise AssertionError("bitmasks built")

    monkeypatch.setattr(Graph, "mask", property(no_mask))
    g = random_chordal(20, 5, seed=7)
    inst = random_weights(WeightedInstance.unit(g), 50, seed=8)
    path = tmp_path / "ch.iki"
    write_instance(inst, path)
    code, out, err = run_cli(["solve", "mwis", str(path)], capsys)
    assert code == 0 and not read, err
    sol, _ = parse_solution_text(out)
    monkeypatch.undo()
    assert sol.weight == brute_mwis(inst).weight


def test_solve_mwis_on_a_dense_bulk_parse_builds_no_sets(tmp_path, capsys, monkeypatch):
    from mwccs import fileformat

    parsed = []
    parse = fileformat.parse_instance_text
    monkeypatch.setattr(
        fileformat, "parse_instance_text", lambda text: parsed.append(parse(text)) or parsed[-1]
    )
    inst = random_weights(WeightedInstance.unit(interval_graph(200, 0.4, 2)), 50, seed=3)
    path = tmp_path / "dense.iki"
    write_instance(inst, path)
    code, out, err = run_cli(["solve", "mwis", str(path)], capsys)
    assert code == 0, err
    (got,) = parsed
    assert got.graph.prefers_csr
    assert not _has_sets(got.graph) and got.graph._mask is None
    # the line loop parses a commented copy, into sets, to the same document
    commented = tmp_path / "commented.iki"
    commented.write_text("c note\n" + path.read_text())
    assert run_cli(["solve", "mwis", str(commented)], capsys) == (0, out, "")


def test_solve_colorful_refuses_color_30(tmp_path, capsys):
    inst = WeightedInstance(Graph(1), (5,), colors=(30,))
    path = tmp_path / "c30.iki"
    write_instance(inst, path)
    code, out, err = run_cli(["solve", "colorful", str(path)], capsys)
    assert code == 3 and out == "" and err.startswith("size cap:")


def test_solve_colorful_refuses_more_than_30_colors(tmp_path, capsys):
    # the file, not an argument, asks for 31 colors: a size-cap refusal
    path = tmp_path / "c31.iki"
    path.write_text("p iki 2 1\ncol 1 31\ncol 2 1\ne 1 2\n")
    code, out, err = run_cli(["solve", "colorful", str(path)], capsys)
    assert code == 3 and out == ""
    assert err == "size cap: 31 colors exceed the colorful DP's cap of 30\n"


def test_solve_colorful_prices_the_join_pairs(tmp_path, capsys):
    # five vertices and 20 colors are far inside the cell cap, but the
    # binary clique tree's joins would split about 1.2e10 (color set, sub
    # mask) pairs, minutes of work, so the solve is refused up front
    g = Graph(5, [(0, 1), (0, 2), (3, 4), (3, 0)])
    inst = WeightedInstance(g, (1, 2, 3, 4, 5), colors=(20, 9, 12, 17, 1))
    path = tmp_path / "c20.iki"
    write_instance(inst, path)
    started = time.perf_counter()
    code, out, err = run_cli(["solve", "colorful", str(path)], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 3 and out == ""
    assert err.startswith("size cap: colorful DP joins need 11622614670 subset pairs")


def test_solve_rejects_non_chordal(tmp_path, capsys):
    inst = WeightedInstance.unit(cycle_graph(5))
    path = tmp_path / "c5.iki"
    write_instance(inst, path)
    code, _, err = run_cli(["solve", "mwis", str(path)], capsys)
    assert code == 2
    assert "chordal" in err


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.iki"
    bad.write_text("p iki 2 1\ne 1 1\n")
    code, _, err = run_cli(["solve", "mwis", str(bad)], capsys)
    assert code == 65
    code, _, err = run_cli(["recognize", str(bad)], capsys)
    assert code == 64  # missing --class
    # size-cap refusal: exhaustive coloring family too large
    big = random_cluster_chordal_instance(26, 3, 3, 3, seed=4)
    path = tmp_path / "big.iki"
    write_instance(big, path)
    code, _, err = run_cli(
        ["solve", "mwccs", str(path), "--c", "3", "--ell", "4"], capsys
    )
    assert code == 3


def test_overweight_file_is_a_parse_error(tmp_path, capsys):
    # the file, not an argument, is at fault: exit 65 on both parse paths
    text = "p iki 2 1\nw 1 9999999999999999\nw 2 9999999999999999\ne 1 2\n"
    for name, body in (("canonical", text), ("commented", "c note\n" + text)):
        path = tmp_path / f"{name}.iki"
        path.write_text(body)
        code, out, err = run_cli(["solve", "mwis", str(path)], capsys)
        assert code == 65 and out == ""
        assert err == "parse error: total weight exceeds the supported accumulator range\n"


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    from mwccs import dp

    def tripped(inst, peo):
        raise AssertionError("join discipline\nviolated")

    monkeypatch.setattr(dp, "max_weight_is_chordal", tripped)
    path = tmp_path / "p4.iki"
    write_instance(WeightedInstance.unit(path_graph(4)), path)
    code, out, err = run_cli(["solve", "mwis", str(path)], capsys)
    assert code == 70 and out == ""
    assert err == "internal error: AssertionError: join discipline violated\n"


def test_jobs_only_on_solve_mwccs(tmp_path, capsys):
    # the process pool is gone: --jobs is a usage error on every solve
    path = tmp_path / "p4.iki"
    write_instance(WeightedInstance.unit(path_graph(4)), path)
    for argv in (["mwccs", str(path), "--c", "1", "--ell", "2"],
                 ["mwis", str(path)], ["colorful", str(path)]):
        for jobs in ("1", "2"):
            code, out, err = run_cli(["solve", *argv, "--jobs", jobs], capsys)
            assert code == 64 and out == "" and "--jobs" in err


def test_recognize_verdicts(tmp_path, capsys):
    inst = WeightedInstance.unit(cycle_graph(5))
    path = tmp_path / "c5.iki"
    write_instance(inst, path)
    code, out, _ = run_cli(["recognize", str(path), "--class", "chordal"], capsys)
    assert code == 2 and "chordal: no" in out
    code, out, _ = run_cli(["recognize", str(path), "--class", "k1kfree:3"], capsys)
    assert code == 0 and "yes" in out
    code, out, _ = run_cli(["recognize", str(path), "--class", "kmino:2"], capsys)
    assert code == 0 and "kmino:2: yes" in out
    code, out, _ = run_cli(["recognize", str(path), "--class", "kmino:1"], capsys)
    assert code == 2 and "kmino:1: no" in out

    chordal = tmp_path / "tree.iki"
    chordal.write_text("p iki 3 2\ne 1 2\ne 2 3\n")
    wit = tmp_path / "peo.txt"
    code, out, _ = run_cli(
        ["recognize", str(chordal), "--class", "chordal", "--witness", str(wit)],
        capsys,
    )
    assert code == 0
    assert wit.read_text().startswith("order ")
    code, out, _ = run_cli(
        ["recognize", str(chordal), "--class", "inductive:1"], capsys
    )
    assert code == 0
    code, out, _ = run_cli(
        ["recognize", str(chordal), "--class", "cluster"], capsys
    )
    assert code == 2 and "induced path" in out
    code, out, _ = run_cli(
        ["recognize", str(chordal), "--class", "cluster-chordal-brute"], capsys
    )
    assert code == 0


def test_recognize_refuses_an_independent_search_past_the_cap(tmp_path, capsys):
    # hub 1 on the cycle 2..42: its neighbourhood has alpha 20, so looking
    # for 21 pairwise nonadjacent leaves branches past the search's node cap
    cyc = [(1 + i, 1 + (i + 1) % 41) for i in range(41)]
    g = Graph(42, [(0, v) for v in range(1, 42)] + cyc)
    path = tmp_path / "wheel.iki"
    write_instance(WeightedInstance.unit(g), path)
    code, out, err = run_cli(["recognize", str(path), "--class", "k1kfree:21"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("size cap: independent-subset search of size 21 popped")


def test_generate_round_trips(tmp_path, capsys):
    for fam, extra in (
        ("chordal", ["--n", "12", "--max-clique", "3", "--max-w", "9"]),
        ("cluster", ["--n", "10", "--max-cluster", "3"]),
        ("overlay", ["--n", "10", "--max-cluster", "3", "--max-clique", "3"]),
    ):
        out = tmp_path / f"{fam}.iki"
        code, _, _ = run_cli(
            ["generate", fam, "--seed", "3", "-o", str(out)] + extra, capsys
        )
        assert code == 0
        parse_instance(out)  # parses cleanly

    out = tmp_path / "mcc.iki"
    code, _, _ = run_cli(
        ["generate", "mcc", "--k", "3", "--class-sizes", "2", "2", "2",
         "--p", "0.8", "--plant", "--seed", "1", "-o", str(out)],
        capsys,
    )
    assert code == 0
    code, outtext, _ = run_cli(["oracle", "mcc", str(out)], capsys)
    assert code == 0 and "yes" in outtext


def test_reduce_and_oracle(tmp_path, capsys):
    mcc = tmp_path / "mcc.iki"
    mcc.write_text("p iki 2 1\ncl 1 0\ncl 2 1\ne 1 2\n")
    gadget = tmp_path / "gadget.iki"
    names = tmp_path / "names.txt"
    code, out, _ = run_cli(
        ["reduce", "construction1", str(mcc), "-o", str(gadget),
         "--names", str(names)],
        capsys,
    )
    assert code == 0 and "ell 5" in out
    assert names.read_text().count("\n") == 5
    code, out, _ = run_cli(["oracle", "mwis", str(gadget)], capsys)
    assert code == 0
    sol, _ = parse_solution_text(out)
    assert sol.weight == 5

    plain = tmp_path / "plain.iki"
    plain.write_text("p iki 3 0\n")
    out2 = tmp_path / "aug.iki"
    code, _, _ = run_cli(
        ["reduce", "indkind:2", str(plain), "-o", str(out2)], capsys
    )
    assert code == 0
    assert parse_instance(out2).graph.n == 6
    code, _, _ = run_cli(
        ["reduce", "k1kfree:3", str(plain), "-o", str(out2)], capsys
    )
    assert code == 0
    assert parse_instance(out2).graph.n == 4


def test_trial_cap_flag(witnessed, capsys, tmp_path):
    _, path = witnessed
    out = tmp_path / "capped.txt"
    code, _, _ = run_cli(
        ["solve", "mwccs", path, "--c", "2", "--ell", "4",
         "--mode", "randomized", "--epsilon", "0.5", "--seed", "1",
         "--trial-cap", "3", "-o", str(out)],
        capsys,
    )
    assert code == 0
    _, meta = parse_solution_text(out.read_text())
    assert meta["trials"] == 3


def test_randomized_family_counts_at_most_n_vertices(tmp_path, capsys):
    # an answer holds at most 6 vertices, so ell = 40 draws
    # ceil(2^6 * ln 100) colorings, not ceil(2^40 * ln 100)
    path = tmp_path / "six.iki"
    path.write_text("p iki 6 6\ne 1 2 C\ne 1 3 C\ne 2 3 C\ne 3 4 H\ne 4 5 H\ne 5 6 H\n")
    code, out, _ = run_cli(
        ["solve", "mwccs", str(path), "--c", "2", "--ell", "40",
         "--mode", "randomized"],
        capsys,
    )
    assert code == 0
    sol, meta = parse_solution_text(out)
    assert sol.weight == brute_mwccs(parse_instance(path), 2).weight == 5
    assert meta["trials"] == 295


def _path_31(tmp_path):
    path = tmp_path / "p31.iki"
    write_instance(WeightedInstance.unit(path_graph(31)), path)
    return str(path)


def test_randomized_family_over_the_cap_is_refused(tmp_path, capsys):
    code, out, err = run_cli(
        ["solve", "mwccs", _path_31(tmp_path), "--c", "3", "--ell", "20",
         "--mode", "randomized"],
        capsys,
    )
    assert code == 3 and out == ""
    assert err.startswith("size cap: drawing 1.61e+10 colorings")


def test_trial_cap_overrides_the_family_cap(tmp_path, capsys):
    code, out, _ = run_cli(
        ["solve", "mwccs", _path_31(tmp_path), "--c", "3", "--ell", "20",
         "--mode", "randomized", "--trial-cap", "4"],
        capsys,
    )
    assert code == 0
    sol, meta = parse_solution_text(out)
    assert meta["trials"] == 4 and len(sol.vertices) <= 20


@pytest.mark.parametrize(
    "args",
    [
        ["mwccs", "--c", "1", "--ell", "710", "--mode", "randomized"],
        ["mwccs", "--c", "1", "--ell", "40", "--mode", "randomized", "--trial-cap", "2"],
        ["mwis", "--ell", "40", "--mode", "randomized", "--trial-cap", "2"],
    ],
)
def test_randomized_inner_family_is_priced_before_drawing(args, tmp_path, capsys):
    # 800 isolated vertices: the inner randomized family would draw colorings
    # with up to ell colors, whose base e^ell may pass the float range and
    # whose DP runs exceed the cell cap
    path = tmp_path / "iso.iki"
    path.write_text("p iki 800 0\n")
    code, out, err = run_cli(["solve", args[0], str(path), *args[1:]], capsys)
    assert code == 3 and out == ""
    assert err.startswith("size cap: randomized inner query needs")


def test_oracle_hamiltonian(tmp_path, capsys):
    c5 = tmp_path / "c5.iki"
    write_instance(WeightedInstance.unit(cycle_graph(5)), c5)
    code, out, _ = run_cli(["oracle", "hamiltonian", str(c5)], capsys)
    assert code == 0 and "yes" in out
    p4 = tmp_path / "p4.iki"
    write_instance(WeightedInstance.unit(path_graph(4)), p4)
    code, out, _ = run_cli(["oracle", "hamiltonian", str(p4)], capsys)
    assert code == 2 and "no" in out


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mwccs.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "mwccs" in proc.stdout


# a C side that is an induced P3, and an H side that is a C4
BAD_WITNESSES = {
    "bad-c": "p iki 3 2\ne 1 2 C\ne 2 3 C\n",
    "bad-h": "p iki 4 4\ne 1 2 H\ne 2 3 H\ne 3 4 H\ne 1 4 H\n",
}


@pytest.fixture
def front_door_files(tmp_path):
    files = {}
    for name, inst in (
        ("chordal", random_weights(WeightedInstance.unit(random_chordal(8, 3, 3)), 9, 4)),
        ("non-chordal", WeightedInstance.unit(cycle_graph(5))),
        ("witnessed", random_cluster_chordal_instance(8, 3, 3, 9, seed=5)),
    ):
        path = tmp_path / f"{name}.iki"
        write_instance(inst, path)
        files[name] = str(path)
    for name, text in BAD_WITNESSES.items():
        path = tmp_path / f"{name}.iki"
        path.write_text(text)
        files[name] = str(path)
    return files


@pytest.mark.parametrize(
    "problem, kind, args, want",
    [
        ("mwccs", "non-chordal", ["--c", "2"], 64),  # no --ell
        ("mwccs", "non-chordal", ["--c", "2", "--ell", "2"], 2),
        ("mwis", "non-chordal", ["--ell", "2"], 2),
        ("mwis", "non-chordal", [], 2),
        ("mwis", "witnessed", [], 64),  # no --ell
        ("mwccs", "chordal", ["--c", "2", "--ell", "2", "--mode", "randomized",
                              "--epsilon", "0"], 64),
        ("mwis", "chordal", ["--ell", "2", "--mode", "randomized", "--epsilon", "2"], 64),
        ("mwis", "chordal", [], 0),
        ("mwccs", "non-chordal", ["--c", "2", "--ell", "2", "--mode", "randomized",
                                  "--epsilon", "0"], 64),
        ("mwis", "non-chordal", ["--mode", "randomized", "--epsilon", "0"], 64),
        ("mwccs", "bad-c", ["--c", "2", "--ell", "2"], 65),
        ("mwis", "bad-c", ["--ell", "2"], 65),
        ("mwccs", "bad-h", ["--c", "2", "--ell", "2"], 65),
        ("mwis", "bad-h", ["--ell", "2"], 65),
    ],
)
def test_solve_front_door_exit_codes(problem, kind, args, want, front_door_files, capsys):
    # usage and --epsilon errors come before the split of the instance; a
    # bad witness is refused when the parsed instance is made
    code, out, err = run_cli(["solve", problem, front_door_files[kind], *args], capsys)
    assert code == want, err
    if want == 2:
        assert out == "" and "chordal" in err
    if want == 65:
        assert out == "" and ("induced path" in err or "induced cycle" in err)


def test_witness_is_split_once(tmp_path, capsys, monkeypatch):
    # the instance is split when it is made; the front door and the engine
    # read that split, so the 12-vertex chordal side is checked once
    path = tmp_path / "o.iki"
    code, _, err = run_cli(
        ["generate", "overlay", "--n", "12", "--max-cluster", "2", "--max-clique", "3",
         "--max-w", "9", "--seed", "1", "-o", str(path)],
        capsys,
    )
    assert code == 0, err
    inst = parse_instance(path)
    assert inst.parts is inst.parts
    sizes = []
    real = recognition.is_chordal

    def counting(g):
        sizes.append(g.n)
        return real(g)

    # every module that holds the function, as well as its home
    for mod in [m for k, m in sys.modules.items() if k.startswith("mwccs")]:
        for name, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, name, counting)
    code, _, err = run_cli(["solve", "mwis", str(path), "--ell", "4"], capsys)
    assert code == 0, err
    assert sizes.count(12) == 1


@pytest.mark.parametrize(
    "argv, arg",
    [
        (["recognize", "{inst}", "--class", "inductive:x"], "inductive:x"),
        (["reduce", "indkind:x", "{inst}", "-o", "{out}"], "indkind:x"),
        (["reduce", "k1kfree:", "{inst}", "-o", "{out}"], "k1kfree:"),
    ],
)
def test_bad_prefix_parameter_is_a_usage_error(argv, arg, tmp_path, capsys):
    path = tmp_path / "p.iki"
    write_instance(WeightedInstance.unit(path_graph(3)), path)
    argv = [a.format(inst=path, out=tmp_path / "out.iki") for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 64
    assert out == "" and err.startswith("usage error: bad ")
    assert f"parameter in {arg!r}" in err


def test_plain_chordal_documents_are_pinned(tmp_path, capsys):
    # digest recorded before plain chordal input was split by the library
    # instead of being given singleton clusters by the CLI
    h = hashlib.sha256()
    for seed in range(3):
        inst = random_weights(WeightedInstance.unit(random_chordal(14, 3, seed)), 3, seed)
        path = tmp_path / f"ch{seed}.iki"
        write_instance(inst, path)
        for args in (
            ["mwccs", "--c", "2", "--ell", "3"],
            ["mwccs", "--c", "3", "--ell", "3", "--mode", "randomized", "--seed", "5"],
            ["mwis", "--ell", "3"],
            ["mwis", "--ell", "4", "--mode", "randomized", "--seed", "2"],
        ):
            code, out, err = run_cli(["solve", args[0], str(path), *args[1:]], capsys)
            assert code == 0, err
            h.update(out.encode())
    assert h.hexdigest() == (
        "5d37172e3f4170f73b40a9f475aaccac6d3facf247aee6fb98edb8fd2c196285"
    )
