"""Command-line front end.

Exit codes: 0 success / member, 2 infeasible or non-member, 3 size-cap
refusal, 64 usage or argument error, 65 instance parse error, 70 internal
error (a failed self-validation or any other unexpected exception).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import colorcoding, dp, fileformat, gadgets, generators, oracle, recognition
from .colorcoding import ColoringFamilySpec, Mode
from .graph import (
    SizeCapError,
    Solution,
    ValidationError,
    WeightedInstance,
)
from .treedecomp import clique_tree_from_peo

EXIT_OK = 0
EXIT_ABSENT = 2
EXIT_CAP = 3
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    top = _Parser(prog="mwccs", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_family_flags(p, with_ell=True):
        if with_ell:
            p.add_argument("--ell", type=int, default=None, help="vertex budget")
        p.add_argument(
            "--mode",
            choices=[m.value for m in Mode],
            default=Mode.EXHAUSTIVE.value,
        )
        p.add_argument("--epsilon", type=float, default=0.01)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trial-cap", type=int, default=None)

    def add_output_flags(p):
        p.add_argument("-o", "--output", default=None, help="solution file path")
        p.add_argument("--timings", action="store_true",
                       help="include elapsed_ms in the solution document")

    solve = sub.add_parser("solve", help="run a solver").add_subparsers(
        dest="problem", required=True
    )
    p = solve.add_parser("mwccs")
    p.add_argument("instance")
    p.add_argument("--c", type=int, required=True)
    add_family_flags(p)
    add_output_flags(p)
    p = solve.add_parser("mwis")
    p.add_argument("instance")
    add_family_flags(p)
    add_output_flags(p)
    p = solve.add_parser("colorful")
    p.add_argument("instance")
    add_output_flags(p)

    p = sub.add_parser("recognize", help="graph class membership")
    p.add_argument("instance")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--witness", default=None, help="witness file path")
    p.add_argument("--edge-cap", type=int, default=24)

    gen = sub.add_parser("generate", help="random instances").add_subparsers(
        dest="family", required=True
    )
    for fam in ("chordal", "cluster", "overlay", "mcc"):
        p = gen.add_parser(fam)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-o", "--output", required=True)
        if fam == "mcc":
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--class-sizes", type=int, nargs="+", required=True)
            p.add_argument("--p", type=float, default=0.5)
            p.add_argument("--plant", action="store_true")
        else:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--max-w", type=int, default=None)
            if fam in ("chordal", "overlay"):
                p.add_argument("--max-clique", type=int, default=4)
            if fam in ("cluster", "overlay"):
                p.add_argument("--max-cluster", type=int, default=3)

    p = sub.add_parser("reduce", help="hardness reductions")
    p.add_argument("kind", help="construction1 | indkind:<k> | k1kfree:<k>")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--names", default=None, help="gadget name-map sidecar path")

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    p.add_argument("problem", choices=["mwis", "mwccs", "colorful", "mcc", "hamiltonian"])
    p.add_argument("instance")
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)

    return top


def _emit_solution(args, inst: WeightedInstance, sol: Solution, started: float,
                   c: int | None = None, spec: ColoringFamilySpec | None = None,
                   stats: dict | None = None) -> int:
    """Validate sol against inst and write its document to -o or stdout.

    Without spec the document is that of a direct, deterministic solve.
    """
    sol.validate(inst, c)
    elapsed = int((time.monotonic() - started) * 1000) if args.timings else None
    if spec is None:
        mode, seed, trials = "direct", 0, 1
    else:
        mode, seed, trials = spec.mode.value, spec.seed, stats.get("trials", 0)
    if args.output:
        fileformat.write_solution(sol, args.output, mode, seed, trials, elapsed)
    else:
        sys.stdout.write(fileformat.solution_to_text(sol, mode, seed, trials, elapsed))
    return EXIT_OK


def _spec_from_args(args) -> ColoringFamilySpec:
    return ColoringFamilySpec(
        mode=Mode(args.mode),
        epsilon=args.epsilon,
        seed=args.seed,
        trial_cap=args.trial_cap,
    )


def _cmd_solve(args) -> int:
    inst = fileformat.parse_instance(args.instance)
    started = time.monotonic()
    if args.problem != "colorful":
        if args.ell is None and args.problem == "mwccs":
            raise _UsageError("solve mwccs requires --ell")
        if args.ell is None and inst.has_decomposition:
            raise _UsageError("solve mwis on a witnessed instance requires --ell")
        spec = _spec_from_args(args)
        try:
            peo = inst.parts[2]
        except ValueError as exc:  # a witness is checked when made: not chordal
            print(exc, file=sys.stderr)
            return EXIT_ABSENT
        if args.ell is None:  # a plain chordal graph, without a budget
            sol = dp.max_weight_is_chordal(inst, peo)
            return _emit_solution(args, inst, sol, started)
        stats: dict = {}
        if args.problem == "mwccs":
            sol = colorcoding.mwccs_cluster_chordal(inst, args.c, args.ell, spec, stats)
            return _emit_solution(args, inst, sol, started, args.c, spec, stats)
        sol = colorcoding.mwis_cluster_chordal(inst, args.ell, spec, stats)
        return _emit_solution(args, inst, sol, started, spec=spec, stats=stats)
    # colorful
    if inst.colors is None:
        raise _UsageError("solve colorful needs col lines in the instance")
    if inst.num_colors > dp.MAX_COLORS:
        raise SizeCapError(
            f"{inst.num_colors} colors exceed the colorful DP's cap of {dp.MAX_COLORS}"
        )
    peo = recognition.is_chordal(inst.graph)
    if peo is None:
        print("instance is not chordal", file=sys.stderr)
        return EXIT_ABSENT
    td = clique_tree_from_peo(inst.graph, peo)
    sol = dp.max_weight_colorful_is(inst, td, 1)
    return _emit_solution(args, inst, sol, started, inst.num_colors)


def _write_witness(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _order_text(order) -> str:
    return "order " + " ".join(str(v + 1) for v in order) + "\n"


def _parameter(arg: str, what: str) -> int:
    """The k of a `prefix:k` argument; a k that is not an int is a usage error."""
    try:
        return int(arg.split(":", 1)[1])
    except ValueError:
        raise _UsageError(f"bad {what} parameter in {arg!r}") from None


def _cmd_recognize(args) -> int:
    inst = fileformat.parse_instance(args.instance)
    g = inst.graph
    klass = args.klass
    if klass == "chordal":
        peo = recognition.is_chordal(g)
        if peo is not None:
            print("chordal: yes")
            _write_witness(args.witness, _order_text(peo))
            return EXIT_OK
        print("chordal: no")
        return EXIT_ABSENT
    if klass == "cluster":
        viol = recognition.find_cluster_violation(g)
        if viol is None:
            print("cluster: yes")
            return EXIT_OK
        print(f"cluster: no (induced path {tuple(v + 1 for v in viol)})")
        return EXIT_ABSENT
    if klass == "two-simplicial":
        order = recognition.two_simplicial_ordering(g)
        if order is not None:
            print("two-simplicial: yes")
            _write_witness(args.witness, _order_text(order))
            return EXIT_OK
        print("two-simplicial: no")
        return EXIT_ABSENT
    if klass == "cluster-chordal-brute":
        dec = recognition.brute_force_cluster_chordal(g, edge_cap=args.edge_cap)
        if dec is not None:
            print("cluster-chordal: yes")
            lines = [f"C {u + 1} {v + 1}" for u, v in sorted(dec.cluster_edges)]
            lines += [f"H {u + 1} {v + 1}" for u, v in sorted(dec.chordal_edges)]
            _write_witness(args.witness, "\n".join(lines) + "\n" + _order_text(dec.peo))
            return EXIT_OK
        print("cluster-chordal: no")
        return EXIT_ABSENT
    for prefix in ("kmino", "k1kfree", "inductive"):
        if klass.startswith(prefix + ":"):
            k = _parameter(klass, "class")
            if prefix == "kmino":
                ok = recognition.is_k_mino(g, k)
                print(f"kmino:{k}: {'yes' if ok else 'no'}")
                return EXIT_OK if ok else EXIT_ABSENT
            if prefix == "k1kfree":
                witness = recognition.is_k1k_free(g, k)
                if witness is None:
                    print(f"k1kfree:{k}: yes")
                    return EXIT_OK
                center, leaves = witness
                print(f"k1kfree:{k}: no")
                _write_witness(
                    args.witness,
                    f"center {center + 1}\nleaves "
                    + " ".join(str(v + 1) for v in sorted(leaves))
                    + "\n",
                )
                return EXIT_ABSENT
            order = recognition.find_inductive_k_independent_ordering(g, k)
            if order is not None:
                print(f"inductive:{k}: yes")
                _write_witness(args.witness, _order_text(order))
                return EXIT_OK
            print(f"inductive:{k}: no")
            return EXIT_ABSENT
    raise _UsageError(f"unknown class {klass!r}")


def _cmd_generate(args) -> int:
    # the parser refuses files past the vertex cap, so none is built
    n = sum(args.class_sizes) if args.family == "mcc" else args.n
    if n > fileformat.MAX_VERTICES:
        raise SizeCapError(f"generate asks for {n} vertices; cap is {fileformat.MAX_VERTICES}")
    if args.family == "chordal":
        g = generators.random_chordal(args.n, args.max_clique, args.seed)
        inst = WeightedInstance.unit(g)
    elif args.family == "cluster":
        g, labels = generators.random_cluster(args.n, args.max_cluster, args.seed)
        inst = WeightedInstance.unit(g, clusters=labels)
    elif args.family == "overlay":
        inst = generators.random_cluster_chordal_instance(
            args.n, args.max_cluster, args.max_clique,
            args.max_w if args.max_w is not None else 1, args.seed,
        )
    else:  # mcc
        mcc = generators.random_multicolored_clique(
            args.k, args.class_sizes, args.p, args.plant, args.seed
        )
        labels = [0] * mcc.graph.n
        for i, cls in enumerate(mcc.classes):
            for v in cls:
                labels[v] = i
        inst = WeightedInstance.unit(mcc.graph, clusters=tuple(labels))
        fileformat.write_instance(inst, args.output, comments=[f"mcc k={args.k}"])
        print(f"wrote {args.output}")
        return EXIT_OK
    if args.family != "overlay" and args.max_w is not None:
        inst = generators.random_weights(inst, args.max_w, args.seed + 1)
    fileformat.write_instance(inst, args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    inst = fileformat.parse_instance(args.instance)
    if args.kind == "construction1":
        mcc = fileformat.mcc_from_instance(inst)
        gprime, ell, index = gadgets.construct_mis_instance(mcc)
        out = WeightedInstance.unit(gprime)
        fileformat.write_instance(out, args.output, comments=[f"target ell {ell}"])
        if args.names:
            with open(args.names, "w", encoding="utf-8") as fh:
                fh.write(index.names_text())
        print(f"ell {ell}")
        return EXIT_OK
    for prefix, fn in (("indkind", gadgets.gen_indkind_hardness),
                       ("k1kfree", gadgets.gen_k1kfree_hardness)):
        if args.kind.startswith(prefix + ":"):
            k = _parameter(args.kind, "reduction")
            out = WeightedInstance.unit(fn(inst.graph, k))
            fileformat.write_instance(out, args.output)
            print(f"wrote {args.output}")
            return EXIT_OK
    raise _UsageError(f"unknown reduction {args.kind!r}")


def _cmd_oracle(args) -> int:
    inst = fileformat.parse_instance(args.instance)
    if args.problem == "mwis":
        sol = oracle.brute_mwis(inst, args.ell)
        sys.stdout.write(fileformat.solution_to_text(sol, "oracle", 0, 1))
        return EXIT_OK
    if args.problem == "mwccs":
        if args.c is None:
            raise _UsageError("oracle mwccs requires --c")
        sol = oracle.brute_mwccs(inst, args.c, args.ell)
        sys.stdout.write(fileformat.solution_to_text(sol, "oracle", 0, 1))
        return EXIT_OK
    if args.problem == "colorful":
        sol = oracle.brute_colorful_is(inst)
        sys.stdout.write(fileformat.solution_to_text(sol, "oracle", 0, 1))
        return EXIT_OK
    if args.problem == "mcc":
        found = oracle.brute_multicolored_clique(fileformat.mcc_from_instance(inst))
        print("multicolored-clique: " + ("yes" if found else "no"))
        return EXIT_OK if found else EXIT_ABSENT
    found = oracle.brute_hamiltonian_cycle(inst.graph)
    print("hamiltonian: " + ("yes" if found else "no"))
    return EXIT_OK if found else EXIT_ABSENT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "recognize":
            return _cmd_recognize(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        return _cmd_oracle(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except fileformat.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValidationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a defect of the program, e.g. a tripped assertion
        detail = " ".join(str(exc).split())  # one line, whatever the message
        print(f"internal error: {type(exc).__name__}" + (f": {detail}" if detail else ""),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
