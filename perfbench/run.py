#!/usr/bin/env python3
"""Benchmark of the mwccs solvers, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One process runs one workload: it builds the seeded inputs (set-up, done
three times and timed), runs whole rounds of ops in a closed loop with one
client until --seconds of op time have passed and at least the workload's
minimum op count has run, then checks every answer against a reference.
With --trace 1 each op runs twice, untraced and traced, and the per-layer
split is reported instead of the end-to-end metrics.  "all" runs every
workload, each in its own process, one after another.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A run record and, when traced, the spans
are written under .perfbench/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# the DP is elementwise numpy work; keep the BLAS pool from starting threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 3
WALL_CAP_S = 120  # no new op starts after this much wall time
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def declared_metrics(kind: str) -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of the "end_to_end" or "per_layer" metrics
    that BENCHMARK.json declares."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: (m["unit"], m["better"]) for m in json.load(fh)[kind]}


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op overruns its limit.  A BaseException, so
    that no handler inside the program mistakes it for its own error."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def load_program():
    """Import mwccs from ./src of the checkout, and nowhere else."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "mwccs", "__init__.py")):
        sys.exit(f"perfbench: no mwccs sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import mwccs

    if os.path.dirname(os.path.dirname(os.path.abspath(mwccs.__file__))) != src:
        sys.exit(f"perfbench: mwccs imported from {mwccs.__file__}, not {src}")
    return mwccs


def git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def setup(wl, seed: int, workdir: str):
    """Inputs for every pooled round plus warm-up of the lazy DP tables, from
    cold caches, as a fresh CLI process would pay them."""
    from mwccs import dp

    dp._pair_table.cache_clear()
    dp._popcounts.cache_clear()
    t0 = time.perf_counter()
    pool = [wl.round_cases(seed, r, workdir) for r in range(wl.pool_rounds)]
    for c in wl.warm_colors:
        dp._pair_table(c)
        dp._popcounts(c)
    return time.perf_counter() - t0, pool


def run_case(case, limit_s: int, call=None):
    """Time one op under the limit; returns (record, seconds spent)."""
    from workloads import WrongAnswer

    call = call or case.solve
    rec = {"shape": case.shape, "status": "ok", "latency_s": float(limit_s),
           "weight": None, "trials": 0}
    t0 = time.perf_counter()
    try:
        try:
            signal.alarm(limit_s)
            out = call()
            rec["latency_s"] = time.perf_counter() - t0
        finally:
            signal.alarm(0)
    except OpTimeout:
        rec["status"], rec["error"] = "timeout", f"over {limit_s} s"
    except Exception as exc:  # every error of the program counts as a failure
        rec["status"], rec["error"] = "error", f"{type(exc).__name__}: {exc}"[:300]
    spent = time.perf_counter() - t0
    if rec["status"] == "ok":
        try:
            rec["weight"], rec["trials"] = case.collect(out)
        except WrongAnswer as exc:
            rec["status"], rec["error"] = "wrong", str(exc)[:300]
            rec["latency_s"] = float(limit_s)
    return rec, spent


class CpuRota:
    """Pins this process to each allowed CPU in turn.

    The CPUs of a shared machine can run at lastingly different speeds
    (their hyperthread siblings belong to other tenants), and the scheduler
    keeps a process on one of them, so whole runs came out fast or slow.
    Rotating every round's ops over all CPUs gives every run the same mix.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin(self, turn: int) -> None:
        os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def timed_phase(wl, pool, seconds: int, rota: CpuRota, tracer=None):
    """Whole rounds in a closed loop with one client.  Returns the op
    records, their cases, and the op seconds measured untraced and traced."""
    records, cases = [], []
    untraced_s = traced_s = 0.0
    per_round = len(pool[0])
    min_rounds = 1 if tracer else math.ceil(wl.min_ops / per_round)
    started = time.monotonic()
    r = 0
    while True:
        for j, case in enumerate(pool[r % len(pool)]):
            if time.monotonic() - started > WALL_CAP_S:
                break
            op_id = len(records)
            rota.pin(j + r)
            if tracer is None:
                rec, spent = run_case(case, wl.limit_s)
                untraced_s += spent
            else:
                # alternate which run goes first, so neither gains warm caches
                traced_first = op_id % 2 == 1
                runs = {}
                for traced in ((True, False) if traced_first else (False, True)):
                    call = (lambda c=case, i=op_id: tracer.run_op(i, c.solve)) if traced else None
                    runs[traced], spent = run_case(case, wl.limit_s, call)
                    if traced:
                        traced_s += spent
                    else:
                        untraced_s += spent
                rec, plain = runs[True], runs[False]
                rec["untraced_latency_s"] = plain["latency_s"]
                if plain["status"] != "ok" and rec["status"] == "ok":
                    rec["status"], rec["error"] = plain["status"], plain.get("error")
                elif rec["status"] == "ok" and plain["weight"] != rec["weight"]:
                    rec["status"], rec["error"] = "wrong", "traced and untraced answers differ"
                tracer.note(op_id, "colorcoding.outer_colorings", rec["trials"])
            rec["round"] = r
            records.append(rec)
            cases.append(case)
        r += 1
        measured = traced_s + untraced_s
        if r >= min_rounds and measured >= seconds:
            break
        if time.monotonic() - started > WALL_CAP_S:
            break
    return records, cases, untraced_s, traced_s


def check_answers(records, cases, limit_s: int) -> None:
    """Compare every answer with its reference (after the timed phase); a
    wrong answer, like any failure, enters the latencies at the limit."""
    from workloads import EXACT, FLOOR

    for rec, case in zip(records, cases):
        if rec["status"] != "ok":
            rec["optimal"] = False
            continue
        ref = case.reference_weight()
        rec["reference"] = ref
        rec["optimal"] = rec["weight"] >= ref
        if case.kind == EXACT and rec["weight"] != ref:
            rec["status"] = "wrong"
            rec["error"] = f"weight {rec['weight']} but the optimum is {ref}"
        elif case.kind == FLOOR and rec["weight"] < ref:
            rec["status"] = "wrong"
            rec["error"] = f"weight {rec['weight']} is below the floor {ref}"
        if rec["status"] == "wrong":
            rec["latency_s"] = float(limit_s)


def weights_digest(records, per_round: int, rounds: int) -> str:
    """sha256 of the weights of the first `rounds` rounds, which every run
    of the seed completes, so runs of two commits can be compared."""
    h = hashlib.sha256()
    for rec in records[: per_round * rounds]:
        h.update(f"{rec['shape']}:{rec['weight']}:{rec['status']}\n".encode())
    return h.hexdigest()


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def print_table(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':34} {'value':>14} {'unit':>9} {'better':>7} {'samples':>8}")
    for name, value, unit, better, samples in rows:
        print(f"  {name:34} {value:>14.6g} {unit:>9} {better:>7} {samples:>8}")


def run_workload(args, mwccs) -> int:
    import numpy
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(os.getcwd(), ".perfbench")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        rota = CpuRota()
        setup_times = []
        for i in range(SETUP_REPEATS):
            rota.pin(i)
            elapsed, pool = setup(wl, args.seed, workdir)
            setup_times.append(elapsed)
        # the pooled inputs are the harness's, not the program's: keep the
        # cyclic collector from re-walking them during every op
        gc.collect()
        gc.freeze()
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        records, cases, untraced_s, traced_s = timed_phase(wl, pool, args.seconds, rota, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rota.release()
        check_answers(records, cases, wl.limit_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for r in records if r["status"] != "ok")
    completed = attempted - failed
    # a wrong answer is never correct; on a workload sized to run without
    # failures, neither is an op that raised or timed out
    correct = not any(r["status"] == "wrong" for r in records) and (
        wl.failures_expected or failed == 0)
    latencies = [r["latency_s"] for r in records]
    per_round = len(pool[0])
    rounds_done = records[-1]["round"] + 1

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        values = {
            "solve_s_p50": statistics.median(latencies),
            "solve_s_p90": percentile(latencies, 0.90),
            "ops_per_s": completed / untraced_s,
            "optimum_rate": sum(1 for r in records if r.get("optimal")) / attempted,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        units = declared_metrics("end_to_end")
        samples = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    else:
        units = declared_metrics("per_layer")
        values = tracer.per_layer(attempted, units)
        values["trace.ops_per_s_untraced"] = attempted / untraced_s
        values["trace.ops_per_s_traced"] = attempted / traced_s
        values["trace.overhead"] = traced_s / untraced_s - 1.0
        samples = {}
        tracer.write(os.path.join(out_dir, f"{wl.name}-seed{args.seed}-spans.tsv.gz"))

    rows = [(k, values[k], units[k][0], units[k][1], samples.get(k, attempted)) for k in units]
    rows.append(("fail_rate", failed / attempted, "ratio", "lower", attempted))
    rows.append(("solve_s_max", max(latencies), "s", "lower", attempted))
    print_table(f"{wl.name}  seed={args.seed}  rounds={rounds_done}  ops={attempted}  "
                f"failed={failed}  correct={correct}", rows)
    for rec in records:
        if rec["status"] != "ok":
            print(f"  failed op: round {rec['round']} {rec['shape']}: "
                  f"{rec['status']} {rec.get('error', '')}")

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(os.getcwd()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mwccs": mwccs.__version__,
        "nproc": len(rota.cpus),
        "machine": platform.machine(),
        "rounds": rounds_done,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "correct": correct,
        "weights_digest": weights_digest(records, per_round, math.ceil(wl.min_ops / per_round)),
        "setup_samples_s": setup_times,
        "metrics": {k: {"value": values[k], "unit": units[k][0]} for k in units},
        "ops": records,
    }
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
        print()
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    mwccs = load_program()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     + ", ".join(["all", *workloads.WORKLOADS]))
    return run_workload(args, mwccs)


if __name__ == "__main__":
    sys.exit(main())
