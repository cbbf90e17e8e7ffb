#!/usr/bin/env python3
"""Parent-versus-change comparison with the benchmark of this checkout.

    python3 perfbench/compare.py PARENT_CHECKOUT CHANGE_CHECKOUT

Runs this directory's run.py in both checkouts (so both sides use identical
benchmark code and only the program differs) on every workload of
BENCHMARK.json, alternating which side goes first, ten pairs per workload,
one pair per seed (seeds 1000 to 1009), each run as long as BENCHMARK.json's
run_seconds.  For every workload and end-to-end metric of
BENCHMARK.json, plus fail_rate, it prints each side's median and quartiles,
the pairs the change won, and a verdict:

  improved      the change won at least 9/10 of the pairs and the medians
                differ, in its favour, by more than the parent's quartile
                spread
  regressed     the change's median is worse than the parent's by more than
                the metric's bound (for fail_rate: worse at all)
  unresolved    the parent's own quartile spread is wider than the bound,
                and not every change run beat every parent run
  within bound  otherwise

It also counts the seeds whose answer digests (solution weights of the
rounds every run completes) differ between the two sides.  Raw results go
to .perfbench/ in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FIRST_SEED = 1000
PAIRS = 10  # the rule's minimum


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"compare: {workload} seed {seed} failed in {checkout}")
    result = json.loads(lines[-1])
    record = os.path.join(checkout, ".perfbench", f"{workload}-seed{seed}-trace0.json")
    with open(record, encoding="utf-8") as fh:
        result["weights_digest"] = json.load(fh)["weights_digest"]
    return result


def verdict(parent: list[float], change: list[float], better: str, bound: float | None):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return wins, "improved"
    if bound is None:  # fail_rate: any increase is a regression
        return wins, "regressed" if gain < 0 else "within bound"
    scale = abs(pm) or 1.0
    if (q3 - q1) / scale > bound:
        beat_all = all(sign * (c - p) > 0 for c in change for p in parent)
        return wins, "within bound" if beat_all else "unresolved"
    return wins, "regressed" if -gain / scale > bound else "within bound"


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    raw = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], workload, FIRST_SEED + i,
                                          bench["run_seconds"]))
        raw[workload] = runs

    print(f"{'workload':20} {'metric':13} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>6}  verdict")
    for workload, runs in raw.items():
        metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
        metrics.append(("fail_rate", "lower", None))
        for name, better, bound in metrics:
            if name == "fail_rate":
                values = {s: [r["failed"] / r["attempted"] for r in runs[s]] for s in runs}
            else:
                values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
            wins, word = verdict(values["parent"], values["change"], better, bound)
            print(f"{workload:20} {name:13} {quartiles(values['parent']):>30} "
                  f"{quartiles(values['change']):>30} {wins:>3}/{PAIRS:<2}  {word}")
        differ = sum(1 for p, c in zip(runs["parent"], runs["change"])
                     if p["weights_digest"] != c["weights_digest"])
        print(f"{workload:20} answers differ on {differ} of {PAIRS} seeds")

    os.makedirs(".perfbench", exist_ok=True)
    out = os.path.join(".perfbench", f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"sides": sides, "runs": raw}, fh, indent=1)
    print(f"raw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
