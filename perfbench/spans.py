"""Per-layer spans recorded from outside the program.

The public entry points of each module are wrapped while a traced op runs
and restored after it, so untraced ops run the program's own code.  The
package binds names with ``from .x import y``, so a function is replaced in
every ``mwccs`` module that holds it, not only in the one defining it;
methods are replaced on their class.

Spans live in memory (name, start, end, parent span, op id) and are written
out once, when the run ends.  A layer's self time is its spans' durations
minus their direct children's.  The benchmark's own "op" span encloses each
op, so self times over all layers add up to the op's wall time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("fileformat", "recognition", "treedecomp", "dp", "colorcoding", "cli")

# (module, attribute or Class.method, span name); the span name's first
# part is the layer
TARGETS = (
    ("fileformat", "parse_instance", "fileformat.parse"),
    ("fileformat", "solution_to_text", "fileformat.emit"),
    ("recognition", "is_chordal", "recognition.is_chordal"),
    ("recognition", "verify_peo", "recognition.verify_peo"),
    ("recognition", "find_cluster_violation", "recognition.cluster_check"),
    ("treedecomp", "clique_tree_from_peo", "treedecomp.clique_tree"),
    ("treedecomp", "normalize_binary", "treedecomp.normalize"),
    ("treedecomp", "verify_tree_decomposition", "treedecomp.verify"),
    ("dp", "ColorfulDP.__init__", "dp.engine_build"),
    ("dp", "ColorfulDP.solve", "dp.solve"),
    ("dp", "ColorfulRun.best_full", "dp.extract"),
    ("dp", "ColorfulRun.best_by_color_count", "dp.extract"),
    ("dp", "max_weight_colorful_is", "dp.colorful_is"),
    ("dp", "max_weight_is_chordal", "dp.chordal_mwis"),
    ("colorcoding", "mwccs_cluster_chordal", "colorcoding.pipeline"),
    ("colorcoding", "mwis_cluster_chordal", "colorcoding.pipeline"),
    ("colorcoding", "mwccs_from_mwis", "colorcoding.reduction"),
    ("colorcoding", "ClusterChordalEngine.__init__", "colorcoding.engine_build"),
    ("colorcoding", "ClusterChordalEngine.bounded_vector", "colorcoding.bounded_vector"),
    ("colorcoding", "ClusterChordalSolver.solve_vector", "colorcoding.class_query"),
    ("cli", "main", "cli.main"),
)

# span name -> (self-time metric, call-count metric)
_SPAN_METRICS = {
    "fileformat.parse": ("fileformat.parse_s", "fileformat.parse_calls"),
    "fileformat.emit": ("fileformat.emit_s", None),
    "recognition.is_chordal": ("recognition.is_chordal_s", "recognition.is_chordal_calls"),
    "recognition.verify_peo": ("recognition.verify_peo_s", "recognition.verify_peo_calls"),
    "recognition.cluster_check": ("recognition.cluster_check_s", "recognition.cluster_check_calls"),
    "treedecomp.clique_tree": ("treedecomp.clique_tree_s", "treedecomp.clique_tree_calls"),
    "treedecomp.normalize": ("treedecomp.normalize_s", None),
    "treedecomp.verify": ("treedecomp.verify_s", None),
    "dp.engine_build": ("dp.engine_build_s", "dp.engine_builds"),
    "dp.solve": ("dp.solve_s", "dp.solve_calls"),
    "dp.extract": ("dp.extract_s", None),
    "dp.colorful_is": ("dp.colorful_is_s", None),
    "dp.chordal_mwis": ("dp.chordal_mwis_s", "dp.chordal_mwis_calls"),
    "colorcoding.pipeline": ("colorcoding.pipeline_s", None),
    "colorcoding.reduction": ("colorcoding.reduction_self_s", None),
    "colorcoding.engine_build": ("colorcoding.engine_build_s", "colorcoding.engine_builds"),
    "colorcoding.bounded_vector": ("colorcoding.bounded_vector_s", "colorcoding.bounded_vector_calls"),
    "colorcoding.class_query": (None, "colorcoding.class_queries"),
    "cli.main": ("cli.self_s", None),
}


class Tracer:
    """Span recorder; install() before a traced op and remove() after."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._op = -1
        self._patches = self._plan()

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        modules = [m for k, m in sys.modules.items() if k == "mwccs" or k.startswith("mwccs.")]
        patches = []
        for modname, attr, span in TARGETS:
            home = sys.modules[f"mwccs.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                patches.append((cls, meth, orig, self._wrap(span, orig)))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(span, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, name, orig, wrapper))
        return patches

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def remove(self):
        for owner, name, orig, _ in self._patches:
            setattr(owner, name, orig)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, span: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if span == "treedecomp.clique_tree":
                tracer.counts[tracer._op]["treedecomp.bags"] += len(result)
            elif span == "dp.solve":
                tracer.counts[tracer._op]["dp.bags_solved"] += len(args[0].td)
            return result

        return wrapper

    def run_op(self, op_id: int, call):
        """Run call() inside an "op" span with the wrappers installed."""
        self._op = op_id
        self._stack.clear()
        self.install()
        try:
            idx = self._open("op")
            try:
                return call()
            finally:
                self._close(idx)
        finally:
            self.remove()
            self._op = -1

    def note(self, op_id: int, counter: str, value: int) -> None:
        self.counts[op_id][counter] += value

    def per_layer(self, nops: int, names) -> dict[str, float]:
        """Per-op means of the named span metrics over the nops traced ops;
        a metric whose span never ran reads 0."""
        nops = max(1, nops)
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        totals: dict[str, float] = defaultdict(float)
        bounded_children: dict[int, int] = defaultdict(int)
        dp_runs_in_query = 0
        for i in range(n):
            name = self.names[i]
            dur = self.end[i] - self.start[i]
            self_t = dur - child_time[i]
            layer = "bench" if name == "op" else name.split(".")[0]
            totals[f"layer.{layer}_s"] += self_t
            if name == "op":
                totals["trace.op_wall_s"] += dur
                continue
            time_metric, call_metric = _SPAN_METRICS[name]
            if time_metric:
                totals[time_metric] += self_t
            if call_metric:
                totals[call_metric] += 1
            if name == "colorcoding.bounded_vector" and self.parent[i] >= 0:
                if self.names[self.parent[i]] == "colorcoding.class_query":
                    bounded_children[self.parent[i]] += 1
            elif name == "dp.solve":
                p = self.parent[i]
                while p >= 0 and self.names[p] != "colorcoding.class_query":
                    p = self.parent[p]
                if p >= 0:
                    dp_runs_in_query += 1
        for counters in self.counts.values():
            for counter, value in counters.items():
                totals[counter] += value
        retries = sum(1 for k in bounded_children.values() if k > 1)
        queries = totals.get("colorcoding.class_queries", 0)
        out = {name: totals.get(name, 0.0) / nops for name in names}
        out["colorcoding.cap_retries"] = retries / nops
        out["colorcoding.cap_retry_ratio"] = retries / queries if queries else 0.0
        out["colorcoding.inner_runs_per_query"] = dp_runs_in_query / queries if queries else 0.0
        wall = totals.get("trace.op_wall_s", 0.0)
        layers = sum(totals.get(f"layer.{layer}_s", 0.0) for layer in LAYERS)
        out["trace.coverage"] = layers / wall if wall else 0.0
        return out

    def write(self, path: str) -> None:
        """Spans as gzipped tab-separated rows: id, name, start, end,
        parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{name}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.op[i]}\n"
                )
