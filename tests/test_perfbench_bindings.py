"""The benchmark in perfbench/ patches and warms the package by name from
outside; these checks fail when a rename would leave it pointing at nothing."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_targets_resolve():
    spans = _load_spans()
    assert spans.TARGETS
    for modname, attr, span in spans.TARGETS:
        home = importlib.import_module(f"mwccs.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), f"{modname}.{attr}"
        else:
            assert callable(getattr(home, attr)), f"{modname}.{attr}"
        assert span.split(".")[0] in spans.LAYERS


def test_lazy_tables_can_be_cleared_and_warmed():
    from mwccs import dp

    for table in (dp._pair_table, dp._popcounts):
        table.cache_clear()
        table(3)
