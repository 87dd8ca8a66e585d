"""The traced benchmark wraps addcomb functions by module attribute; every
site it names must exist, or ``perfbench/run.py --trace 1`` stops with an
AttributeError. The spans module is loaded by path, as the benchmark ships
it, not as a package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_resolves():
    spans = load_spans()
    missing = [
        f"addcomb.{mod}.{attr}"
        for mod, attr, *_ in spans.SITES
        if not callable(getattr(importlib.import_module(f"addcomb.{mod}"), attr, None))
    ]
    assert missing == []


def test_every_route_resolves():
    spans = load_spans()
    methods = importlib.import_module("addcomb.realization").METHODS
    assert [route for route, _ in spans.ROUTES if route not in methods] == []
