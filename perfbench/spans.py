"""Span recording for the traced run.

The tracer wraps addcomb's public functions at the places they are imported
(module attributes such as ``addcomb.realization.feasible_point``), so no
file of the package changes. Spans and counts stay in memory; ``summary``
turns them into the per-layer metrics and ``dump`` writes them out once the
run is over.

Nothing that runs once per search node is wrapped: the bitset walk is only
ever timed as a whole ``enumerate_mstd`` or ``triple_form_scan`` call.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter


def _tuples(form, elements) -> int:
    return len(elements) ** form.arity


def _count_value_table(tracer, args, kwargs, result):
    tracer.count("model.value_table.tuples", _tuples(args[0], args[1]))


def _count_form_image(tracer, args, kwargs, result):
    tracer.count("images.form_image.tuples", _tuples(args[0], args[1]))


def _count_certificate(tracer, args, kwargs, result):
    tracer.count("isomorphism.is_phi_isomorphism.tuples", _tuples(args[0], args[1].domain))


def _count_classes(tracer, args, kwargs, result):
    # jobs=1 and jobs=nproc must agree, so only the single-job call counts
    if kwargs.get("jobs", 1) == 1:
        tracer.count("search.classes", len(result))


def _search_span(args, kwargs) -> str:
    return "search.enumerate_mstd_par" if kwargs.get("jobs", 1) > 1 else "search.enumerate_mstd"


def _count_lp(tracer, args, kwargs, result):
    p = result.params
    tracer.count("simplex.pivots", p.pivots)
    tracer.count("simplex.equations", p.equations)
    tracer.count("simplex.inequalities", p.inequalities)


def _count_dirichlet(tracer, args, kwargs, result):
    if result.params is not None:  # a singleton needs no denominator
        tracer.count("realization.dirichlet.q_found.sum", result.params.q)
        tracer.maximum("realization.dirichlet.q_found.max", result.params.q)


#: (module, attribute, span name or name function, counter, enclosing span).
#: The enclosing span names the call site; the inner span names the callee.
SITES = (
    ("cli", "main", "cli.main", None, None),
    ("cli", "enumerate_mstd", _search_span, _count_classes, None),
    ("cli", "triple_form_scan", "search.triple_form_scan", None, None),
    ("cli", "sum_diff_counts", "search.sum_diff_counts", None, None),
    ("realization", "feasible_point", "simplex.feasible_point", None, None),
    ("realization", "is_phi_isomorphism", "isomorphism.is_phi_isomorphism",
     _count_certificate, "realization.certificate"),
    ("realization", "form_image", "images.form_image", _count_form_image, None),
    ("isomorphism", "is_phi_isomorphism", "isomorphism.is_phi_isomorphism",
     _count_certificate, None),
    ("isomorphism", "induced_bijection", "isomorphism.induced_bijection", None, None),
    ("isomorphism", "form_image", "images.form_image", _count_form_image, None),
    ("isomorphism", "value_table", "model.value_table", _count_value_table, None),
    ("images", "form_image", "images.form_image", _count_form_image, None),
    ("images", "value_table", "model.value_table", _count_value_table, None),
    ("images", "is_mstd", "images.is_mstd", None, None),
    ("mptq", "exp_transport", "mptq.exp_transport", None, None),
    ("mptq", "product_quotient_counts", "mptq.product_quotient_counts", None, None),
)

#: ``realize`` dispatches through ``realization.METHODS``, so the routes are
#: wrapped as dict entries.
ROUTES = (
    ("group", None),
    ("dirichlet", _count_dirichlet),
    ("lp", _count_lp),
)


class Tracer:
    """Spans are ``[name, start, end, parent index or -1, op id]``."""

    def __init__(self):
        self.spans: list = []
        self.counts: list = []  # (name, value, op id)
        self.maxima: list = []  # (name, value, op id)
        self.op_id = -1
        self._stack: list = []
        self._saved: list = []

    def count(self, name: str, value: int):
        self.counts.append((name, value, self.op_id))

    def maximum(self, name: str, value: int):
        self.maxima.append((name, value, self.op_id))

    def wrap(self, name, fn, counter=None):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append([label, perf_counter(), None, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every site; ``uninstall`` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, attr, name, counter, outer in SITES:
            module = importlib.import_module(f"addcomb.{mod}")
            original = getattr(module, attr)
            fn = self.wrap(name, original, counter)
            if outer is not None:
                fn = self.wrap(outer, fn)
            self._saved.append((module, attr, original))
            setattr(module, attr, fn)
        methods = importlib.import_module("addcomb.realization").METHODS
        for route, counter in ROUTES:
            original = methods[route]
            self._saved.append((methods, route, original))
            methods[route] = self.wrap(f"realization.realize_{route}", original, counter)

    def uninstall(self):
        for target, key, original in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self, group_of, groups: int) -> list[dict]:
        """Totals per group, where ``group_of(op_id)`` is in range(groups).

        Each group maps ``<span>.s``, ``<span>.self_s`` and ``<span>.calls``
        plus every counter to its total over the group's ops. Self time is a
        span's duration minus the part of it that its child spans cover.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append(span)
        totals = [defaultdict(int) for _ in range(groups)]
        for idx, (name, start, end, _parent, op) in enumerate(self.spans):
            g = totals[group_of(op)]
            dur = end - start
            g[f"{name}.s"] += dur
            g[f"{name}.self_s"] += dur - _covered(children.get(idx, ()))
            g[f"{name}.calls"] += 1
        for name, value, op in self.counts:
            totals[group_of(op)][name] += value
        for name, value, op in self.maxima:
            g = totals[group_of(op)]
            g[name] = max(g[name], value)
        return [dict(g) for g in totals]

    def dump(self, path):
        """Write spans and counts as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": self.counts + self.maxima,
        }
        path.write_text(json.dumps(doc))


def _covered(spans) -> float:
    """Length of the union of the [start, end] intervals of spans."""
    total = 0.0
    reach = None
    for _name, start, end, _parent, _op in sorted(spans, key=lambda s: s[1]):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
