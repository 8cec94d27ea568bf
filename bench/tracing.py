"""Per-layer spans recorded from outside the library.

A ``Tracer`` wraps orientkit's public functions and methods for as long as
it is installed.  Each call records a span: name, start, end and the span it
ran inside.  Wrapping also rebinds every ``from ... import`` copy of a
function inside the other orientkit modules, so calls between modules are
seen too.  A hook whose module or attribute no longer exists is skipped and
its metrics read as absent (``None``), so the benchmark keeps running when a
refactor deletes or renames its target.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (span name, module, attribute path).  Several hooks may share a span name.
HOOKS = (
    ("graphs.parse_graph", "orientkit.graphs", "parse_graph"),
    ("graphs.serialize_graph", "orientkit.graphs", "serialize_graph"),
    ("graphs.bipartition", "orientkit.graphs", "bipartition"),
    ("graphs.Graph", "orientkit.graphs", "Graph.__post_init__"),
    ("graphs.min_degree", "orientkit.graphs", "min_degree"),
    ("graphs.connected_components", "orientkit.graphs", "connected_components"),
    ("flow.max_flow", "orientkit.flow", "Dinic.max_flow"),
    ("flow.min_cut_source_side", "orientkit.flow", "Dinic.min_cut_source_side"),
    ("orientation.k_orientation", "orientkit.orientation", "k_orientation"),
    ("orientation.proper_bipartite_orientation", "orientkit.orientation",
     "proper_bipartite_orientation"),
    ("orientation.proper_three_orientation", "orientkit.orientation",
     "proper_three_orientation"),
    ("orientation.verify_orientation", "orientkit.orientation", "verify_orientation"),
    ("density.mad_exact", "orientkit.density", "mad_exact"),
    ("density.pseudoarboricity", "orientkit.density", "pseudoarboricity"),
    ("exact.exists_proper_k", "orientkit.exact", "exists_proper_k"),
    ("exact.proper_orientation_number", "orientkit.exact", "proper_orientation_number"),
    ("exact.quadrangulation_number", "orientkit.exact", "quadrangulation_number"),
    ("exact.is_q3", "orientkit.exact", "is_q3"),
    ("cnf.export_cnf", "orientkit.cnf", "export_cnf"),
    ("cnf.dpll", "orientkit.cnf", "dpll"),
    ("cnf.decode_model", "orientkit.cnf", "decode_model"),
    ("generators.q3", "orientkit.generators", "q3"),
    ("generators.pdw", "orientkit.generators", "pdw"),
    ("generators.theorem4", "orientkit.generators", "theorem4"),
    ("generators.complete_bipartite", "orientkit.generators", "complete_bipartite"),
    ("generators.path", "orientkit.generators", "path"),
    ("generators.cycle", "orientkit.generators", "cycle"),
    ("t4proof.gadget", "orientkit.t4proof", "check_left_pigeonhole"),
    ("t4proof.gadget", "orientkit.t4proof", "check_right_overflow"),
    ("t4proof.verify_lower_bound_certificate", "orientkit.t4proof",
     "verify_lower_bound_certificate"),
    ("t4proof.reduced_scale_crosscheck", "orientkit.t4proof", "reduced_scale_crosscheck"),
    ("t4proof.witness_four_orientation", "orientkit.t4proof", "witness_four_orientation"),
)

# Facts read off a call's return value, for the counts below.
OBSERVERS = {
    "exact.exists_proper_k": lambda result: {"sat": result is not None},
    "cnf.export_cnf": lambda doc: {"vars": doc.num_vars, "clauses": len(doc.clauses)},
    "t4proof.gadget": lambda gadget: {"enumerated": gadget.enumerated_count},
}

# Derived metrics that are ratios per call rather than totals.
RATIOS = frozenset({
    "density.flow_calls_per_mad",
    "density.k_orientation_calls_per_pseudoarboricity",
    "exact.k_tried_per_answer",
    "t4proof.enumerated",
})

_UNREADABLE = {}  # info of a span whose return value no longer has the fields


class Span:
    __slots__ = ("name", "parent", "start", "end", "children_s", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.children_s = 0.0
        self.info = None


def rebind(original, replacement):
    """Point every orientkit module attribute bound to ``original`` at
    ``replacement``; returns the (module, attribute) pairs changed."""
    changed = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "orientkit" or mod_name.startswith("orientkit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


class Tracer:
    """Installs the hooks, collects spans, and restores the library on uninstall."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []
        self._stack = []
        self._undo = []  # (owner, attribute, original), newest last
        self.absent = set()

    def install(self):
        installed = set()
        missing = set()
        for name, module, path in self.hooks:
            target = _resolve(module, path)
            if target is None:
                missing.add(name)
                continue
            owner, attr, original = target
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
            else:
                for mod, mod_attr in rebind(original, wrapper):
                    self._undo.append((mod, mod_attr, original))
            installed.add(name)
        self.absent = missing - installed

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self):
        """Spans recorded since the last call, oldest first."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, func):
        stack = self._stack
        observe = OBSERVERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            self.spans.append(span)  # take() swaps the list, so look it up per call
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    span.info = observe(result)
                except (AttributeError, TypeError):
                    span.info = _UNREADABLE
            return result

        return traced


def _resolve(module, path):
    """(owner, attribute, current value) for ``module:path``, or None."""
    try:
        owner = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


def _has_ancestor(span, name):
    span = span.parent
    while span is not None:
        if span.name == name:
            return True
        span = span.parent
    return False


def _ratio(count, base):
    if not base:
        return 0
    return count // base if count % base == 0 else count / base


def summarize(spans, absent):
    """Per-layer metrics of one batch of spans.

    Returns ``{metric name: value}``; a metric whose hook target is absent,
    or whose count can no longer be read off the return value, is ``None``.
    A metric whose functions did not run in this batch reads 0.
    """
    for span in spans:
        if span.parent is not None:
            span.parent.children_s += span.end - span.start
    calls, self_s = {}, {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + (
            span.end - span.start - span.children_s
        )
    out = {}
    for name in {hook[0] for hook in HOOKS}:
        present = name not in absent
        out[f"{name}.calls"] = calls.get(name, 0) if present else None
        out[f"{name}.self_s"] = self_s.get(name, 0.0) if present else None

    def spans_of(name, ancestor=None):
        """Spans of ``name`` (run inside ``ancestor``); None if either hook is absent."""
        if name in absent or ancestor in absent:
            return None
        return [s for s in spans
                if s.name == name and (ancestor is None or _has_ancestor(s, ancestor))]

    def per_call(name, ancestor):
        found = spans_of(name, ancestor)
        return None if found is None else _ratio(len(found), calls.get(ancestor, 0))

    def info_total(name, key, ancestor=None):
        found = spans_of(name, ancestor)
        if found is None or any(s.info is _UNREADABLE for s in found):
            return None
        return sum(s.info[key] for s in found)

    def self_where(name, key, value):
        found = spans_of(name)
        if found is None or any(s.info is _UNREADABLE for s in found):
            return None
        return sum(s.end - s.start - s.children_s for s in found if s.info[key] == value)

    mad, pa = "density.mad_exact", "density.pseudoarboricity"
    pon, epk = "exact.proper_orientation_number", "exact.exists_proper_k"
    cert = "t4proof.verify_lower_bound_certificate"
    out["density.flow_calls_per_mad"] = per_call("flow.max_flow", mad)
    out["density.k_orientation_calls_per_pseudoarboricity"] = per_call(
        "orientation.k_orientation", pa)
    out["exact.k_tried_per_answer"] = per_call(epk, pon)
    out[f"{epk}.sat_self_s"] = self_where(epk, "sat", True)
    out[f"{epk}.unsat_self_s"] = self_where(epk, "sat", False)
    out["cnf.clauses"] = info_total("cnf.export_cnf", "clauses")
    out["cnf.vars"] = info_total("cnf.export_cnf", "vars")
    enumerated = info_total("t4proof.gadget", "enumerated", ancestor=cert)
    out["t4proof.enumerated"] = (
        None if enumerated is None else _ratio(enumerated, calls.get(cert, 0)))
    return out
