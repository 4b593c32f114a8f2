"""Spans and work counters recorded around the public functions of sumprod.

The tracer replaces each traced function at every binding name a sumprod
module looks it up by: `chains` imports `chang_decompose` from `lemmas`,
so `sumprod.chains.chang_decompose` is wrapped as well as
`sumprod.lemmas.chang_decompose`.  Spans are kept for one operation at a
time and folded into per-function totals when the operation ends, so a
long run holds only one operation's spans in memory.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# layer -> (module, traced functions)
LAYERS = {
    "core": ("sumprod.core", ("sumset", "product_set", "ratio_set", "rep_fn")),
    "energy": ("sumprod.energy", ("additive_energy", "multiplicative_energy")),
    "lemmas": (
        "sumprod.lemmas",
        ("greedy_cover", "katz_shen_subset", "gk_witness", "xi_search",
         "chang_decompose", "plunnecke_audit"),
    ),
    "chains": (
        "sumprod.chains",
        ("chain_small", "chain_large", "prop51_audit", "chain_unbalanced",
         "chain_balanced", "energy_bound_audit"),
    ),
    "search": (
        "sumprod.search",
        ("canonical_form", "objective", "exhaustive_extremal", "anneal_extremal",
         "ratio_threshold_scan"),
    ),
    "cli": ("sumprod.cli", ("run", "parse_set", "emit")),
}

# Functions reported one by one, with the work counters each one has.
PER_FUNCTION = {
    "core": {"sumset": (), "product_set": (), "ratio_set": (), "rep_fn": ("pairs",)},
    "energy": {"additive_energy": (), "multiplicative_energy": ()},
    "lemmas": {
        "katz_shen_subset": ("submasks",),
        "greedy_cover": ("translates_scanned",),
        "xi_search": ("dilations_scanned",),
        "chang_decompose": (),
        "gk_witness": (),
    },
    "search": {"canonical_form": ("dilates",), "objective": ()},
}


def _key(args, kwargs):
    """Hashable identity of a core call's arguments: sets by their masks."""
    key = tuple(getattr(a, "mask", a) for a in args)
    return key + tuple(sorted(kwargs.items())) if kwargs else key


# Work counted from calls the program makes: (caller, callee) -> counter, one
# count per call of the callee whose innermost traced span is the caller.
# `katz_shen_subset` evaluates one sumset per submask it keeps (plus 2k - 1
# for its tail and denominator); `canonical_form` one dilate per dilate it
# compares.  `dilate` is counted only, without a span of its own.
CALLS_UNDER = {
    ("lemmas.katz_shen_subset", "core.sumset"): "lemmas.katz_shen_subset.submasks",
    ("search.canonical_form", "core.dilate"): "search.canonical_form.dilates",
}
COUNTED_ONLY = {"core": ("sumprod.core", ("dilate",))}

# Counters taken from a call's input and result.  The two in DERIVED stand
# for work done in a loop that calls no public function, so they do not
# move if the loop scans less; `rep_fn.pairs` is sum |A||B| by definition.
COUNTED = {"rep_fn", "greedy_cover", "xi_search", "canonical_form"}
DERIVED = ("lemmas.greedy_cover.translates_scanned", "lemmas.xi_search.dilations_scanned")


def _counts(name, args, kwargs, result):
    """Counters of one call of a COUNTED function, from its input and result."""
    if name == "rep_fn":
        return {"pairs": args[0].card * args[1].card}
    if name == "greedy_cover":
        return {"translates_scanned": len(result.translates) * args[0].field.p}
    if name == "xi_search":
        return {"dilations_scanned": args[0].field.p - 1}
    if name == "canonical_form":
        return {"useful": int(result.mask == args[0].mask)}
    raise ValueError(name)


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    spans: iterable of (span_id, name, start, end, parent_id).  Children of
    one span never overlap in a single-threaded program, so their durations
    add.  Returns {span_id: self_time}.
    """
    spans = list(spans)
    out = {sid: end - start for sid, _, start, end, _ in spans}
    for _, _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


class Tracer:
    """Wraps sumprod's public functions and accumulates per-function totals.

    clock is the nanosecond clock the spans are timed with; tests pass a
    fake one.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.distinct = 0
        self.core_calls = 0
        self.op_ns = 0
        self.first_spans = None
        self._spans = []
        self._stack = []  # (span_id, qualified name) of the open spans
        self._seen = set()
        self._next_id = 0
        self._saved = []
        self._child_ns = 0

    def install(self):
        modules = [importlib.import_module(m) for m, _ in LAYERS.values()]
        modules.append(importlib.import_module("sumprod"))
        modules = {m.__name__: m for m in modules}
        for name, mod in sys.modules.items():
            if name == "sumprod" or name.startswith("sumprod."):
                modules[name] = mod
        for make, table in ((self._wrap, LAYERS), (self._counter, COUNTED_ONLY)):
            for layer, (modname, funcs) in table.items():
                for fname in funcs:
                    original = getattr(modules[modname], fname)
                    wrapper = make(layer, fname, original)
                    for mod in modules.values():
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._saved.append((mod, attr, original))
                                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _new_id(self):
        sid = self._next_id
        self._next_id += 1
        return sid

    def _wrap(self, layer, fname, original):
        qual = f"{layer}.{fname}"
        stack, spans = self._stack, self._spans
        clock = self.clock
        is_core, is_chain, counted = layer == "core", layer == "chains", fname in COUNTED
        under = {caller: name for (caller, callee), name in CALLS_UNDER.items()
                 if callee == qual}

        def wrapper(*args, **kwargs):
            entered = clock()
            sid = self._new_id()
            parent = stack[-1][0] if stack else None
            stack.append((sid, qual))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, qual, start, end, parent))
            self.calls[qual] += 1
            if is_core:
                self.core_calls += 1
                key = (fname, _key(args, kwargs))
                if key not in self._seen:
                    self._seen.add(key)
                    self.distinct += 1
            elif is_chain and not (stack and stack[-1][1].startswith("chains.")):
                self.counts["chains.steps"] += len(result.steps)
            if counted:
                for k, v in _counts(fname, args, kwargs, result).items():
                    self.counts[f"{qual}.{k}"] += v
            if under and stack and stack[-1][1] in under:
                self.counts[under[stack[-1][1]]] += 1
            # The bookkeeping before `start` and after `end` is the tracer's,
            # not the caller's, time: one span as long as both, placed after
            # the call.
            spent = start - entered + clock() - end
            spans.append((self._new_id(), "trace.overhead", end, end + spent, parent))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _counter(self, layer, fname, original):
        """A wrapper that only counts calls for CALLS_UNDER (no span)."""
        qual = f"{layer}.{fname}"
        stack, counts = self._stack, self.counts
        under = {caller: name for (caller, callee), name in CALLS_UNDER.items()
                 if callee == qual}

        def counter(*args, **kwargs):
            if stack and stack[-1][1] in under:
                counts[under[stack[-1][1]]] += 1
            return original(*args, **kwargs)

        counter.__wrapped__ = original
        return counter

    def add_span(self, name, start, end):
        """An outermost span timed outside the wrappers (see cli_child.py)."""
        self._spans.append((self._new_id(), name, start, end, None))

    def begin_op(self):
        self._spans.clear()
        self._seen.clear()

    def fold(self):
        """Add the open operation's spans to the totals; returns the time
        covered by its outermost spans."""
        if self.first_spans is None:
            self.first_spans = list(self._spans)
        st = self_times(self._spans)
        covered = 0
        for sid, name, start, end, parent in self._spans:
            self.self_ns[name] += st[sid]
            if parent is None:
                covered += end - start
        self._spans.clear()
        return covered

    def end_op(self, op_ns):
        """Close an operation of wall time op_ns.

        The time in it that no span covers, in this process or in a merged
        child, is booked to `trace.uncovered`: the benchmark's own code
        between calls, and for a child process the parent's handling of
        its output.
        """
        covered = self.fold() + self._child_ns
        self._child_ns = 0
        self.self_ns["trace.uncovered"] += op_ns - covered
        self.op_ns += op_ns

    def merge(self, summary, reaped_ns):
        """Add a summary written by a child process (see summary() and
        cli_child.py) that was reaped at reaped_ns."""
        self.add_span("cli.exit", summary["exiting_ns"], reaped_ns)
        for k, v in summary["self_ns"].items():
            self.self_ns[k] += v
        for k, v in summary["calls"].items():
            self.calls[k] += v
        for k, v in summary["counts"].items():
            self.counts[k] += v
        self.distinct += summary["distinct"]
        self.core_calls += summary["core_calls"]
        self._child_ns += summary["covered_ns"]

    def summary(self, covered_ns):
        """Totals to hand to another process; covered_ns is the time the
        outermost spans covered (see fold())."""
        return {
            "covered_ns": covered_ns,
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "distinct": self.distinct,
            "core_calls": self.core_calls,
        }

    def metrics(self, import_s, import_numpy_s):
        """Per-layer metrics as {name: (value, unit)}."""
        s = lambda ns: ns / 1e9  # noqa: E731
        out = {}

        def layer_self(layer):
            return s(sum(v for k, v in self.self_ns.items() if k.startswith(layer + ".")))

        for layer in ("core", "energy", "lemmas", "chains", "search", "cli"):
            out[f"{layer}.self_s"] = (layer_self(layer), "s")
            for fname, extras in PER_FUNCTION.get(layer, {}).items():
                qual = f"{layer}.{fname}"
                out[f"{qual}.calls"] = (self.calls.get(qual, 0), "count")
                out[f"{qual}.self_s"] = (s(self.self_ns.get(qual, 0)), "s")
                for extra in extras:
                    name = f"{qual}.{extra}"
                    unit = "derived_count" if name in DERIVED else "count"
                    out[name] = (self.counts.get(name, 0), unit)
        out["core.unique_call_ratio"] = (
            self.distinct / self.core_calls if self.core_calls else 0.0, "ratio")
        out["chains.calls"] = (
            sum(v for k, v in self.calls.items() if k.startswith("chains.")), "count")
        out["chains.steps"] = (self.counts.get("chains.steps", 0), "count")
        canon = self.calls.get("search.canonical_form", 0)
        useful = self.counts.get("search.canonical_form.useful", 0)
        out["search.classes_per_canonical_call"] = (useful / canon if canon else 0.0, "ratio")
        for name in ("parse_set", "emit", "startup", "import", "exit"):
            out[f"cli.{name}.self_s"] = (s(self.self_ns.get(f"cli.{name}", 0)), "s")
        out["cli.import_s"] = (import_s, "s")
        out["cli.import_numpy_s"] = (import_numpy_s, "s")
        out["trace.overhead_s"] = (s(self.self_ns.get("trace.overhead", 0)), "s")
        out["trace.uncovered_s"] = (s(self.self_ns.get("trace.uncovered", 0)), "s")
        out["trace.wall_s"] = (s(self.op_ns), "s")
        return out
