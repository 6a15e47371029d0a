"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed at the names callers look functions up by (module
globals such as `zeckmix.semimixing.pattern_witness`, the names imported
into `zeckmix.cli`, and `InflationDag.contains`), so no file of the library
changes.  Each call records a span (id, parent, layer, start, end,
section) in memory; self time is a span's duration minus the part covered by
its child spans.  Runs are single-threaded, so there is no waiting time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

SPAN_CAP = 50_000

MODULES = ("zeckmix.language", "zeckmix.semimixing", "zeckmix.substitution",
           "zeckmix.numeration", "zeckmix.cli")

# public function name -> layer it is charged to
LAYER_OF = {
    "is_legal": "language.is_legal",
    "pattern_witness": "language.pattern_witness",
    "language_of_length": "language.language_of_length",
    "build_dag": "substitution.build_dag",
    "is_primitive": "substitution.spectral",
    "pf_eigenvalue": "substitution.spectral",
    "is_pisot": "substitution.spectral",
    "encode_greedy": "numeration.encode_greedy",
    "decode": "numeration.decode",
    "is_valid": "numeration.is_valid",
    "enumerate_valid": "numeration.enumerate_valid",
    "fibonacci_scheme": "numeration.scheme_build",
    "tribonacci_scheme": "numeration.scheme_build",
    "kbonacci_scheme": "numeration.scheme_build",
    "metallic_scheme": "numeration.scheme_build",
    "metallic_pisa_scheme": "numeration.scheme_build",
    "custom_scheme": "numeration.scheme_build",
    "check_empirical": "semimixing.check_empirical",
    "verify_certificate": "semimixing.verify_certificate",
    "derive_witness": "semimixing.derive_witness",
    "certify": "semimixing.certify",
    "seed_sets": "semimixing.seed_sets",
    "make_seed_set": "semimixing.seed_sets",
    "main": "cli.main",
}
CONTAINS_LAYER = "substitution.contains"
GENERATORS = {"enumerate_valid": "numeration.enumerate_valid.strings"}
LAYERS = tuple(sorted(set(LAYER_OF.values()) | {CONTAINS_LAYER}))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# result hooks: add a call's work counts to the section's counters
def _count_pattern(counts, args, kwargs, result):
    if result is not None:
        counts["language.pattern_witness.hits"] += 1
        counts["language.pattern_witness.levels"] += result[1]


def _count_legal(counts, args, kwargs, result):
    counts["language.is_legal.levels"] += result.levels_examined
    counts["language.is_legal.chars"] += len(_arg(args, kwargs, 1, "u"))


def _count_words(counts, args, kwargs, result):
    counts["language.language_of_length.words"] += len(result)


def _count_contains(counts, args, kwargs, result):
    counts["substitution.contains.chars"] += len(_arg(args, kwargs, 1, "word"))


def _count_digits(counts, args, kwargs, result):
    counts["numeration.encode_greedy.digits"] += len(result.digits)


def _count_table(counts, args, kwargs, result):
    counts["semimixing.check_empirical.gaps"] += len(result.entries)
    counts["semimixing.check_empirical.witnessed"] += sum(
        e is not None for e in result.entries)


def _count_checked(counts, args, kwargs, result):
    counts["semimixing.verify_certificate.checked"] += result.checked


HOOKS = {
    "language.pattern_witness": _count_pattern,
    "language.is_legal": _count_legal,
    "language.language_of_length": _count_words,
    CONTAINS_LAYER: _count_contains,
    "numeration.encode_greedy": _count_digits,
    "semimixing.check_empirical": _count_table,
    "semimixing.verify_certificate": _count_checked,
}

_RAISED = object()


class Tracer:
    """Span recorder; wrappers pass straight through while `active` is off.

    A span starts before the wrapped call and ends after the tracer's own
    bookkeeping for it, so that cost is charged to the layer that caused it
    rather than to the gaps between layers; self time still stops when the
    wrapped call returns.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.active = False
        self.sections: dict = {}   # section -> ({layer: [calls, self ns]}, Counter)
        self.top_ns: Counter = Counter()   # section -> top-level span time
        self.spans: list = []      # [id, parent id, layer, start, end, section]
        self.dropped = 0
        # open frames [child ns, span id]; the root frame collects the
        # section's top-level span time
        self._stack: list = [[0, -1]]
        self._next_id = 0
        self._saved: list = []
        self.section = None
        self.set_section("workload")

    def set_section(self, name: str) -> None:
        """Charge later spans to `name` (e.g. the workload or the probe)."""
        root = self._stack[0]
        if self.section is not None:
            self.top_ns[self.section] += root[0]
        root[0] = 0
        self.section = name
        self._stats, self._counts = self.sections.setdefault(
            name, (defaultdict(lambda: [0, 0]), Counter()))

    def top_level_s(self, section: str) -> float:
        """Time covered by top-level spans of a section, their bookkeeping
        included."""
        current = self._stack[0][0] if section == self.section else 0
        return (self.top_ns[section] + current) / 1e9

    # -- recording -----------------------------------------------------------

    def _open(self) -> list:
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [0, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, layer, frame, start, fn_end, args, kwargs, result):
        self._record(layer, frame, start, fn_end, args, kwargs, result)
        self._stack[-1][0] += self.clock() - start

    def _record(self, layer, frame, start, fn_end, args, kwargs, result):
        """Pop the span and book its self time, counters and record.  The
        caller then charges the span, bookkeeping included, to its parent."""
        stack = self._stack
        stack.pop()
        stat = self._stats[layer]
        stat[0] += 1
        stat[1] += fn_end - start - frame[0]
        if result is not _RAISED:
            hook = HOOKS.get(layer)
            if hook is not None:
                hook(self._counts, args, kwargs, result)
        if len(self.spans) < SPAN_CAP:
            self.spans.append([frame[1], stack[-1][1], layer, start, fn_end,
                               self.section])
        else:
            self.dropped += 1

    def _iterate(self, layer: str, iterator, counter: str):
        """Re-yield a generator, one span per step."""
        step = iterator.__next__
        clock = self.clock
        while True:
            start = clock()
            frame = self._open()
            try:
                item = step()
            except StopIteration:
                self._close(layer, frame, start, clock(), (), {}, _RAISED)
                return
            self._counts[counter] += 1
            self._close(layer, frame, start, clock(), (), {}, item)
            yield item

    @contextlib.contextmanager
    def paused(self):
        """Stop recording (for the benchmark's own output checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- installation --------------------------------------------------------

    def _wrap(self, layer: str, fn, counter: str | None = None):
        tracer = self
        if counter is not None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                if not tracer.active:
                    return iterator
                return tracer._iterate(layer, iterator, counter)
        else:
            clock, stack = self.clock, self._stack

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # _open inlined: this runs once per library call
                start = clock()
                if not tracer.active:
                    return fn(*args, **kwargs)
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
                frame = [0, span_id]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer._close(layer, frame, start, clock(), args, kwargs,
                                  _RAISED)
                    raise
                tracer._record(layer, frame, start, clock(), args, kwargs,
                               result)
                stack[-1][0] += clock() - start
                return result
        return wrapper

    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        """Wrap every layer function at each module that binds it."""
        wrappers: dict = {}
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for name, layer in LAYER_OF.items():
                fn = getattr(module, name, None)
                owner = getattr(fn, "__module__", None) or ""
                if not owner.startswith("zeckmix"):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(layer, fn, GENERATORS.get(name))
                self._patch(module, name, wrappers[id(fn)])
        substitution = importlib.import_module("zeckmix.substitution")
        dag = substitution.InflationDag
        self._patch(dag, "contains", self._wrap(CONTAINS_LAYER, dag.contains))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, sections) -> dict:
        """calls, self_s and counters per layer, summed over `sections`."""
        calls, self_ns, counts = Counter(), Counter(), Counter()
        for name in sections:
            stats, section_counts = self.sections.get(name, ({}, {}))
            for layer, (n, ns) in stats.items():
                calls[layer] += n
                self_ns[layer] += ns
            counts.update(section_counts)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        out.update(counts)
        pw_calls = calls["language.pattern_witness"]
        out["language.pattern_witness.hit_ratio"] = (
            counts["language.pattern_witness.hits"] / pw_calls if pw_calls else 0.0)
        gaps = counts["semimixing.check_empirical.gaps"]
        out["semimixing.check_empirical.witnessed_ratio"] = (
            counts["semimixing.check_empirical.witnessed"] / gaps if gaps else 0.0)
        return out

    def self_shares(self, sections) -> dict:
        """Each layer's share of all self time recorded in `sections`."""
        totals = Counter()
        for name in sections:
            for layer, (_, ns) in self.sections.get(name, ({}, {}))[0].items():
                totals[layer] += ns
        whole = sum(totals.values())
        return {layer: totals[layer] / whole for layer in LAYERS} if whole else {}
