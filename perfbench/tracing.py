"""Per-layer spans and counts, recorded from outside the program.

``install`` replaces public functions at their module attributes (and three
``ModuleElement`` methods) with wrappers.  A function imported by name into
another module is wrapped there too: ``wordproblem.ordered_form`` is the
reference ``is_identity`` calls, ``collection.ordered_form`` the one
``relator_module`` calls.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        # [name, start, end, parent span index or -1, request id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0          # 0 during set-up, then one id per request
        self.counts: Counter = Counter()

    def _open(self, name):
        record = [name, perf_counter(), None, self.stack[-1] if self.stack else -1,
                  self.request]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def traced(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(self.counts, result)
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def times(self):
        """Inclusive and self seconds per span name."""
        total, own = defaultdict(float), defaultdict(float)
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, children):
            total[name] += end - start
            own[name] += end - start - inner
        return total, own

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")


def _ledger(counts, result):
    counts["collection.r2_transpositions"] += result[1].r2_commutations


def _division(counts, result):
    counts["groebner.divide.steps"] += result.steps


def _basis(counts, result):
    counts["groebner.buchberger.calls"] += 1
    counts["groebner.basis_generators"] += len(result.generators)


def _context(counts, result):
    counts["wordproblem.module_context.calls"] += 1


def _bounds(counts, result):
    cert = result[1]
    membership = cert.membership.bound if cert.membership is not None else None
    counts["wordproblem.bound_bits"] += sum(
        b.bit_length() for b in (cert.assembly_bound, cert.relative_bound, membership)
        if b is not None)


def install(tracer: Tracer, mb):
    """Wrap the program's layer boundaries; ``mb`` is the ``metabelian`` package."""
    spans = [
        (mb.presentation, "parse_word", "presentation.parse_word", None),
        (mb.presentation, "parse_presentation", "presentation.parse_presentation", None),
        (mb.presets, "build", "presets.build", None),
        (mb.collection, "ordered_form", "collection.ordered_form", _ledger),
        (mb.wordproblem, "ordered_form", "collection.ordered_form", _ledger),
        (mb.collection, "split_conjugates", "collection.split_conjugates", None),
        (mb.collection, "commutator_collect", "collection.commutator_collect", None),
        (mb.wordproblem, "divide_with_certificate", "groebner.divide", _division),
        (mb.wordproblem, "buchberger_strong", "groebner.buchberger", _basis),
        (mb.wordproblem, "laurent_embed", "groebner.laurent_embed", None),
        (mb.wordproblem, "module_context", "wordproblem.module_context", _context),
        (mb.wordproblem, "is_identity", "wordproblem.is_identity", _bounds),
    ]
    for module, attr, name, after in spans:
        setattr(module, attr, tracer.traced(name, getattr(module, attr), after))
    element = mb.elements.ModuleElement
    element.__add__ = tracer.counted("elements.add.calls", element.__add__)
    element.scale_translate = tracer.counted("elements.scale_translate.calls",
                                             element.scale_translate)
    element.from_dict = staticmethod(tracer.counted("elements.from_dict.calls",
                                                    element.from_dict))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values as ``name -> (value, unit)``."""
    total, own = tracer.times()
    c = tracer.counts
    calls = c["groebner.buchberger.calls"]
    return {
        "presentation.parse_word.s": (total["presentation.parse_word"], "s"),
        "presentation.parse_presentation.s": (total["presentation.parse_presentation"], "s"),
        "presets.build.s": (total["presets.build"], "s"),
        "collection.ordered_form.s": (total["collection.ordered_form"], "s"),
        "collection.split_conjugates.s": (total["collection.split_conjugates"], "s"),
        "collection.commutator_collect.s": (total["collection.commutator_collect"], "s"),
        "collection.normalize_merge.s": (own["collection.ordered_form"], "s"),
        "collection.r2_transpositions": (c["collection.r2_transpositions"], "count"),
        "groebner.divide.s": (total["groebner.divide"], "s"),
        "groebner.divide.steps": (c["groebner.divide.steps"], "count"),
        "groebner.buchberger.s": (total["groebner.buchberger"], "s"),
        "groebner.buchberger.calls": (calls, "count"),
        "groebner.basis_size": (c["groebner.basis_generators"] / max(calls, 1), "count"),
        "groebner.laurent_embed.s": (total["groebner.laurent_embed"], "s"),
        "wordproblem.context_miss_ratio": (
            calls / max(c["wordproblem.module_context.calls"], 1), "ratio"),
        "wordproblem.is_identity.self_s": (own["wordproblem.is_identity"], "s"),
        "wordproblem.bound_bits": (c["wordproblem.bound_bits"], "bits"),
        "wordproblem.cert_json.s": (total["wordproblem.cert_json"], "s"),
        "wordproblem.cert_json_bytes": (c["wordproblem.cert_json_bytes"], "bytes"),
        "elements.add.calls": (c["elements.add.calls"], "count"),
        "elements.scale_translate.calls": (c["elements.scale_translate.calls"], "count"),
        "elements.from_dict.calls": (c["elements.from_dict.calls"], "count"),
    }
