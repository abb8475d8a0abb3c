"""In-memory spans and per-call aggregates around citnet's public functions.

The benchmark installs wrappers on module attributes of the citnet
package (the names the package's own call sites look up), so no source
file of the package changes. Coarse calls become spans: name, start,
end, parent span and run id. Per-item calls (one per paper, pair or
journal) would swamp memory as spans; they are kept as a count, the
total time inside them, and the wall time they cover.

Worker threads of the package's thread pool start with an empty span
stack; their calls take as parent the span open on the thread that
created the tracer, which is blocked waiting for the pool. Counters are
updated under a lock, so they stay exact at any thread count.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    run: str
    thread: int


@dataclass
class Aggregate:
    count: int = 0
    total: float = 0.0       # summed call durations, over all threads
    covered: float = 0.0     # wall time covered by the calls
    last_end: float = float("-inf")

    def add(self, start, end):
        self.count += 1
        self.total += end - start
        # Union of intervals in completion order: exact when calls do not
        # overlap, a lower bound on the covered time when threads overlap.
        if end > self.last_end:
            self.covered += end - max(start, self.last_end)
            self.last_end = end


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[int | None, str], Aggregate] = {}
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    # -- stacks ------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns (result, start, end)."""
        stack = self._stack()
        parent = self._parent(stack)
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, parent, start, end,
                                       self.run_id, threading.get_ident()))
        return result, start, end

    def aggregate(self, name, fn, *args, **kwargs):
        parent = self._parent(self._stack())
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            with self._lock:
                agg = self.aggregates.get((parent, name))
                if agg is None:
                    agg = self.aggregates[(parent, name)] = Aggregate()
                agg.add(start, end)

    def count(self, name, value=1.0):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def set_max(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    # -- queries -----------------------------------------------------------

    def span_total(self, name) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def agg_total(self, name) -> float:
        return sum(a.total for (_p, n), a in self.aggregates.items()
                   if n == name)

    def agg_count(self, name) -> int:
        return sum(a.count for (_p, n), a in self.aggregates.items()
                   if n == name)

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans and calls cover."""
        intervals = sorted((c.start, c.end) for c in self.spans
                           if c.parent == span.id)
        covered = 0.0
        cur_start = cur_end = None
        for s, e in intervals:
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        covered += sum(a.covered for (p, _n), a in self.aggregates.items()
                       if p == span.id)
        return max(0.0, (span.end - span.start) - covered)

    def self_total(self, name) -> float:
        return sum(self.self_time(s) for s in self.spans if s.name == name)

    def records(self):
        """JSON-ready spans and aggregates, times relative to the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        names = {s.id: s.name for s in self.spans}
        out = [{"type": "span", "id": s.id, "name": s.name,
                "parent": s.parent, "run": s.run, "thread": s.thread,
                "start": s.start - t0, "end": s.end - t0,
                "self": self.self_time(s)} for s in self.spans]
        for (parent, name), agg in sorted(
                self.aggregates.items(), key=lambda kv: (kv[0][0] or 0,
                                                         kv[0][1])):
            out.append({"type": "aggregate", "name": name, "parent": parent,
                        "parent_name": names.get(parent), "run": self.run_id,
                        "count": agg.count, "total": agg.total,
                        "covered": agg.covered})
        return out


class Patches:
    """Module-attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def set_item(self, mapping, key, value):
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._saved:
            obj, key, value = self._saved.pop()
            if isinstance(obj, dict):
                obj[key] = value
            else:
                setattr(obj, key, value)


def _span_wrapper(tracer, name, fn, on_result=None):
    def wrapped(*args, **kwargs):
        result, _s, _e = tracer.span(name, fn, *args, **kwargs)
        if on_result is not None:
            on_result(args, kwargs, result)
        return result
    return wrapped


def _agg_wrapper(tracer, name, fn, on_result=None):
    def wrapped(*args, **kwargs):
        result = tracer.aggregate(name, fn, *args, **kwargs)
        if on_result is not None:
            on_result(args, kwargs, result)
        return result
    return wrapped


def install(tracer: Tracer) -> Patches:
    """Wrap the public functions each per-layer metric is measured at.

    A name the package no longer has is skipped, so its metric reads 0
    rather than the benchmark failing.
    """
    from citnet import (authors, disruption, impact, jnet, matching,
                        novelty, pipeline, selfcite, synth)

    patches = Patches()
    edge_sets = {}

    def on_load(_a, _k, corpus):
        tracer.count("corpus.papers", len(corpus.papers))
        tracer.count("corpus.edges",
                     sum(len(r) for r in corpus.forward.values()))
        tracer.count("corpus.dangling_refs",
                     len(corpus.load_report.dangling_references))

    def on_network(_a, _k, network):
        tracer.set_max("jnet.nodes", len(network.nodes))
        tracer.count("jnet.edges", len(network.edges))

    def on_shuffle(args, _k, edges):
        corpus = args[0]
        original = edge_sets.get(id(corpus))
        if original is None:
            original = edge_sets[id(corpus)] = set(corpus.citation_edges())
        tracer.count("novelty.edges_moved",
                     sum(1 for e in edges if e not in original))
        tracer.count("novelty.edges_shuffled", len(edges))

    def on_psi(_a, _k, score):
        if score.psi is None:
            tracer.count("selfcite.psi_undefined")

    def on_clusters(_a, _k, clusters):
        tracer.count("authors.excluded_mentions", len(clusters.excluded))

    spans = [
        (pipeline, "load_corpus", "corpus.load", on_load),
        (impact, "build_normalization_table", "impact.normalization", None),
        (impact, "impact_table", "impact.table", None),
        (jnet, "build_journal_network", "jnet.build", on_network),
        (jnet, "betweenness", "jnet.betweenness", None),
        (jnet, "closeness", "jnet.closeness", None),
        (jnet, "pagerank", "jnet.pagerank", None),
        (jnet, "pathcore", "jnet.pathcore", None),
        (jnet, "centrality_comparison", "jnet.comparison", None),
        (novelty, "pair_zscores", "novelty.zscore", None),
        (novelty, "ensemble_pair_frequencies", "novelty.ensemble", None),
        (novelty, "shuffle_citations", "novelty.shuffle", on_shuffle),
        (novelty, "pair_frequencies", "novelty.pair_count", None),
        (authors, "disambiguate", "authors.disambiguate", on_clusters),
        (authors, "author_demographics", "authors.demographics", None),
        (synth, "psi_rewiring_experiment", "synth.experiment", None),
        (synth, "psi_scenarios", "synth.scenarios", None),
    ]
    aggregates = [
        (impact, "market_share", "impact.market_share", None),
        (matching, "match_registry", "matching.match", None),
        (selfcite, "aggregate_citation_counts", "selfcite.count_table", None),
        (selfcite, "psi_from_counts", "selfcite.psi", on_psi),
        (synth, "psi_from_counts", "selfcite.psi", on_psi),
        (selfcite, "citation_rate", "selfcite.rate", None),
        (selfcite, "reference_rate", "selfcite.rate", None),
        (novelty, "paper_novelty", "novelty.paper", None),
        (disruption, "disruption_counts", "disruption.counts", None),
        (authors, "paper_similarity", "authors.similarity", None),
        (pipeline, "write_csv", "pipeline.write", None),
    ]
    for module, attr, name, hook in spans:
        if hasattr(module, attr):
            patches.set(module, attr, _span_wrapper(
                tracer, name, getattr(module, attr), hook))
    for module, attr, name, hook in aggregates:
        if hasattr(module, attr):
            patches.set(module, attr, _agg_wrapper(
                tracer, name, getattr(module, attr), hook))
    # Stage functions are private, but wrapping them is what gives each
    # stage a span to hang its layers on.
    stage_fns = getattr(pipeline, "_STAGE_FNS", {})
    for stage in list(stage_fns):
        patches.set_item(stage_fns, stage, _span_wrapper(
            tracer, f"pipeline.stage.{stage}", stage_fns[stage]))
    return patches


def write_spans(path, tracers):
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for record in tracer.records():
                fh.write(json.dumps(record, sort_keys=True) + "\n")
