"""Span recorder that times calls into threadlab from outside the package.

``instrumented(tracer)`` replaces the public functions the runner and ``llm``
look up by name (for example ``threadlab.runner.make_window`` or
``threadlab.prompts.render_thread_window``) with wrappers that record a span
per call, and restores the originals on exit. Objects the benchmark creates,
such as completion caches and providers, are wrapped per instance with
:meth:`Tracer.wrap_method`.

A span carries an id, its parent's id, a name, the thread it ran on, start
and end times and a few counts. Spans are kept in memory; the parent is the
innermost open span on the same thread, or, on a thread with no open span
(the runner's worker threads), the span named ``ambient`` by the caller.
A span's self time is its duration minus the part of it that child spans
cover, so concurrent children are not subtracted twice.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import threadlab.llm
import threadlab.metrics
import threadlab.outparse
import threadlab.prompts
import threadlab.runner


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    attrs: dict | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.ambient: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block; yields the span id and a dict for its counts."""
        stack = self._stack()
        parent = stack[-1] if stack else self.ambient
        sid = next(self._ids)
        attrs: dict = {}
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid, attrs
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, parent, name, threading.get_ident(), start, end, attrs or None)
            )

    def wrap(self, fn: Callable, name: str, note: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``note(args, result)`` gives its counts."""

        def traced(*args, **kwargs):
            with self.span(name) as (_, attrs):
                result = fn(*args, **kwargs)
                if note is not None:
                    attrs.update(note(args, result))
                return result

        return traced

    def wrap_method(self, obj, method: str, name: str, note: Callable | None = None) -> None:
        setattr(obj, method, self.wrap(getattr(obj, method), name, note))

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times in seconds from the first start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s.start for s in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"id": s.id, "parent": s.parent, "name": s.name,
                       "thread": s.thread, "start": s.start - origin, "end": s.end - origin}
                if s.attrs:
                    rec.update(s.attrs)
                fh.write(json.dumps(rec) + "\n")


def _chars_of_result(args, result) -> dict:
    return {"chars": len(result.text)}


def _chars_of_prompt(args, result) -> dict:
    return {"chars": len(args[1])}


def _parse_counts(args, result) -> dict:
    outcomes = getattr(result, "outcomes", None) or (result,)
    return {"outcomes": len(outcomes), "failed": sum(1 for o in outcomes if not o.ok)}


def _score_counts(args, result) -> dict:
    return {"labels": result.n, "classes": result.n_classes}


# (module, attribute, span name, counts) for every name the runner and the
# llm layer look up at call time.
PATCHES = [
    (threadlab.runner, "make_window", "windowing.make_window", None),
    (threadlab.prompts, "render_thread_window", "prompts.render", _chars_of_result),
    (threadlab.prompts, "render_thread_all_at_once", "prompts.render", _chars_of_result),
    (threadlab.prompts, "render_abcde", "prompts.render", _chars_of_result),
    (threadlab.prompts, "render_baseline", "prompts.render", _chars_of_result),
    (threadlab.llm, "prompt_digest", "llm.prompt_digest", _chars_of_prompt),
    (threadlab.runner, "prompt_digest", "llm.prompt_digest", _chars_of_prompt),
    (threadlab.runner, "complete", "llm.complete", None),
    (threadlab.outparse, "parse_thread_response", "outparse.parse", _parse_counts),
    (threadlab.outparse, "parse_code_response", "outparse.parse", _parse_counts),
    (threadlab.outparse, "parse_block_response", "outparse.parse", _parse_counts),
    (threadlab.metrics, "score", "metrics.score", _score_counts),
]


@contextmanager
def instrumented(tracer: Tracer):
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in PATCHES]
    for module, attr, name, note in PATCHES:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, note))
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced repetition."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def of(name: str) -> list[Span]:
        return by_name.get(name, [])

    def calls(name: str) -> int:
        return len(of(name))

    def self_s(name: str) -> float:
        return sum(selfs[s.id] for s in of(name))

    def total_s(name: str) -> float:
        return sum(s.end - s.start for s in of(name))

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs[key] for s in of(name) if s.attrs)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    gets = of("llm.cache.get")
    hits = sum(1 for s in gets if s.attrs["hit"])
    cold = [s for s in gets if not s.attrs["warm"]]
    warm = [s for s in gets if s.attrs["warm"]]
    sends_ms = sorted((s.end - s.start) * 1000 for s in of("llm.provider.send"))
    p50 = statistics.median(sends_ms) if sends_ms else 0.0
    p99 = statistics.quantiles(sends_ms, n=100)[98] if len(sends_ms) > 1 else p50
    outcomes = attr_sum("outparse.parse", "outcomes")
    parse_failed = attr_sum("outparse.parse", "failed")
    return {
        "corpus.load_s": total_s("corpus.load"),
        "corpus.utterances": attr_sum("corpus.load", "utterances"),
        "windowing.make_window.calls": calls("windowing.make_window"),
        "windowing.make_window.self_s": self_s("windowing.make_window"),
        "prompts.render.calls": calls("prompts.render"),
        "prompts.render.self_s": self_s("prompts.render"),
        "prompts.render.chars": attr_sum("prompts.render", "chars"),
        "llm.prompt_digest.calls": calls("llm.prompt_digest"),
        "llm.prompt_digest.self_s": self_s("llm.prompt_digest"),
        "llm.prompt_digest.chars": attr_sum("llm.prompt_digest", "chars"),
        "llm.complete.calls": calls("llm.complete"),
        "llm.complete.self_s": self_s("llm.complete"),
        "llm.cache.get.calls": len(gets),
        "llm.cache.hits": hits,
        "llm.cache.hit_ratio": ratio(hits, len(gets)),
        "llm.cache.cold_hit_ratio": ratio(sum(1 for s in cold if s.attrs["hit"]), len(cold)),
        "llm.cache.warm_hit_ratio": ratio(sum(1 for s in warm if s.attrs["hit"]), len(warm)),
        "llm.cache.get.self_s": self_s("llm.cache.get"),
        "llm.cache.put.calls": calls("llm.cache.put"),
        "llm.cache.put.self_s": self_s("llm.cache.put"),
        "llm.cache.load_s": total_s("llm.cache.load"),
        "llm.cache.file_bytes": attr_sum("llm.cache.load", "file_bytes"),
        "llm.provider.calls": calls("llm.provider.send"),
        "llm.provider.wait_s": total_s("llm.provider.wait"),
        "llm.provider.in_flight_mean": ratio(total_s("llm.provider.send"), total_s("runner.run")),
        "llm.provider.call_p50_ms": p50,
        "llm.provider.call_p99_ms": p99,
        "outparse.calls": calls("outparse.parse"),
        "outparse.self_s": self_s("outparse.parse"),
        "outparse.failed": parse_failed,
        "outparse.ok_ratio": ratio(outcomes - parse_failed, outcomes),
        "metrics.score.calls": calls("metrics.score"),
        "metrics.score.self_s": self_s("metrics.score"),
        "metrics.labels": attr_sum("metrics.score", "labels"),
        "metrics.classes_max": max((s.attrs["classes"] for s in of("metrics.score")), default=0),
        "runner.run.self_s": self_s("runner.run"),
        "runner.records": attr_sum("runner.run", "records"),
        "runner.fallback_labels": attr_sum("runner.run", "fallback_labels"),
        "runner.evaluate.self_s": self_s("runner.evaluate"),
        "runner.evaluate.total_s": total_s("runner.evaluate"),
        "report.tradeoff.self_s": self_s("report.tradeoff"),
        "trace.busy_s": sum(selfs.values()),
    }
