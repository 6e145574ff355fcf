"""The benchmark's three workloads, driven through threadlab's public API.

Each workload generates its inputs from the seed in ``prepare``, then runs
repetitions. A repetition opens its inputs (set-up), makes the workload's
run calls, and returns the run logs; ``run.py`` scores and reports them. A
:class:`Rep` does the timing, and with a tracer attached it also records a
span around every call the benchmark makes into the package.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, process_time

from threadlab import (
    CompletionCache,
    ExperimentSpec,
    ModelConfig,
    ReplayProvider,
    WindowConfig,
    bundled_corpus_dir,
    evaluate_run,
    load_corpus,
    run_abcde,
    run_threading,
    tradeoff_report,
    validate_thread_graph,
)

import synth
from scripted import ScriptedProvider
from spans import Tracer

MODEL = ModelConfig(model_id="bench-model")
SUBCATS = ("AP", "E", "I", "TT", "CI", "BC", "SC")


class InvalidInput(Exception):
    """A generated transcript failed validation, so nothing may be timed."""


class Clock:
    """Wall time and this process's CPU time spent inside :meth:`timing` blocks."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    @contextmanager
    def timing(self):
        wall, cpu = perf_counter(), process_time()
        try:
            yield
        finally:
            self.wall += perf_counter() - wall
            self.cpu += process_time() - cpu


class Rep:
    """Times one repetition's set-up and run calls; traces them when given a tracer."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.setup = Clock()
        self.run_calls = Clock()
        self._wrapped: list[tuple[object, str]] = []

    def _call(self, name: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        with self.tracer.span(name):
            return fn(*args, **kwargs)

    def load_corpus(self, path: Path):
        with self.setup.timing():
            if self.tracer is None:
                return load_corpus(path)
            with self.tracer.span("corpus.load") as (_, attrs):
                corpus = load_corpus(path)
                attrs["utterances"] = sum(len(t) for t, _ in corpus.values())
            return corpus

    def open_cache(self, path: Path) -> CompletionCache:
        with self.setup.timing():
            if self.tracer is None:
                return CompletionCache(path)
            with self.tracer.span("llm.cache.load") as (_, attrs):
                cache = CompletionCache(path)
                attrs["file_bytes"] = path.stat().st_size if path.exists() else 0
            warm = len(cache) > 0
            self.tracer.wrap_method(
                cache, "get", "llm.cache.get",
                lambda args, result: {"hit": result is not None, "warm": warm},
            )
            self.tracer.wrap_method(cache, "put", "llm.cache.put")
            return cache

    def provider(self, provider):
        if self.tracer is not None:
            self.tracer.wrap_method(provider, "send", "llm.provider.send")
            self._wrapped.append((provider, "send"))
            if isinstance(provider, ScriptedProvider):
                provider.tracer = self.tracer
        return provider

    def run(self, fn, spec: ExperimentSpec, corpus, provider, **kwargs):
        with self.run_calls.timing():
            if self.tracer is None:
                return fn(spec, corpus, provider, **kwargs)
            with self.tracer.span("runner.run") as (sid, attrs):
                self.tracer.ambient = sid
                try:
                    log = fn(spec, corpus, provider, **kwargs)
                finally:
                    self.tracer.ambient = None
                attrs["records"] = len(log.records)
                attrs["fallback_labels"] = log.n_fallback_labels
            return log

    def evaluate(self, log, corpus, **kwargs):
        return self._call("runner.evaluate", evaluate_run, log, corpus, **kwargs)

    def report(self, entries, out_dir: Path):
        return self._call(
            "report.tradeoff", tradeoff_report, entries,
            out_dir / "tradeoff.csv", out_dir / "tradeoff.svg",
        )

    def close(self) -> None:
        for obj, method in self._wrapped:
            vars(obj).pop(method, None)
            if isinstance(obj, ScriptedProvider):
                obj.tracer = None
        self._wrapped.clear()


def normalized_log(log) -> str:
    """Run log text with the one nondeterministic field, wall time, zeroed."""
    return dataclasses.replace(log, wall_time_ms=0).to_jsonl()


def _validated(corpus_dir: Path):
    corpus = load_corpus(corpus_dir)
    for tid, (t, g) in corpus.items():
        report = validate_thread_graph(t, g)
        if report.errors or report.lints:
            raise InvalidInput(f"{tid}: {report.errors + report.lints}")
    return corpus


class Workload:
    """One set of inputs plus the run calls a repetition makes over them.

    ``runs`` lists (condition, run function, spec, keyword arguments).
    ``same_output`` lists pairs of conditions whose logs and evaluations must
    be byte-identical within one repetition.
    """

    name = ""
    passes = 1  # times a repetition makes each run in ``runs``
    eval_kwargs: dict = {}
    same_output: tuple[tuple[str, str], ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.corpus_dir = work / "corpus"
        self.cache_path = work / "cache.jsonl"
        self.expected: dict[tuple[str, int], tuple[str, str | None]] = {}
        self.runs: list[tuple[str, object, ExperimentSpec, dict]] = []

    def generate(self) -> None:
        raise NotImplementedError

    def prepare(self):
        """Generate and validate the inputs; returns the corpus, untimed."""
        self.generate()
        corpus = _validated(self.corpus_dir)
        self.gold = {tid: g for tid, (_, g) in corpus.items()}
        self.ids = tuple(corpus)
        return corpus

    def scripted(self, noise: bool = True, latency_s: float = 0.0) -> ScriptedProvider:
        return ScriptedProvider(self.gold, noise=noise, latency_s=latency_s, expected=self.expected)

    def noise_free_runs(self, corpus) -> list[tuple[str, object]]:
        """Every run of the workload against the provider with noise off."""
        provider = ScriptedProvider(self.gold, noise=False)
        return [(cond, fn(spec, corpus, provider, **kw)) for cond, fn, spec, kw in self.runs]

    def setup(self, rep: Rep) -> None:
        """The set-up alone: load the corpus and open the fixture or cache file."""
        rep.load_corpus(self.corpus_dir)
        rep.open_cache(self.cache_path)

    def rep(self, rep: Rep):
        """One repetition: returns (corpus, [(condition, run log)])."""
        raise NotImplementedError


def _spec(task: str, strategy: str, ids, n: int = 10, feedback: str = "self",
          thread_source: str = "none") -> ExperimentSpec:
    return ExperimentSpec(
        task=task, strategy=strategy, model=MODEL, transcripts=tuple(ids),
        window=WindowConfig(n=n, feedback=feedback), thread_source=thread_source,
    )


class LiveMixed(Workload):
    """Bundled corpus plus one long transcript against a 10 ms provider, 2 callers."""

    name = "live_mixed"
    LATENCY_S = 0.010
    CONCURRENCY = 2

    def generate(self):
        synth.write_corpus(self.corpus_dir, self.seed, {"syn01": 150},
                           copy_from=bundled_corpus_dir())

    def prepare(self):
        corpus = super().prepare()
        kw = {"concurrency": self.CONCURRENCY}
        self.runs = [
            ("thread_window_self", run_threading, _spec("threading", "window", self.ids), kw),
            ("abcde_window_human", run_abcde,
             _spec("abcde", "window", self.ids, feedback="none", thread_source="human"), kw),
        ]
        self.provider = self.scripted(latency_s=self.LATENCY_S)
        return corpus

    def setup(self, rep: Rep) -> None:
        self.cache_path.unlink(missing_ok=True)
        super().setup(rep)

    def rep(self, rep: Rep):
        # A live run writes its cache afresh.
        self.cache_path.unlink(missing_ok=True)
        corpus = rep.load_corpus(self.corpus_dir)
        cache = rep.open_cache(self.cache_path)
        provider = rep.provider(self.provider)
        logs = [
            (cond, rep.run(fn, spec, corpus, provider, cache=cache, **kw))
            for cond, fn, spec, kw in self.runs
        ]
        return corpus, logs


class ReplayLong(Workload):
    """Long transcripts replayed from a recorded fixture: harness overhead only."""

    name = "replay_long"
    LENGTHS = (500, 1000, 2000, 4000)
    eval_kwargs = {"subcats": SUBCATS}

    def generate(self):
        lengths = {f"long{k}": n for k, n in enumerate(self.LENGTHS, start=1)}
        synth.write_corpus(self.corpus_dir, self.seed, lengths)

    def prepare(self):
        corpus = super().prepare()
        kw = {"concurrency": 1}
        self.runs = [
            ("thread_window_self", run_threading, _spec("threading", "window", self.ids), kw),
            ("thread_all_at_once", run_threading, _spec("threading", "all_at_once", self.ids), kw),
        ]
        # Record the fixture once, before anything is timed.
        self.cache_path.unlink(missing_ok=True)
        fixture = CompletionCache(self.cache_path)
        recorder = self.scripted()
        for _, fn, spec, kw in self.runs:
            fn(spec, corpus, recorder, cache=fixture, **kw)
        return corpus

    def rep(self, rep: Rep):
        corpus = rep.load_corpus(self.corpus_dir)
        provider = rep.provider(ReplayProvider(rep.open_cache(self.cache_path)))
        logs = [
            (cond, rep.run(fn, spec, corpus, provider, **kw))
            for cond, fn, spec, kw in self.runs
        ]
        return corpus, logs


class CacheRoundtrip(Workload):
    """abcde coding that writes a fresh cache file, then reruns from it."""

    name = "cache_roundtrip"
    passes = 2
    LENGTH = 1000
    same_output = (
        ("abcde_window_plain.cold", "abcde_window_plain.warm"),
        ("abcde_window_human.cold", "abcde_window_human.warm"),
    )

    def generate(self):
        synth.write_corpus(self.corpus_dir, self.seed,
                           {"code1": self.LENGTH, "code2": self.LENGTH})

    def prepare(self):
        corpus = super().prepare()
        kw = {"concurrency": 1}
        self.runs = [
            ("abcde_window_plain", run_abcde,
             _spec("abcde", "window", self.ids, feedback="none"), kw),
            ("abcde_window_human", run_abcde,
             _spec("abcde", "window", self.ids, feedback="none", thread_source="human"), kw),
        ]
        self.provider = self.scripted()
        return corpus

    def rep(self, rep: Rep):
        self.cache_path.unlink(missing_ok=True)
        corpus = rep.load_corpus(self.corpus_dir)
        provider = rep.provider(self.provider)
        logs = []
        for phase in ("cold", "warm"):
            cache = rep.open_cache(self.cache_path)
            calls = provider.calls
            for cond, fn, spec, kw in self.runs:
                logs.append((f"{cond}.{phase}",
                             rep.run(fn, spec, corpus, provider, cache=cache, **kw)))
            if phase == "warm" and provider.calls != calls:
                raise AssertionError(
                    f"warm pass reached the provider {provider.calls - calls} times"
                )
        return corpus, logs


WORKLOADS = {w.name: w for w in (LiveMixed, ReplayLong, CacheRoundtrip)}
