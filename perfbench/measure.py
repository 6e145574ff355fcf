"""Measurement loop, output checks and metric aggregation for one workload run."""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from threadlab import PARSE_ERROR_LABEL, evaluate_run

from spans import Tracer, instrumented, layer_metrics
from workloads import WORKLOADS, Clock, Rep, normalized_log

# Set-up and evaluation are also repeated after every repetition, for at
# least these many seconds, so their samples spread over the whole run like
# the repetitions do.
SETUP_MIN_S = 0.5
SETUP_MIN_SAMPLES = 7
EVAL_MIN_S = 1.0  # also keeps the ~1 ms report from being timed alone
SCORE_TOLERANCE = 1e-9

# Seconds the calibration loop takes on the reference machine (2 vCPU Xeon
# VM, Python 3.11) at its fastest observed speed. That machine runs the same
# Python code up to twice as slowly for minutes at a time, depending on its
# neighbours, so every CPU second measured is rescaled by the loop's time
# next to it over this constant; see ``adjusted``.
CALIBRATION_REF_S = 0.0054


def _calibration_loop() -> int:
    """Fixed pure-Python work: dict updates, string formatting, arithmetic."""
    counts: dict[str, int] = {}
    acc = 0
    for i in range(20000):
        key = f"k{i % 500}"
        counts[key] = counts.get(key, 0) + len(key)
        acc += i * i % 7
    return acc + len(counts)


def slowdown() -> float:
    """How much slower than the reference the machine runs Python right now."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _calibration_loop()
        times.append(perf_counter() - start)
    return statistics.median(times) / CALIBRATION_REF_S


def adjusted(wall: float, cpu: float, slow: float) -> float:
    """Wall time with its CPU part rescaled to the reference speed.

    Waiting (wall minus this process's CPU time) is kept as measured; CPU time
    is divided by the slowdown measured around it.
    """
    return wall - cpu + cpu / slow


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scores(gold: list[str], pred: list[str]) -> tuple[float, float, float]:
    """Accuracy, macro-F1 and Cohen's kappa, computed from counts alone."""
    n = len(gold)
    gold_n, pred_n = Counter(gold), Counter(pred)
    hits = Counter(g for g, p in zip(gold, pred) if g == p)
    classes = gold_n.keys() | pred_n.keys()
    f1 = 0.0
    for c in classes:
        precision = hits[c] / pred_n[c] if pred_n[c] else 0.0
        recall = hits[c] / gold_n[c] if gold_n[c] else 0.0
        f1 += 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    agree = sum(hits.values())
    chance = sum(gold_n[c] * pred_n[c] for c in gold_n)
    if chance == n * n:
        kappa = 1.0 if agree == n else 0.0
    else:
        kappa = (agree / n - chance / (n * n)) / (1 - chance / (n * n))
    return agree / n, f1 / len(classes), kappa


def _independent_scores(log, corpus, code_letter: str = "E") -> dict:
    """Per-transcript scores of a run log, recomputed without threadlab.metrics."""
    out = {}
    for tid in log.spec.transcripts:
        _, g = corpus[tid]
        recs = sorted((r for r in log.records if r.transcript_id == tid), key=lambda r: r.index)
        if log.spec.task == "threading":
            gold = [g.thread[r.index].canonical() for r in recs]
            pred = [r.predicted for r in recs]
        else:
            gold = ["present" if code_letter in g.codes_at(r.index) else "absent" for r in recs]
            pred = [
                r.predicted if r.predicted == PARSE_ERROR_LABEL
                else "present" if code_letter in r.predicted else "absent"
                for r in recs
            ]
        out[tid] = _scores(gold, pred)
    return out


class Checker:
    """Counts utterance records attempted and failed across every pass."""

    def __init__(self, workload):
        self.workload = workload
        self.reference: dict[str, tuple[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    @staticmethod
    def expected_records(log, corpus) -> int:
        return sum(len(corpus[tid][0]) for tid in log.spec.transcripts)

    def bad_records(self, cond: str, log, corpus) -> int:
        """Records missing, duplicated, or not what the provider injected."""
        expected = self.workload.expected
        seen = set()
        bad = 0
        for r in log.records:
            key = (r.transcript_id, r.index)
            if key in seen or expected.get((r.prompt_hash, r.index)) != (r.predicted, r.fail_reason):
                bad += 1
                self._note(f"{cond}: record {key} is {r.predicted!r}/{r.fail_reason}")
            seen.add(key)
        missing = self.expected_records(log, corpus) - len(seen)
        if missing:
            self._note(f"{cond}: {missing} records missing")
        return bad + missing

    def noise_free(self, runs, corpus) -> None:
        """Runs against the provider with noise off must score kappa 1.0."""
        for cond, log in runs:
            n = self.expected_records(log, corpus)
            self.attempted += n
            kappa = evaluate_run(log, corpus, **self.workload.eval_kwargs).aggregate.kappa.mean
            if kappa != 1.0:
                self.failed += n
                self._note(f"{cond}: noise-free kappa {kappa!r}")

    @staticmethod
    def _outputs(logs, evals) -> dict[str, tuple[str, str]]:
        return {
            cond: (_digest(normalized_log(log)), _digest(ev.to_json()))
            for (cond, log), ev in zip(logs, evals)
        }

    def repetition(self, corpus, logs, evals) -> None:
        """Check one repetition; the first one checked becomes the reference."""
        outputs = self._outputs(logs, evals)
        if not self.reference:
            self.reference = outputs
            self._check_scores(corpus, logs, evals)
        differs = {cond for cond, out in outputs.items() if out != self.reference.get(cond)}
        differs |= {b for a, b in self.workload.same_output if outputs[a] != outputs[b]}
        for cond, log in logs:
            n = self.expected_records(log, corpus)
            self.attempted += n
            if cond in differs:
                self.failed += n
                self._note(f"{cond}: log or eval differs from the reference")
            else:
                self.failed += min(n, self.bad_records(cond, log, corpus))

    def _check_scores(self, corpus, logs, evals) -> None:
        """The reference repetition's scores must match a recomputation."""
        for (cond, log), ev in zip(logs, evals):
            for tid, want in _independent_scores(log, corpus).items():
                rep = ev.per_conversation[tid]
                got = (rep.accuracy, rep.macro_f1, rep.kappa)
                if any(abs(a - b) > SCORE_TOLERANCE for a, b in zip(got, want)):
                    self.reference[cond] = ("", "")  # fails every repetition of cond
                    self._note(f"{cond}/{tid}: scores {got} but recomputed {want}")

    def rescored(self, corpus, logs, evals) -> None:
        """Check a repeated evaluation of the same logs against the reference."""
        for cond, (_, eval_digest) in self._outputs(logs, evals).items():
            if eval_digest != self.reference[cond][1]:
                self.failed += self.expected_records(dict(logs)[cond], corpus)
                self._note(f"{cond}: repeated evaluation differs from the reference")

    def broken(self, corpus, exc: BaseException) -> None:
        """A repetition raised: every record it would have made fails."""
        n = self.workload.passes * sum(
            sum(len(corpus[tid][0]) for tid in spec.transcripts)
            for _, _, spec, _ in self.workload.runs
        )
        self.attempted += n
        self.failed += n
        self._note(f"repetition raised {type(exc).__name__}: {exc}")


def one_rep(workload, checker, corpus, tracer=None, eval_min_s: float = 0.0) -> dict | None:
    """Run one repetition; returns its timings, or None when it raised.

    Evaluation and report are repeated until they have taken ``eval_min_s``.
    """
    rep = Rep(tracer)
    try:
        if tracer is not None:
            with instrumented(tracer):
                return _timed_rep(workload, checker, rep, eval_min_s)
        return _timed_rep(workload, checker, rep, eval_min_s)
    except Exception as exc:  # a failed repetition is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        checker.broken(corpus, exc)
        return None
    finally:
        rep.close()


def _evaluate(workload, rep, corpus, logs) -> list:
    evals = [rep.evaluate(log, corpus, **workload.eval_kwargs) for _, log in logs]
    rep.report([(cond, log, ev) for (cond, log), ev in zip(logs, evals)], workload.work)
    return evals


def _timed_rep(workload, checker, rep, eval_min_s: float) -> dict:
    """Times of one repetition, each as (adjusted, raw wall clock).

    The set-up and run calls, and then the evaluation passes, are each
    bracketed by :func:`slowdown` measurements; total time is the first
    evaluation pass added to the set-up and run calls.
    """
    before = slowdown()
    calls = Clock()
    with calls.timing():
        corpus, logs = workload.rep(rep)
    between = slowdown()
    passes: list[Clock] = []
    while not passes or sum(c.wall for c in passes) < eval_min_s:
        clock = Clock()
        with clock.timing():
            evals = _evaluate(workload, rep, corpus, logs)
        if passes:
            checker.rescored(corpus, logs, evals)
        else:
            checker.repetition(corpus, logs, evals)
        passes.append(clock)
    after = slowdown()
    slow_calls, slow_eval = (before + between) / 2, (between + after) / 2
    records = sum(len(log.records) for _, log in logs)
    run = rep.run_calls
    return {
        "total": (
            adjusted(calls.wall, calls.cpu, slow_calls)
            + adjusted(passes[0].wall, passes[0].cpu, slow_eval),
            calls.wall + passes[0].wall,
        ),
        "run_rate": (records / adjusted(run.wall, run.cpu, slow_calls), records / run.wall),
        "eval_rates": [
            (records / adjusted(c.wall, c.cpu, slow_eval), records / c.wall) for c in passes
        ],
        "slowdown": slow_calls,
    }


def _setup_samples(workload, min_s: float) -> list[tuple[float, float]]:
    """Set-up times as (adjusted, raw), repeated for at least ``min_s`` seconds."""
    clocks: list[Clock] = []
    before = slowdown()
    start = perf_counter()
    while not clocks or perf_counter() - start < min_s:
        rep = Rep()
        workload.setup(rep)
        clocks.append(rep.setup)
    slow = (before + slowdown()) / 2
    return [(adjusted(c.wall, c.cpu, slow), c.wall) for c in clocks]


def _medians(samples) -> tuple[float, float]:
    """Medians of the adjusted and the raw member of (adjusted, raw) pairs."""
    samples = list(samples)
    return statistics.median(a for a, _ in samples), statistics.median(r for _, r in samples)


def measure(name: str, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    """One run of a workload; returns its metrics and output-check counts.

    Times are :func:`adjusted` by calibration measurements around each timed
    block; the raw wall-clock medians are returned beside them.
    """
    work = work_root / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = WORKLOADS[name](work, seed)
        corpus = workload.prepare()
        checker = Checker(workload)
        checker.noise_free(workload.noise_free_runs(corpus), corpus)
        one_rep(workload, checker, corpus)  # warm-up; its outputs are the reference

        setup: list[tuple[float, float]] = []
        plain: list[dict] = []
        traced: list[dict] = []
        last_tracer = None  # only the latest traced repetition's spans are kept
        deadline = perf_counter() + seconds
        last = 0.0  # duration of the latest repetition, to end near the deadline
        while perf_counter() + last / 2 < deadline or not plain or (trace and not traced):
            started = perf_counter()
            if trace and len(traced) < len(plain):
                tracer = Tracer()
                timing = one_rep(workload, checker, corpus, tracer=tracer)
                if timing is None:
                    break
                timing["layers"] = layer_metrics(tracer.spans)
                last_tracer = tracer
                traced.append(timing)
            else:
                timing = one_rep(workload, checker, corpus,
                                 eval_min_s=0.0 if trace else EVAL_MIN_S)
                if timing is None:
                    break
                plain.append(timing)
                if not trace:
                    setup += _setup_samples(workload, SETUP_MIN_S)
            last = perf_counter() - started
        while not trace and plain and len(setup) < SETUP_MIN_SAMPLES:
            setup += _setup_samples(workload, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "reps": len(plain) + len(traced),
        "attempted": checker.attempted,
        "failed": min(checker.failed, checker.attempted),
        "problems": checker.problems,
        "metrics": {},
        "raw": {},
    }
    if not plain or (trace and not traced):
        return result
    total, total_raw = _medians(t["total"] for t in plain)

    if trace:
        layers = {
            key: statistics.median(t["layers"][key] for t in traced)
            for key in traced[0]["layers"]
        }
        layers["trace.overhead_frac"] = (_medians(t["total"] for t in traced)[0] - total) / total
        result["metrics"] = layers
        out = work_root / "traces" / f"{name}-seed{seed}.jsonl"
        last_tracer.write(out)
        result["trace_file"] = str(out)
        return result

    metrics = {
        "setup_s": _medians(setup),
        "run_utt_per_s": _medians(t["run_rate"] for t in plain),
        "eval_utt_per_s": _medians(rate for t in plain for rate in t["eval_rates"]),
        "total_s": (total, total_raw),
    }
    result["metrics"] = {key: adj for key, (adj, _) in metrics.items()}
    result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["raw"] = {key: raw for key, (_, raw) in metrics.items()}
    result["raw"]["slowdown"] = statistics.median(t["slowdown"] for t in plain)
    return result
