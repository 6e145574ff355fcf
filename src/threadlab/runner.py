"""Experiment orchestration: spec in, run log out, evaluation on top.

A run works through a list of transcripts with one model, one strategy
(sliding window or whole transcript at once), and one task (threading or code
labeling). Each utterance produces one log record carrying the prompt digest,
the parse outcome, and the predicted and gold labels, so a finished run can be
re-scored or re-rendered without touching a provider. Run ids are digests of
the spec, which makes re-runs idempotent: same spec, same directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from itertools import filterfalse, groupby, repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from . import metrics, outparse, prompts
from .corpus import (
    SUBCATEGORY_TAGS, VALID_CODES, CodeSet, GoldAnnotations, ThreadLabel, Transcript, Utterance,
    parse_respond_line,
)
from .llm import (
    CompletionCache,
    ContextOverflow,
    HttpProvider,
    ModelConfig,
    PricingTable,
    Provider,
    RateLimited,
    TransportError,
    complete,
    prompt_digest,  # noqa: F401  (perfbench/spans.py patches runner.prompt_digest)
)
from .metrics import PARSE_ERROR_LABEL
from .schema import (
    FileError, MalformedRecord, as_fields, json_line, objects, read, record_reader, typed,
)
# make_window stays importable from here: perfbench/spans.py patches runner.make_window.
from .windowing import WindowConfig, make_window  # noqa: F401

TASKS = ("threading", "abcde")
STRATEGIES = ("all_at_once", "window")
THREAD_SOURCE_NONE = "none"
THREAD_SOURCE_HUMAN = "human"
LLM_SOURCE_PREFIX = "llm:"

DEFAULT_CONCURRENCY = 4


class RunnerError(Exception):
    pass


class GoldMismatch(RunnerError):
    pass


class StrayRecord(GoldMismatch):
    """A run log whose records do not match its spec: a record of a transcript
    the spec does not list, a listed transcript's records that do not cover it,
    or a prediction that is not a label of the run's task."""


class MissingThreadSource(RunnerError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines a run, and nothing that doesn't."""

    task: str
    strategy: str
    model: ModelConfig
    transcripts: tuple[str, ...]
    window: WindowConfig | None = None
    shots: int = 0
    shot_ids: tuple[str, ...] = ()
    thread_source: str = THREAD_SOURCE_NONE
    template_override: str | None = None
    template_dir: str | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if not self.transcripts:
            raise ValueError("spec needs at least one transcript id")
        for k, tid in enumerate(self.transcripts):
            if tid in self.transcripts[:k]:
                raise ValueError(f"transcript {tid!r} is listed twice")
        if self.strategy == "window" and self.window is None:
            raise ValueError("window strategy needs a window config")
        if not 0 <= self.shots <= prompts.MAX_SHOTS:
            raise ValueError(f"shots must be 0..{prompts.MAX_SHOTS}, got {self.shots}")
        if self.shots and not (self.task == "threading" and self.strategy == "all_at_once"):
            raise ValueError("shots only apply to all-at-once threading")
        if self.thread_source != THREAD_SOURCE_NONE and self.task != "abcde":
            raise ValueError("thread_source only applies to the abcde task")
        if self.thread_source not in (THREAD_SOURCE_NONE, THREAD_SOURCE_HUMAN) and not (
            self.thread_source.startswith(LLM_SOURCE_PREFIX)
        ):
            raise ValueError(f"bad thread_source {self.thread_source!r}")
        if self.template_override is not None:
            if self.task != "abcde":
                raise ValueError("template_override only applies to the abcde task")
            if self.template_override not in prompts.BASELINE_VARIANTS:
                raise ValueError(f"unknown template override {self.template_override!r}")
            whole = self.template_override in prompts.WHOLE_TRANSCRIPT_TEMPLATES
            wanted = "all_at_once" if whole else "window"
            if self.strategy != wanted:
                raise ValueError(f"{self.template_override} requires strategy {wanted}")
            if self.thread_source != THREAD_SOURCE_NONE:
                raise ValueError("baseline templates take no thread labels")
        if self.task == "abcde" and self.window is not None and self.window.feedback != "none":
            # Code prompts show no fed-back labels: every feedback is one run.
            object.__setattr__(self, "window", WindowConfig(self.window.n, "none"))

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExperimentSpec":
        """A spec from its JSON form, as in a run log's meta line or a ``--config`` file,
        read by :func:`schema.typed`: ``"temperature": 0`` gives the same run id as ``0.0``."""
        return typed(cls, d)

    @property
    def run_id(self) -> str:
        payload = json.dumps(self, default=as_fields, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(slots=True)
class UtteranceRecord:
    transcript_id: str
    index: int
    prompt_hash: str
    predicted: str  # canonical label, or the parse-error marker
    gold: str
    ok: bool
    fail_reason: str | None = None
    input_tokens: int = 0
    output_tokens: int = 0
    latency_ms: int = 0


@dataclass
class RunLog:
    run_id: str
    spec: ExperimentSpec
    records: list[UtteranceRecord]
    wall_time_ms: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    cost_usd: float | None = None
    failed_transcripts: tuple[str, ...] = ()
    n_fallback_labels: int = 0  # failed thread predictions fed on as "-", a last utterance's too

    def to_jsonl(self) -> str:
        """A ``meta`` line (run id and spec), a ``record`` line per utterance, then a
        ``summary`` line with the other fields; each line's keys are its record's fields."""
        lines = [json.dumps({"kind": "meta", "run_id": self.run_id, "spec": self.spec},
                            default=as_fields)]
        lines += [json_line(rec, '{"kind": "record", ') for rec in self.records]
        summary = as_fields(self)
        del summary["run_id"], summary["spec"], summary["records"]
        lines.append(json.dumps({"kind": "summary", **summary}))
        lines.append("")  # the closing newline, without copying the joined text again
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str | bytes) -> "RunLog":
        lines, records = {}, []
        build = record_reader(UtteranceRecord)
        for line_no, d in objects(text):
            kind = d.pop("kind", None)
            if kind == "record":
                records.append(build(line_no, d))
            elif kind not in ("meta", "summary"):
                raise MalformedRecord(
                    line_no, "missing key 'kind'" if kind is None else f"unknown kind {kind!r}"
                )
            elif kind in lines:
                raise MalformedRecord(line_no, f"repeated {kind} line")
            else:
                lines[kind] = line_no, d
        for kind in ("meta", "summary"):
            if kind not in lines:
                raise FileError(f"run log has no {kind} line")
        (line_no, meta), (end, summary) = lines["meta"], lines["summary"]
        # a missing, unknown or misshapen key is a fault on the meta line, then the summary's
        try:
            spec = typed(ExperimentSpec, meta.pop("spec"), "spec")
            run_id = typed(str, meta.pop("run_id"), "run_id")
            if meta:
                raise ValueError(f"unknown key {min(meta)!r}")
            line_no = end
            return typed(cls, summary, run_id=run_id, spec=spec, records=records)
        except (KeyError, ValueError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise MalformedRecord(line_no, reason) from None

    def save(self, runs_dir: str | Path) -> Path:
        path = log_path(runs_dir, self.run_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        eval_path(runs_dir, self.run_id).unlink(missing_ok=True)  # it scored the old log
        write_atomic(path, self.to_jsonl())
        return path

    @classmethod
    def load(cls, runs_dir: str | Path, run_id: str) -> "RunLog":
        return read(log_path(runs_dir, run_id), cls.from_jsonl)


def log_path(runs_dir: str | Path, run_id: str) -> Path:
    """Where a run's log lives: ``<runs_dir>/<run_id>/log.jsonl``."""
    return Path(runs_dir) / run_id / "log.jsonl"


def eval_path(runs_dir: str | Path, run_id: str) -> Path:
    """Where a run's eval report lives: ``<runs_dir>/<run_id>/eval.json``."""
    return Path(runs_dir) / run_id / "eval.json"


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so readers see the old file or the new one.

    The text goes to a temporary file in the same directory, which is then
    renamed over ``path``; a run killed mid-write leaves the old file whole.
    """
    # Named per writing thread rather than by mkstemp, whose files are
    # private to the owner where write_text leaves the mode to the umask.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


Corpus = Mapping[str, tuple[Transcript, GoldAnnotations]]


def corpus_pair(corpus: Corpus, tid: str) -> tuple[Transcript, GoldAnnotations]:
    """A transcript and its gold by id; an id the corpus lacks raises GoldMismatch."""
    if tid not in corpus:
        raise GoldMismatch(f"transcript {tid!r} not in corpus")
    return corpus[tid]


def _gold_pair(corpus: Corpus, tid: str) -> tuple[Transcript, GoldAnnotations]:
    """A spec transcript and its gold, which must label every utterance's thread."""
    t, g = corpus_pair(corpus, tid)
    unlabeled = next(filterfalse(g.thread.__contains__, range(1, len(t) + 1)), None)
    if unlabeled is not None:
        raise GoldMismatch(f"{tid}: no gold thread label for utterance {unlabeled}")
    return t, g


def _resolve_shots(
    spec: ExperimentSpec, corpus: Corpus, exclude: str
) -> list[tuple[Transcript, GoldAnnotations]]:
    if not spec.shots:
        return []
    if spec.shot_ids:
        ids = list(spec.shot_ids)
        if len(ids) != spec.shots:
            raise RunnerError(f"spec names {len(ids)} shot ids but shots={spec.shots}")
    else:
        # Deterministic default: first transcripts in corpus order, skipping
        # the one being labeled.
        ids = [tid for tid in corpus if tid != exclude][: spec.shots]
        if len(ids) < spec.shots:
            raise RunnerError("not enough transcripts to fill the requested shots")
    for tid in ids:
        if tid not in corpus:
            raise RunnerError(f"shot transcript {tid!r} not in corpus")
        if tid == exclude:
            raise RunnerError(f"shot transcript {tid!r} is also the target")
    return [corpus[tid] for tid in ids]


# ---------------------------------------------------------------------------
# Code-labeling runs
# ---------------------------------------------------------------------------


def resolve_thread_labels(
    spec: ExperimentSpec,
    corpus: Corpus,
    runs_dir: str | Path | None = None,
) -> tuple[dict[str, Mapping[int, ThreadLabel]], int]:
    """The thread labels a run's prompts show, {transcript_id: {index: label}}, and a
    count: gold for gold feedback and for the human thread source, none without a
    source, else an llm run's predictions. An unparseable prediction is fed as the
    new-thread marker and counted; the source log's records are checked as for
    evaluate_run."""
    fed_gold = spec.strategy == "window" and spec.window.feedback == "gold"
    if spec.thread_source == THREAD_SOURCE_HUMAN or (spec.task == "threading" and fed_gold):
        return {tid: corpus[tid][1].thread for tid in spec.transcripts}, 0
    if spec.thread_source == THREAD_SOURCE_NONE:
        return {}, 0

    ref = spec.thread_source[len(LLM_SOURCE_PREFIX):]
    if runs_dir is None:
        raise MissingThreadSource("llm thread_source needs a runs directory")
    path = log_path(runs_dir, ref)
    source_log = read(path, RunLog.from_jsonl)
    if source_log.spec.task != "threading":
        raise MissingThreadSource(f"run {ref} is not a threading run")
    predicted, fallbacks = {}, 0
    try:
        for tid, _, raw in _predictions(source_log, corpus, spec.transcripts):
            fallbacks += raw.count(PARSE_ERROR_LABEL)
            try:
                predicted[tid] = dict(enumerate(map(_fed_label, raw), start=1))
            except ValueError as exc:  # a prediction that is no thread label
                raise StrayRecord(f"{tid}: {exc}") from None
    except StrayRecord as exc:
        raise StrayRecord(f"{path}: {exc}") from None
    return predicted, fallbacks


_NEW_THREAD_LABEL = ThreadLabel.new_thread()


def _fed_label(predicted: str) -> ThreadLabel:
    """The label a later prompt shows for a logged thread prediction: its
    canonical form, or the new-thread marker for the parse-error label."""
    return parse_respond_line("-" if predicted == PARSE_ERROR_LABEL else predicted)


# ---------------------------------------------------------------------------
# Run executor
# ---------------------------------------------------------------------------

# Provider faults that cost only the records of the prompt they hit.
_FAULTS = (ContextOverflow, RateLimited, TransportError)
_FAULT_NAMES = frozenset(f.__name__ for f in _FAULTS)

# A chain is a transcript id plus the targets to complete in order: target
# utterances for windows, the transcript itself for a whole-transcript prompt.
Chain = tuple[str, Sequence[Utterance | Transcript]]
# A renderer makes the prompt for (window buffers, target, transcript id), the
# call shape of prompts.window_renderer; whole-transcript prompts have no buffers.
Renderer = Callable[
    [prompts.WindowText | None, Utterance | Transcript, str], prompts.RenderedPrompt
]


def _renderer(
    spec: ExperimentSpec, corpus: Corpus, thread_labels: Mapping[str, Mapping[int, ThreadLabel]]
) -> tuple[Renderer, Callable[[str], prompts.WindowText | None]]:
    """The run's one prompt function of (window buffers, target, transcript id),
    and the function that builds a transcript's window buffers."""
    if spec.task == "threading":
        template_id = f"thread_{spec.strategy}"  # thread_all_at_once or thread_window
    else:
        template_id = spec.template_override or "abcde_{}_{}".format(
            "full" if spec.strategy == "all_at_once" else "window",
            "plain" if spec.thread_source == THREAD_SOURCE_NONE else "threaded",
        )
    if spec.strategy == "all_at_once":
        # Every transcript's examples, resolved before the run's first call.
        shots = {tid: _resolve_shots(spec, corpus, exclude=tid) for tid in spec.transcripts}

        def render_whole(_: None, t: Transcript, tid: str) -> prompts.RenderedPrompt:
            return prompts.render_full(
                template_id, t, thread_labels.get(tid), shots[tid], spec.template_dir
            )

        return render_whole, lambda _: None

    n, feedback = spec.window.n, spec.window.feedback
    render_window = prompts.window_renderer(template_id, n, spec.template_dir)

    def window_text(tid: str) -> prompts.WindowText:
        utterances = corpus[tid][0].utterances
        labels = thread_labels.get(tid)
        # Fed-back thread labels go on the context lines only; the target is
        # asked about. A self-feedback chain feeds its context as it goes.
        if spec.task != "threading" or feedback == "none":
            lines = context = prompts.WindowLines(prompts.transcript_lines(utterances, labels))
        else:
            lines = prompts.WindowLines(prompts.transcript_lines(utterances))
            context = prompts.FedLines(n - 1) if feedback == "self" else (
                prompts.WindowLines(prompts.transcript_lines(utterances, labels))
            )
        return prompts.WindowText(context, lines)

    return render_window, window_text


def _chains(spec: ExperimentSpec, corpus: Corpus, chained: bool) -> list[Chain]:
    """A transcript's windows as one chain when ``chained``, else one chain each;
    a whole-transcript prompt is its own chain."""
    chains: list[Chain] = []
    for tid in spec.transcripts:
        t = corpus[tid][0]
        if spec.strategy == "all_at_once":
            chains.append((tid, (t,)))
        elif chained:
            chains.append((tid, t.utterances))
        else:
            chains.extend((tid, (u,)) for u in t.utterances)
    return chains


def _run(
    spec: ExperimentSpec,
    corpus: Corpus,
    provider: Provider,
    cache: CompletionCache | None,
    concurrency: int,
    pricing: PricingTable | None,
    runs_dir: str | Path | None,
) -> RunLog:
    if concurrency < 1:
        raise RunnerError(f"concurrency must be at least 1, got {concurrency}")
    for tid in spec.transcripts:
        _gold_pair(corpus, tid)
    if pricing is not None:
        pricing.rate(spec.model.model_id)  # an unpriced model fails before any call
    thread_labels, source_fallbacks = resolve_thread_labels(spec, corpus, runs_dir)
    render, window_text = _renderer(spec, corpus, thread_labels)
    thread_task = spec.task == "threading"
    feedback = spec.window.feedback if thread_task and spec.strategy == "window" else "none"
    # Each transcript's gold strings, index i at position i - 1.
    gold = {}
    for tid in spec.transcripts:
        t, g = corpus[tid]
        labels = map(g.thread.__getitem__ if thread_task else g.codes_at, range(1, len(t) + 1))
        gold[tid] = [label.canonical() for label in labels]
    parse_line = outparse.parse_thread_response if thread_task else outparse.parse_code_response
    block_kind = "thread" if thread_task else "code"
    parsed_label = attrgetter("label" if thread_task else "codes")
    # Self-feedback windows must run in order. Other windows are independent:
    # the pool takes them one by one, and the serial path one transcript at a time.
    chained = feedback == "self" or concurrency == 1
    # A chain of a whole transcript builds its window buffers as it starts and
    # drops them as it ends; windows the pool takes one by one share buffers
    # built before it.
    texts = {} if chained else {tid: window_text(tid) for tid in spec.transcripts}
    # Set once a pooled chain raises: the run is lost, so the others stop.
    lost = threading.Event()

    def run_chain(chain: Chain) -> tuple[list[UtteranceRecord], int, int]:
        tid, targets = chain
        golds, text = gold[tid], texts[tid] if texts else window_text(tid)
        records: list[UtteranceRecord] = []
        input_tokens = output_tokens = 0
        for target in targets:
            if lost.is_set():
                break
            p = render(text, target, tid)
            try:
                rec = complete(p, spec.model, provider, cache)
            except _FAULTS as exc:
                # One failed outcome per entry, named for the fault; no tokens spent.
                prompt_hash, n_in, n_out, latency_ms = exc.prompt_hash, 0, 0, 0
                outcomes = repeat(outparse.ParseOutcome(False, None, type(exc).__name__))
            else:
                prompt_hash, n_in, n_out = rec.prompt_hash, rec.input_tokens, rec.output_tokens
                latency_ms = rec.latency_ms
                input_tokens += n_in
                output_tokens += n_out
                # Mine a live model's reply; hold other writers' to the format, however served.
                mode = "lenient" if rec.provider == HttpProvider.name else "strict"
                if p.target_index is None:
                    outcomes = outparse.parse_block_response(
                        rec.response_text, p.expected_entries, block_kind, mode
                    ).outcomes
                else:
                    outcomes = (
                        parse_line(rec.response_text, p.target_index, p.target_speaker, mode),
                    )
            # Positional arguments and no generator: this builds one record per
            # utterance, and a window prompt has one.
            for (i, _), o in zip(p.expected_entries, outcomes):
                records.append(UtteranceRecord(
                    tid, i, prompt_hash,
                    parsed_label(o.value).canonical() if o.ok else PARSE_ERROR_LABEL,
                    golds[i - 1], o.ok, o.reason, n_in, n_out, latency_ms,
                ))
            if feedback == "self":
                # Fed the parsed label in canonical order, or the new-thread
                # marker on a failure or fault: what _fed_label reads back from
                # the logged prediction, so the prompt stream is a pure function
                # of the log. The target's line is labeled with it once, here.
                label = o.value.label.normalized() if o.ok else _NEW_THREAD_LABEL
                text.context.feed(text.lines, p.target_index - 1, label)
        return records, input_tokens, output_tokens

    chains = _chains(spec, corpus, chained)
    started = time.perf_counter()
    if concurrency > 1 and len(chains) > 1:
        # Longest chain first (LPT list scheduling): a self-feedback chain's
        # calls are serial, so the longest one sets the run's floor and must
        # not wait behind the short ones. Results go back to their chain's
        # slot, so records keep transcript order.
        order = sorted(range(len(chains)), key=lambda k: -len(chains[k][1]))
        results = [None] * len(chains)
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            slots = {pool.submit(run_chain, chains[k]): k for k in order}
            try:
                for future in as_completed(slots):
                    results[slots[future]] = future.result()
            except BaseException:
                # The first error outside the fault policy: drop the chains not
                # started, let the running ones stop at their next call, re-raise.
                lost.set()
                pool.shutdown(cancel_futures=True)
                raise
    else:
        results = [run_chain(chain) for chain in chains]
    wall_time_ms = int((time.perf_counter() - started) * 1000)

    records = [r for recs, _, _ in results for r in recs]
    input_tokens = sum(n for _, n, _ in results)
    output_tokens = sum(n for _, _, n in results)
    fallbacks = source_fallbacks
    if feedback == "self":
        fallbacks += sum(1 for r in records if r.predicted == PARSE_ERROR_LABEL)
    return RunLog(
        run_id=spec.run_id,
        spec=spec,
        records=records,
        wall_time_ms=wall_time_ms,
        input_tokens=input_tokens,
        output_tokens=output_tokens,
        cost_usd=(
            pricing.cost(spec.model.model_id, input_tokens, output_tokens)
            if pricing is not None else None
        ),
        failed_transcripts=tuple(
            dict.fromkeys(r.transcript_id for r in records if r.fail_reason in _FAULT_NAMES)
        ),
        n_fallback_labels=fallbacks,
    )


def run_threading(
    spec: ExperimentSpec,
    corpus: Corpus,
    provider: Provider,
    cache: CompletionCache | None = None,
    concurrency: int = DEFAULT_CONCURRENCY,
    pricing: PricingTable | None = None,
) -> RunLog:
    """Thread every transcript in the spec and log one record per utterance.

    Self-feedback window runs feed each parsed prediction back as context for
    the next window; a failed parse or provider fault is logged as the
    parse-error class and replaced by the new-thread marker in the feedback
    stream so later windows stay fully labeled. All-at-once runs parse the
    response block. A provider fault (context overflow, rate limit, transport
    error) fails only the records of the prompt it hit and lists the
    transcript as failed; it never aborts the run.
    """
    if spec.task != "threading":
        raise ValueError(f"spec task is {spec.task!r}, expected 'threading'")
    return _run(spec, corpus, provider, cache, concurrency, pricing, None)


def run_abcde(
    spec: ExperimentSpec,
    corpus: Corpus,
    provider: Provider,
    cache: CompletionCache | None = None,
    concurrency: int = DEFAULT_CONCURRENCY,
    pricing: PricingTable | None = None,
    runs_dir: str | Path | None = None,
) -> RunLog:
    """Code-label every transcript in the spec, optionally thread-aware.

    With a human thread source the gold thread map is woven into the prompts;
    with an llm run reference the earlier run's predictions are used instead
    (parse failures degrade to the new-thread marker and are counted). Code
    predictions are never fed back into later prompts.
    """
    if spec.task != "abcde":
        raise ValueError(f"spec task is {spec.task!r}, expected 'abcde'")
    return _run(spec, corpus, provider, cache, concurrency, pricing, runs_dir)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    run_id: str
    task: str
    per_conversation: Mapping[str, metrics.MetricReport]
    aggregate: metrics.AggregateReport
    code_letter: str | None = None
    # tag -> its report, or {"error": "EmptyCategory"}
    slices: Mapping[str, metrics.AggregateReport | Mapping[str, str]] | None = None

    def as_dict(self) -> dict:
        """The report's fields, without ``code_letter`` and ``slices`` when they are None.

        Nested reports are left as records for ``json.dumps(..., default=as_fields)``.
        """
        return {k: v for k, v in as_fields(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: Mapping) -> "EvalResult":
        """The report of :meth:`as_dict`, read by :func:`schema.typed`."""
        return typed(cls, d)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), default=as_fields, sort_keys=True, indent=2) + "\n"


_index, _predicted = attrgetter("index"), attrgetter("predicted")


def _predictions(
    log: RunLog, corpus: Corpus, tids: Sequence[str]
) -> Iterator[tuple[str, GoldAnnotations, list[str]]]:
    """Each of ``tids`` with its gold and the log's predictions for it, in index order.

    A record of a transcript the log's spec does not list raises StrayRecord
    first. Then, per transcript: one the spec does not list raises
    MissingThreadSource, gold that leaves an utterance unlabeled GoldMismatch,
    and records that do not cover its utterances StrayRecord.
    """
    grouped: dict[str, list[UtteranceRecord]] = {tid: [] for tid in log.spec.transcripts}
    # a run logs each transcript's records in one or a few stretches
    for tid, stretch in groupby(log.records, attrgetter("transcript_id")):
        if tid not in grouped:
            raise StrayRecord(f"record for transcript {tid!r}, which the run's spec does not list")
        grouped[tid].extend(stretch)
    for tid in tids:
        if tid not in grouped:
            raise MissingThreadSource(f"run {log.run_id} does not list transcript {tid!r}")
        t, g = _gold_pair(corpus, tid)
        recs = sorted(grouped[tid], key=_index)
        got = list(map(_index, recs))
        if got != list(range(1, len(t) + 1)):
            raise StrayRecord(f"{tid}: records cover {got[:5]}..., expected 1..{len(t)}")
        yield tid, g, list(map(_predicted, recs))


def evaluate_run(
    log: RunLog,
    corpus: Corpus,
    code_letter: str = "E",
    subcats: Sequence[str] | None = None,
) -> EvalResult:
    """Score a finished run against gold, per conversation plus aggregate.

    Threading runs score canonical thread labels and can be sliced by gold
    threading subcategories; code runs reduce to presence of one letter.
    Conversations missing a requested subcategory are skipped for that slice,
    and a tag absent from every conversation is reported as empty rather than
    raising. A repeated tag is sliced once; a tag outside SUBCATEGORY_TAGS
    raises ValueError. A record of a transcript the spec does not list, a
    listed transcript whose records do not cover its utterances, or a code
    run's prediction that is not a code set raises StrayRecord, a GoldMismatch.
    """
    unknown = set(subcats or ()) - SUBCATEGORY_TAGS
    if unknown:
        raise ValueError(f"unknown subcategory tags: {', '.join(sorted(unknown))}")
    threading_run = log.spec.task == "threading"
    if not threading_run and code_letter not in VALID_CODES:
        raise ValueError(f"code_letter must be one of A-E, got {code_letter!r}")
    per_conv: dict[str, metrics.MetricReport] = {}
    # one slice per distinct tag, in the order the tags are first given;
    # code runs are not sliced
    sliced: dict[str, list[metrics.MetricReport]] = (
        {tag: [] for tag in subcats or ()} if threading_run else {}
    )
    for tid, g, pred in _predictions(log, corpus, log.spec.transcripts):
        # predictions hold indices 1..n in order, so position p is index p + 1
        indices = range(1, len(pred) + 1)
        if threading_run:
            gold = list(map(ThreadLabel.canonical, map(g.thread.__getitem__, indices)))
            per_conv[tid] = metrics.score(gold, pred)
            if sliced:
                for tag, rep in metrics.subcategory_slices(gold, pred, g.subcat, sliced).items():
                    sliced[tag].append(rep)
        else:
            # each distinct string is read once, in record order, so the first
            # one that is no code set is the fault; a failed parse has no code set
            distinct = list(dict.fromkeys(pred))
            try:
                sets = [None if p == PARSE_ERROR_LABEL else CodeSet(frozenset(p))
                        for p in distinct]
            except ValueError as exc:
                raise StrayRecord(f"{tid}: {exc}") from None
            pred_of = dict(zip(distinct, metrics.presence(code_letter, sets)))
            gold_of = dict(zip(g.abcde, metrics.presence(code_letter, g.abcde.values())))
            per_conv[tid] = metrics.score(
                list(map(gold_of.get, indices, repeat(metrics.ABSENT))),
                list(map(pred_of.__getitem__, pred)),
            )
    return EvalResult(
        run_id=log.run_id,
        task=log.spec.task,
        per_conversation=per_conv,
        aggregate=metrics.aggregate(list(per_conv.values())),
        code_letter=None if threading_run else code_letter,
        slices={
            tag: metrics.aggregate(reps) if reps else {"error": "EmptyCategory"}
            for tag, reps in sliced.items()
        } if sliced else None,
    )
