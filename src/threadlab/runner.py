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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import metrics, outparse, prompts
from .corpus import (
    SUBCATEGORY_TAGS, CodeSet, GoldAnnotations, ThreadLabel, Transcript, parse_respond_line
)
from .llm import (
    CompletionCache,
    ContextOverflow,
    ModelConfig,
    PricingTable,
    Provider,
    RateLimited,
    TransportError,
    complete,
    prompt_digest,
)
from .metrics import PARSE_ERROR_LABEL
from .schema import as_fields, from_fields
# make_window stays importable from here: perfbench/spans.py patches runner.make_window.
from .windowing import WindowConfig, context_slice, make_window  # noqa: F401

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
            wanted = "all_at_once" if self.template_override == "baseline_martinenghi" else "window"
            if self.strategy != wanted:
                raise ValueError(f"{self.template_override} requires strategy {wanted}")
            if self.thread_source != THREAD_SOURCE_NONE:
                raise ValueError("baseline templates take no thread labels")

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExperimentSpec":
        """A spec from its JSON form, as in a run log's meta line or a ``--config`` file.

        Numbers are coerced to their field types, so ``"temperature": 0`` gives
        the same run id as ``0.0``. A key that names no field raises ValueError.
        """
        m, w = d["model"], d.get("window")
        return from_fields(cls, {
            **_coerced(d, shots=int),
            "model": from_fields(ModelConfig, _coerced(
                m, temperature=float, max_output_tokens=int, fixed_temperature=bool)),
            "window": from_fields(WindowConfig, _coerced(w, n=int)) if w else None,
            "shot_ids": tuple(d.get("shot_ids") or ()),
        })

    @property
    def run_id(self) -> str:
        payload = json.dumps(self, default=as_fields, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _coerced(d: Mapping, **types: Callable) -> dict:
    return {**d, **{k: t(d[k]) for k, t in types.items() if k in d}}


@dataclass(frozen=True)
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
    n_fallback_labels: int = 0  # "-" labels put in place of failed predictions later prompts read

    def to_jsonl(self) -> str:
        """A ``meta`` line (run id and spec), a ``record`` line per utterance, then a
        ``summary`` line with the other fields; each line's keys are its record's fields."""
        lines = [json.dumps({"kind": "meta", "run_id": self.run_id, "spec": self.spec},
                            default=as_fields)]
        for rec in self.records:
            lines.append(json.dumps({"kind": "record", **as_fields(rec)}, ensure_ascii=False))
        summary = as_fields(self)
        del summary["run_id"], summary["spec"], summary["records"]
        lines.append(json.dumps({"kind": "summary", **summary}))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "RunLog":
        meta = None
        summary: dict = {}
        records = []
        for line in text.splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            kind = d.pop("kind", None)
            if kind == "record":
                records.append(UtteranceRecord(**d))
            elif kind == "meta":
                meta = d
            elif kind == "summary":
                summary = d
        if meta is None:
            raise RunnerError("run log has no meta line")
        spec = ExperimentSpec.from_dict(meta.pop("spec"))
        return from_fields(cls, summary, **meta, spec=spec, records=records)

    def save(self, runs_dir: str | Path) -> Path:
        run_dir = Path(runs_dir) / self.run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        path = run_dir / "log.jsonl"
        write_atomic(path, self.to_jsonl())
        return path

    @classmethod
    def load(cls, runs_dir: str | Path, run_id: str) -> "RunLog":
        path = Path(runs_dir) / run_id / "log.jsonl"
        if not path.exists():
            raise MissingThreadSource(f"no run log at {path}")
        return cls.from_jsonl(path.read_text(encoding="utf-8"))


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


def _strictness_for(provider: Provider, override: str | None) -> str:
    if override:
        return override
    # Curated sources are held to the instructed format; live output gets mined.
    return "strict" if provider.name in ("oracle", "replay") else "lenient"


def _gold_thread_canonical(g: GoldAnnotations, index: int) -> str:
    label = g.thread.get(index)
    if label is None:
        raise GoldMismatch(f"{g.transcript_id}: no gold thread label for utterance {index}")
    return label.canonical()


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
) -> tuple[dict[str, dict[int, ThreadLabel]], int]:
    """Thread-label maps for an abcde run, per its thread_source.

    Returns ({transcript_id: {index: label}}, fallback_count). For an llm run
    reference, unparseable or missing predictions fall back to the new-thread
    marker and are counted rather than fatal.
    """
    if spec.thread_source == THREAD_SOURCE_NONE:
        return {}, 0
    if spec.thread_source == THREAD_SOURCE_HUMAN:
        return {tid: dict(g.thread) for tid, (_, g) in corpus.items()}, 0

    ref = spec.thread_source[len(LLM_SOURCE_PREFIX):]
    if runs_dir is None:
        raise MissingThreadSource("llm thread_source needs a runs directory")
    source_log = RunLog.load(runs_dir, ref)
    if source_log.spec.task != "threading":
        raise MissingThreadSource(f"run {ref} is not a threading run")
    predicted: dict[str, dict[int, ThreadLabel]] = {}
    fallbacks = 0
    by_tid: dict[str, dict[int, str]] = {}
    for rec in source_log.records:
        by_tid.setdefault(rec.transcript_id, {})[rec.index] = rec.predicted
    for tid, (t, _) in corpus.items():
        if tid not in spec.transcripts:
            continue
        labels: dict[int, ThreadLabel] = {}
        source = by_tid.get(tid)
        if source is None:
            raise MissingThreadSource(f"run {ref} has no predictions for transcript {tid!r}")
        for i in range(1, len(t) + 1):
            raw = source.get(i)
            if raw is None or raw == PARSE_ERROR_LABEL:
                labels[i] = ThreadLabel.new_thread()
                fallbacks += 1
            else:
                labels[i] = parse_respond_line(raw)
        predicted[tid] = labels
    return predicted, fallbacks


def _gold_codes_canonical(g: GoldAnnotations, index: int) -> str:
    return g.codes_at(index).canonical()


# ---------------------------------------------------------------------------
# Run executor
# ---------------------------------------------------------------------------

# Provider faults that cost only the records of the prompt they hit.
_FAULTS = (ContextOverflow, RateLimited, TransportError)
_FAULT_NAMES = frozenset(f.__name__ for f in _FAULTS)
# What a self-feedback window feeds forward for a failed prediction.
_FALLBACK_LABEL = ThreadLabel.new_thread()

# A chain is a transcript id plus the targets to complete in order: utterance
# indices for windows, None for the whole transcript.
Chain = tuple[str, Sequence[int | None]]
# A renderer makes the prompt for (transcript, target) from the transcript's
# window lines for the run; whole-transcript prompts ignore the lines.
Renderer = Callable[[Transcript, int | None, list[str | None]], prompts.RenderedPrompt]


def _renderer(
    spec: ExperimentSpec, corpus: Corpus, thread_labels: Mapping[str, Mapping[int, ThreadLabel]]
) -> Renderer:
    """The run's one prompt function of (transcript, target, window lines)."""
    tdir = spec.template_dir
    override = spec.template_override
    threaded = spec.thread_source != THREAD_SOURCE_NONE
    if spec.strategy == "all_at_once":
        if spec.task == "threading":
            return lambda t, _, __: prompts.render_thread_all_at_once(
                t, _resolve_shots(spec, corpus, exclude=t.id), template_dir=tdir
            )
        if override:
            return lambda t, _, __: prompts.render_baseline(override, t, template_dir=tdir)
        variant = f"abcde_full_{'threaded' if threaded else 'plain'}"
        return lambda t, _, __: prompts.render_abcde(
            variant, t, thread_labels[t.id] if threaded else None, template_dir=tdir
        )

    n = spec.window.n
    if spec.task == "threading":
        template_id = "thread_window"
        # Fed-back labels go on the context lines only; the target is asked about.
        own_target = spec.window.feedback == "none"
    else:
        template_id = override or f"abcde_window_{'threaded' if threaded else 'plain'}"
        own_target = True

    def render(t: Transcript, i: int, lines: list[str | None]) -> prompts.RenderedPrompt:
        target = t.utterances[i - 1]
        last = lines[i - 1] if own_target else prompts.utterance_line(target)
        return prompts.render_window(
            template_id, [*context_slice(lines, i, n), last], target, n, t.id, tdir
        )

    return render


def _chains(spec: ExperimentSpec, corpus: Corpus, self_feedback: bool) -> list[Chain]:
    """Self-feedback windows chain through their transcript; every other job stands alone."""
    chains: list[Chain] = []
    for tid in spec.transcripts:
        indices = range(1, len(corpus[tid][0]) + 1)
        if spec.strategy == "all_at_once":
            chains.append((tid, (None,)))
        elif self_feedback:
            chains.append((tid, indices))
        else:
            chains.extend((tid, (i,)) for i in indices)
    return chains


def _run(
    spec: ExperimentSpec,
    corpus: Corpus,
    provider: Provider,
    cache: CompletionCache | None,
    concurrency: int,
    strictness: str | None,
    pricing: PricingTable | None,
    runs_dir: str | Path | None,
) -> RunLog:
    for tid in spec.transcripts:
        if tid not in corpus:
            raise RunnerError(f"transcript {tid!r} not in corpus")
    mode = _strictness_for(provider, strictness)
    thread_labels, source_fallbacks = resolve_thread_labels(spec, corpus, runs_dir)
    render = _renderer(spec, corpus, thread_labels)
    thread_task = spec.task == "threading"
    feedback = spec.window.feedback if thread_task and spec.strategy == "window" else "none"
    gold_of = _gold_thread_canonical if thread_task else _gold_codes_canonical
    parse_line = outparse.parse_thread_response if thread_task else outparse.parse_code_response
    block_kind = "thread" if thread_task else "code"
    parsed_label = attrgetter("label" if thread_task else "codes")
    # Each transcript's window lines, rendered once for the run: a window's
    # transcript block is a slice of them. They carry the abcde thread source's
    # labels or gold feedback; self-feedback chains fill their own as they go.
    fixed_lines: dict[str, list[str | None]] = {}
    if spec.strategy == "window" and feedback != "self":
        for tid in spec.transcripts:
            t, g = corpus[tid]
            labels = g.thread if feedback == "gold" else thread_labels.get(tid)
            fixed_lines[tid] = prompts.transcript_lines(t.utterances, labels)

    def run_chain(chain: Chain) -> tuple[list[UtteranceRecord], int, int]:
        tid, targets = chain
        t, g = corpus[tid]
        lines = [] if feedback == "self" else fixed_lines.get(tid, [])
        records: list[UtteranceRecord] = []
        input_tokens = output_tokens = 0
        for target in targets:
            p = render(t, target, lines)
            if p.target_index is None:
                entries = p.expected_entries
            else:
                entries = ((p.target_index, p.target_speaker),)
            fed = _FALLBACK_LABEL
            try:
                rec = complete(p, spec.model, provider, cache)
            except _FAULTS as exc:
                h = prompt_digest(spec.model, p.text)
                done = [
                    UtteranceRecord(tid, i, h, PARSE_ERROR_LABEL, gold_of(g, i), ok=False,
                                    fail_reason=type(exc).__name__)
                    for i, _ in entries
                ]
            else:
                input_tokens += rec.input_tokens
                output_tokens += rec.output_tokens
                if p.target_index is None:
                    outcomes = outparse.parse_block_response(
                        rec.response_text, entries, block_kind, mode
                    ).outcomes
                else:
                    outcomes = (parse_line(rec.response_text, *entries[0], mode),)
                    if outcomes[0].ok and feedback == "self":
                        fed = outcomes[0].value.label.normalized()
                done = [
                    UtteranceRecord(
                        transcript_id=tid,
                        index=i,
                        prompt_hash=rec.prompt_hash,
                        predicted=parsed_label(o.value).canonical() if o.ok else PARSE_ERROR_LABEL,
                        gold=gold_of(g, i),
                        ok=o.ok,
                        fail_reason=o.reason,
                        input_tokens=rec.input_tokens,
                        output_tokens=rec.output_tokens,
                        latency_ms=rec.latency_ms,
                    )
                    for (i, _), o in zip(entries, outcomes)
                ]
            if feedback == "self":
                # The fed-back label is the canonical form of the logged
                # prediction, so the prompt stream is a pure function of the
                # log; the target's line is rendered with it once, here.
                lines.append(prompts.utterance_line(t.utterances[target - 1], fed))
            records.extend(done)
        return records, input_tokens, output_tokens

    chains = _chains(spec, corpus, feedback == "self")
    started = time.perf_counter()
    if concurrency > 1 and len(chains) > 1:
        # Longest chain first (LPT list scheduling): a self-feedback chain's
        # calls are serial, so the longest one sets the run's floor and must
        # not wait behind the short ones. Results go back to their chain's
        # slot, so records keep transcript order.
        order = sorted(range(len(chains)), key=lambda k: -len(chains[k][1]))
        results = [None] * len(chains)
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            for k, result in zip(order, pool.map(run_chain, [chains[k] for k in order])):
                results[k] = result
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
    strictness: str | None = None,
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
    return _run(spec, corpus, provider, cache, concurrency, strictness, pricing, None)


def run_abcde(
    spec: ExperimentSpec,
    corpus: Corpus,
    provider: Provider,
    cache: CompletionCache | None = None,
    concurrency: int = DEFAULT_CONCURRENCY,
    strictness: str | None = None,
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
    return _run(spec, corpus, provider, cache, concurrency, strictness, pricing, runs_dir)


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
    slices: Mapping[str, object] | None = None  # tag -> AggregateReport or error marker

    def as_dict(self) -> dict:
        """The report's fields, without ``code_letter`` and ``slices`` when they are None.

        Nested reports are left as records for ``json.dumps(..., default=as_fields)``.
        """
        return {k: v for k, v in as_fields(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: Mapping) -> "EvalResult":
        def aggregate(a: Mapping) -> metrics.AggregateReport:
            return metrics.AggregateReport(**{
                k: from_fields(metrics.MetricSummary, v) if isinstance(v, Mapping) else v
                for k, v in a.items()
            })

        slices = d.get("slices")
        return from_fields(cls, {
            **d,
            "per_conversation": {
                tid: metrics.MetricReport(**rep) for tid, rep in d["per_conversation"].items()
            },
            "aggregate": aggregate(d["aggregate"]),
            "slices": None if slices is None else {
                tag: val if "error" in val else aggregate(val) for tag, val in slices.items()
            },
        })

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), default=as_fields, sort_keys=True, indent=2) + "\n"


def _records_by_transcript(log: RunLog) -> dict[str, list[UtteranceRecord]]:
    grouped: dict[str, list[UtteranceRecord]] = {}
    for rec in log.records:
        grouped.setdefault(rec.transcript_id, []).append(rec)
    for recs in grouped.values():
        recs.sort(key=lambda r: r.index)
    return grouped


def _check_coverage(tid: str, recs: list[UtteranceRecord], t: Transcript) -> None:
    got = [r.index for r in recs]
    if got != list(range(1, len(t) + 1)):
        raise GoldMismatch(f"{tid}: records cover {got[:5]}..., expected 1..{len(t)}")


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
    raises ValueError.
    """
    unknown = set(subcats or ()) - SUBCATEGORY_TAGS
    if unknown:
        raise ValueError(f"unknown subcategory tags: {', '.join(sorted(unknown))}")
    grouped = _records_by_transcript(log)
    per_conv: dict[str, metrics.MetricReport] = {}
    reports: list[metrics.MetricReport] = []

    if log.spec.task == "threading":
        # one slice per distinct tag, in the order the tags are first given
        sliced: dict[str, list[metrics.MetricReport]] = {tag: [] for tag in subcats or ()}
        for tid in log.spec.transcripts:
            if tid not in corpus:
                raise GoldMismatch(f"transcript {tid!r} not in corpus")
            t, g = corpus[tid]
            recs = grouped.get(tid, [])
            _check_coverage(tid, recs, t)
            gold = [_gold_thread_canonical(g, r.index) for r in recs]
            pred = [r.predicted for r in recs]
            report = metrics.score(gold, pred)
            per_conv[tid] = report
            reports.append(report)
            if sliced:
                for tag, rep in metrics.subcategory_slices(gold, pred, g.subcat, sliced).items():
                    sliced[tag].append(rep)
        slices = {
            tag: metrics.aggregate(reps) if reps else {"error": "EmptyCategory"}
            for tag, reps in sliced.items()
        } if subcats else None
        return EvalResult(
            run_id=log.run_id,
            task="threading",
            per_conversation=per_conv,
            aggregate=metrics.aggregate(reports),
            slices=slices,
        )

    if code_letter not in "ABCDE" or len(code_letter) != 1:
        raise ValueError(f"code_letter must be one of A-E, got {code_letter!r}")
    for tid in log.spec.transcripts:
        if tid not in corpus:
            raise GoldMismatch(f"transcript {tid!r} not in corpus")
        t, g = corpus[tid]
        recs = grouped.get(tid, [])
        _check_coverage(tid, recs, t)
        gold_sets = [g.codes_at(r.index) for r in recs]
        pred_sets: list[CodeSet | None] = []
        for r in recs:
            if r.predicted == PARSE_ERROR_LABEL:
                pred_sets.append(None)
            else:
                pred_sets.append(CodeSet(frozenset(r.predicted)))
        report = metrics.binary_code_metrics(gold_sets, pred_sets, code_letter)
        per_conv[tid] = report
        reports.append(report)
    return EvalResult(
        run_id=log.run_id,
        task="abcde",
        per_conversation=per_conv,
        aggregate=metrics.aggregate(reports),
        code_letter=code_letter,
    )
