import dataclasses
import itertools
import json
import random
import re
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from threadlab import prompts
from threadlab.corpus import (
    NEW_THREAD,
    SUBCATEGORY_TAGS,
    VALID_CODES,
    CodeSet,
    GoldAnnotations,
    LineRef,
    ThreadLabel,
    Transcript,
    Utterance,
    parse_respond_line,
)
from threadlab.llm import (
    AuthError,
    CompletionCache,
    ContextOverflow,
    FixtureMiss,
    HttpProvider,
    ModelConfig,
    OracleProvider,
    PricingTable,
    ProviderResult,
    RateLimited,
    ReplayProvider,
    TransportError,
    UnknownModelPricing,
    complete,
    prompt_digest,
)
from threadlab.metrics import PARSE_ERROR_LABEL, aggregate, presence, score
from threadlab.prompts import (
    TRANSCRIPT_START, render_abcde, render_baseline, render_thread_all_at_once,
    render_thread_window,
)
from threadlab.runner import (
    EvalResult,
    ExperimentSpec,
    GoldMismatch,
    MissingThreadSource,
    RunLog,
    RunnerError,
    StrayRecord,
    eval_path,
    evaluate_run,
    resolve_thread_labels,
    run_abcde,
    run_threading,
    write_atomic,
)
from threadlab.schema import FileError, as_fields
from threadlab.windowing import WindowConfig, make_window

from reference_metrics import EmptyCategory, ref_subcategory_slice

MODEL = ModelConfig(model_id="test-model")


def _oracle(corpus):
    return OracleProvider({tid: g for tid, (_, g) in corpus.items()})


class CountingOracle:
    """The oracle, counting the calls that reach it."""

    name = "oracle"

    def __init__(self, corpus):
        self.oracle, self.calls = _oracle(corpus), 0

    def send(self, prompt, model, prompt_hash):
        self.calls += 1
        return self.oracle.send(prompt, model, prompt_hash)


def _spec(**kw):
    kw.setdefault("task", "threading")
    kw.setdefault("strategy", "window")
    kw.setdefault("model", MODEL)
    kw.setdefault("transcripts", ("ws01",))
    if kw["strategy"] == "window":
        kw.setdefault("window", WindowConfig(n=10))
    return ExperimentSpec(**kw)


# --- spec ------------------------------------------------------------------


def test_spec_round_trip_and_run_id():
    spec = _spec(transcripts=("ws01", "cs01"), window=WindowConfig(n=20))
    again = ExperimentSpec.from_dict(json.loads(json.dumps(spec, default=as_fields)))
    assert again == spec
    assert again.run_id == spec.run_id
    assert _spec(window=WindowConfig(n=10)).run_id != _spec(window=WindowConfig(n=20)).run_id


@pytest.mark.parametrize(
    "kw",
    [
        dict(task="poetry"),
        dict(strategy="window", window=None),
        dict(shots=1),  # shots on a window run
        dict(task="threading", thread_source="human"),
        dict(task="threading", template_override="baseline_lee"),
        dict(transcripts=()),
        dict(transcripts=("ws01", "cs01", "ws01")),
        dict(strategy="sideways"),
        dict(strategy="all_at_once", shots=prompts.MAX_SHOTS + 1),
        dict(task="abcde", thread_source="gold"),
        dict(task="abcde", template_override="baseline_nobody"),
        dict(task="abcde", template_override="baseline_lee", thread_source="human"),
    ],
)
def test_spec_rejects_bad_combinations(kw):
    with pytest.raises(ValueError):
        _spec(**kw)


def test_spec_baseline_strategy_pairing():
    ok = _spec(task="abcde", strategy="window", template_override="baseline_qamar")
    assert ok.template_override == "baseline_qamar"
    with pytest.raises(ValueError):
        _spec(task="abcde", strategy="window", template_override="baseline_martinenghi")


# --- threading runs --------------------------------------------------------


def test_oracle_window_run_is_perfect(bundled):
    spec = _spec(transcripts=("ws01", "cs01"))
    log = run_threading(spec, bundled, _oracle(bundled), concurrency=1)
    assert len(log.records) == len(bundled["ws01"][0]) + len(bundled["cs01"][0])
    assert all(r.ok for r in log.records)
    assert all(r.predicted == r.gold for r in log.records)
    assert log.failed_transcripts == ()
    assert log.n_fallback_labels == 0


def test_oracle_all_at_once_run_is_perfect(bundled):
    spec = _spec(strategy="all_at_once", window=None, transcripts=("ws02",))
    log = run_threading(spec, bundled, _oracle(bundled))
    assert all(r.ok and r.predicted == r.gold for r in log.records)


class FlakyThreadProvider:
    """Gold everywhere except garbage at the chosen target indices."""

    name = "flaky"

    def __init__(self, corpus, bad_indices):
        self.oracle = OracleProvider({tid: g for tid, (_, g) in corpus.items()})
        self.bad = set(bad_indices)

    def send(self, prompt, model, prompt_hash):
        if prompt.target_index in self.bad:
            return ProviderResult("no idea, sorry", None, None, 0)
        return self.oracle.send(prompt, model, prompt_hash)


def test_parse_failure_becomes_marker_and_feeds_dash(bundled):
    spec = _spec(transcripts=("ws01",))
    provider = FlakyThreadProvider(bundled, bad_indices={2})
    log = run_threading(spec, bundled, provider, concurrency=1)
    by_index = {r.index: r for r in log.records}
    assert not by_index[2].ok
    assert by_index[2].predicted == PARSE_ERROR_LABEL
    assert log.n_fallback_labels == 1
    # the very next window must show the substituted new-thread label
    t, _ = bundled["ws01"]
    labels = {r.index: parse_respond_line("-") if r.predicted == PARSE_ERROR_LABEL
              else parse_respond_line(r.predicted) for r in log.records}
    w = make_window(t, 3, spec.window, labels)
    rendered = render_thread_window(w)
    context_line = next(ln for ln in rendered.text.splitlines() if ln.startswith("#2 "))
    assert context_line.endswith("[respond_line= -]")
    assert prompt_digest(MODEL, rendered.text) == by_index[3].prompt_hash


def test_window_prompts_are_pure_functions_of_the_log(bundled):
    spec = _spec(transcripts=("ws01", "cs02"), window=WindowConfig(n=10))
    provider = FlakyThreadProvider(bundled, bad_indices={4, 9})
    log = run_threading(spec, bundled, provider, concurrency=2)
    for tid in spec.transcripts:
        t, _ = bundled[tid]
        recs = sorted((r for r in log.records if r.transcript_id == tid), key=lambda r: r.index)
        labels = {}
        for r in recs:
            w = make_window(t, r.index, spec.window, labels)
            assert prompt_digest(spec.model, render_thread_window(w).text) == r.prompt_hash
            labels[r.index] = parse_respond_line(
                "-" if r.predicted == PARSE_ERROR_LABEL else r.predicted
            )


class SplitProvider:
    """Gold everywhere except an out-of-order split ``(9, 3)`` at one target; keeps each prompt."""

    name = "split"

    def __init__(self, corpus, at):
        self.oracle = OracleProvider({tid: g for tid, (_, g) in corpus.items()})
        self.at = at
        self.prompts = {}

    def send(self, prompt, model, prompt_hash):
        self.prompts[prompt.target_index] = prompt.text
        if prompt.target_index == self.at:
            return ProviderResult(f"{self.at} {prompt.target_speaker} [respond line = (9, 3)]",
                                  None, None, 0)
        return self.oracle.send(prompt, model, prompt_hash)


def test_out_of_order_split_is_fed_back_in_canonical_order(bundled):
    provider = SplitProvider(bundled, at=12)
    log = run_threading(_spec(transcripts=("ws01",)), bundled, provider, concurrency=1)
    assert {r.index: r.predicted for r in log.records}[12] == "(3,9)"
    context_line = next(ln for ln in provider.prompts[13].splitlines() if ln.startswith("#12 "))
    assert context_line.endswith(" [respond_line= (3, 9)]")


def _long_corpus(n):
    speakers = ("Ana", "Ben", "Cyd")
    t = Transcript("long", tuple(
        Utterance(i, i * 1000, speakers[i % 3], f"point {i} about the circuit")
        for i in range(1, n + 1)
    ))
    thread = {
        i: ThreadLabel.new_thread() if i % 7 == 1
        else ThreadLabel((NEW_THREAD, LineRef(i - 2))) if i % 5 == 0
        else ThreadLabel.link(i - 1)
        for i in range(1, n + 1)
    }
    abcde = {i: CodeSet.of("A", "E") if i % 3 else CodeSet() for i in range(1, n + 1)}
    return {"long": (t, GoldAnnotations("long", thread, abcde))}


@pytest.mark.parametrize("kw", [
    dict(task="threading", window=WindowConfig(n=10)),
    dict(task="abcde", window=WindowConfig(n=10, feedback="none"), thread_source="human"),
], ids=["thread_self", "abcde_human"])
def test_window_runs_render_each_transcript_line_at_most_twice(monkeypatch, kw):
    corpus = _long_corpus(300)
    spec = _spec(transcripts=("long",), **kw)
    rendered = []
    line = prompts.utterance_line

    def counted(*args, **kwargs):
        rendered.append(args[0].index)
        return line(*args, **kwargs)

    monkeypatch.setattr(prompts, "utterance_line", counted)
    run = run_threading if spec.task == "threading" else run_abcde
    log = run(spec, corpus, _oracle(corpus), concurrency=1)
    assert all(r.ok and r.predicted == r.gold for r in log.records)
    assert len(rendered) <= 2 * 300


class RecordingProvider:
    """The oracle, keeping each prompt's text by (transcript, target)."""

    name = "recording"

    def __init__(self, corpus):
        self.oracle = _oracle(corpus)
        self.texts = {}

    def send(self, prompt, model, prompt_hash):
        self.texts[(prompt.transcript_id, prompt.target_index)] = prompt.text
        return self.oracle.send(prompt, model, prompt_hash)


@pytest.mark.parametrize("kw", [
    dict(task="threading", window=WindowConfig(n=5, feedback="gold")),
    dict(task="threading", window=WindowConfig(n=5, feedback="none")),
    dict(task="abcde", window=WindowConfig(n=5, feedback="none")),
    dict(task="abcde", window=WindowConfig(n=5, feedback="none"), thread_source="human"),
    dict(task="abcde", window=WindowConfig(n=5, feedback="none"), template_override="baseline_lee"),
    dict(task="abcde", window=WindowConfig(n=5, feedback="none"),
         template_override="baseline_qamar"),
    dict(task="threading", strategy="all_at_once", window=None),
    dict(task="threading", strategy="all_at_once", window=None, shots=2),
    dict(task="abcde", strategy="all_at_once", window=None),
    dict(task="abcde", strategy="all_at_once", window=None, thread_source="human"),
    dict(task="abcde", strategy="all_at_once", window=None,
         template_override="baseline_martinenghi"),
], ids=["thread_gold", "thread_none", "abcde_plain", "abcde_human", "lee", "qamar",
        "thread_full", "thread_full_2_shots", "abcde_full_plain", "abcde_full_human",
        "martinenghi"])
def test_run_window_prompts_match_the_public_renderers(bundled, kw):
    spec = _spec(transcripts=("ws01", "cs01"), **kw)
    provider = RecordingProvider(bundled)
    (run_threading if spec.task == "threading" else run_abcde)(spec, bundled, provider)
    for tid in spec.transcripts:
        t, g = bundled[tid]
        if spec.strategy == "all_at_once":
            if spec.task == "threading":
                shots = [bundled[other] for other in bundled if other != tid][:spec.shots]
                expected = render_thread_all_at_once(t, shots)
            elif spec.template_override:
                expected = render_baseline(spec.template_override, t)
            elif spec.thread_source == "human":
                expected = render_abcde("abcde_full_threaded", t, g.thread)
            else:
                expected = render_abcde("abcde_full_plain", t)
            assert provider.texts[(tid, None)] == expected.text, tid
            continue
        for i in range(1, len(t) + 1):
            w = make_window(t, i, spec.window, g.thread)
            if spec.task == "threading":
                expected = render_thread_window(w)
            elif spec.template_override:
                expected = render_baseline(spec.template_override, w)
            else:
                threaded = spec.thread_source == "human"
                variant = f"abcde_window_{'threaded' if threaded else 'plain'}"
                expected = render_abcde(variant, w, g.thread)
            assert provider.texts[(tid, i)] == expected.text, (tid, i)


class OverflowProvider:
    name = "overflow"

    def send(self, prompt, model, prompt_hash):
        raise ContextOverflow("maximum context length exceeded")


def test_context_overflow_fails_transcript_not_run(bundled):
    spec = _spec(strategy="all_at_once", window=None, transcripts=("ws01", "ws02"))
    log = run_threading(spec, bundled, OverflowProvider())
    assert set(log.failed_transcripts) == {"ws01", "ws02"}
    assert all(r.predicted == PARSE_ERROR_LABEL for r in log.records)
    assert all(r.fail_reason == "ContextOverflow" for r in log.records)
    assert len(log.records) == len(bundled["ws01"][0]) + len(bundled["ws02"][0])


FAULTS = (ContextOverflow, RateLimited, TransportError)
FAULT_TIDS = ("ws01", "cs01", "ws02")
FAULT_SPECS = {
    "thread_window_self": dict(window=WindowConfig(n=5)),
    "thread_window_gold": dict(window=WindowConfig(n=5, feedback="gold")),
    "thread_all_at_once": dict(strategy="all_at_once", window=None),
    "abcde_window": dict(task="abcde", window=WindowConfig(n=5, feedback="none")),
    "abcde_all_at_once": dict(task="abcde", strategy="all_at_once", window=None),
}


class FaultProvider:
    """Gold everywhere except at planned targets, which raise a fault or get garbage.

    ``plan`` maps (transcript id, target index, or None for a whole-transcript
    prompt) to a fault class, or to None for an unparseable reply.
    """

    name = "faulty"

    def __init__(self, corpus, plan):
        self.oracle = OracleProvider({tid: g for tid, (_, g) in corpus.items()})
        self.plan = plan

    def send(self, prompt, model, prompt_hash):
        key = (prompt.transcript_id, prompt.target_index)
        if key not in self.plan:
            return self.oracle.send(prompt, model, prompt_hash)
        if self.plan[key] is None:
            return ProviderResult("no idea, sorry", None, None, 0)
        raise self.plan[key]("injected")


@pytest.mark.parametrize("name", sorted(FAULT_SPECS))
@given(data=st.data())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_provider_faults_cost_only_their_records(bundled, name, data):
    spec = _spec(transcripts=FAULT_TIDS, **FAULT_SPECS[name])
    windowed = spec.strategy == "window"
    target = st.integers(1, 11) if windowed else st.none()  # cs01 has 11 lines
    plan = data.draw(st.dictionaries(
        st.tuples(st.sampled_from(FAULT_TIDS), target), st.sampled_from(FAULTS + (None,)),
        max_size=4,
    ))
    run = run_threading if spec.task == "threading" else run_abcde
    log = run(spec, bundled, FaultProvider(bundled, plan), concurrency=1)
    pooled = run(spec, bundled, FaultProvider(bundled, plan), concurrency=4)
    assert pooled.records == log.records

    assert [(r.transcript_id, r.index) for r in log.records] == [
        (tid, i) for tid in FAULT_TIDS for i in range(1, len(bundled[tid][0]) + 1)
    ]
    for r in log.records:
        planned = plan.get((r.transcript_id, r.index if windowed else None), "clean")
        if planned == "clean":
            assert r.ok and r.predicted == r.gold, r
        elif planned is None:
            assert not r.ok and r.predicted == PARSE_ERROR_LABEL
            assert r.fail_reason not in {f.__name__ for f in FAULTS}
        else:
            assert not r.ok and r.predicted == PARSE_ERROR_LABEL
            assert r.fail_reason == planned.__name__
            assert r.input_tokens == r.output_tokens == r.latency_ms == 0
    hit = {tid for (tid, _), fault in plan.items() if fault is not None}
    assert log.failed_transcripts == tuple(tid for tid in FAULT_TIDS if tid in hit)

    if name != "thread_window_self":
        assert log.n_fallback_labels == 0
        return
    assert log.n_fallback_labels == sum(not r.ok for r in log.records)
    # every failure, fault or garbage, fed "-" into the windows after it
    labels = {}
    for r in log.records:
        t, _ = bundled[r.transcript_id]
        w = make_window(t, r.index, spec.window, labels.setdefault(r.transcript_id, {}))
        assert prompt_digest(MODEL, render_thread_window(w).text) == r.prompt_hash
        labels[r.transcript_id][r.index] = parse_respond_line(
            "-" if r.predicted == PARSE_ERROR_LABEL else r.predicted
        )


class RateLimitedProvider:
    name = "throttled"

    def send(self, prompt, model, prompt_hash):
        raise RateLimited("still throttled")


@pytest.mark.parametrize("strategy", ["window", "all_at_once"])
def test_a_faulted_prompt_is_hashed_once(bundled, monkeypatch, strategy):
    # complete() hashes the prompt and the fault carries that hash to the record.
    import threadlab.llm
    import threadlab.runner

    digests = []

    def counting(model, text):
        digests.append(prompt_digest(model, text))
        return digests[-1]

    monkeypatch.setattr(threadlab.llm, "prompt_digest", counting)
    monkeypatch.setattr(threadlab.runner, "prompt_digest", counting)
    spec = _spec(strategy=strategy, window=WindowConfig(n=5) if strategy == "window" else None)
    log = run_threading(spec, bundled, RateLimitedProvider(), concurrency=1)
    n = len(bundled["ws01"][0])
    assert len(digests) == (n if strategy == "window" else 1)
    assert all(r.fail_reason == "RateLimited" for r in log.records)
    if strategy == "window":
        assert [r.prompt_hash for r in log.records] == digests
    else:
        assert {r.prompt_hash for r in log.records} == set(digests)


class SlowProvider:
    """Gold after a short sleep, recording the peak number of sends in flight."""

    name = "slow"

    def __init__(self, corpus):
        self.oracle = OracleProvider({tid: g for tid, (_, g) in corpus.items()})
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0

    def send(self, prompt, model, prompt_hash):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.01)
            return self.oracle.send(prompt, model, prompt_hash)
        finally:
            with self.lock:
                self.in_flight -= 1


def test_concurrency_spans_windows_except_self_feedback(bundled):
    independent = SlowProvider(bundled)
    run_abcde(_spec(task="abcde", window=WindowConfig(n=10, feedback="none")),
              bundled, independent, concurrency=4)
    assert independent.peak > 1
    chained = SlowProvider(bundled)
    run_threading(_spec(), bundled, chained, concurrency=4)
    assert chained.peak == 1


def test_unhandled_provider_error_stops_scheduling(bundled):
    class AuthFailsFirst(SlowProvider):
        calls = 0

        def send(self, prompt, model, prompt_hash):
            with self.lock:
                self.calls += 1
            if prompt.target_index == 1:
                raise AuthError("token expired")
            return super().send(prompt, model, prompt_hash)

    provider = AuthFailsFirst(bundled)
    spec = _spec(task="abcde", window=WindowConfig(n=10, feedback="none"))
    with pytest.raises(AuthError):
        run_abcde(spec, bundled, provider, concurrency=4)
    assert provider.calls < len(bundled["ws01"][0])


def test_all_at_once_totals_count_the_one_completion(bundled):
    pricing = PricingTable.from_dict({"test-model": {"input_per_1m": 1.0, "output_per_1m": 2.0}})
    spec = _spec(strategy="all_at_once", window=None)
    log = run_threading(spec, bundled, _oracle(bundled), pricing=pricing)
    t, _ = bundled["ws01"]
    rec = complete(render_thread_all_at_once(t), MODEL, _oracle(bundled))
    assert (log.input_tokens, log.output_tokens) == (rec.input_tokens, rec.output_tokens)
    assert log.cost_usd == pricing.cost(MODEL.model_id, rec.input_tokens, rec.output_tokens)


def test_a_model_missing_from_the_pricing_table_fails_before_the_first_call(bundled):
    provider = CountingOracle(bundled)
    pricing = PricingTable.from_dict({"other-model": {"input_per_1m": 1.0, "output_per_1m": 2.0}})
    with pytest.raises(UnknownModelPricing):
        run_threading(_spec(), bundled, provider, pricing=pricing)
    assert provider.calls == 0


@pytest.mark.parametrize("task", ["threading", "abcde"])
def test_gold_that_leaves_an_utterance_unlabeled_stops_the_run_before_its_first_call(
    bundled, task
):
    t, g = bundled["ws01"]
    thread = dict(g.thread)
    del thread[len(t)]
    corpus = {**bundled, "ws01": (t, dataclasses.replace(g, thread=thread))}
    provider = CountingOracle(corpus)
    if task == "threading":
        run, spec = run_threading, _spec()
    else:
        run, spec = run_abcde, _spec(task="abcde", window=WindowConfig(n=10, feedback="none"),
                                     thread_source="human")
    with pytest.raises(GoldMismatch, match=r"^ws01: no gold thread label for utterance 21$"):
        run(spec, corpus, provider)
    assert provider.calls == 0


def test_shots_are_resolved_before_the_first_call(bundled):
    # ws02 is a valid example for ws01, but not for itself
    provider = CountingOracle(bundled)
    spec = _spec(strategy="all_at_once", window=None, shots=1, shot_ids=("ws02",),
                 transcripts=("ws01", "ws02"))
    with pytest.raises(RunnerError, match="'ws02' is also the target"):
        run_threading(spec, bundled, provider, concurrency=1)
    assert provider.calls == 0


@pytest.mark.parametrize("kw, corpus_ids, message", [
    (dict(shots=2, shot_ids=("ws02",)), None, "spec names 1 shot ids but shots=2"),
    (dict(shots=2), ("ws01", "ws02"), "not enough transcripts to fill the requested shots"),
    (dict(shots=1, shot_ids=("zz",)), None, "shot transcript 'zz' not in corpus"),
])
def test_bad_shots_fail_before_the_first_call(bundled, kw, corpus_ids, message):
    corpus = bundled if corpus_ids is None else {tid: bundled[tid] for tid in corpus_ids}
    provider = CountingOracle(corpus)
    spec = _spec(strategy="all_at_once", window=None, **kw)
    with pytest.raises(RunnerError, match=f"^{re.escape(message)}$"):
        run_threading(spec, corpus, provider)
    assert provider.calls == 0


def test_shots_excluded_from_target(bundled):
    spec = _spec(strategy="all_at_once", window=None, shots=2, transcripts=("ws01",))
    log = run_threading(spec, bundled, _oracle(bundled))
    assert all(r.ok for r in log.records)
    bad = _spec(strategy="all_at_once", window=None, shots=1,
                shot_ids=("ws01",), transcripts=("ws01",))
    with pytest.raises(RunnerError, match="also the target"):
        run_threading(bad, bundled, _oracle(bundled))


# --- persistence -----------------------------------------------------------


def test_run_log_jsonl_round_trip(bundled, tmp_path):
    spec = _spec(transcripts=("cs01",))
    log = run_threading(spec, bundled, _oracle(bundled),
                        pricing=PricingTable.from_dict(
                            {"test-model": {"input_per_1m": 1.0, "output_per_1m": 2.0}}))
    path = log.save(tmp_path / "runs")
    assert path == tmp_path / "runs" / log.run_id / "log.jsonl"
    again = RunLog.load(tmp_path / "runs", log.run_id)
    assert again.spec == spec
    assert again.records == log.records
    assert again.cost_usd == pytest.approx(log.cost_usd)
    assert again.input_tokens == log.input_tokens


def test_save_replaces_log_atomically(bundled, tmp_path):
    log = run_threading(_spec(transcripts=("cs01",)), bundled, _oracle(bundled))
    path = tmp_path / "runs" / log.run_id / "log.jsonl"
    path.parent.mkdir(parents=True)
    path.write_text("stale\n", encoding="utf-8")
    assert log.save(tmp_path / "runs") == path
    assert path.read_text(encoding="utf-8") == log.to_jsonl()
    assert [p.name for p in path.parent.iterdir()] == ["log.jsonl"]


def test_save_removes_the_runs_eval_report(bundled, tmp_path):
    log = run_threading(_spec(transcripts=("cs01",)), bundled, _oracle(bundled))
    report = eval_path(tmp_path / "runs", log.run_id)
    assert report == tmp_path / "runs" / log.run_id / "eval.json"
    log.save(tmp_path / "runs")
    write_atomic(report, evaluate_run(log, bundled).to_json())
    log.save(tmp_path / "runs")  # the report scored the log this save replaces
    assert [p.name for p in report.parent.iterdir()] == ["log.jsonl"]


def test_write_atomic_keeps_old_file_when_write_fails(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "new \ud800")  # a lone surrogate cannot be encoded
    assert path.read_text(encoding="utf-8") == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_cached_rerun_reproduces_records(bundled, tmp_path):
    spec = _spec(transcripts=("ws03",))
    cache_path = tmp_path / "cache.jsonl"
    first = run_threading(spec, bundled, _oracle(bundled), cache=CompletionCache(cache_path))

    class NeverCalled:
        name = "never"

        def send(self, prompt, model, prompt_hash):
            raise AssertionError("cache should have answered")

    second = run_threading(spec, bundled, NeverCalled(), cache=CompletionCache(cache_path))
    assert second.records == first.records


class _Reply:
    def __init__(self, payload):
        self.status_code, self.text, self._payload = 200, json.dumps(payload), payload

    def json(self):
        return self._payload


class LiveSession:
    """A chat endpoint, as a requests session, whose model answers with the
    gold thread labels of one transcript in the instructed lines; every 4th
    window reply is prefixed with prose, and every 4th line of a block reply
    misspells its speaker. Only lenient parsing reads those."""

    def __init__(self, gold):
        self.gold = gold

    def post(self, url, json, **kwargs):
        text = json["messages"][0]["content"]
        block = text.split(TRANSCRIPT_START)[1].split("<<<TRANSCRIPT_END>>>")[0]
        entries = [(int(m[1]), m[2]) for m in re.finditer(r"^#(\d+) (.+?): ", block, re.M)]
        whole = "Label every utterance" in text
        lines = []
        for i, speaker in entries if whole else entries[-1:]:
            drift = i % 4 == 0
            name = f"{speaker}x" if drift and whole else speaker
            line = f"{i} {name} [respond line = {self.gold.thread[i].surface()}]"
            lines.append(f"Sure, here it is:\n{line}" if drift and not whole else line)
        reply = "\n".join(lines)
        return _Reply({"choices": [{"message": {"content": reply}}],
                       "usage": {"prompt_tokens": len(text) // 5, "completion_tokens": 7}})


def _live(bundled, monkeypatch):
    """An http provider over ws01's live session."""
    monkeypatch.setenv("OPENAI_API_KEY", "test-key")
    return HttpProvider(session=LiveSession(bundled["ws01"][1]))


@pytest.mark.parametrize("strategy, feedback", [
    ("window", "self"), ("window", "gold"), ("window", "none"), ("all_at_once", None),
])
def test_a_live_runs_cache_replays_to_the_same_log(bundled, tmp_path, monkeypatch,
                                                   strategy, feedback):
    spec = _spec(strategy=strategy, window=feedback and WindowConfig(n=5, feedback=feedback))
    cache_path, replay_cache = tmp_path / "live.jsonl", tmp_path / "replayed.jsonl"
    live = run_threading(spec, bundled, _live(bundled, monkeypatch),
                         cache=CompletionCache(cache_path))
    assert all(r.ok and r.predicted == r.gold for r in live.records)
    replayed = run_threading(spec, bundled, ReplayProvider.from_path(cache_path),
                             cache=CompletionCache(replay_cache))
    assert dataclasses.replace(replayed, wall_time_ms=0) == dataclasses.replace(
        live, wall_time_ms=0)
    # the replay's cache keeps the writer, so it replays the same way in turn
    writers = {json.loads(line)["provider"] for line in replay_cache.read_text().splitlines()}
    assert writers == {"http"}


@pytest.mark.parametrize("serve", ["oracle", "replay"])
def test_a_cache_hit_written_by_http_is_parsed_lenient(bundled, tmp_path, monkeypatch, serve):
    spec = _spec(window=WindowConfig(n=5, feedback="none"))
    cache_path = tmp_path / "live.jsonl"
    live = run_threading(spec, bundled, _live(bundled, monkeypatch),
                         cache=CompletionCache(cache_path))
    provider = CountingOracle(bundled) if serve == "oracle" else ReplayProvider(CompletionCache())
    rerun = run_threading(spec, bundled, provider, cache=CompletionCache(cache_path))
    assert rerun.records == live.records
    assert all(r.ok for r in rerun.records)
    assert getattr(provider, "calls", 0) == 0  # every reply came from the cache


@pytest.mark.parametrize("writer", ["scripted", "replay"])
def test_a_reply_not_written_by_http_is_parsed_strict(bundled, tmp_path, monkeypatch, writer):
    """Also when a cache serves it to a run on the http provider; "replay" is
    the writer an older cache line can name."""

    class Wordy:
        name = writer

        def send(self, prompt, model, prompt_hash):
            [(i, speaker)] = prompt.expected_entries
            return ProviderResult(f"Sure, here it is:\n{i} {speaker} [respond line = -]",
                                  3, 4, 0)

    spec = _spec(window=WindowConfig(n=5, feedback="none"))
    cache_path = tmp_path / "cache.jsonl"
    first = run_threading(spec, bundled, Wordy(), cache=CompletionCache(cache_path))
    assert {r.fail_reason for r in first.records} == {"NoMatch"}
    rerun = run_threading(spec, bundled, _live(bundled, monkeypatch),
                          cache=CompletionCache(cache_path))
    assert rerun.records == first.records


# --- abcde runs ------------------------------------------------------------


def test_abcde_human_threads_oracle_perfect(bundled):
    spec = _spec(task="abcde", transcripts=("ws01", "cs01"),
                 window=WindowConfig(n=10, feedback="none"), thread_source="human")
    log = run_abcde(spec, bundled, _oracle(bundled))
    assert all(r.ok and r.predicted == r.gold for r in log.records)


def test_abcde_full_strategies(bundled):
    for source in ("none", "human"):
        spec = _spec(task="abcde", strategy="all_at_once", window=None,
                     transcripts=("cs03",), thread_source=source)
        log = run_abcde(spec, bundled, _oracle(bundled))
        assert all(r.ok for r in log.records), source


def test_abcde_llm_thread_source_chain(bundled, tmp_path):
    runs_dir = tmp_path / "runs"
    thread_spec = _spec(transcripts=("ws04",))
    provider = FlakyThreadProvider(bundled, bad_indices={5})
    thread_log = run_threading(thread_spec, bundled, provider, concurrency=1)
    thread_log.save(runs_dir)

    code_spec = _spec(task="abcde", transcripts=("ws04",),
                      window=WindowConfig(n=10, feedback="none"),
                      thread_source=f"llm:{thread_log.run_id}")
    labels, fallbacks = resolve_thread_labels(code_spec, bundled, runs_dir)
    assert fallbacks == 1  # the garbage prediction degraded to "-"
    assert labels["ws04"][5].is_new_thread_only

    log = run_abcde(code_spec, bundled, _oracle(bundled), runs_dir=runs_dir)
    assert all(r.ok for r in log.records)


class PlannedReplyProvider:
    """The oracle, except at planned targets: a reply text, or a fault class to raise.
    Keeps each prompt's text by target."""

    name = "planned"

    def __init__(self, corpus, plan):
        self.oracle = _oracle(corpus)
        self.plan = plan
        self.texts = {}

    def send(self, prompt, model, prompt_hash):
        self.texts[prompt.target_index] = prompt.text
        reply = self.plan.get(prompt.target_index)
        if reply is None:
            return self.oracle.send(prompt, model, prompt_hash)
        if isinstance(reply, str):
            return ProviderResult(reply, None, None, 0)
        raise reply("injected")


def test_self_feedback_and_an_llm_thread_source_feed_the_same_labels(bundled, tmp_path):
    t = bundled["ws01"][0]
    plan = {12: f"12 {t[12].speaker} [respond line = (9, 3)]", 5: "no idea, sorry",
            8: TransportError}
    threader = PlannedReplyProvider(bundled, plan)
    thread_log = run_threading(_spec(transcripts=("ws01",)), bundled, threader, concurrency=1)
    thread_log.save(tmp_path)
    predicted = {r.index: (r.predicted, r.fail_reason) for r in thread_log.records}
    assert predicted[12] == ("(3,9)", None)
    assert predicted[5][0] == predicted[8][0] == PARSE_ERROR_LABEL
    assert predicted[8][1] == "TransportError"

    code_spec = _spec(task="abcde", transcripts=("ws01",),
                      window=WindowConfig(n=10, feedback="none"),
                      thread_source=f"llm:{thread_log.run_id}")
    coder = RecordingProvider(bundled)
    code_log = run_abcde(code_spec, bundled, coder, runs_dir=tmp_path)

    def line(text, i):
        return next(ln for ln in text.splitlines() if ln.startswith(f"#{i} "))

    # Each line as the threading run's next window showed it, and as the code run shows it.
    for i, shown in ((12, "(3, 9)"), (5, "-"), (8, "-")):
        fed = line(threader.texts[i + 1], i)
        assert fed.endswith(f" [respond_line= {shown}]")
        assert line(coder.texts[("ws01", i + 1)], i) == fed
    assert code_log.n_fallback_labels == thread_log.n_fallback_labels == 2


def test_abcde_llm_thread_source_missing(bundled, tmp_path):
    spec = _spec(task="abcde", transcripts=("ws01",),
                 window=WindowConfig(n=10, feedback="none"), thread_source="llm:deadbeef")
    with pytest.raises(FileError):
        run_abcde(spec, bundled, _oracle(bundled), runs_dir=tmp_path)
    with pytest.raises(MissingThreadSource):
        run_abcde(spec, bundled, _oracle(bundled))  # no runs_dir at all


def _gap(log):
    log.records = [r for r in log.records if (r.transcript_id, r.index) != ("ws01", 7)]


def _stray(log):
    log.records.append(dataclasses.replace(log.records[0], transcript_id="ws02"))


# fault: (the source run's task, its transcripts, its records' edit, the error, its message);
# {path} stands for the source log and {run} for its run id
THREAD_SOURCE_FAULTS = {
    "gap": ("threading", ("ws01",), _gap, StrayRecord,
            "{path}: ws01: records cover [1, 2, 3, 4, 5]..., expected 1..21"),
    "stray record": ("threading", ("ws01",), _stray, StrayRecord,
                     "{path}: record for transcript 'ws02', which the run's spec does not list"),
    "stray record and gap": ("threading", ("ws01",), lambda log: (_gap(log), _stray(log)),
                             StrayRecord, "{path}: record for transcript 'ws02', which the "
                             "run's spec does not list"),
    "not threading": ("abcde", ("ws01",), None, MissingThreadSource,
                      "run {run} is not a threading run"),
    "transcript not listed": ("threading", ("cs01",), None, MissingThreadSource,
                              "run {run} does not list transcript 'ws01'"),
}


@pytest.mark.parametrize("fault", list(THREAD_SOURCE_FAULTS))
def test_a_refused_thread_source_log_stops_the_run_before_the_first_call(
    bundled, tmp_path, fault
):
    task, transcripts, edit, error, message = THREAD_SOURCE_FAULTS[fault]
    window = WindowConfig(n=10, feedback="none" if task == "abcde" else "self")
    source = _spec(task=task, transcripts=transcripts, window=window)
    log = (run_threading if task == "threading" else run_abcde)(source, bundled, _oracle(bundled))
    if edit is not None:
        edit(log)
    path = log.save(tmp_path)
    spec = _spec(task="abcde", transcripts=("ws01",),
                 window=WindowConfig(n=10, feedback="none"), thread_source=f"llm:{log.run_id}")
    provider = CountingOracle(bundled)
    with pytest.raises(error) as exc:
        run_abcde(spec, bundled, provider, runs_dir=tmp_path)
    assert str(exc.value) == message.format(path=path, run=log.run_id)
    assert provider.calls == 0


def test_abcde_baseline_templates_run(bundled):
    for override, strategy in (
        ("baseline_lee", "window"),
        ("baseline_qamar", "window"),
        ("baseline_martinenghi", "all_at_once"),
    ):
        spec = _spec(task="abcde", strategy=strategy,
                     window=WindowConfig(n=10, feedback="none") if strategy == "window" else None,
                     transcripts=("cs04",), template_override=override)
        log = run_abcde(spec, bundled, _oracle(bundled))
        assert all(r.ok for r in log.records), override


# --- evaluation ------------------------------------------------------------


def test_evaluate_threading_with_slices(bundled):
    spec = _spec(transcripts=("ws01", "ws02"))
    log = run_threading(spec, bundled, _oracle(bundled))
    result = evaluate_run(log, bundled, subcats=["AP", "BC"])
    assert result.aggregate.kappa.mean == 1.0
    assert result.aggregate.kappa.std == 0.0
    assert set(result.per_conversation) == {"ws01", "ws02"}
    for tag, val in result.slices.items():
        if isinstance(val, dict):
            assert val == {"error": "EmptyCategory"}


@pytest.mark.parametrize("transcripts", [None, ("ws05", "ws06")])
def test_evaluate_slices_match_per_tag_subcategory_slice(bundled, transcripts):
    # ("ws05", "ws06") carry no TT utterance, so that slice is an error entry
    tags = sorted(SUBCATEGORY_TAGS)
    spec = _spec(transcripts=transcripts or tuple(bundled))
    log = run_threading(spec, bundled, FlakyThreadProvider(bundled, bad_indices={2, 5, 8}))
    # wrong but valid labels beside the parse failures
    log = dataclasses.replace(log, records=[
        dataclasses.replace(r, predicted="-") if r.index % 4 == 0 else r for r in log.records
    ])
    result = evaluate_run(log, bundled, subcats=tags)
    sliced = {tag: [] for tag in tags}
    for tid in spec.transcripts:
        _, g = bundled[tid]
        recs = sorted((r for r in log.records if r.transcript_id == tid), key=lambda r: r.index)
        gold = [g.thread[r.index].canonical() for r in recs]
        pred = [r.predicted for r in recs]
        for tag in tags:
            try:
                sliced[tag].append(ref_subcategory_slice(gold, pred, g.subcat, tag))
            except EmptyCategory:
                pass
    expected = {
        tag: aggregate(reps) if reps else {"error": "EmptyCategory"} for tag, reps in sliced.items()
    }
    assert result.slices == expected
    assert (expected["TT"] == {"error": "EmptyCategory"}) == (transcripts is not None)


def test_evaluate_counts_a_repeated_subcategory_tag_once(bundled):
    log = run_threading(_spec(transcripts=("ws01", "ws02")), bundled, _oracle(bundled))
    once = evaluate_run(log, bundled, subcats=["AP", "BC"])
    result = evaluate_run(log, bundled, subcats=["AP", "BC", "AP"])
    assert result.slices["AP"].n_conversations == 2
    assert list(result.slices.items()) == list(once.slices.items())
    assert result.to_json() == once.to_json()


def test_evaluate_rejects_unknown_subcategory_tags(bundled):
    log = run_threading(_spec(transcripts=("ws01",)), bundled, _oracle(bundled))
    with pytest.raises(ValueError, match="XX.*YY"):
        evaluate_run(log, bundled, subcats=["AP", "YY", "XX"])


def test_evaluate_is_deterministic_json(bundled):
    spec = _spec(transcripts=("cs01", "cs02"))
    log = run_threading(spec, bundled, _oracle(bundled))
    a = evaluate_run(log, bundled, subcats=["AP"]).to_json()
    b = evaluate_run(log, bundled, subcats=["AP"]).to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["task"] == "threading"
    assert list(parsed["per_conversation"]) == sorted(parsed["per_conversation"])


def test_evaluate_abcde_binary_letter(bundled):
    spec = _spec(task="abcde", transcripts=("ws01",),
                 window=WindowConfig(n=10, feedback="none"))
    log = run_abcde(spec, bundled, _oracle(bundled))
    result = evaluate_run(log, bundled, code_letter="E")
    assert result.code_letter == "E"
    assert result.aggregate.accuracy.mean == 1.0
    with pytest.raises(ValueError):
        evaluate_run(log, bundled, code_letter="Q")


def test_eval_result_round_trips_through_json(bundled):
    thread_log = run_threading(_spec(transcripts=("ws01", "ws02")), bundled,
                               FlakyThreadProvider(bundled, bad_indices={3}))
    code_log = run_abcde(_spec(task="abcde", window=WindowConfig(n=10, feedback="none")),
                         bundled, _oracle(bundled))
    # neither transcript has an I utterance, so that slice is an error entry
    for result in (evaluate_run(thread_log, bundled, subcats=["AP", "I"]),
                   evaluate_run(code_log, bundled, code_letter="A")):
        again = EvalResult.from_dict(json.loads(result.to_json()))
        assert again == result
        assert again.to_json() == result.to_json()


def test_evaluate_coverage_checks(bundled):
    spec = _spec(transcripts=("ws01",))
    log = run_threading(spec, bundled, _oracle(bundled))
    log.records.pop()
    with pytest.raises(GoldMismatch):
        evaluate_run(log, bundled)


def test_concurrency_does_not_change_predictions(bundled):
    spec = _spec(transcripts=("ws01", "ws02", "cs01", "cs02"))
    provider = FlakyThreadProvider(bundled, bad_indices={3, 7})
    solo = run_threading(spec, bundled, provider, concurrency=1)
    pooled = run_threading(spec, bundled, provider, concurrency=4)
    assert solo.records == pooled.records


def _longest_last(bundled):
    """Two bundled transcripts, then a 40-line one: the longest chain comes last."""
    return {"ws01": bundled["ws01"], "cs01": bundled["cs01"], **_long_corpus(40)}


class FirstCallsMeet(FlakyThreadProvider):
    """Flaky gold, keeping the call order; the first ``meet`` calls wait for each other.

    Every worker's first call is then in flight before any call returns, so
    the first ``meet`` calls are the first targets of the chains started first.
    """

    name = "meet"

    def __init__(self, corpus, meet):
        super().__init__(corpus, bad_indices={3})
        self.barrier = threading.Barrier(meet, timeout=10)
        self.lock = threading.Lock()
        self.calls = []

    def send(self, prompt, model, prompt_hash):
        with self.lock:
            self.calls.append((prompt.transcript_id, prompt.target_index))
            first = len(self.calls) <= self.barrier.parties
        if first:
            self.barrier.wait()
        return super().send(prompt, model, prompt_hash)


def test_pooled_self_feedback_starts_the_longest_chain_first(bundled):
    corpus = _longest_last(bundled)
    provider = FirstCallsMeet(corpus, meet=2)
    log = run_threading(_spec(transcripts=tuple(corpus)), corpus, provider, concurrency=2)
    assert ("long", 1) in provider.calls[:2], provider.calls[:4]
    assert [(r.transcript_id, r.index) for r in log.records] == [
        (tid, i) for tid, (t, _) in corpus.items() for i in range(1, len(t) + 1)
    ]


def test_a_lost_pooled_run_stops_its_other_chains_at_their_next_call(bundled):
    class MissesOnCs01(FirstCallsMeet):
        def send(self, prompt, model, prompt_hash):
            time.sleep(0.002)
            if (prompt.transcript_id, prompt.target_index) == ("cs01", 3):
                with self.lock:
                    self.calls.append(("cs01", 3))
                raise FixtureMiss("no recorded response")
            return super().send(prompt, model, prompt_hash)

    corpus = {"ws01": bundled["ws01"], "cs01": bundled["cs01"], **_long_corpus(150)}
    provider = MissesOnCs01(corpus, meet=2)
    with pytest.raises(FixtureMiss):
        run_threading(_spec(transcripts=tuple(corpus)), corpus, provider, concurrency=2)
    # the long chain has most of its 150 calls left when cs01 misses
    assert ("long", 100) not in provider.calls
    assert len(provider.calls) - provider.calls.index(("cs01", 3)) - 1 <= 2


@pytest.mark.parametrize("kw", [
    dict(task="threading", window=WindowConfig(n=10)),
    dict(task="abcde", window=WindowConfig(n=10, feedback="none"), thread_source="human"),
    dict(task="threading", strategy="all_at_once", window=None),
], ids=["thread_self", "abcde_human", "thread_all_at_once"])
def test_run_log_bytes_do_not_depend_on_concurrency(bundled, kw):
    corpus = _longest_last(bundled)
    spec = _spec(transcripts=tuple(corpus), **kw)
    run = run_threading if spec.task == "threading" else run_abcde
    texts = set()
    for concurrency in (1, 2, 4):
        log = run(spec, corpus, FlakyThreadProvider(corpus, bad_indices={2, 9}),
                  concurrency=concurrency)
        texts.add(dataclasses.replace(log, wall_time_ms=0).to_jsonl())
    assert len(texts) == 1


def test_evaluate_rejects_records_of_a_transcript_outside_the_spec(bundled):
    log = run_threading(_spec(transcripts=("ws01",)), bundled, _oracle(bundled))
    other = run_threading(_spec(transcripts=("ws02",)), bundled, _oracle(bundled))
    log.records.append(other.records[0])
    with pytest.raises(GoldMismatch, match="'ws02'"):
        evaluate_run(log, bundled)


# Every code set's canonical string, a non-canonical spelling and the parse-failure marker.
_CODE_STRINGS = [
    "".join(letters) for k in range(6) for letters in itertools.combinations("ABCDE", k)
] + ["CA", PARSE_ERROR_LABEL]


def _per_record_code_eval(log, corpus, letter):
    """Code-run scores from one CodeSet per record, as evaluation once built them."""
    per_conv = {}
    for tid in log.spec.transcripts:
        _, g = corpus[tid]
        recs = sorted((r for r in log.records if r.transcript_id == tid), key=lambda r: r.index)
        per_conv[tid] = score(
            presence(letter, [g.codes_at(r.index) for r in recs]),
            presence(letter, [None if r.predicted == PARSE_ERROR_LABEL
                              else CodeSet(frozenset(r.predicted)) for r in recs]),
        )
    return per_conv


def _code_log(corpus, strings):
    spec = _spec(task="abcde", transcripts=tuple(corpus),
                 window=WindowConfig(n=10, feedback="none"))
    log = run_abcde(spec, corpus, _oracle(corpus))
    cycle = itertools.cycle(strings)
    return dataclasses.replace(
        log, records=[dataclasses.replace(r, predicted=next(cycle)) for r in log.records]
    )


@pytest.mark.parametrize("letter", sorted(VALID_CODES))
def test_evaluate_code_run_equals_per_record_code_sets(bundled, letter):
    assert len(_CODE_STRINGS) == 34
    # gold with some code records dropped, so an unlabeled index counts as no codes
    corpus = {
        tid: (t, dataclasses.replace(g, abcde={i: cs for i, cs in g.abcde.items() if i % 5}))
        for tid, (t, g) in bundled.items()
    }
    log = _code_log(corpus, _CODE_STRINGS)
    assert {r.predicted for r in log.records} == set(_CODE_STRINGS)
    result = evaluate_run(log, corpus, code_letter=letter)
    expected = _per_record_code_eval(log, corpus, letter)
    assert result.per_conversation == expected
    assert result.aggregate == aggregate(list(expected.values()))


def test_evaluate_code_run_raises_on_the_first_bad_prediction(bundled):
    log = _code_log(bundled, ["A", "AQ", "", "Z", "BZ"])
    with pytest.raises(ValueError) as old:
        _per_record_code_eval(log, bundled, "E")
    with pytest.raises(StrayRecord) as new:
        evaluate_run(log, bundled, code_letter="E")
    assert str(new.value) == f"ws01: {old.value}" == "ws01: codes outside A-E: ['Q']"


@pytest.mark.parametrize("task", ["threading", "abcde"])
def test_evaluate_does_not_depend_on_record_order(bundled, task):
    spec = _spec(task=task, transcripts=tuple(bundled),
                 window=WindowConfig(n=10, feedback="none" if task == "abcde" else "self"))
    run = run_threading if task == "threading" else run_abcde
    log = run(spec, bundled, FlakyThreadProvider(bundled, bad_indices={2, 5, 8}))
    shuffled = list(log.records)
    random.Random(3).shuffle(shuffled)
    shuffled_log = dataclasses.replace(log, records=shuffled)
    kw = {"subcats": sorted(SUBCATEGORY_TAGS)} if task == "threading" else {"code_letter": "B"}
    assert evaluate_run(shuffled_log, bundled, **kw) == evaluate_run(log, bundled, **kw)
