import dataclasses
import json
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from threadlab import prompts
from threadlab.corpus import (
    NEW_THREAD,
    SUBCATEGORY_TAGS,
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
    ModelConfig,
    OracleProvider,
    PricingTable,
    ProviderResult,
    RateLimited,
    TransportError,
    complete,
    prompt_digest,
)
from threadlab.metrics import PARSE_ERROR_LABEL, EmptyCategory, aggregate
from threadlab.prompts import (
    render_abcde, render_baseline, render_thread_all_at_once, render_thread_window
)
from threadlab.runner import (
    EvalResult,
    ExperimentSpec,
    GoldMismatch,
    MissingThreadSource,
    RunLog,
    RunnerError,
    evaluate_run,
    resolve_thread_labels,
    run_abcde,
    run_threading,
    write_atomic,
)
from threadlab.schema import as_fields
from threadlab.windowing import WindowConfig, make_window

from reference_metrics import ref_subcategory_slice

MODEL = ModelConfig(model_id="test-model")


def _oracle(corpus):
    return OracleProvider({tid: g for tid, (_, g) in corpus.items()})


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
], ids=["thread_gold", "thread_none", "abcde_plain", "abcde_human", "lee", "qamar"])
def test_run_window_prompts_match_the_public_renderers(bundled, kw):
    spec = _spec(transcripts=("ws01", "cs01"), **kw)
    provider = RecordingProvider(bundled)
    (run_threading if spec.task == "threading" else run_abcde)(spec, bundled, provider)
    for tid in spec.transcripts:
        t, g = bundled[tid]
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

    second = run_threading(spec, bundled, NeverCalled(), cache=CompletionCache(cache_path),
                           strictness="strict")
    assert second.records == first.records


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


def test_abcde_llm_thread_source_missing(bundled, tmp_path):
    spec = _spec(task="abcde", transcripts=("ws01",),
                 window=WindowConfig(n=10, feedback="none"), thread_source="llm:deadbeef")
    with pytest.raises(MissingThreadSource):
        run_abcde(spec, bundled, _oracle(bundled), runs_dir=tmp_path)
    with pytest.raises(MissingThreadSource):
        run_abcde(spec, bundled, _oracle(bundled))  # no runs_dir at all


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
