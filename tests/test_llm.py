import hashlib
import json
import math
import random
import re
import socket
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring

import pytest
import requests
from hypothesis import example, given, strategies as st

from threadlab import llm
from threadlab.corpus import CodeSet, GoldAnnotations, ThreadLabel
from threadlab.llm import (
    AuthError,
    CompletionCache,
    CompletionRecord,
    ContextOverflow,
    FixtureMiss,
    HttpProvider,
    ModelConfig,
    OracleProvider,
    PricingTable,
    ProviderResult,
    RateLimited,
    ReplayProvider,
    RetryPolicy,
    TransportError,
    UnknownModelPricing,
    complete,
    estimate_tokens,
    prompt_digest,
)
from threadlab.prompts import OutputContract, RenderedPrompt
from threadlab.runner import ExperimentSpec, run_threading
from threadlab.schema import MalformedRecord, as_fields
from threadlab.windowing import WindowConfig

OK_PAYLOAD = {
    "choices": [{"message": {"content": "3 Ana [respond line = 1]"}}],
    "usage": {"prompt_tokens": 12, "completion_tokens": 5},
}

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.001, backoff_cap_s=0.002, jitter_frac=0)


def _prompt(text="hello world", kind="thread_line"):
    return RenderedPrompt(
        text=text,
        expected_output=OutputContract(kind=kind),
        target_index=3,
        target_speaker="Ana",
        transcript_id="t1",
        expected_entries=((3, "Ana"),),
    )


@contextmanager
def stub_server(responses):
    """Serve scripted (status, payload) pairs; repeats the last one when exhausted."""
    seen = []
    script = list(responses)

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length)) if length else {}
            seen.append({"body": body, "auth": self.headers.get("Authorization")})
            status, payload = script.pop(0) if len(script) > 1 else script[0]
            data = (payload if isinstance(payload, str) else json.dumps(payload)).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # a short poll, so shutdown() returns at once rather than within the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", seen
    finally:
        server.shutdown()
        thread.join(timeout=5)


def _model(endpoint, **kw):
    kw.setdefault("auth_env", "")  # most tests run without credentials
    return ModelConfig(model_id="test-model", endpoint=endpoint, **kw)


# --- http provider ---------------------------------------------------------


def test_retries_through_throttling_then_succeeds():
    with stub_server([(429, {}), (429, {}), (200, OK_PAYLOAD)]) as (url, seen):
        provider = HttpProvider(retry=RetryPolicy(max_attempts=4, backoff_base_s=0.001,
                                                  backoff_cap_s=0.002, jitter_frac=0))
        result = provider.send(_prompt(), _model(url), "h")
    assert len(seen) == 3
    assert result.response_text == "3 Ana [respond line = 1]"
    assert result.input_tokens == 12 and result.output_tokens == 5


def test_throttling_exhausts_to_rate_limited():
    with stub_server([(429, {})]) as (url, seen):
        provider = HttpProvider(retry=FAST_RETRY)
        with pytest.raises(RateLimited):
            provider.send(_prompt(), _model(url), "h")
    assert len(seen) == FAST_RETRY.max_attempts


def test_server_errors_exhaust_to_transport_error():
    with stub_server([(503, {})]) as (url, seen):
        provider = HttpProvider(retry=FAST_RETRY)
        with pytest.raises(TransportError):
            provider.send(_prompt(), _model(url), "h")
    assert len(seen) == FAST_RETRY.max_attempts


def test_auth_failure_does_not_retry():
    with stub_server([(401, {})]) as (url, seen):
        provider = HttpProvider(retry=FAST_RETRY)
        with pytest.raises(AuthError):
            provider.send(_prompt(), _model(url), "h")
    assert len(seen) == 1


def test_context_overflow_surfaces_immediately():
    err = {"error": {"code": "context_length_exceeded", "message": "too long"}}
    with stub_server([(400, err)]) as (url, seen):
        provider = HttpProvider(retry=FAST_RETRY)
        with pytest.raises(ContextOverflow):
            provider.send(_prompt(), _model(url), "h")
    assert len(seen) == 1


def test_missing_auth_env_var_fails_before_any_request(monkeypatch):
    monkeypatch.delenv("THREADLAB_TEST_KEY", raising=False)
    with stub_server([(200, OK_PAYLOAD)]) as (url, seen):
        provider = HttpProvider(retry=FAST_RETRY)
        with pytest.raises(AuthError):
            provider.send(_prompt(), _model(url, auth_env="THREADLAB_TEST_KEY"), "h")
    assert seen == []


def test_bearer_token_read_from_environment(monkeypatch):
    monkeypatch.setenv("THREADLAB_TEST_KEY", "sk-local-test")
    with stub_server([(200, OK_PAYLOAD)]) as (url, seen):
        provider = HttpProvider(retry=FAST_RETRY)
        provider.send(_prompt(), _model(url, auth_env="THREADLAB_TEST_KEY"), "h")
    assert seen[0]["auth"] == "Bearer sk-local-test"


def test_fixed_temperature_omits_field():
    with stub_server([(200, OK_PAYLOAD)]) as (url, seen):
        provider = HttpProvider(retry=FAST_RETRY)
        provider.send(_prompt(), _model(url, temperature=0.7), "h")
        provider.send(_prompt(), _model(url, fixed_temperature=True), "h")
    assert seen[0]["body"]["temperature"] == 0.7
    assert "temperature" not in seen[1]["body"]
    assert seen[1]["body"]["model"] == "test-model"


def test_missing_usage_falls_back_to_estimates():
    payload = {"choices": [{"message": {"content": "hi"}}]}
    with stub_server([(200, payload)]) as (url, _):
        provider = HttpProvider(retry=FAST_RETRY)
        model = _model(url)
        prompt = _prompt(text="x" * 10)
        record = complete(prompt, model, provider)
    assert record.tokens_estimated
    assert record.input_tokens == estimate_tokens("x" * 10) == 3
    assert record.output_tokens == estimate_tokens("hi") == 1


def test_malformed_payload_is_transport_error():
    with stub_server([(200, {"nope": 1})]) as (url, _):
        provider = HttpProvider(retry=FAST_RETRY)
        with pytest.raises(TransportError):
            provider.send(_prompt(), _model(url), "h")


def test_non_json_body_is_transport_error():
    class HtmlResponse:
        status_code = 200
        text = "<html>upstream proxy error</html>"

        def json(self):
            raise ValueError("Expecting value: line 1 column 1 (char 0)")

    class FakeSession:
        def post(self, url, **kwargs):
            return HtmlResponse()

    provider = HttpProvider(retry=FAST_RETRY, session=FakeSession())
    with pytest.raises(TransportError, match="non-JSON"):
        provider.send(_prompt(), _model("http://127.0.0.1:9/v1/chat/completions"), "h")


def test_http_provider_without_a_session_opens_a_requests_session():
    assert isinstance(HttpProvider()._session, requests.Session)


def test_a_refused_connection_is_retried_then_a_transport_error():
    with socket.socket() as s:  # a port that was just free: nothing listens on it
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    posts = []

    class CountingSession(requests.Session):
        def post(self, url, **kwargs):
            posts.append(url)
            return super().post(url, **kwargs)

    provider = HttpProvider(retry=FAST_RETRY, session=CountingSession())
    with pytest.raises(TransportError, match=f"gave up after {FAST_RETRY.max_attempts} attempts"):
        provider.send(_prompt(), _model(f"http://127.0.0.1:{port}/v1/chat/completions"), "h")
    assert len(posts) == FAST_RETRY.max_attempts


class _Reply:
    def __init__(self, status_code, payload):
        self.status_code = status_code
        self.text = json.dumps(payload)
        self._payload = payload

    def json(self):
        return self._payload


class _ScriptedSession:
    """Each post takes the next step: a reply to return or an exception to raise."""

    def __init__(self, *steps):
        self.steps = list(steps)
        self.posts = 0

    def post(self, url, **kwargs):
        step = self.steps[min(self.posts, len(self.steps) - 1)]
        self.posts += 1
        if isinstance(step, Exception):
            raise step
        return step


def _with_usage(usage):
    return {"choices": [{"message": {"content": "[respond line = -]"}}], "usage": usage}


@pytest.mark.parametrize("payload", [
    {"choices": [{"message": {"content": None}}]},
    {"choices": [{"message": {"content": ["3 Ana [respond line = 1]"]}}]},
    _with_usage({"prompt_tokens": "12", "completion_tokens": 5}),
    _with_usage({"prompt_tokens": 12, "completion_tokens": True}),
    _with_usage({"prompt_tokens": 12.5, "completion_tokens": 5}),
    _with_usage([12, 5]),
    {"choices": [{"message": {"content": "3 Ana [respond line = 1]\ud83d"}}]},
])
def test_a_malformed_reply_fails_only_its_prompt_and_is_not_cached(
    bundled, tmp_path, monkeypatch, payload
):
    monkeypatch.setenv("OPENAI_API_KEY", "test-key")
    good = _Reply(200, _with_usage({"prompt_tokens": 12, "completion_tokens": 5}))
    session = _ScriptedSession(good, good, _Reply(200, payload), good)
    spec = ExperimentSpec(task="threading", strategy="window", model=ModelConfig("test-model"),
                          transcripts=("ws01",), window=WindowConfig(n=5, feedback="none"))
    cache_path = tmp_path / "cache.jsonl"
    log = run_threading(spec, bundled, HttpProvider(retry=FAST_RETRY, session=session),
                        cache=CompletionCache(cache_path), concurrency=1)
    assert [(r.index, r.fail_reason) for r in log.records if not r.ok] == [(3, "TransportError")]
    assert log.failed_transcripts == ("ws01",)
    assert len(CompletionCache(cache_path)) == len(log.records) - 1


@pytest.mark.parametrize("usage", [None, {}, {"prompt_tokens": None, "completion_tokens": 5},
                                   {"prompt_tokens": 12, "completion_tokens": 5.0}])
def test_a_reply_without_integer_counts_keeps_what_it_has(usage):
    payload = _with_usage(usage)
    provider = HttpProvider(retry=FAST_RETRY, session=_ScriptedSession(_Reply(200, payload)))
    result = provider.send(_prompt(), _model("http://127.0.0.1:9/v1/chat/completions"), "h")
    counts = [None if usage is None else usage.get(k) for k in ("prompt_tokens",
                                                               "completion_tokens")]
    got = [result.input_tokens, result.output_tokens]
    assert (result.response_text, got) == ("[respond line = -]", counts)
    assert {type(n) for n in got} <= {int, type(None)}


def test_latency_covers_every_attempt_and_backoff_sleep():
    retry = RetryPolicy(max_attempts=3, backoff_base_s=0.02, backoff_cap_s=0.04, jitter_frac=0)
    session = _ScriptedSession(_Reply(429, {}), _Reply(429, {}), _Reply(200, OK_PAYLOAD))
    result = HttpProvider(retry=retry, session=session).send(
        _prompt(), _model("http://127.0.0.1:9/v1/chat/completions"), "h")
    assert session.posts == 3
    assert result.latency_ms >= 20 + 40  # the two backoff sleeps


def test_a_connection_error_is_retried_and_the_next_reply_returned():
    session = _ScriptedSession(requests.ConnectionError("reset"), _Reply(200, OK_PAYLOAD))
    provider = HttpProvider(retry=FAST_RETRY, session=session)
    result = provider.send(_prompt(), _model("http://127.0.0.1:9/v1/chat/completions"), "h")
    assert session.posts == 2
    assert result.response_text == "3 Ana [respond line = 1]"


def test_an_unexpected_status_is_a_transport_error_without_a_retry():
    session = _ScriptedSession(_Reply(404, {"error": "no such route"}), _Reply(200, OK_PAYLOAD))
    provider = HttpProvider(retry=FAST_RETRY, session=session)
    with pytest.raises(TransportError) as exc:
        provider.send(_prompt(), _model("http://127.0.0.1:9/v1/chat/completions"), "h")
    assert str(exc.value) == 'unexpected status 404: {"error": "no such route"}'
    assert session.posts == 1


def test_a_connection_error_after_throttling_gives_up_as_transport_error():
    session = _ScriptedSession(_Reply(429, {}), requests.ConnectionError("reset"))
    provider = HttpProvider(retry=FAST_RETRY, session=session)
    with pytest.raises(TransportError):
        provider.send(_prompt(), _model("http://127.0.0.1:9/v1/chat/completions"), "h")
    assert session.posts == FAST_RETRY.max_attempts


# --- caching ---------------------------------------------------------------


class CountingProvider:
    name = "counting"

    def __init__(self, text="3 Ana [respond line = 1]"):
        self.calls = 0
        self.text = text

    def send(self, prompt, model, prompt_hash):
        self.calls += 1
        return ProviderResult(self.text, 10, 4, 1)


def test_cache_hit_skips_provider(tmp_path):
    cache = CompletionCache(tmp_path / "cache.jsonl")
    provider = CountingProvider()
    model = _model("http://unused")
    first = complete(_prompt(), model, provider, cache)
    second = complete(_prompt(), model, provider, cache)
    assert provider.calls == 1
    assert first == second
    assert not first.tokens_estimated


def test_cache_survives_reload(tmp_path):
    path = tmp_path / "cache.jsonl"
    model = _model("http://unused")
    complete(_prompt(), model, CountingProvider(), CompletionCache(path))
    fresh_provider = CountingProvider()
    record = complete(_prompt(), model, fresh_provider, CompletionCache(path))
    assert fresh_provider.calls == 0
    assert record.response_text == "3 Ana [respond line = 1]"


def test_cache_last_record_wins_on_load(tmp_path):
    path = tmp_path / "cache.jsonl"
    a = CompletionRecord("hh", "old", 1, 1, 0, "x")
    b = CompletionRecord("hh", "new", 1, 1, 0, "x")
    path.write_text(json.dumps(as_fields(a)) + "\n" + json.dumps(as_fields(b)) + "\n")
    assert CompletionCache(path).get("hh").response_text == "new"


def _record_line(prompt_hash, text="r"):
    return json.dumps(as_fields(CompletionRecord(prompt_hash, text, 1, 1, 0, "x")), ensure_ascii=False)


def test_cache_drops_torn_tail_and_put_cuts_it_off(tmp_path):
    path = tmp_path / "cache.jsonl"
    whole = _record_line("h1") + "\n" + _record_line("h2") + "\n"
    # an append killed part-way, cut inside a multi-byte character
    torn = _record_line("h3", "é").encode("utf-8")[:-4]
    path.write_bytes(whole.encode("utf-8") + torn)
    cache = CompletionCache(path)
    assert len(cache) == 2 and cache.get("h3") is None
    assert path.read_bytes().endswith(torn)  # loading writes nothing
    cache.put(CompletionRecord("h4", "new", 1, 1, 0, "x"))
    assert path.read_text(encoding="utf-8") == whole + _record_line("h4", "new") + "\n"
    reopened = CompletionCache(path)
    assert len(reopened) == 3
    assert [reopened.get(h).response_text for h in ("h1", "h2", "h4")] == ["r", "r", "new"]


def test_cache_corruption_before_last_line_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(_record_line("h1") + "\n" + '{"prompt_hash": "h2", "resp\n' + _record_line("h3") + "\n")
    with pytest.raises(MalformedRecord,
                       match=rf"^{re.escape(str(path))}: line 2: invalid JSON: Unterminated "):
        CompletionCache(path)


def test_cache_keeps_unicode_line_separators_in_text(tmp_path):
    # json.dumps leaves U+2028 and U+0085 unescaped with ensure_ascii=False;
    # only "\n" separates records.
    path = tmp_path / "cache.jsonl"
    CompletionCache(path).put(CompletionRecord("h1", "a\u2028b\x85c", 1, 1, 0, "x"))
    assert CompletionCache(path).get("h1").response_text == "a\u2028b\x85c"


def test_cache_appends_through_one_handle_readable_while_open(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = CompletionCache(path)
    for h in ("h1", "h2", "h3"):
        cache.put(CompletionRecord(h, h.upper(), 1, 1, 0, "x"))
    handle = cache._fh
    # a second reader sees every record while the writer is still alive
    fresh = CompletionCache(path)
    assert [fresh.get(h).response_text for h in ("h1", "h2", "h3")] == ["H1", "H2", "H3"]
    cache.put(CompletionRecord("h4", "H4", 1, 1, 0, "x"))
    assert cache._fh is handle and not handle.closed
    assert CompletionCache(path).get("h4").response_text == "H4"
    del cache
    assert handle.closed


def test_cache_torn_tail_is_cut_before_the_handle_opens(tmp_path):
    path = tmp_path / "cache.jsonl"
    whole = _record_line("h1") + "\n"
    path.write_bytes(whole.encode("utf-8") + b'{"prompt_hash": "h2", "resp')
    cache = CompletionCache(path)
    cache.put(CompletionRecord("h3", "a", 1, 1, 0, "x"))
    cache.put(CompletionRecord("h4", "b", 1, 1, 0, "x"))
    assert path.read_text(encoding="utf-8") == (
        whole + _record_line("h3", "a") + "\n" + _record_line("h4", "b") + "\n"
    )


def test_concurrent_puts_append_whole_lines(tmp_path):
    # Lines are encoded outside the cache's lock; the appends must still land
    # whole. Some lines are longer than a write buffer.
    path = tmp_path / "cache.jsonl"
    cache = CompletionCache(path)
    records = [[CompletionRecord(f"t{t}-{i}", f"{t} {i}\n" * (1 + (i % 7) * 500), i, t, 0,
                                 "x", i % 2 == 0) for i in range(200)] for t in range(8)]

    def work(own):
        for record in own:
            cache.put(record)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(own,)) for own in records]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    expected = {r.prompt_hash: json.dumps(as_fields(r), ensure_ascii=False)
                for own in records for r in own}
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == "" and len(lines) == 1600
    assert sorted(lines) == sorted(expected.values())
    fresh = CompletionCache(path)
    assert len(fresh) == 1600
    assert all(fresh.get(r.prompt_hash) == r for own in records for r in own)


def test_put_finishes_a_line_that_a_write_takes_in_parts(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = CompletionCache(path)
    cache.put(CompletionRecord("h1", "a", 1, 1, 0, "x"))
    handle = cache._fh

    class Trickle:  # an unbuffered file that takes at most 5 bytes per write
        def write(self, data):
            return handle.write(data[:5])

    cache._fh = Trickle()
    cache.put(CompletionRecord("h2", "ü" * 20, 1, 1, 0, "x"))
    assert path.read_text(encoding="utf-8").split("\n")[1] == _record_line("h2", "ü" * 20)
    assert CompletionCache(path).get("h2").response_text == "ü" * 20


def test_prompt_digest_sensitivity():
    m1 = ModelConfig(model_id="m", temperature=0.0)
    m2 = ModelConfig(model_id="m", temperature=0.5)
    m3 = ModelConfig(model_id="other", temperature=0.0)
    h = prompt_digest(m1, "p")
    assert h == prompt_digest(ModelConfig(model_id="m"), "p")  # config identity irrelevant
    assert h != prompt_digest(m2, "p")
    assert h != prompt_digest(m3, "p")
    assert h != prompt_digest(m1, "q")


def reference_digest(model: ModelConfig, prompt_text: str) -> str:
    """The digest's defining formula: sha256 of the whole request as sorted JSON."""
    payload = json.dumps(
        {"model": model.model_id, "temperature": model.temperature, "prompt": prompt_text},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


MARKER = "<<<TRANSCRIPT_START>>>"
# Characters JSON escapes or that need more than one UTF-8 byte or UTF-16
# unit, plus braces from template text.
_tricky_chars = st.one_of(
    st.sampled_from(['"', "\\", "\u2028", "\u2029", "\x7f", "\x85", "\U0001F600", "{", "}", "é"]),
    st.characters(min_codepoint=0, max_codepoint=0x1F),
    st.characters(codec="utf-8"),  # lone surrogates cannot be encoded by either formula
)
_text = st.text(_tricky_chars, max_size=40)
_temperatures = st.one_of(
    st.integers(min_value=0, max_value=10**30),
    st.floats(min_value=0.0, allow_nan=False),
    st.sampled_from([0, 0.0, -0.0, 5e-324, 1e-300, 1.0, math.inf, math.nan]),
)


@given(
    model_id=st.one_of(_text, st.sampled_from(["gpt-4o", 'm"q', "mödel\\x"])),
    temperature=_temperatures,
    head=st.one_of(_text, st.just("{window_n} prior lines")),
    tails=st.lists(st.lists(st.one_of(_text, st.just(MARKER)), max_size=4), min_size=1, max_size=3),
)
@example(model_id="m", temperature=0.0, head="", tails=[[]])  # empty prompt
@example(model_id="m", temperature=0.0, head="", tails=[["no marker here"]])
@example(model_id="m", temperature=0.0, head="", tails=[[MARKER, "x"]])  # marker at 0
@example(model_id="m", temperature=0.0, head="a", tails=[[MARKER, "x", MARKER, "y"]])
def test_prompt_digest_equals_its_formula(model_id, temperature, head, tails):
    model = ModelConfig(model_id=model_id, temperature=temperature)
    # Prompts sharing a head, as the windows of one run do.
    for parts in tails:
        prompt = head + "".join(parts)
        assert prompt_digest(model, prompt) == reference_digest(model, prompt)


# The characters the in-place escape must get right, and those it leaves to
# encode_basestring: the tab, CR and NUL are control characters other than "\n".
_FAST_CHARS = ['"', "\\", "\n", "\u0085", "\u2028", "é", "\U0001F600", "a", " ", "{"]
_SLOW_CHARS = ["\t", "\r", "\x00"]


@pytest.mark.parametrize("slow", [False, True], ids=["in-place escape", "encode_basestring"])
@pytest.mark.parametrize("head", ["", "Label the line.\t \"Why\"\n"], ids=["no head", "head"])
def test_prompt_digest_equals_its_formula_on_both_routes(monkeypatch, slow, head):
    escaped = []  # texts given to encode_basestring, head aside
    monkeypatch.setattr(llm, "encode_basestring",
                        lambda text: escaped.append(text) or encode_basestring(text))
    rng = random.Random(20261018)
    model = ModelConfig(model_id="m")
    for _ in range(200):
        tail = rng.choices(_FAST_CHARS, k=rng.randrange(60))
        if slow:
            tail.insert(rng.randrange(len(tail) + 1), rng.choice(_SLOW_CHARS))
        prompt = head + MARKER + "".join(tail) if head else "".join(tail)
        escaped.clear()
        assert prompt_digest(model, prompt) == reference_digest(model, prompt), prompt
        assert [text for text in escaped if text != head] == ([prompt[len(head):]] if slow else [])


def test_prompt_digest_tells_equal_temperatures_apart():
    # 0 == 0.0 == -0.0, but each encodes differently in the request JSON.
    prompt = "head " + MARKER + " tail"
    digests = set()
    for temperature in (0.0, 0, -0.0, 0.0):
        model = ModelConfig(model_id="m", temperature=temperature)
        assert prompt_digest(model, prompt) == reference_digest(model, prompt)
        digests.add(prompt_digest(model, prompt))
    assert len(digests) == 3


def test_prompt_digest_shared_head_state_under_threads():
    # Every thread hashes from the one cached head state; an update to it in
    # place would change the digests of prompts hashed after it.
    model = ModelConfig(model_id="m")
    prompts = [f"fixed head {MARKER}\n#{i} A: line {i}" for i in range(50)]
    expected = [reference_digest(model, p) for p in prompts]
    bad: list[int] = []

    def work():
        for _ in range(20):
            for i, p in enumerate(prompts):
                if prompt_digest(model, p) != expected[i]:
                    bad.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_prompt_digest_alternating_heads_under_threads():
    # Threads switch the last head and the last model back and forth; each must
    # hash its prompt with the state of its own head and model. The two models
    # compare equal, but 0.0 and -0.0 encode differently in the request JSON.
    models = [ModelConfig(model_id="m-alternating", temperature=t) for t in (0.0, -0.0)]
    prompts = [f"head {i % 2} {MARKER}\n#{i} A: line {i}" for i in range(40)]
    model_of = [models[i // 2 % 2] for i in range(len(prompts))]
    expected = [reference_digest(m, p) for m, p in zip(model_of, prompts)]
    assert len(set(expected[:4])) == 4
    bad: list[int] = []

    def work(offset):
        for _ in range(25):
            for i in range(len(prompts)):
                j = (i + offset) % len(prompts)
                if prompt_digest(model_of[j], prompts[j]) != expected[j]:
                    bad.append(j)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


@pytest.mark.parametrize("head", [
    "fixed hexd instructions, 10 prior lines\n",  # one character changed
    "fixed head instructions, 10 prior lines",  # one character shorter
    "fixed head instructions, 10 prior lines\n!",  # one character longer
    "",  # no head
], ids=["changed", "shorter", "longer", "empty"])
def test_prompt_digest_hashes_a_head_one_character_off_from_the_last(monkeypatch, head):
    # The last head a model hashed is checked in place; any other head goes
    # through the slow path and still gets the formula's digest.
    model = ModelConfig(model_id="head-check")
    last = "fixed head instructions, 10 prior lines\n"
    slow = []
    digest_head = llm._digest_head

    def counted(*args):
        slow.append(args[-1])
        return digest_head(*args)

    monkeypatch.setattr(llm, "_digest_head", counted)
    for prompt in (last + MARKER + "\n#1 A: hi", last + MARKER + "\n#2 B: yo " + MARKER):
        assert prompt_digest(model, prompt) == reference_digest(model, prompt)
    assert slow in ([], [last])  # the second prompt reused the first one's head
    slow.clear()
    prompt = head + MARKER + "\n#2 B: yo"
    assert prompt_digest(model, prompt) == reference_digest(model, prompt)
    assert slow == [head]
    prompt = head + "?" + MARKER  # the last head, then text before the first marker
    assert prompt_digest(model, prompt) == reference_digest(model, prompt)
    assert slow == [head, head + "?"]


# --- replay ----------------------------------------------------------------


def test_replay_provider_round_trip(tmp_path):
    path = tmp_path / "fixture.jsonl"
    model = _model("http://unused")
    recorded = complete(_prompt(), model, CountingProvider(), CompletionCache(path))
    replay = ReplayProvider.from_path(path)
    replayed = complete(_prompt(), model, replay)
    assert replayed.response_text == recorded.response_text
    with pytest.raises(FixtureMiss):
        complete(_prompt(text="different"), model, replay)


@pytest.mark.parametrize("tokens", [(10, 4), (None, None)])
def test_a_replay_serves_the_recorded_completion_as_it_is(tmp_path, tokens):
    class Writer:
        name = "writer"

        def send(self, prompt, model, prompt_hash):
            return ProviderResult("3 Ana [respond line = 1]", *tokens, 7)

    path, again = tmp_path / "fixture.jsonl", tmp_path / "again.jsonl"
    model = _model("http://unused")
    recorded = complete(_prompt(), model, Writer(), CompletionCache(path))
    replayed = complete(_prompt(), model, ReplayProvider.from_path(path), CompletionCache(again))
    assert replayed == recorded
    assert recorded.tokens_estimated == (tokens[0] is None)
    assert again.read_text(encoding="utf-8") == path.read_text(encoding="utf-8")


# --- oracle ----------------------------------------------------------------


@pytest.fixture
def oracle():
    gold = GoldAnnotations(
        transcript_id="t1",
        thread={1: ThreadLabel.new_thread(), 2: ThreadLabel.link(1), 3: ThreadLabel.link(2)},
        abcde={1: CodeSet.of("E"), 2: CodeSet.of(), 3: CodeSet.of("A", "C")},
        subcat={},
    )
    return OracleProvider({"t1": gold})


def test_oracle_thread_line(oracle):
    result = oracle.send(_prompt(), _model("x"), "h")
    assert result.response_text == "3 Ana [respond line = 2]"


def test_oracle_code_line(oracle):
    result = oracle.send(_prompt(kind="code_line"), _model("x"), "h")
    assert result.response_text == "3 Ana [A, C]"


def test_oracle_blocks(oracle):
    p = RenderedPrompt(
        text="t",
        expected_output=OutputContract(kind="thread_block"),
        target_index=None,
        target_speaker=None,
        transcript_id="t1",
        expected_entries=((1, "Ana"), (2, "Ben"), (3, "Ana")),
    )
    out = oracle.send(p, _model("x"), "h")
    assert out.response_text.splitlines() == [
        "1 Ana [respond line = -]",
        "2 Ben [respond line = 1]",
        "3 Ana [respond line = 2]",
    ]
    p_codes = RenderedPrompt(
        text="t",
        expected_output=OutputContract(kind="code_block"),
        target_index=None,
        target_speaker=None,
        transcript_id="t1",
        expected_entries=((1, "Ana"), (2, "Ben"), (3, "Ana")),
    )
    assert oracle.send(p_codes, _model("x"), "h").response_text.splitlines() == [
        "1 Ana [E]",
        "2 Ben []",
        "3 Ana [A, C]",
    ]


# --- tokens, pricing, misc -------------------------------------------------


def test_estimate_tokens_quarters_characters():
    assert estimate_tokens("") == 1
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("x" * 403) == math.ceil(403 / 4)


def test_pricing_table_and_cost():
    pricing = PricingTable.from_dict(
        {"test-model": {"input_per_1m": 2.5, "output_per_1m": 10.0}}
    )
    cost = pricing.cost("test-model", 1_500_000, 100_000)
    assert cost == pytest.approx(2.5 + 1.0 + 1.25)
    with pytest.raises(UnknownModelPricing):
        pricing.rate("mystery-model")


def test_retry_policy_backoff_growth_and_cap():
    import random as random_mod

    policy = RetryPolicy(max_attempts=5, backoff_base_s=1.0, backoff_cap_s=3.0, jitter_frac=0)
    rng = random_mod.Random(0)
    delays = [policy.delay(k, rng) for k in range(4)]
    assert delays == [1.0, 2.0, 3.0, 3.0]
