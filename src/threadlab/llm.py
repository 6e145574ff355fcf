"""Model access with caching, replay fixtures, and a gold-echo oracle.

Every completion is keyed by a digest of (model id, temperature, prompt
text). The cache file and replay fixtures share one JSONL schema, so the
responses captured during a live run double as a frozen fixture for exact
re-runs later. Auth tokens are read from an environment variable named in the
model config; nothing secret is ever written to disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
import weakref
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Mapping, Protocol

from .corpus import GoldAnnotations
from .prompts import TRANSCRIPT_START, RenderedPrompt
from .schema import json_line, objects, read, record_reader, typed

if TYPE_CHECKING:
    import requests

DEFAULT_TEMPERATURE = 0.0


class LlmError(Exception):
    # The digest of the prompt whose completion failed, set by complete().
    prompt_hash: str | None = None


class ContextOverflow(LlmError):
    """The prompt exceeds the model's context window."""


class RateLimited(LlmError):
    """Still throttled after exhausting retries."""


class TransportError(LlmError):
    """Transient network or server failure that outlived the retry budget."""


class AuthError(LlmError):
    pass


class FixtureMiss(LlmError):
    def __init__(self, prompt_hash: str):
        super().__init__(f"no recorded response for prompt {prompt_hash}")
        self.prompt_hash = prompt_hash


class UnknownModelPricing(ValueError):
    """A model the pricing table has no rates for: a fault of the pricing file,
    found before any call, so not an LlmError."""

    def __init__(self, model_id: str):
        super().__init__(f"no pricing entry for model {model_id!r}")
        self.model_id = model_id


@dataclass(frozen=True)
class ModelConfig:
    model_id: str
    temperature: float = DEFAULT_TEMPERATURE
    max_output_tokens: int = 1024
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    auth_env: str = "OPENAI_API_KEY"  # name of the env var, never the secret itself
    # Some reasoning models only accept their fixed sampling temperature; for
    # those the request omits the temperature field entirely.
    fixed_temperature: bool = False

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")


@dataclass(frozen=True)
class ModelRate:
    """USD per million input and output tokens."""

    input_per_1m: float
    output_per_1m: float


@dataclass(frozen=True)
class PricingTable:
    """Token rates by model id."""

    rates: Mapping[str, ModelRate]

    @classmethod
    def from_dict(cls, raw: Mapping[str, Mapping[str, float]]) -> "PricingTable":
        """Rates from ``{model: {"input_per_1m": x, "output_per_1m": y}}``, read by
        :func:`schema.typed`: any other shape raises ValueError naming the bad entry."""
        return cls(rates=typed(Mapping[str, ModelRate], raw))

    def rate(self, model_id: str) -> ModelRate:
        try:
            return self.rates[model_id]
        except KeyError:
            raise UnknownModelPricing(model_id) from None

    def cost(self, model_id: str, input_tokens: int, output_tokens: int) -> float:
        """Dollar cost of a token count at the model's per-million rates."""
        rate = self.rate(model_id)
        return input_tokens * rate.input_per_1m / 1e6 + output_tokens * rate.output_per_1m / 1e6


@dataclass(slots=True)
class CompletionRecord:
    prompt_hash: str
    response_text: str
    input_tokens: int
    output_tokens: int
    latency_ms: int
    provider: str  # the writer of the reply: http, oracle, or a scripted provider's name
    tokens_estimated: bool = False


def _digest_head(model_id: str, temperature: float, head: str) -> tuple[hashlib._Hash, bytes]:
    """sha256 state after the payload's constant head, and the payload's tail."""
    state = hashlib.sha256(
        ('{"model": ' + json.dumps(model_id, ensure_ascii=False) + ', "prompt": "').encode("utf-8")
        + encode_basestring(head)[1:-1].encode("utf-8")
    )
    return state, ('", "temperature": ' + json.dumps(temperature) + "}").encode("utf-8")


# The last call's model and the head its prompt started with: the head's text,
# length, _digest_head state and tail. A run's prompts share one head and one
# ModelConfig, so most calls check the head in place instead of hashing it
# again. The model is matched by identity: ModelConfig is frozen, so the same
# object means the same model id and temperature (0.0 and -0.0, equal but
# written differently, are separate objects). The slot is swapped whole and its
# state is shared across threads: copy it, never update it.
_last: tuple[ModelConfig | None, str, int, hashlib._Hash | None, bytes] = (None, "", 0, None, b"")
# UTF-8 bytes that JSON escapes other than the quote, the backslash and "\n".
_RARE_ESCAPES = bytes(b for b in range(0x20) if b != 0x0A)


def prompt_digest(model: ModelConfig, prompt_text: str) -> str:
    """Content address of one completion request.

    The sha256 of ``json.dumps({"model": model_id, "temperature": temperature,
    "prompt": prompt_text}, sort_keys=True, ensure_ascii=False)``. JSON escapes
    each character of a string on its own, so the payload is hashed in three
    pieces: the model id and the prompt up to ``<<<TRANSCRIPT_START>>>`` (whose
    hash state is cached), the rest of the prompt, and the temperature.
    """
    # The head (a template's fixed instructions, up to the marker) is shared by
    # every prompt of a run. The marker cannot overlap itself, so a prompt that
    # starts with the last head and has the marker right after it has its first
    # marker there.
    global _last
    last = _last
    if last[0] is not model or not (
        prompt_text.startswith(last[1]) and prompt_text.startswith(TRANSCRIPT_START, last[2])
    ):
        cut = max(prompt_text.find(TRANSCRIPT_START), 0)
        head_text = prompt_text[:cut]
        last = _last = (
            model, head_text, cut, *_digest_head(model.model_id, model.temperature, head_text)
        )
    _, _, cut, head, tail = last
    # With ensure_ascii=False JSON escapes only ASCII characters: the quote, the
    # backslash and the control characters. Multi-byte UTF-8 sequences hold no
    # ASCII byte, so the encoded rest is escaped in place when "\n" is its only
    # control character; any other one takes encode_basestring.
    rest = prompt_text[cut:].encode("utf-8")
    if len(rest.translate(None, _RARE_ESCAPES)) == len(rest):
        rest = rest.replace(b"\\", b"\\\\").replace(b'"', b'\\"').replace(b"\n", b"\\n")
    else:
        rest = encode_basestring(prompt_text[cut:])[1:-1].encode("utf-8")
    h = head.copy()
    h.update(rest)
    h.update(tail)
    return h.hexdigest()


def estimate_tokens(text: str) -> int:
    """Crude fallback when the provider reports no usage: ceil(chars / 4), at least 1."""
    return (len(text) + 3) // 4 or 1


# ---------------------------------------------------------------------------
# Cache / fixture store
# ---------------------------------------------------------------------------


class CompletionCache:
    """Thread-safe JSONL-backed map from prompt hash to completion record.

    The on-disk format is identical to replay fixtures, so a cache file from
    one run can be handed to the replay provider as-is. Writes append; the
    last record for a hash wins on load.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path else None
        self._records: dict[str, CompletionRecord] = {}
        self._lock = threading.Lock()
        # File size to cut back to before the next append, when the file ends
        # in a torn line.
        self._truncate_to: int | None = None
        self._fh: BinaryIO | None = None
        if self._path and self._path.exists():
            read(self._path, self._load)

    def _load(self, data: bytes) -> None:
        # put() ends every record with a newline: bytes after the last one are an
        # append cut short (a run killed mid-write), dropped here and cut off the
        # file by the next put. A bad line before the last newline raises, and
        # so does a value of the wrong JSON type, before any run reads it.
        end = data.rfind(b"\n") + 1
        if end < len(data):
            self._truncate_to = end
            data = data[:end]
        build, records = record_reader(CompletionRecord), self._records
        for line_no, d in objects(data):
            rec = build(line_no, d)
            records[rec.prompt_hash] = rec

    def __len__(self) -> int:
        return len(self._records)

    def get(self, prompt_hash: str) -> CompletionRecord | None:
        with self._lock:
            return self._records.get(prompt_hash)

    def put(self, record: CompletionRecord) -> None:
        """Keep ``record`` and append its line to the file in one write, so a new
        reader sees it as soon as this returns."""
        line = f"{json_line(record)}\n".encode("utf-8") if self._path else None
        with self._lock:
            if record.prompt_hash in self._records:
                return
            self._records[record.prompt_hash] = record
            if line is not None:
                if self._fh is None:
                    self._open()
                while line:  # an unbuffered write may take part of the line
                    line = line[self._fh.write(line):]

    def _open(self) -> None:
        """Open the one append handle, first cutting off a torn tail; it closes with the cache."""
        self._path.parent.mkdir(parents=True, exist_ok=True)
        if self._truncate_to is not None:
            os.truncate(self._path, self._truncate_to)
            self._truncate_to = None
        self._fh = self._path.open("ab", buffering=0)
        weakref.finalize(self, self._fh.close)


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ProviderResult:
    """One reply."""

    response_text: str
    input_tokens: int | None
    output_tokens: int | None
    latency_ms: int


class Provider(Protocol):
    name: str

    def send(
        self, prompt: RenderedPrompt, model: ModelConfig, prompt_hash: str
    ) -> ProviderResult | CompletionRecord: ...


class OracleProvider:
    """Echoes the gold annotation in the instructed output format.

    Useful as an end-to-end sanity harness: run the whole pipeline against it
    and every metric must come out 1.0.
    """

    name = "oracle"

    def __init__(self, gold_by_id: Mapping[str, GoldAnnotations]):
        self._gold = dict(gold_by_id)

    def send(
        self, prompt: RenderedPrompt, model: ModelConfig, prompt_hash: str
    ) -> ProviderResult:
        try:
            g = self._gold[prompt.transcript_id]
        except KeyError:
            raise LlmError(
                f"oracle has no gold for transcript {prompt.transcript_id!r}"
            ) from None
        thread = prompt.expected_output.kind.startswith("thread")
        lines = []  # one per expected entry: a window's target, or a block's every utterance
        for i, spk in prompt.expected_entries:
            lines.append(f"{i} {spk} [respond line = {g.thread[i].surface()}]" if thread
                         else f"{i} {spk} {g.codes_at(i).to_string()}")
        return ProviderResult("\n".join(lines), None, None, 0)


class ReplayProvider:
    """Serves the completions of a frozen fixture file as they were recorded."""

    name = "replay"

    def __init__(self, fixtures: CompletionCache):
        self._fixtures = fixtures

    @classmethod
    def from_path(cls, path: str | Path) -> "ReplayProvider":
        return cls(CompletionCache(path))

    def send(
        self, prompt: RenderedPrompt, model: ModelConfig, prompt_hash: str
    ) -> CompletionRecord:
        rec = self._fixtures.get(prompt_hash)
        if rec is None:
            raise FixtureMiss(prompt_hash)
        return rec


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 4
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 8.0
    jitter_frac: float = 0.25

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.backoff_base_s * (2**attempt), self.backoff_cap_s)
        return base + rng.uniform(0, base * self.jitter_frac)


# Seconds to wait for one HTTP response.
_TIMEOUT_S = 120.0

_CONTEXT_OVERFLOW_MARKERS = (
    "context_length_exceeded",
    "context length",
    "maximum context",
    "too many tokens",
)


class HttpProvider:
    """OpenAI-compatible chat-completions client with bounded retries.

    Retries 429 and 5xx responses (and connection errors) with exponential
    backoff plus jitter; auth failures and context overflows surface
    immediately. The caller's concurrency is the only limit on requests in
    flight. ``requests`` is imported by the constructor, so a process that
    builds no HttpProvider never loads the HTTP stack.
    """

    name = "http"

    def __init__(
        self,
        retry: RetryPolicy = RetryPolicy(),
        session: requests.Session | None = None,
    ):
        import requests

        self._retry = retry
        self._session = session or requests.Session()
        self._connection_error = requests.RequestException
        self._rng = random.Random()

    def _headers(self, model: ModelConfig) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if model.auth_env:
            token = os.environ.get(model.auth_env)
            if not token:
                raise AuthError(f"environment variable {model.auth_env} is not set")
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _body(self, prompt: RenderedPrompt, model: ModelConfig) -> dict:
        body: dict[str, object] = {
            "model": model.model_id,
            "messages": [{"role": "user", "content": prompt.text}],
            "max_tokens": model.max_output_tokens,
        }
        if not model.fixed_temperature:
            body["temperature"] = model.temperature
        return body

    def send(
        self, prompt: RenderedPrompt, model: ModelConfig, prompt_hash: str
    ) -> ProviderResult:
        headers = self._headers(model)
        body = self._body(prompt, model)
        last_throttle = False
        started = time.perf_counter()  # the latency spans every attempt and backoff sleep
        for attempt in range(self._retry.max_attempts):
            if attempt:
                time.sleep(self._retry.delay(attempt - 1, self._rng))
            try:
                resp = self._session.post(
                    model.endpoint, headers=headers, json=body, timeout=_TIMEOUT_S
                )
            except self._connection_error:
                last_throttle = False
                continue
            latency_ms = int((time.perf_counter() - started) * 1000)
            if resp.status_code in (401, 403):
                raise AuthError(f"provider rejected credentials ({resp.status_code})")
            if resp.status_code == 400 and any(
                marker in resp.text.lower() for marker in _CONTEXT_OVERFLOW_MARKERS
            ):
                raise ContextOverflow(resp.text[:500])
            if resp.status_code == 429:
                last_throttle = True
                continue
            if resp.status_code >= 500:
                last_throttle = False
                continue
            if resp.status_code != 200:
                raise TransportError(
                    f"unexpected status {resp.status_code}: {resp.text[:500]}"
                )
            try:
                payload = resp.json()
            except ValueError:
                raise TransportError(f"non-JSON completion body: {resp.text[:300]}") from None
            return self._parse_response(payload, latency_ms)
        if last_throttle:
            raise RateLimited(f"gave up after {self._retry.max_attempts} attempts")
        raise TransportError(f"gave up after {self._retry.max_attempts} attempts")

    @staticmethod
    def _parse_response(payload: Mapping, latency_ms: int) -> ProviderResult:
        """The reply of a 200 body: text content that encodes as UTF-8, and
        ``usage`` absent, null or an object whose token counts are ints, absent
        or null."""
        try:
            text = typed(str, payload["choices"][0]["message"]["content"], "content")
            text.encode("utf-8")  # a lone surrogate from a JSON escape: no cache line can hold it
            usage = typed(dict | None, payload.get("usage"), "usage") or {}
            counts = [typed(int | None, usage.get(key), f"usage.{key}")
                      for key in ("prompt_tokens", "completion_tokens")]
        except (KeyError, IndexError, TypeError, ValueError):
            raise TransportError(f"malformed completion payload: {str(payload)[:300]}") from None
        return ProviderResult(text, *counts, latency_ms)


# ---------------------------------------------------------------------------
# Completion front door
# ---------------------------------------------------------------------------


def complete(
    prompt: RenderedPrompt,
    model: ModelConfig,
    provider: Provider,
    cache: CompletionCache | None = None,
) -> CompletionRecord:
    """Run one completion through the cache, then the provider.

    A cache hit never reaches the provider, and a recorded completion a replay
    serves is kept as it is, writer included. A reply is recorded as its
    provider's, missing token usage estimated from character counts and flagged
    as such. An LlmError from the provider carries the prompt's digest as ``prompt_hash``.
    """
    h = prompt_digest(model, prompt.text)
    if cache is not None:
        hit = cache.get(h)
        if hit is not None:
            return hit
    try:
        result = provider.send(prompt, model, h)
    except LlmError as exc:
        exc.prompt_hash = h
        raise
    if type(result) is CompletionRecord:
        record = result
    else:
        # Positional arguments: a window run builds one record per utterance.
        record = CompletionRecord(
            h,
            result.response_text,
            estimate_tokens(prompt.text) if result.input_tokens is None else result.input_tokens,
            estimate_tokens(result.response_text) if result.output_tokens is None
            else result.output_tokens,
            result.latency_ms,
            provider.name,
            result.input_tokens is None or result.output_tokens is None,
        )
    if cache is not None:
        cache.put(record)
    return record
