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
import math
import os
import random
import threading
import time
import weakref
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Mapping, Protocol, TextIO

import requests

from .corpus import GoldAnnotations
from .prompts import RenderedPrompt
from .schema import as_fields

DEFAULT_TEMPERATURE = 0.0


class LlmError(Exception):
    pass


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


class UnknownModelPricing(LlmError):
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
class PricingTable:
    """USD per million input/output tokens, by model id."""

    rates: Mapping[str, tuple[float, float]]

    @classmethod
    def from_json(cls, source: str | Path) -> "PricingTable":
        raw = json.loads(Path(source).read_text(encoding="utf-8"))
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Mapping[str, float]]) -> "PricingTable":
        rates = {
            model: (float(entry["input_per_1m"]), float(entry["output_per_1m"]))
            for model, entry in raw.items()
        }
        return cls(rates=rates)

    def rate(self, model_id: str) -> tuple[float, float]:
        try:
            return self.rates[model_id]
        except KeyError:
            raise UnknownModelPricing(model_id) from None

    def cost(self, model_id: str, input_tokens: int, output_tokens: int) -> float:
        """Dollar cost of a token count at the model's per-million rates."""
        rate_in, rate_out = self.rate(model_id)
        return input_tokens * rate_in / 1e6 + output_tokens * rate_out / 1e6


@dataclass(frozen=True)
class CompletionRecord:
    prompt_hash: str
    response_text: str
    input_tokens: int
    output_tokens: int
    latency_ms: int
    provider: str  # http | replay | oracle
    tokens_estimated: bool = False


# Prompt text before this marker is a template's fixed instructions (plus
# values that rarely change, such as the window size), shared by every prompt
# of a run.
_DIGEST_HEAD_END = "<<<TRANSCRIPT_START>>>"


def _digest_head(model_id: str, temperature: float, head: str) -> tuple[hashlib._Hash, bytes]:
    """sha256 state after the payload's constant head, and the payload's tail."""
    state = hashlib.sha256(
        ('{"model": ' + json.dumps(model_id, ensure_ascii=False) + ', "prompt": "').encode("utf-8")
        + encode_basestring(head)[1:-1].encode("utf-8")
    )
    return state, (', "temperature": ' + json.dumps(temperature) + "}").encode("utf-8")


# The head last hashed for each (model id, temperature, temperature repr), with
# its _digest_head state and tail. A run's prompts share one head, so most calls
# check it in place instead of hashing it again. The state is shared by every
# caller, across threads: copy it, never update it. The repr is part of the key
# because 0.0 == -0.0 (and 0 == 0.0) while their JSON differs.
_last_head: dict[tuple[str, float, str], tuple[str, hashlib._Hash, bytes]] = {}


def prompt_digest(model: ModelConfig, prompt_text: str) -> str:
    """Content address of one completion request.

    The sha256 of ``json.dumps({"model": model_id, "temperature": temperature,
    "prompt": prompt_text}, sort_keys=True, ensure_ascii=False)``. JSON escapes
    each character of a string on its own, so the payload is hashed in three
    pieces: the model id and the prompt up to ``<<<TRANSCRIPT_START>>>`` (whose
    hash state is cached), the rest of the prompt, and the temperature.
    """
    t = model.temperature
    key = (model.model_id, t, repr(t))
    last = _last_head.get(key)
    # The marker cannot overlap itself, so a prompt that starts with the last
    # head and has the marker right after it has its first marker there.
    if last is None or not (
        prompt_text.startswith(last[0]) and prompt_text.startswith(_DIGEST_HEAD_END, len(last[0]))
    ):
        cut = max(prompt_text.find(_DIGEST_HEAD_END), 0)
        if len(_last_head) >= 32:  # a few models per process; stay bounded for more
            _last_head.clear()
        last = _last_head[key] = (
            prompt_text[:cut], *_digest_head(model.model_id, t, prompt_text[:cut])
        )
    head_text, head, tail = last
    h = head.copy()
    h.update(encode_basestring(prompt_text[len(head_text):])[1:].encode("utf-8"))
    h.update(tail)
    return h.hexdigest()


def estimate_tokens(text: str) -> int:
    """Crude fallback when the provider reports no usage: ceil(chars / 4)."""
    return max(1, math.ceil(len(text) / 4))


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
        self._fh: TextIO | None = None
        if self._path and self._path.exists():
            data = self._path.read_bytes()
            end = data.rfind(b"\n") + 1
            # put() ends every record with a newline, so bytes after the last
            # one are an append cut short, as by a run killed mid-write. They
            # are dropped here and cut off the file by the next put, so its
            # record starts on a line of its own. A bad line before the last
            # newline is corruption and still raises.
            if end < len(data):
                self._truncate_to = end
            for line in data[:end].decode("utf-8").split("\n"):
                if not line.strip():
                    continue
                rec = CompletionRecord(**json.loads(line))
                self._records[rec.prompt_hash] = rec

    def __len__(self) -> int:
        return len(self._records)

    def get(self, prompt_hash: str) -> CompletionRecord | None:
        with self._lock:
            return self._records.get(prompt_hash)

    def put(self, record: CompletionRecord) -> None:
        """Keep ``record`` and append it to the file, flushed, so a new reader sees it."""
        with self._lock:
            if record.prompt_hash in self._records:
                return
            self._records[record.prompt_hash] = record
            if self._path:
                if self._fh is None:
                    self._open()
                self._fh.write(json.dumps(as_fields(record), ensure_ascii=False) + "\n")
                self._fh.flush()

    def _open(self) -> None:
        """Open the one append handle, first cutting off a torn tail; it closes with the cache."""
        self._path.parent.mkdir(parents=True, exist_ok=True)
        if self._truncate_to is not None:
            os.truncate(self._path, self._truncate_to)
            self._truncate_to = None
        self._fh = self._path.open("a", encoding="utf-8")
        weakref.finalize(self, self._fh.close)


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProviderResult:
    response_text: str
    input_tokens: int | None
    output_tokens: int | None
    latency_ms: int


class Provider(Protocol):
    name: str

    def send(
        self, prompt: RenderedPrompt, model: ModelConfig, prompt_hash: str
    ) -> ProviderResult: ...


class OracleProvider:
    """Echoes the gold annotation in the instructed output format.

    Useful as an end-to-end sanity harness: run the whole pipeline against it
    and every metric must come out 1.0.
    """

    name = "oracle"

    def __init__(self, gold_by_id: Mapping[str, GoldAnnotations]):
        self._gold = dict(gold_by_id)

    def _gold_for(self, prompt: RenderedPrompt) -> GoldAnnotations:
        try:
            return self._gold[prompt.transcript_id]
        except KeyError:
            raise LlmError(
                f"oracle has no gold for transcript {prompt.transcript_id!r}"
            ) from None

    def _line(self, g: GoldAnnotations, kind: str, index: int, speaker: str) -> str:
        if kind in ("thread_line", "thread_block"):
            return f"{index} {speaker} [respond line = {g.thread[index].surface()}]"
        return f"{index} {speaker} {g.codes_at(index).to_string()}"

    def send(
        self, prompt: RenderedPrompt, model: ModelConfig, prompt_hash: str
    ) -> ProviderResult:
        g = self._gold_for(prompt)
        kind = prompt.expected_output.kind
        if kind in ("thread_line", "code_line"):
            if prompt.target_index is None or prompt.target_speaker is None:
                raise LlmError("single-line prompt lacks target metadata")
            text = self._line(g, kind, prompt.target_index, prompt.target_speaker)
        else:
            if not prompt.expected_entries:
                raise LlmError("block prompt lacks expected entries")
            text = "\n".join(
                self._line(g, kind, idx, spk) for idx, spk in prompt.expected_entries
            )
        return ProviderResult(
            response_text=text, input_tokens=None, output_tokens=None, latency_ms=0
        )


class ReplayProvider:
    """Serves responses from a frozen fixture file; never touches the network."""

    name = "replay"

    def __init__(self, fixtures: CompletionCache):
        self._fixtures = fixtures

    @classmethod
    def from_path(cls, path: str | Path) -> "ReplayProvider":
        return cls(CompletionCache(path))

    def send(
        self, prompt: RenderedPrompt, model: ModelConfig, prompt_hash: str
    ) -> ProviderResult:
        rec = self._fixtures.get(prompt_hash)
        if rec is None:
            raise FixtureMiss(prompt_hash)
        return ProviderResult(
            response_text=rec.response_text,
            input_tokens=rec.input_tokens,
            output_tokens=rec.output_tokens,
            latency_ms=rec.latency_ms,
        )


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 4
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 8.0
    jitter_frac: float = 0.25

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.backoff_base_s * (2**attempt), self.backoff_cap_s)
        return base + rng.uniform(0, base * self.jitter_frac)


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
    flight.
    """

    name = "http"

    def __init__(
        self,
        retry: RetryPolicy = RetryPolicy(),
        session: requests.Session | None = None,
        timeout_s: float = 120.0,
    ):
        self._retry = retry
        self._session = session or requests.Session()
        self._timeout_s = timeout_s
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
        for attempt in range(self._retry.max_attempts):
            if attempt:
                time.sleep(self._retry.delay(attempt - 1, self._rng))
            started = time.perf_counter()
            try:
                resp = self._session.post(
                    model.endpoint, headers=headers, json=body, timeout=self._timeout_s
                )
            except requests.RequestException:
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
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise TransportError(f"malformed completion payload: {str(payload)[:300]}") from None
        usage = payload.get("usage") or {}
        return ProviderResult(
            response_text=text,
            input_tokens=usage.get("prompt_tokens"),
            output_tokens=usage.get("completion_tokens"),
            latency_ms=latency_ms,
        )


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

    A cache hit never reaches the provider. Missing token usage is estimated
    from character counts and flagged as such on the record.
    """
    h = prompt_digest(model, prompt.text)
    if cache is not None:
        hit = cache.get(h)
        if hit is not None:
            return hit
    result = provider.send(prompt, model, h)
    estimated = result.input_tokens is None or result.output_tokens is None
    record = CompletionRecord(
        prompt_hash=h,
        response_text=result.response_text,
        input_tokens=(
            result.input_tokens
            if result.input_tokens is not None
            else estimate_tokens(prompt.text)
        ),
        output_tokens=(
            result.output_tokens
            if result.output_tokens is not None
            else estimate_tokens(result.response_text)
        ),
        latency_ms=result.latency_ms,
        provider=provider.name,
        tokens_estimated=estimated,
    )
    if cache is not None:
        cache.put(record)
    return record
