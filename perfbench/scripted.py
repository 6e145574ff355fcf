"""Scripted completion provider: gold answers with injected, recorded faults.

Each reply line echoes the gold label in the instructed output format, except
that a hash bucket on (prompt digest, utterance index) turns a fixed share of
lines into a wrong-but-valid label and another share into an unparseable one.
For every line it answers, the provider records what the runner should log:
the canonical prediction and the parse failure reason (None when the line
parses). So the benchmark can check every utterance record exactly, macro-F1
sees realistic class counts, and the parse-error path is exercised.

An optional fixed latency simulates a remote model; the sleep is recorded as
an ``llm.provider.wait`` span when a tracer is attached.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Mapping

from threadlab.corpus import CodeSet, GoldAnnotations
from threadlab.llm import ProviderResult
from threadlab.metrics import PARSE_ERROR_LABEL

WRONG_PCT = 8  # share of lines answered with a wrong but well-formed label
JUNK_PCT = 5  # share of lines answered with text no parser accepts
JUNK_LINE = "I am not sure about this one."
NO_MATCH = "NoMatch"


def _bucket(prompt_hash: str, index: int) -> int:
    digest = hashlib.sha256(f"{prompt_hash}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 100


class ScriptedProvider:
    """Deterministic provider keyed by prompt digest; see the module docstring.

    ``expected`` maps (prompt_hash, index) to (predicted, fail_reason) and is
    shared across passes, so a replayed or cached pass can be checked against
    what the recording pass injected.
    """

    name = "scripted"

    def __init__(
        self,
        gold: Mapping[str, GoldAnnotations],
        noise: bool = True,
        latency_s: float = 0.0,
        expected: dict[tuple[str, int], tuple[str, str | None]] | None = None,
    ):
        self._gold = gold
        self._noise = noise
        self._latency_s = latency_s
        self.expected = {} if expected is None else expected
        self.tracer = None
        self.calls = 0
        self._lock = threading.Lock()

    def _line(self, kind: str, tid: str, index: int, speaker: str, prompt_hash: str) -> str | None:
        """One reply line, or None for a line the reply leaves out."""
        g = self._gold[tid]
        r = _bucket(prompt_hash, index) if self._noise else 100
        junk = WRONG_PCT <= r < WRONG_PCT + JUNK_PCT
        if kind.startswith("thread"):
            gold = g.thread[index].canonical()
            surface = g.thread[index].surface()
            if r < WRONG_PCT and index > 1:
                surface = gold = "-" if gold != "-" else str(index - 1)
            label = f"[respond line = {surface}]"
        else:
            codes = g.codes_at(index)
            if r < WRONG_PCT:
                codes = CodeSet(codes.letters ^ {"E"})
            gold = codes.canonical()
            label = codes.to_string()
        if junk:
            self.expected[(prompt_hash, index)] = (PARSE_ERROR_LABEL, NO_MATCH)
            return None
        self.expected[(prompt_hash, index)] = (gold, None)
        return f"{index} {speaker} {label}"

    def send(self, prompt, model, prompt_hash: str) -> ProviderResult:
        with self._lock:
            self.calls += 1
        if self._latency_s:
            if self.tracer is None:
                time.sleep(self._latency_s)
            else:
                with self.tracer.span("llm.provider.wait"):
                    time.sleep(self._latency_s)
        kind = prompt.expected_output.kind
        tid = prompt.transcript_id
        if kind in ("thread_line", "code_line"):
            line = self._line(kind, tid, prompt.target_index, prompt.target_speaker, prompt_hash)
            text = JUNK_LINE if line is None else line
        else:
            lines = [
                self._line(kind, tid, index, speaker, prompt_hash)
                for index, speaker in prompt.expected_entries
            ]
            text = "\n".join([line for line in lines if line is not None] + ["That is all."])
        return ProviderResult(
            response_text=text,
            input_tokens=None,
            output_tokens=None,
            latency_ms=int(self._latency_s * 1000),
        )
