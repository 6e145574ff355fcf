#!/usr/bin/env python3
"""Freeze the replay fixture matrix: responses plus expected eval reports.

A scripted provider answers every prompt deterministically from the prompt
hash: mostly gold, sometimes a wrong-but-well-formed label, sometimes junk
that must fail parsing. Running the four-cell experiment matrix against it
fills a response fixture; replaying that fixture must then reproduce the
frozen eval reports byte for byte, and the replayed run logs, wall time
zeroed, pin the run-log bytes as the response fixture pins the cache bytes.
Rerunning this script is idempotent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from threadlab.corpus import bundled_corpus_dir, load_corpus  # noqa: E402
from threadlab.llm import CompletionCache, ModelConfig, ProviderResult, ReplayProvider  # noqa: E402
from threadlab.runner import ExperimentSpec, evaluate_run, run_threading  # noqa: E402
from threadlab.schema import as_fields  # noqa: E402
from threadlab.windowing import WindowConfig  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "replay"
MODEL = ModelConfig(model_id="frozen-test-model", temperature=0.0)
TRANSCRIPTS = ("ws01", "ws02", "cs01", "cs02")


def _bucket(*parts: object) -> int:
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()
    return int(h[:8], 16) % 100


class ScriptedProvider:
    """Deterministic gold-with-noise provider, keyed by prompt hash."""

    name = "scripted"

    def __init__(self, corpus):
        self.corpus = corpus

    def _thread_line(self, tid: str, index: int, bucket_seed: str) -> str | None:
        t, g = self.corpus[tid]
        speaker = t[index].speaker
        gold = g.thread[index].surface()
        r = _bucket(bucket_seed, index)
        if r < 70 or index == 1:
            label = gold
        elif r < 85:
            label = "-" if gold != "-" else "1"  # wrong but well formed
        elif r < 93:
            return f"Sure! Here is my label:\n{index} {speaker} [respond line = {gold}]"
        else:
            return None  # dropped line / pure junk
        return f"{index} {speaker} [respond line = {label}]"

    def send(self, prompt, model, prompt_hash: str) -> ProviderResult:
        kind = prompt.expected_output.kind
        if kind == "thread_line":
            line = self._thread_line(prompt.transcript_id, prompt.target_index, prompt_hash)
            text = line if line is not None else "I am not sure about this one."
        elif kind == "thread_block":
            lines = []
            for index, _ in prompt.expected_entries:
                line = self._thread_line(prompt.transcript_id, index, prompt_hash)
                if line is None:
                    continue
                if "\n" in line:  # keep blocks one line per label, junk becomes a drop
                    line = line.splitlines()[-1]
                    lines.append("(I was unsure here.)")
                lines.append(line)
            lines.append("Those are all the labels.")
            text = "\n".join(lines)
        else:
            raise AssertionError(f"scripted provider got unexpected kind {kind}")
        return ProviderResult(
            response_text=text, input_tokens=None, output_tokens=None, latency_ms=3
        )


def matrix() -> list[tuple[str, ExperimentSpec]]:
    cells = []
    for strategy in ("all_at_once", "window"):
        for n in (10, 20):
            spec = ExperimentSpec(
                task="threading",
                strategy=strategy,
                model=MODEL,
                transcripts=TRANSCRIPTS,
                window=WindowConfig(n=n, feedback="self"),
            )
            cells.append((f"{strategy}_n{n}", spec))
    return cells


def main() -> int:
    corpus = load_corpus(bundled_corpus_dir())
    OUT.mkdir(parents=True, exist_ok=True)
    responses = OUT / "responses.jsonl"
    if responses.exists():
        responses.unlink()

    scripted = ScriptedProvider(corpus)
    cache = CompletionCache(responses)
    first_pass = {}
    for name, spec in matrix():
        log = run_threading(spec, corpus, scripted, cache=cache, concurrency=1)
        first_pass[name] = evaluate_run(log, corpus, subcats=["AP", "E", "TT"])

    # replaying the frozen responses must agree with the pass that wrote them
    replay = ReplayProvider.from_path(responses)
    manifest = []
    for name, spec in matrix():
        log = run_threading(spec, corpus, replay, cache=None)
        result = evaluate_run(log, corpus, subcats=["AP", "E", "TT"])
        if result.to_json() != first_pass[name].to_json():
            raise SystemExit(f"{name}: replay eval drifted from the scripted pass")
        eval_name = f"eval_{name}.json"
        (OUT / eval_name).write_text(result.to_json(), encoding="utf-8")
        (OUT / f"log_{name}.jsonl").write_text(
            dataclasses.replace(log, wall_time_ms=0).to_jsonl(), encoding="utf-8"
        )
        manifest.append({"name": name, "spec": spec, "eval": eval_name})
        agg = result.aggregate
        print(f"{name}: run {log.run_id} kappa {agg.kappa.mean:.4f} "
              f"acc {agg.accuracy.mean:.4f}")
    (OUT / "specs.json").write_text(json.dumps(manifest, indent=2, default=as_fields) + "\n",
                                    encoding="utf-8")
    n_fixture_lines = len(responses.read_text().splitlines())
    print(f"froze {n_fixture_lines} responses -> {responses}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
