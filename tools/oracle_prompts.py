#!/usr/bin/env python3
"""Freeze golden prompt fixtures by filling templates independently.

This deliberately does not import the package. Templates are read straight
from the asset directory and filled with str.replace over the declared
variable names only, so literal braces in the templates survive untouched.
If the package's renderer drifts from the documented serialization, the
fixtures written here will catch it.

It also writes ``window_digests.json``: the prompt hashes a run of each
template makes over ``golden/escapes.jsonl``, a transcript of characters JSON
escapes or encodes in more than one byte, computed from the hash's defining
formula. Window runs hash one prompt per target, whole-transcript runs one
per transcript.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEMPLATES = ROOT / "src" / "threadlab" / "templates"
GOLDEN = ROOT / "tests" / "fixtures" / "golden"
OUT = ROOT / "tests" / "fixtures" / "prompts"

WINDOW_N = 10
# The window size and model of the runs window_digests.json records.
DIGEST_WINDOW_N = 3
DIGEST_MODEL = {"model_id": "test-model", "temperature": 0.0}


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def fill(template_name: str, values: dict[str, object]) -> str:
    text = (TEMPLATES / f"{template_name}.txt").read_text(encoding="utf-8")
    for name, value in values.items():
        placeholder = "{" + name + "}"
        if placeholder not in text:
            raise SystemExit(f"{template_name}: no {placeholder} in template")
        text = text.replace(placeholder, str(value))
    return text


def bare_line(u: dict) -> str:
    return f"#{u['index']} {u['speaker']}: {u['text']}"


def labeled_line(u: dict, respond_line: str) -> str:
    return f"{bare_line(u)} [respond_line= {respond_line}]"


def block(utts: list[dict], gold: dict[int, str] | None = None) -> str:
    lines = []
    for u in utts:
        if gold is None:
            lines.append(bare_line(u))
        else:
            lines.append(labeled_line(u, gold[u["index"]]))
    return "\n".join(lines)


def reference_digest(prompt: str) -> str:
    """sha256 of the whole request as sorted JSON: the prompt hash's definition."""
    payload = json.dumps(
        {"model": DIGEST_MODEL["model_id"], "temperature": DIGEST_MODEL["temperature"],
         "prompt": prompt},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def shots_block(shots: list[tuple[list[dict], dict[int, str]]]) -> str:
    """The lead-in sentence and labeled example transcripts of thread_all_at_once."""
    if not shots:
        return " Then I will provide the transcript for threading."
    noun = "an example transcript" if len(shots) == 1 else "example transcripts"
    text = f" Then I will provide {noun} with labels and a new transcript without labels for threading."
    for k, (utts, gold) in enumerate(shots, start=1):
        text += f"\n\n<<<EXAMPLE_{k}_START>>>\n{block(utts, gold)}\n<<<EXAMPLE_{k}_END>>>"
    return text


def window_digests() -> dict:
    """Each run's prompt hashes over the escapes transcript.

    Window runs hash one prompt per target. ``thread_window.fed`` shows gold
    labels on the context lines, as gold feedback does and self feedback does
    against an oracle; ``.none`` shows none. The threaded abcde variants label
    every line, the target's too.

    Whole-transcript runs hash one prompt per transcript.
    ``thread_all_at_once.shots_1`` labels escapes with the shot transcript as
    its example, then the shot transcript with escapes as its example.
    """
    utts = read_jsonl(GOLDEN / "escapes.jsonl")
    gold = {r["index"]: r["respond_line"] for r in read_jsonl(GOLDEN / "escapes.gold.jsonl")}
    shot = read_jsonl(GOLDEN / "shot.jsonl")
    shot_gold = {r["index"]: r["respond_line"] for r in read_jsonl(GOLDEN / "shot.gold.jsonl")}
    runs: dict[str, list[str]] = {name: [] for name in (
        "thread_window.fed", "thread_window.none", "abcde_window_plain",
        "abcde_window_threaded", "baseline_lee", "baseline_qamar",
    )}
    for k, last in enumerate(utts):
        shown = utts[max(0, k + 1 - DIGEST_WINDOW_N) : k + 1]
        context = shown[:-1]
        target_vars = {
            "target_timestamp": last["timestamp"],
            "target_speaker": last["speaker"],
            "target_text": last["text"],
        }
        for feedback, labels in (("fed", gold), ("none", None)):
            prefix = block(context, labels) + "\n" if context else ""
            runs[f"thread_window.{feedback}"].append(fill("thread_window", {
                "window_n": DIGEST_WINDOW_N, "transcript_block": prefix + bare_line(last),
            }))
        runs["abcde_window_plain"].append(
            fill("abcde_window_plain", {"transcript_block": block(shown), **target_vars})
        )
        runs["abcde_window_threaded"].append(
            fill("abcde_window_threaded", {"transcript_block": block(shown, gold), **target_vars})
        )
        runs["baseline_lee"].append(fill("baseline_lee", {
            "transcript_block": block(shown),
            "target_speaker": last["speaker"],
            "target_text": last["text"],
        }))
        runs["baseline_qamar"].append(fill("baseline_qamar", {"transcript_block": block(shown)}))

    def thread_all(target: list[dict], shots: list[tuple[list[dict], dict[int, str]]]) -> str:
        return fill("thread_all_at_once", {
            "shots_block": shots_block(shots), "transcript_block": block(target),
            "num_utterances": len(target),
        })

    runs["thread_all_at_once.shots_0"] = [thread_all(utts, [])]
    runs["thread_all_at_once.shots_1"] = [
        thread_all(utts, [(shot, shot_gold)]), thread_all(shot, [(utts, gold)]),
    ]
    for name, labels in (("abcde_full_plain", None), ("abcde_full_threaded", gold),
                         ("baseline_martinenghi", None)):
        runs[name] = [fill(name, {
            "transcript_block": block(utts, labels), "num_utterances": len(utts),
        })]
    return {
        **DIGEST_MODEL,
        "window_n": DIGEST_WINDOW_N,
        "digests": {name: list(map(reference_digest, texts)) for name, texts in runs.items()},
    }


def main() -> int:
    target = read_jsonl(GOLDEN / "target.jsonl")
    target_gold = {r["index"]: r["respond_line"] for r in read_jsonl(GOLDEN / "target.gold.jsonl")}
    shot = read_jsonl(GOLDEN / "shot.jsonl")
    shot_gold = {r["index"]: r["respond_line"] for r in read_jsonl(GOLDEN / "shot.gold.jsonl")}

    last = target[-1]
    context = target[:-1]
    n_utts = len(target)

    fixtures: dict[str, str] = {}

    # sliding-window threading: labeled context, bare target line, window size
    fixtures["thread_window"] = fill(
        "thread_window",
        {
            "window_n": WINDOW_N,
            "transcript_block": block(context, target_gold) + "\n" + bare_line(last),
        },
    )

    # whole-transcript threading with one labeled example
    fixtures["thread_all_at_once"] = fill(
        "thread_all_at_once",
        {
            "shots_block": shots_block([(shot, shot_gold)]),
            "transcript_block": block(target),
            "num_utterances": n_utts,
        },
    )

    target_vars = {
        "target_timestamp": last["timestamp"],
        "target_speaker": last["speaker"],
        "target_text": last["text"],
    }
    fixtures["abcde_window_plain"] = fill(
        "abcde_window_plain", {"transcript_block": block(target), **target_vars}
    )
    fixtures["abcde_window_threaded"] = fill(
        "abcde_window_threaded", {"transcript_block": block(target, target_gold), **target_vars}
    )
    fixtures["abcde_full_plain"] = fill(
        "abcde_full_plain", {"transcript_block": block(target), "num_utterances": n_utts}
    )
    fixtures["abcde_full_threaded"] = fill(
        "abcde_full_threaded",
        {"transcript_block": block(target, target_gold), "num_utterances": n_utts},
    )
    fixtures["baseline_martinenghi"] = fill(
        "baseline_martinenghi", {"transcript_block": block(target), "num_utterances": n_utts}
    )
    fixtures["baseline_lee"] = fill(
        "baseline_lee",
        {
            "transcript_block": block(target),
            "target_speaker": last["speaker"],
            "target_text": last["text"],
        },
    )
    fixtures["baseline_qamar"] = fill("baseline_qamar", {"transcript_block": block(target)})

    OUT.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(fixtures.items()):
        (OUT / f"{name}.txt").write_text(text, encoding="utf-8")
    digests = json.dumps(window_digests(), indent=2, sort_keys=True) + "\n"
    (OUT / "window_digests.json").write_text(digests, encoding="utf-8")
    print(f"wrote {len(fixtures)} prompt fixtures and window_digests.json -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
