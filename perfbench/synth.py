"""Seeded synthetic corpus for the benchmark.

Writes a manifest corpus directory (``manifest.json`` plus ``<id>.jsonl`` and
``<id>.gold.jsonl`` pairs) in the format of the bundled corpus. Links point
backward at most ``MAX_BACK`` lines and never at a backchannel; labels include
new threads, single links and splits of both shapes, ``(a, -)`` and
``(a, b)``; every utterance gets a code set and about 60% get a threading
subcategory tag.

The same seed gives the same bytes: each transcript draws from its own
``random.Random`` seeded with a string, which Python hashes the same way in
every process, and nothing written depends on set or dict iteration order.
The files are serialised here rather than with the package's serialisers, so
a change to those cannot change the benchmark's inputs.

Run directly to write a corpus for inspection:
``python3 perfbench/synth.py --seed 1 --out /tmp/corpus --lengths 500,1000``.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
from pathlib import Path

MAX_BACK = 12

NAMES = [
    "Ada", "Baptiste", "Chioma", "Dara", "Emre", "Fen", "Gael", "Hana",
    "Ilse", "Jun", "Kemal", "Lucia", "Mateo", "Nia", "Orla", "Pavel",
    "Quinn", "Rosa", "Soren", "Talia", "Umar", "Vera", "Wren", "Xiu",
]
AGENT = "Tutor"

TOPICS = [
    ("wind turbine", "angle the blades more steeply", "the hub wobbles at speed"),
    ("class survey", "shorten the second section", "people skip the open questions"),
    ("board game", "cut the number of cards", "a round takes too long"),
    ("solar oven", "line the box with foil", "the lid lets heat escape"),
    ("school app", "add a homework reminder", "notifications get ignored"),
    ("short film", "reshoot the opening scene", "the lighting changes halfway"),
]

BACKCHANNELS = ["Yeah.", "Okay.", "Mhm.", "Right.", "Sure.", "Uh-huh."]

SENTENCES = {
    "E": [
        "How should we handle the {topic}?",
        "Do we want to {action}?",
        "Has anyone checked whether {reason}?",
        "What would count as done for the {topic}?",
    ],
    "A": [
        "Agreed, let's {action}.",
        "Yes, that lines up with what I measured.",
        "Fine by me, that seems right.",
    ],
    "B": [
        "On top of that we could {action}.",
        "If we {action}, the {topic} should get easier.",
        "And we could log the results before and after.",
    ],
    "D": [
        "I doubt that works, since {reason}.",
        "I see it differently, {reason}.",
        "Wait, didn't we notice that {reason}?",
    ],
    "C": [
        "That sounds like the one we built last term.",
        "Ha, the {topic} is winning so far.",
        "My sketch of the {topic} is upside down.",
    ],
    "": [
        "Hold on, opening the shared file.",
        "Writing that in the notes.",
        "Give me a second to find the page.",
    ],
}
AGENT_LINES = [
    "So far the group has settled two points about the {topic}.",
    "Other teams tried a few variations of the {topic}, want a list?",
    "About fifteen minutes remain for the {topic}.",
]

SUBCAT_WEIGHTS = (("AP", 34), ("E", 14), ("I", 16), ("TT", 12), ("CI", 14), ("SC", 10))


def _subcat(rng: random.Random) -> str:
    r = rng.randrange(sum(w for _, w in SUBCAT_WEIGHTS))
    for tag, w in SUBCAT_WEIGHTS:
        if r < w:
            return tag
        r -= w
    raise AssertionError("weights exhausted")


def _timestamp(seconds: int) -> str:
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    return f"{h:02d}:{m:02d}:{s:02d}"


def transcript_lines(seed: int, tid: str, length: int) -> tuple[list[str], list[str]]:
    """JSONL lines of one transcript and of its gold file."""
    rng = random.Random(f"perfbench:{seed}:{tid}")
    topic = rng.choice(TOPICS)
    cast = rng.sample(NAMES, rng.randint(4, 6)) + [AGENT]
    backchannel: set[int] = set()
    utt_lines: list[str] = []
    gold_lines: list[str] = []
    clock = rng.randint(0, 9)
    for i in range(1, length + 1):
        clock += rng.randint(2, 11)
        speaker = rng.choice(cast)
        cands = [j for j in range(max(1, i - MAX_BACK), i) if j not in backchannel]
        roll = rng.random()
        if i == 1 or not cands or roll < 0.15:
            label = "-"
        elif roll < 0.23 and i > 3:
            label = f"({rng.choice(cands)}, -)"
        elif roll < 0.30 and len(cands) >= 2:
            a, b = rng.sample(cands, 2)
            label = f"({a}, {b})"
        else:
            weights = [1.0 / (i - j) for j in cands]
            label = str(rng.choices(cands, weights=weights, k=1)[0])
        new_thread = label == "-"

        if speaker == AGENT:
            text = rng.choice(AGENT_LINES).format(topic=topic[0])
            code = rng.choice(["C", "E", ""])
        elif not new_thread and rng.random() < 0.12:
            text = rng.choice(BACKCHANNELS)
            code = "A"
            backchannel.add(i)
        else:
            pool = ["E", "E", "C", ""] if new_thread else ["A", "A", "B", "B", "D", "C", "E", ""]
            code = rng.choice(pool)
            text = rng.choice(SENTENCES[code]).format(
                topic=topic[0], action=topic[1], reason=topic[2]
            )
        letters = set(code)
        if letters and rng.random() < 0.15:
            letters.add(rng.choice([c for c in "ABC" if c not in letters]))

        gold: dict[str, object] = {
            "index": i,
            "respond_line": label,
            "abcde": "[" + ", ".join(sorted(letters)) + "]",
        }
        if rng.random() < 0.6:
            if i in backchannel:
                gold["subcat"] = "BC"
            elif new_thread and i > 1:
                gold["subcat"] = rng.choice(["TT", "SC"])
            elif code == "E":
                gold["subcat"] = "E"
            else:
                gold["subcat"] = _subcat(rng)
        utt = {"index": i, "timestamp": _timestamp(clock), "speaker": speaker, "text": text}
        utt_lines.append(json.dumps(utt, ensure_ascii=False))
        gold_lines.append(json.dumps(gold, ensure_ascii=False))
    return utt_lines, gold_lines


def write_corpus(
    out_dir: Path,
    seed: int,
    lengths: dict[str, int],
    copy_from: Path | None = None,
) -> list[str]:
    """Write a corpus directory and return its transcript ids in manifest order.

    ``copy_from`` names a corpus directory whose transcripts are copied in
    first, byte for byte; the synthetic transcripts ``lengths`` (id -> number
    of utterances) follow.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    if copy_from is not None:
        for entry in json.loads((copy_from / "manifest.json").read_text(encoding="utf-8"))[
            "transcripts"
        ]:
            shutil.copyfile(copy_from / entry["transcript"], out_dir / entry["transcript"])
            shutil.copyfile(copy_from / entry["gold"], out_dir / entry["gold"])
            entries.append(entry)
    for tid, length in lengths.items():
        utts, golds = transcript_lines(seed, tid, length)
        (out_dir / f"{tid}.jsonl").write_text("\n".join(utts) + "\n", encoding="utf-8")
        (out_dir / f"{tid}.gold.jsonl").write_text("\n".join(golds) + "\n", encoding="utf-8")
        entries.append(
            {"id": tid, "scenario": "synthetic",
             "transcript": f"{tid}.jsonl", "gold": f"{tid}.gold.jsonl"}
        )
    manifest = json.dumps({"transcripts": entries}, indent=2) + "\n"
    (out_dir / "manifest.json").write_text(manifest, encoding="utf-8")
    return [e["id"] for e in entries]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--lengths", default="1000", help="comma-separated utterance counts")
    args = ap.parse_args()
    lengths = {f"syn{k:02d}": int(n) for k, n in enumerate(args.lengths.split(","), start=1)}
    ids = write_corpus(args.out, args.seed, lengths)
    print(f"wrote {len(ids)} transcripts to {args.out}")


if __name__ == "__main__":
    main()
