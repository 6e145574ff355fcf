#!/usr/bin/env python3
"""Cost of sliding-window prompting relative to all-at-once, per utterance.

Writes one synthetic 2,000-utterance transcript (``perfbench/synth.py``,
seed 7) to a temporary directory, then runs four conditions against the
oracle provider in one process, round-robin, 21 times each after one untimed
warm-up round:

- threading: windows (n=10, self-feedback) and all at once;
- abcde coding with the human thread source: windows (n=10) and whole transcript.

It prints the median CPU microseconds per utterance of each condition and,
for each task, the median over rounds of the window / all-at-once ratio.
With ``--max-ratio R`` it exits 1 when either ratio is above R.

    python3 tools/window_ratio.py --max-ratio 3.0
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import synth  # noqa: E402
from threadlab.corpus import load_corpus  # noqa: E402
from threadlab.llm import ModelConfig, OracleProvider  # noqa: E402
from threadlab.runner import ExperimentSpec, run_abcde, run_threading  # noqa: E402
from threadlab.windowing import WindowConfig  # noqa: E402

SEED = 7
LENGTH = 2000
ROUNDS = 21
MODEL = ModelConfig(model_id="ratio-model")
CONDITIONS = {
    ("threading", "window"): dict(task="threading", window=WindowConfig(n=10)),
    ("threading", "all_at_once"): dict(task="threading"),
    ("abcde", "window"): dict(
        task="abcde", window=WindowConfig(n=10, feedback="none"), thread_source="human"
    ),
    ("abcde", "all_at_once"): dict(task="abcde", thread_source="human"),
}


def _spec(tid: str, kw: dict) -> ExperimentSpec:
    strategy = "window" if "window" in kw else "all_at_once"
    return ExperimentSpec(model=MODEL, strategy=strategy, transcripts=(tid,), **kw)


def measure(corpus, tid: str) -> dict[tuple[str, str], list[float]]:
    """CPU microseconds per utterance of each condition, one sample per round."""
    provider = OracleProvider({t: g for t, (_, g) in corpus.items()})
    specs = {key: _spec(tid, kw) for key, kw in CONDITIONS.items()}
    samples: dict[tuple[str, str], list[float]] = {key: [] for key in specs}
    n = len(corpus[tid][0])
    for rnd in range(ROUNDS + 1):
        for key, spec in specs.items():
            run = run_threading if spec.task == "threading" else run_abcde
            gc.collect()
            start = time.process_time()
            log = run(spec, corpus, provider, concurrency=1)
            spent = time.process_time() - start
            if not all(r.ok and r.predicted == r.gold for r in log.records):
                sys.exit(f"window_ratio: {key} did not reproduce gold")
            if rnd:
                samples[key].append(spent / n * 1e6)
    return samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-ratio", type=float,
                    help="exit 1 when a window / all-at-once ratio is above this")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        (tid,) = synth.write_corpus(Path(tmp), SEED, {"syn01": LENGTH})
        corpus = load_corpus(tmp)
    samples = measure(corpus, tid)
    worst = 0.0
    for task in ("threading", "abcde"):
        window, whole = samples[(task, "window")], samples[(task, "all_at_once")]
        # Each round's two runs are neighbours in time, so their ratio is
        # spared most of the machine's drift.
        ratio = statistics.median(w / a for w, a in zip(window, whole))
        worst = max(worst, ratio)
        print(f"{task:9s}  window {statistics.median(window):7.1f} us/utt  "
              f"all-at-once {statistics.median(whole):7.1f} us/utt  ratio {ratio:.2f}")
    if args.max_ratio is not None and worst > args.max_ratio:
        print(f"window_ratio: ratio {worst:.2f} is above {args.max_ratio}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
