"""A run killed part-way resumes from its cache to the log an uninterrupted run writes."""

import dataclasses
import json
import os
import runpy
import signal
import subprocess
import sys
import time
from pathlib import Path

import threadlab
from threadlab.llm import CompletionCache
from threadlab.runner import run_threading

# The child runs this file as a script; the test loads the same definitions.
CHILD = '''
import sys
import threading
from pathlib import Path

from threadlab.corpus import bundled_corpus_dir, load_corpus
from threadlab.llm import CompletionCache, ModelConfig, OracleProvider, ProviderResult
from threadlab.runner import ExperimentSpec, run_threading
from threadlab.windowing import WindowConfig

SPEC = ExperimentSpec(
    task="threading", strategy="window", model=ModelConfig(model_id="m"),
    transcripts=("ws01", "cs01", "ws02"), window=WindowConfig(n=5),
)


class Scripted:
    """Gold, but a new thread at every fifth target and no label at every seventh.

    With ``block_after`` set, the call after that many writes ``marker`` and
    never returns.
    """

    name = "scripted"

    def __init__(self, corpus, block_after=None, marker=None):
        self.oracle = OracleProvider({tid: g for tid, (_, g) in corpus.items()})
        self.block_after = block_after
        self.marker = marker
        self.calls = 0

    def send(self, prompt, model, prompt_hash):
        self.calls += 1
        if self.block_after is not None and self.calls > self.block_after:
            Path(self.marker).touch()
            threading.Event().wait()
        i = prompt.target_index
        if i % 7 == 0:
            return ProviderResult("not sure", None, None, 0)
        if i % 5 == 0:
            return ProviderResult(f"{i} {prompt.target_speaker} [respond line = -]", None, None, 0)
        return self.oracle.send(prompt, model, prompt_hash)


if __name__ == "__main__":
    cache_path, marker, block_after = sys.argv[1:]
    corpus = load_corpus(bundled_corpus_dir())
    provider = Scripted(corpus, int(block_after), marker)
    run_threading(SPEC, corpus, provider, CompletionCache(cache_path), concurrency=1)
    sys.exit("the run finished without blocking")
'''

KILLED_AFTER = 17  # calls cached before the kill, part-way through ws01's 21 windows


def _saved_log(log, runs_dir: Path) -> bytes:
    return dataclasses.replace(log, wall_time_ms=0).save(runs_dir).read_bytes()


def test_a_killed_run_resumes_from_its_cache(bundled, tmp_path):
    script = tmp_path / "child.py"
    script.write_text(CHILD, encoding="utf-8")
    child_defs = runpy.run_path(str(script))
    spec, Scripted = child_defs["SPEC"], child_defs["Scripted"]
    cache_path, marker = tmp_path / "cache.jsonl", tmp_path / "blocked"

    src = str(Path(threadlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    child = subprocess.Popen(
        [sys.executable, str(script), str(cache_path), str(marker), str(KILLED_AFTER)],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():  # the child blocks once it writes the marker
            assert child.poll() is None, child.stderr.read()
            assert time.monotonic() < deadline, "the child never blocked"
            time.sleep(0.01)
        child.send_signal(signal.SIGKILL)
    finally:
        child.kill()
        child.wait()
        child.stderr.close()
    assert child.returncode == -signal.SIGKILL

    lines = cache_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == KILLED_AFTER
    cached = {json.loads(line)["prompt_hash"] for line in lines}

    class RefusesCached(Scripted):
        def send(self, prompt, model, prompt_hash):
            assert prompt_hash not in cached, "a cached prompt reached the provider"
            return super().send(prompt, model, prompt_hash)

    resumer = RefusesCached(bundled)
    resumed = run_threading(spec, bundled, resumer, CompletionCache(cache_path), concurrency=2)
    whole = run_threading(spec, bundled, Scripted(bundled), concurrency=1)

    n_calls = sum(len(bundled[tid][0]) for tid in spec.transcripts)
    assert resumer.calls == n_calls - KILLED_AFTER
    assert len(CompletionCache(cache_path)) == n_calls
    assert not all(r.ok for r in whole.records)
    assert _saved_log(resumed, tmp_path / "resumed") == _saved_log(whole, tmp_path / "whole")
