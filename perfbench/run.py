#!/usr/bin/env python3
"""threadlab benchmark: one workload per process, or all three in turn.

    python3 perfbench/run.py --workload replay_long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The program is imported from ``src/``; its
inputs are generated from ``--seed`` under ``.perfbench_work/`` and removed
afterwards. Before timing, a run validates the generated corpus, runs every
condition once against a noise-free provider (each must score kappa 1.0),
and makes one warm-up repetition whose outputs become the reference. It then
repeats the workload for ``--seconds`` seconds.

With ``--trace 0`` it reports the end-to-end metrics listed in
BENCHMARK.json as medians over repetitions. Their times are wall times with
the CPU part rescaled to a reference machine speed, measured by a fixed
calibration loop around each repetition (see ``measure.adjusted``); the
raw wall-clock medians are printed beside them. With ``--trace 1`` it alternates
untraced and traced repetitions and reports the per-layer metrics, medians
over traced repetitions, plus the tracing overhead; the spans of the last
traced repetition are written to ``.perfbench_work/traces/``.

Every utterance record of every pass is checked: against what the scripted
provider injected, and, with wall time zeroed, byte for byte against the
reference repetition, along with its evaluation. The last line printed is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _import_program() -> None:
    package = SRC / "threadlab" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: no threadlab sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    import threadlab

    if Path(threadlab.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported threadlab from {threadlab.__file__}, not {package}")


def _declared(trace: bool) -> list[dict]:
    return BENCHMARK["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    _import_program()
    from measure import measure

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), WORK_ROOT)
    metrics = {}
    for m in _declared(bool(args.trace)):
        if m["name"] not in result["metrics"]:
            if result["metrics"]:
                sys.exit(f"perfbench: metric {m['name']} was not measured")
            break
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} repetitions={result['reps']}")
    for name, m in metrics.items():
        raw = result["raw"].get(name)
        note = f"   (raw wall clock {raw:.6g})" if raw is not None else ""
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}{note}")
    if "slowdown" in result["raw"]:
        print(f"  {'machine slowdown':<30} {result['raw']['slowdown']:.4g}x the reference speed")
    print(f"  {'error_rate':<30} {failed / max(attempted, 1):.6g} ({failed} of {attempted} records)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    if "trace_file" in result:
        print(f"  spans written to {result['trace_file']}")
    print(f"  output check: {'PASS' if failed == 0 and metrics else 'FAIL'}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    rows = []
    for name in [w["name"] for w in BENCHMARK["workloads"]]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        rows.append((name, json.loads(lines[-1])))
    print()
    print(f"{'workload':<16} {'metric':<30} {'value':>14} unit")
    for name, res in rows:
        for metric, m in res["metrics"].items():
            print(f"{name:<16} {metric:<30} {m['value']:>14.6g} {m['unit']}")
        rate = res["failed"] / res["attempted"]
        print(f"{name:<16} {'error_rate':<30} {rate:>14.6g} failed/attempted")
    verdict = all(res["correct"] for _, res in rows) and status == 0
    print(f"output check: {'PASS' if verdict else 'FAIL'}")
    return status


def main() -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    ap = argparse.ArgumentParser(description="threadlab benchmark")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
