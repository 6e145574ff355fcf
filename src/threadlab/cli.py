"""Command-line front end.

Subcommands map one-to-one onto library entry points: ingest and validate
wrap corpus loading and lint checks, thread and code launch runs from a JSON
config, eval scores a finished run, report renders the tradeoff table. All
run artifacts land under --out as runs/<run_id>/log.jsonl, eval.json, and
reports/tradeoff.{csv,svg}.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import corpus as corpus_mod
from . import report as report_mod
from . import runner as runner_mod
from .llm import (
    CompletionCache,
    HttpProvider,
    LlmError,
    OracleProvider,
    PricingTable,
    Provider,
    ReplayProvider,
)
from .schema import FileError, json_value, read, typed

PROVIDERS = ("http", "replay", "oracle")


def _load_corpus(corpus_dir: str | None):
    root = Path(corpus_dir) if corpus_dir else corpus_mod.bundled_corpus_dir()
    return corpus_mod.load_corpus(root)


@dataclass(frozen=True)
class RunConfig:
    """A ``--config`` file: the provider, the spec the flags complete, and the
    files and directories the run reads or writes."""

    provider: str = "oracle"
    spec: dict | None = None
    cache: str | None = None
    corpus_dir: str | None = None
    fixtures: str | None = None
    pricing: str | None = None


def _load_inputs(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    """The ``--config`` file's settings (the defaults without one) and the corpus
    they or ``--corpus`` name."""
    config = (RunConfig() if args.config is None
              else read(args.config, lambda data: typed(RunConfig, json_value(data))))
    return config, _load_corpus(args.corpus or config.corpus_dir)


def _build_spec(
    task: str, config: RunConfig, args: argparse.Namespace
) -> runner_mod.ExperimentSpec:
    try:
        spec_dict = dict(config.spec or {})
        spec_dict.setdefault("task", task)
        if spec_dict["task"] != task:
            raise SystemExit(f"config spec task {spec_dict['task']!r} does not match subcommand")
        if args.model:
            model = typed(dict, spec_dict.get("model", {}), "model")
            spec_dict["model"] = {**model, "model_id": args.model}
        if "model" not in spec_dict:
            raise SystemExit("no model configured; pass --model or set spec.model in the config")
        if args.window is not None:
            w = dict(typed(dict | None, spec_dict.get("window"), "window")
                     or {"feedback": "self" if task == "threading" else "none"})
            w["n"] = args.window
            spec_dict["window"] = w
        if getattr(args, "shots", None) is not None:
            spec_dict["shots"] = args.shots
        if getattr(args, "thread_source", None):
            spec_dict["thread_source"] = args.thread_source
        if args.transcripts:
            spec_dict["transcripts"] = args.transcripts.split(",")
        spec_dict.setdefault("strategy", "window" if spec_dict.get("window") else "all_at_once")
        return runner_mod.ExperimentSpec.from_dict(spec_dict)
    except ValueError as exc:
        raise SystemExit(f"bad experiment spec: {exc}")


def _build_provider(name: str, config: RunConfig, corpus) -> Provider:
    if name == "oracle":
        return OracleProvider({tid: g for tid, (_, g) in corpus.items()})
    if name == "replay":
        if not config.fixtures:
            raise SystemExit("replay provider needs a 'fixtures' path in the config")
        return ReplayProvider.from_path(config.fixtures)
    if name == "http":
        return HttpProvider()
    raise SystemExit(f"unknown provider {name!r}")


def _pricing(config: RunConfig, model_ids: list[str]) -> PricingTable | None:
    """The config's pricing file, which must price each of ``model_ids``."""
    def parse(data):
        table = PricingTable.from_dict(json_value(data))
        for model_id in model_ids:
            table.rate(model_id)
        return table
    return read(config.pricing, parse) if config.pricing else None


def _cmd_ingest(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.corpus)
    n_errors = 0
    for tid, (t, g) in corpus.items():
        rep = corpus_mod.validate_thread_graph(t, g)
        n_errors += len(rep.errors)
        for issue in rep.errors:
            print(f"{tid}: ERROR {issue.kind} at {issue.index}: {issue.detail}", file=sys.stderr)
    stats = corpus_mod.corpus_stats(list(corpus.values()))
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 1 if n_errors else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.corpus)
    ids = [args.transcript] if args.transcript else list(corpus)
    worst = 0
    for tid in ids:
        t, g = runner_mod.corpus_pair(corpus, tid)
        rep = corpus_mod.validate_thread_graph(t, g)
        for issue in rep.errors:
            print(f"{tid}: ERROR {issue.kind} at {issue.index}: {issue.detail}")
            worst = 1
        for issue in rep.lints:
            print(f"{tid}: LINT {issue.kind} at {issue.index}: {issue.detail}")
        if rep.ok and not rep.lints:
            print(f"{tid}: clean")
    return worst


def _require_dir(path: Path) -> None:
    """Raise, creating nothing, the error that making directory ``path`` meets at a file."""
    blocked = next(p for p in (path, *path.parents) if p.exists())
    if not blocked.is_dir():
        code = errno.EEXIST if blocked == path else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(path))


def _cmd_run(args: argparse.Namespace) -> int:
    config, corpus = _load_inputs(args)
    spec = _build_spec(args.task, config, args)
    provider = _build_provider(args.provider or config.provider, config, corpus)
    cache = CompletionCache(config.cache) if config.cache else None
    pricing = _pricing(config, [spec.model.model_id])
    runs_dir = Path(args.out) / "runs"
    _require_dir(runner_mod.log_path(runs_dir, spec.run_id).parent)  # before the first call
    kwargs = dict(
        corpus=corpus, provider=provider, cache=cache,
        concurrency=args.concurrency, pricing=pricing,
    )
    try:
        if args.task == "threading":
            log = runner_mod.run_threading(spec, **kwargs)
        else:
            log = runner_mod.run_abcde(spec, runs_dir=runs_dir, **kwargs)
    except LlmError as exc:  # outside the fault policy: the run stops with no log
        kept = (f"its finished calls are kept in {config.cache}" if cache is not None
                else "no cache keeps its finished calls")
        raise SystemExit(f"run {spec.run_id} stopped by {type(exc).__name__}: {exc}; {kept}")
    path = log.save(runs_dir)
    print(f"run {log.run_id}: {len(log.records)} records -> {path}")
    if log.failed_transcripts:
        print(f"failed transcripts: {', '.join(log.failed_transcripts)}", file=sys.stderr)
    if log.n_fallback_labels:
        print(f"warning: {log.n_fallback_labels} labels fell back to '-'", file=sys.stderr)
    return 0


def _evaluate(runs_dir: Path, run_id: str, log, corpus, *args) -> runner_mod.EvalResult:
    """Score a saved run; a log whose records do not match its spec is a fault naming the log."""
    try:
        return runner_mod.evaluate_run(log, corpus, *args)
    except runner_mod.StrayRecord as exc:
        raise SystemExit(f"{runner_mod.log_path(runs_dir, run_id)}: {exc}")


def _cmd_eval(args: argparse.Namespace) -> int:
    _, corpus = _load_inputs(args)
    runs_dir = Path(args.out) / "runs"
    log = runner_mod.RunLog.load(runs_dir, args.run)
    subcats = args.subcats.split(",") if args.subcats else None
    try:
        result = _evaluate(runs_dir, args.run, log, corpus, args.code_letter, subcats)
    except ValueError as exc:
        raise SystemExit(str(exc))
    path = runner_mod.eval_path(runs_dir, log.run_id)
    runner_mod.write_atomic(path, result.to_json())
    agg = result.aggregate
    print(
        f"run {log.run_id}: kappa {agg.kappa.mean:.4f} +/- {agg.kappa.std:.4f}, "
        f"accuracy {agg.accuracy.mean:.4f}, macro-F1 {agg.macro_f1.mean:.4f} -> {path}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config, corpus = _load_inputs(args)
    out = Path(args.out)
    runs_dir = out / "runs"
    run_ids = args.runs.split(",")
    labels = args.labels.split(",") if args.labels else run_ids
    if len(labels) != len(run_ids):
        raise SystemExit("--labels must match --runs one for one")
    entries = []
    for label, run_id in zip(labels, run_ids):
        log = runner_mod.RunLog.load(runs_dir, run_id)
        eval_path = runner_mod.eval_path(runs_dir, run_id)
        if eval_path.exists():
            result = read(eval_path, lambda data: runner_mod.EvalResult.from_dict(json_value(data)))
        else:
            result = _evaluate(runs_dir, run_id, log, corpus)
        entries.append((label, log, result))
    # only a log without a cost of its own is priced
    pricing = _pricing(config, [log.spec.model.model_id for _, log, _ in entries
                                if log.cost_usd is None])
    reports_dir = out / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    rows = report_mod.tradeoff_report(
        entries, reports_dir / "tradeoff.csv", reports_dir / "tradeoff.svg", pricing=pricing,
    )
    for row in rows:
        print(
            f"{row.condition}: kappa {row.kappa_mean:.4f}, "
            f"{row.time_hours_total:.2f} h, ${row.cost_usd_total:.2f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="threadlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_run_flags=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--corpus", help="corpus directory (defaults to the bundled corpus)")
        p.add_argument("--out", default="out", help="output directory")
        if with_run_flags:
            p.add_argument("--provider", choices=PROVIDERS)
            p.add_argument("--model", help="model id override")
            p.add_argument("--window", type=int, help="window size override")
            p.add_argument("--transcripts", help="comma-separated transcript ids")
            p.add_argument("--concurrency", type=int, default=runner_mod.DEFAULT_CONCURRENCY,
                           help="most provider calls in flight at once")

    p = sub.add_parser("ingest", help="load a corpus, validate it, print statistics")
    p.add_argument("--corpus")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("validate", help="thread-graph checks and lints")
    p.add_argument("--corpus")
    p.add_argument("--transcript", help="limit to one transcript id")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("thread", help="run a threading experiment")
    common(p, with_run_flags=True)
    p.add_argument("--shots", type=int, help="few-shot example count (all-at-once only)")
    p.set_defaults(func=_cmd_run, task="threading")

    p = sub.add_parser("code", help="run a collaborative-talk coding experiment")
    common(p, with_run_flags=True)
    p.add_argument("--thread-source", dest="thread_source",
                   help="none, human, or llm:<run_id>")
    p.set_defaults(func=_cmd_run, task="abcde")

    p = sub.add_parser("eval", help="score a finished run against gold")
    common(p)
    p.add_argument("--run", required=True, help="run id")
    p.add_argument("--code-letter", default="E", help="letter for binary code metrics")
    p.add_argument("--subcats", help="comma-separated subcategory tags to slice")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="tradeoff CSV and SVG across runs")
    common(p)
    p.add_argument("--runs", required=True, help="comma-separated run ids")
    p.add_argument("--labels", help="display names for the runs, same order")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a transcript, run log or thread source the run cannot find or use, or a
    # file that cannot be read or does not parse
    except (runner_mod.RunnerError, FileError) as exc:
        raise SystemExit(str(exc))
    except OSError as exc:  # a path that cannot be written; a rename names its target second
        if exc.filename is None:  # no path to name, such as a broken stdout pipe
            raise
        raise SystemExit(f"{exc.filename2 or exc.filename}: {exc.strerror}")


if __name__ == "__main__":
    sys.exit(main())
