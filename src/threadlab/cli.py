"""Command-line front end.

Subcommands map one-to-one onto library entry points: ingest and validate
wrap corpus loading and lint checks, thread and code launch runs from a JSON
config, eval scores a finished run, report renders the tradeoff table. All
run artifacts land under --out as runs/<run_id>/log.jsonl, eval.json, and
reports/tradeoff.{csv,svg}.
"""

from __future__ import annotations

import argparse
import json
import sys
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

PROVIDERS = ("http", "replay", "oracle")


def _load_corpus(corpus_dir: str | None):
    root = Path(corpus_dir) if corpus_dir else corpus_mod.bundled_corpus_dir()
    return corpus_mod.load_corpus(root)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _build_spec(task: str, config: dict, args: argparse.Namespace) -> runner_mod.ExperimentSpec:
    spec_dict = dict(config.get("spec") or {})
    spec_dict.setdefault("task", task)
    if spec_dict["task"] != task:
        raise SystemExit(f"config spec task {spec_dict['task']!r} does not match subcommand")
    if args.model:
        spec_dict.setdefault("model", {})
        spec_dict["model"] = {**spec_dict["model"], "model_id": args.model}
    if "model" not in spec_dict:
        raise SystemExit("no model configured; pass --model or set spec.model in the config")
    if args.window is not None:
        w = dict(spec_dict.get("window") or {"feedback": "self" if task == "threading" else "none"})
        w["n"] = args.window
        spec_dict["window"] = w
        spec_dict.setdefault("strategy", "window")
    if args.shots is not None:
        spec_dict["shots"] = args.shots
    if getattr(args, "thread_source", None):
        spec_dict["thread_source"] = args.thread_source
    if args.transcripts:
        spec_dict["transcripts"] = args.transcripts.split(",")
    spec_dict.setdefault("strategy", "window" if spec_dict.get("window") else "all_at_once")
    if config.get("template_dir"):
        spec_dict.setdefault("template_dir", config["template_dir"])
    try:
        return runner_mod.ExperimentSpec.from_dict(spec_dict)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"bad experiment spec: {exc}")


def _build_provider(name: str, config: dict, corpus) -> Provider:
    if name == "oracle":
        return OracleProvider({tid: g for tid, (_, g) in corpus.items()})
    if name == "replay":
        fixtures = config.get("fixtures")
        if not fixtures:
            raise SystemExit("replay provider needs a 'fixtures' path in the config")
        return ReplayProvider.from_path(fixtures)
    if name == "http":
        return HttpProvider()
    raise SystemExit(f"unknown provider {name!r}")


def _pricing(config: dict) -> PricingTable | None:
    path = config.get("pricing")
    if not path:
        return None
    return PricingTable.from_json(path)


def _cache(config: dict) -> CompletionCache | None:
    path = config.get("cache")
    if not path:
        return None
    return CompletionCache(path)


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
        if tid not in corpus:
            print(f"no transcript {tid!r} in corpus", file=sys.stderr)
            return 2
        t, g = corpus[tid]
        rep = corpus_mod.validate_thread_graph(t, g)
        for issue in rep.errors:
            print(f"{tid}: ERROR {issue.kind} at {issue.index}: {issue.detail}")
            worst = 1
        for issue in rep.lints:
            print(f"{tid}: LINT {issue.kind} at {issue.index}: {issue.detail}")
        if rep.ok and not rep.lints:
            print(f"{tid}: clean")
    return worst


def _run_common(args: argparse.Namespace, task: str) -> int:
    config = _load_config(args.config)
    corpus = _load_corpus(args.corpus or config.get("corpus_dir"))
    spec = _build_spec(task, config, args)
    provider = _build_provider(args.provider or config.get("provider", "oracle"),
                               config, corpus)
    cache = _cache(config)
    pricing = _pricing(config)
    out = Path(args.out)
    runs_dir = out / "runs"
    kwargs = dict(
        corpus=corpus, provider=provider, cache=cache,
        concurrency=args.concurrency, pricing=pricing,
    )
    try:
        if task == "threading":
            log = runner_mod.run_threading(spec, **kwargs)
        else:
            log = runner_mod.run_abcde(spec, runs_dir=runs_dir, **kwargs)
    except LlmError as exc:  # outside the fault policy: the run stops with no log
        kept = (f"its finished calls are kept in {config['cache']}" if cache is not None
                else "no cache keeps its finished calls")
        raise SystemExit(f"run {spec.run_id} stopped by {type(exc).__name__}: {exc}; {kept}")
    path = log.save(runs_dir)
    print(f"run {log.run_id}: {len(log.records)} records -> {path}")
    if log.failed_transcripts:
        print(f"failed transcripts: {', '.join(log.failed_transcripts)}", file=sys.stderr)
    if log.n_fallback_labels:
        print(f"warning: {log.n_fallback_labels} labels fell back to '-'", file=sys.stderr)
    return 0


def _cmd_thread(args: argparse.Namespace) -> int:
    return _run_common(args, "threading")


def _cmd_code(args: argparse.Namespace) -> int:
    return _run_common(args, "abcde")


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    corpus = _load_corpus(args.corpus or config.get("corpus_dir"))
    runs_dir = Path(args.out) / "runs"
    log = runner_mod.RunLog.load(runs_dir, args.run)
    subcats = args.subcats.split(",") if args.subcats else None
    try:
        result = runner_mod.evaluate_run(log, corpus, args.code_letter, subcats)
    except ValueError as exc:
        raise SystemExit(str(exc))
    path = runs_dir / log.run_id / "eval.json"
    runner_mod.write_atomic(path, result.to_json())
    agg = result.aggregate
    print(
        f"run {log.run_id}: kappa {agg.kappa.mean:.4f} +/- {agg.kappa.std:.4f}, "
        f"accuracy {agg.accuracy.mean:.4f}, macro-F1 {agg.macro_f1.mean:.4f} -> {path}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    corpus = _load_corpus(args.corpus or config.get("corpus_dir"))
    out = Path(args.out)
    runs_dir = out / "runs"
    run_ids = args.runs.split(",")
    labels = args.labels.split(",") if args.labels else run_ids
    if len(labels) != len(run_ids):
        raise SystemExit("--labels must match --runs one for one")
    entries = []
    for label, run_id in zip(labels, run_ids):
        log = runner_mod.RunLog.load(runs_dir, run_id)
        eval_path = runs_dir / run_id / "eval.json"
        if eval_path.exists():
            d = json.loads(eval_path.read_text(encoding="utf-8"))
            result = runner_mod.EvalResult.from_dict(d)
        else:
            result = runner_mod.evaluate_run(log, corpus)
        entries.append((label, log, result))
    reports_dir = out / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    rows = report_mod.tradeoff_report(
        entries, reports_dir / "tradeoff.csv", reports_dir / "tradeoff.svg",
        pricing=_pricing(config),
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
    p.set_defaults(func=_cmd_thread)

    p = sub.add_parser("code", help="run a collaborative-talk coding experiment")
    common(p, with_run_flags=True)
    p.add_argument("--shots", type=int, help=argparse.SUPPRESS)
    p.add_argument("--thread-source", dest="thread_source",
                   help="none, human, or llm:<run_id>")
    p.set_defaults(func=_cmd_code)

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
    # a run id or thread source with no log, or a corpus file that does not parse
    except (runner_mod.MissingThreadSource, corpus_mod.CorpusError) as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
