"""Tools for threading multi-party transcripts and coding collaborative talk
with language models: corpus handling, prompt rendering, constrained output
parsing, chance-corrected agreement metrics, and a replayable experiment
runner.
"""

from .corpus import (
    CodeSet,
    GoldAnnotations,
    NEW_THREAD,
    ThreadLabel,
    Transcript,
    Utterance,
    bundled_corpus_dir,
    corpus_stats,
    load_corpus,
    parse_gold,
    parse_respond_line,
    parse_transcript,
    thread_stats,
    validate_thread_graph,
)
from .llm import (
    CompletionCache,
    HttpProvider,
    ModelConfig,
    OracleProvider,
    PricingTable,
    ReplayProvider,
    complete,
)
from .metrics import (
    PARSE_ERROR_LABEL,
    AggregateReport,
    MetricReport,
    aggregate,
    score,
)
from .prompts import (
    render_abcde,
    render_baseline,
    render_thread_all_at_once,
    render_thread_window,
)
from .report import HumanBaseline, tradeoff_report
from .runner import (
    EvalResult,
    ExperimentSpec,
    RunLog,
    evaluate_run,
    run_abcde,
    run_threading,
)
from .windowing import Window, WindowConfig, make_window

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "CodeSet",
    "CompletionCache",
    "EvalResult",
    "ExperimentSpec",
    "GoldAnnotations",
    "HttpProvider",
    "HumanBaseline",
    "MetricReport",
    "ModelConfig",
    "NEW_THREAD",
    "OracleProvider",
    "PARSE_ERROR_LABEL",
    "PricingTable",
    "ReplayProvider",
    "RunLog",
    "ThreadLabel",
    "Transcript",
    "Utterance",
    "Window",
    "WindowConfig",
    "aggregate",
    "bundled_corpus_dir",
    "complete",
    "corpus_stats",
    "evaluate_run",
    "load_corpus",
    "make_window",
    "parse_gold",
    "parse_respond_line",
    "parse_transcript",
    "render_abcde",
    "render_baseline",
    "render_thread_all_at_once",
    "render_thread_window",
    "run_abcde",
    "run_threading",
    "score",
    "thread_stats",
    "tradeoff_report",
    "validate_thread_graph",
]
