import csv
from dataclasses import replace
from xml.dom import minidom

import pytest

from threadlab.llm import (
    CompletionCache, ModelConfig, OracleProvider, PricingTable, UnknownModelPricing
)
from threadlab.report import (
    CSV_COLUMNS,
    HUMAN_CONDITION,
    HumanBaseline,
    tradeoff_report,
    tradeoff_rows,
    write_csv,
    write_svg,
)
from threadlab.runner import ExperimentSpec, evaluate_run, run_threading
from threadlab.windowing import WindowConfig


@pytest.fixture(scope="module")
def two_runs(bundled):
    provider = OracleProvider({tid: g for tid, (_, g) in bundled.items()})
    pricing = PricingTable.from_dict(
        {"test-model": {"input_per_1m": 3.0, "output_per_1m": 9.0}})
    entries = []
    for name, n in (("window_n10", 10), ("window_n20", 20)):
        spec = ExperimentSpec(
            task="threading", strategy="window",
            model=ModelConfig(model_id="test-model"),
            transcripts=("ws01", "ws02", "cs01"),
            window=WindowConfig(n=n),
        )
        log = run_threading(spec, bundled, provider, pricing=pricing)
        entries.append((name, log, evaluate_run(log, bundled)))
    return entries


def test_rows_are_runs_plus_human(two_runs):
    rows = tradeoff_rows(two_runs)
    assert len(rows) == 3
    assert [r.condition for r in rows] == ["window_n10", "window_n20", HUMAN_CONDITION]
    human = rows[-1]
    assert human.n_transcripts == 3
    assert human.kappa_mean == 1.0
    assert human.kappa_std == 0.0
    assert human.time_hours_per_transcript == 1.5
    assert human.cost_usd_per_transcript == 25.0
    assert human.time_hours_total == 4.5
    assert human.cost_usd_total == 75.0


def test_model_row_uses_logged_cost(two_runs):
    _, log, _ = two_runs[0]
    row = tradeoff_rows(two_runs)[0]
    assert row.cost_usd_total == pytest.approx(log.cost_usd)
    assert row.time_hours_total == 0.0  # provider time, and the oracle answers at once
    assert row.cost_usd_per_transcript == pytest.approx(row.cost_usd_total / 3)


class _SlowOracle:
    """The oracle, taking 40 ms a call."""

    name = "slow"

    def __init__(self, oracle):
        self.oracle = oracle

    def send(self, prompt, model, prompt_hash):
        return replace(self.oracle.send(prompt, model, prompt_hash), latency_ms=40)


def test_model_row_time_is_provider_time_once_per_call(bundled, tmp_path):
    oracle = OracleProvider({tid: g for tid, (_, g) in bundled.items()})
    spec = ExperimentSpec(task="threading", strategy="all_at_once",
                          model=ModelConfig(model_id="test-model"), transcripts=("ws01", "cs01"))
    live = run_threading(spec, bundled, _SlowOracle(oracle),
                         cache=CompletionCache(tmp_path / "c.jsonl"))
    cached = run_threading(spec, bundled, oracle, cache=CompletionCache(tmp_path / "c.jsonl"))
    result = evaluate_run(live, bundled)
    rows = tradeoff_rows([("live", live, result), ("cached", cached, result)])
    # one all-at-once call per transcript, its latency on each of its records
    assert rows[0].time_hours_total == rows[1].time_hours_total == 2 * 40 / 3_600_000


def test_pricing_fallback_when_cost_missing(two_runs):
    name, log, result = two_runs[0]
    from dataclasses import replace

    bare = replace(log, cost_usd=None)
    pricing = PricingTable.from_dict(
        {"test-model": {"input_per_1m": 100.0, "output_per_1m": 0.0}})
    row = tradeoff_rows([(name, bare, result)], pricing=pricing)[0]
    assert row.cost_usd_total == pytest.approx(log.input_tokens * 100.0 / 1e6)
    # no pricing at all degrades to zero rather than crashing
    row = tradeoff_rows([(name, bare, result)])[0]
    assert row.cost_usd_total == 0.0


def test_a_log_to_price_with_an_unpriced_model_is_refused(two_runs):
    name, log, result = two_runs[0]
    pricing = PricingTable.from_dict({"other-model": {"input_per_1m": 1.0, "output_per_1m": 1.0}})
    with pytest.raises(UnknownModelPricing, match="^no pricing entry for model 'test-model'$"):
        tradeoff_rows([(name, replace(log, cost_usd=None), result)], pricing=pricing)
    # a log that carries its own cost is not priced again
    assert tradeoff_rows([(name, log, result)], pricing=pricing)[0].cost_usd_total == log.cost_usd


def test_empty_entries_rejected():
    with pytest.raises(ValueError):
        tradeoff_rows([])


def test_custom_baseline(two_runs):
    rows = tradeoff_rows(two_runs, baseline=HumanBaseline(2.0, 40.0))
    assert rows[-1].time_hours_total == 6.0
    assert rows[-1].cost_usd_total == 120.0


def test_csv_formats_float_columns_by_field(two_runs, tmp_path):
    path = tmp_path / "tradeoff.csv"
    write_csv(tradeoff_rows(two_runs, baseline=HumanBaseline(2, 40)), path)
    human = path.read_text(encoding="utf-8").splitlines()[-1]
    assert human == "human,3,1.000000,0.000000,6.000000,2.000000,120.000000,40.000000"


def test_csv_layout(two_runs, tmp_path):
    rows = tradeoff_rows(two_runs)
    path = tmp_path / "tradeoff.csv"
    write_csv(rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == list(CSV_COLUMNS)
    assert len(parsed) == 4  # header + three rows
    human = parsed[-1]
    assert human[0] == HUMAN_CONDITION
    assert human[1] == "3"
    assert human[CSV_COLUMNS.index("kappa_mean")] == "1.000000"
    assert human[CSV_COLUMNS.index("time_hours_per_transcript")] == "1.500000"
    assert human[CSV_COLUMNS.index("cost_usd_per_transcript")] == "25.000000"
    for row in parsed[1:]:
        assert all("." in cell for cell in row[2:])  # %.6f everywhere


def test_svg_has_one_point_per_row_per_panel(two_runs, tmp_path):
    rows = tradeoff_rows(two_runs)
    path = tmp_path / "tradeoff.svg"
    write_svg(rows, path)
    svg = path.read_text(encoding="utf-8")
    assert svg.count("<circle") == 2 * len(rows)
    assert '<g id="time_vs_kappa">' in svg
    assert '<g id="cost_vs_kappa">' in svg
    assert svg.count("#d62728") == 2  # human point once per panel
    assert svg.count(f"<title>{HUMAN_CONDITION}</title>") == 2


def test_svg_survives_flat_axes(two_runs, tmp_path):
    # identical kappa and cost everywhere used to be a divide-by-zero trap
    name, log, result = two_runs[0]
    path = tmp_path / "flat.svg"
    write_svg(tradeoff_rows([(name, log, result), (name, log, result)]), path)
    assert path.read_text(encoding="utf-8").count("<circle") == 6


def test_svg_escapes_condition_names(two_runs, tmp_path):
    _, log, result = two_runs[0]
    path = tmp_path / "escaped.svg"
    write_svg(tradeoff_rows([("a<b & c", log, result)]), path)
    doc = minidom.parse(str(path))
    titles = [t.firstChild.data for t in doc.getElementsByTagName("title")]
    labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert titles.count("a<b & c") == 2
    assert labels.count("a<b & c") == 2


def test_tradeoff_report_writes_both(two_runs, tmp_path):
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    rows = tradeoff_report(two_runs, csv_path, svg_path)
    assert csv_path.exists() and svg_path.exists()
    assert len(rows) == 3
