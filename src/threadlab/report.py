"""Time/cost versus agreement reporting across runs.

Turns finished runs into a comparison table with a human-annotator reference
row, written as CSV, plus a two-panel scatter (provider hours vs kappa,
dollars vs kappa) as standalone SVG. The SVG is assembled by hand: two <g>
panels with one <circle> per condition, which keeps the artifact greppable in
tests and free of plotting dependencies.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .llm import PricingTable
from .runner import EvalResult, RunLog

HUMAN_CONDITION = "human"


@dataclass(frozen=True)
class HumanBaseline:
    """Reference effort for one fully hand-annotated transcript."""

    hours_per_transcript: float = 1.5
    usd_per_transcript: float = 25.0


@dataclass(frozen=True)
class TradeoffRow:
    condition: str
    n_transcripts: int
    kappa_mean: float
    kappa_std: float
    time_hours_total: float
    time_hours_per_transcript: float
    cost_usd_total: float
    cost_usd_per_transcript: float

    def as_csv_row(self) -> list[str]:
        # A float field keeps six places also when given an int; the
        # annotations are strings under ``from __future__ import annotations``.
        return [format(getattr(self, f.name), ".6f" if f.type == "float" else "")
                for f in fields(self)]


CSV_COLUMNS = tuple(f.name for f in fields(TradeoffRow))


def _model_row(condition: str, log: RunLog, result: EvalResult,
               pricing: PricingTable | None) -> TradeoffRow:
    n = len(log.spec.transcripts)
    # Provider time: each call's latency once, as all the records of an all-at-once
    # call log it; cached and replayed records keep their original call's latency.
    hours = sum({r.prompt_hash: r.latency_ms for r in log.records}.values()) / 3_600_000
    cost = log.cost_usd
    if cost is None:
        cost = (0.0 if pricing is None
                else pricing.cost(log.spec.model.model_id, log.input_tokens, log.output_tokens))
    return TradeoffRow(
        condition=condition,
        n_transcripts=n,
        kappa_mean=result.aggregate.kappa.mean,
        kappa_std=result.aggregate.kappa.std,
        time_hours_total=hours,
        time_hours_per_transcript=hours / n,
        cost_usd_total=cost,
        cost_usd_per_transcript=cost / n,
    )


def _human_row(n: int, baseline: HumanBaseline) -> TradeoffRow:
    # Gold is its own reference, so agreement is exact by construction.
    return TradeoffRow(
        condition=HUMAN_CONDITION,
        n_transcripts=n,
        kappa_mean=1.0,
        kappa_std=0.0,
        time_hours_total=baseline.hours_per_transcript * n,
        time_hours_per_transcript=baseline.hours_per_transcript,
        cost_usd_total=baseline.usd_per_transcript * n,
        cost_usd_per_transcript=baseline.usd_per_transcript,
    )


def tradeoff_rows(
    entries: Sequence[tuple[str, RunLog, EvalResult]],
    pricing: PricingTable | None = None,
    baseline: HumanBaseline = HumanBaseline(),
) -> list[TradeoffRow]:
    """One row per run, in input order, then the human reference row.

    The human row is scaled to the largest transcript count among the runs so
    its totals compare like for like. A log without a cost of its own is priced
    from ``pricing``, where an unpriced model raises UnknownModelPricing, or at 0.
    """
    if not entries:
        raise ValueError("need at least one (condition, log, eval) entry")
    rows = [_model_row(cond, log, result, pricing) for cond, log, result in entries]
    rows.append(_human_row(max(r.n_transcripts for r in rows), baseline))
    return rows


def write_csv(rows: Sequence[TradeoffRow], path: str | Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv_row())
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


# --- SVG -------------------------------------------------------------------

_PANEL_W = 360
_PANEL_H = 280
_MARGIN = 48
_GAP = 40


def _scale(values: Sequence[float], lo_px: float, hi_px: float):
    vmin, vmax = min(values), max(values)
    if vmax == vmin:  # flat axis still needs a usable midpoint
        mid = (lo_px + hi_px) / 2
        return lambda _v: mid
    span = vmax - vmin
    return lambda v: lo_px + (v - vmin) / span * (hi_px - lo_px)


def _xml_text(s: str) -> str:
    # xml.sax.saxutils.escape does the same, but importing it loads six
    # modules into every process that imports the package.
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _panel(gid: str, title: str, rows: Sequence[TradeoffRow],
           x_of, x_label: str, x_off: float) -> list[str]:
    xs = [x_of(r) for r in rows]
    ys = [r.kappa_mean for r in rows]
    sx = _scale(xs, x_off + _MARGIN, x_off + _PANEL_W - 12)
    sy = _scale(ys, _PANEL_H - _MARGIN, 24)
    parts = [f'  <g id="{gid}">']
    parts.append(
        f'    <rect x="{x_off + _MARGIN}" y="24" '
        f'width="{_PANEL_W - _MARGIN - 12}" height="{_PANEL_H - _MARGIN - 24}" '
        f'fill="none" stroke="#999"/>'
    )
    parts.append(
        f'    <text x="{x_off + _PANEL_W / 2:.1f}" y="14" text-anchor="middle" '
        f'font-size="12">{title}</text>'
    )
    parts.append(
        f'    <text x="{x_off + _PANEL_W / 2:.1f}" y="{_PANEL_H - 8}" '
        f'text-anchor="middle" font-size="10">{x_label}</text>'
    )
    parts.append(
        f'    <text x="{x_off + 12}" y="{_PANEL_H / 2:.1f}" font-size="10" '
        f'transform="rotate(-90 {x_off + 12} {_PANEL_H / 2:.1f})" '
        f'text-anchor="middle">kappa</text>'
    )
    for row, x, y in zip(rows, xs, ys):
        px, py = sx(x), sy(y)
        fill = "#d62728" if row.condition == HUMAN_CONDITION else "#1f77b4"
        name = _xml_text(row.condition)
        parts.append(
            f'    <circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="{fill}">'
            f"<title>{name}</title></circle>"
        )
        parts.append(
            f'    <text x="{px + 6:.1f}" y="{py - 6:.1f}" font-size="9">{name}</text>'
        )
    parts.append("  </g>")
    return parts


def write_svg(rows: Sequence[TradeoffRow], path: str | Path) -> None:
    """Two scatter panels, ids time_vs_kappa and cost_vs_kappa."""
    width = 2 * _PANEL_W + _GAP
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_PANEL_H}" viewBox="0 0 {width} {_PANEL_H}">',
    ]
    lines += _panel(
        "time_vs_kappa", "annotation time vs agreement", rows,
        lambda r: r.time_hours_total, "provider time, hours (serial sum of call latencies)", 0,
    )
    lines += _panel(
        "cost_vs_kappa", "annotation cost vs agreement", rows,
        lambda r: r.cost_usd_total, "cost in USD (total)", _PANEL_W + _GAP,
    )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def tradeoff_report(
    entries: Sequence[tuple[str, RunLog, EvalResult]],
    csv_path: str | Path,
    svg_path: str | Path,
    pricing: PricingTable | None = None,
    baseline: HumanBaseline = HumanBaseline(),
) -> list[TradeoffRow]:
    rows = tradeoff_rows(entries, pricing, baseline)
    write_csv(rows, csv_path)
    write_svg(rows, svg_path)
    return rows
