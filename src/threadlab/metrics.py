"""Chance-corrected agreement scores over categorical label sequences.

Labels are plain strings: canonical thread labels (``"24"``, ``"-"``,
``"(24,-)"``), canonical code sets (``"E"``, ``"AC"``, ``""``), or the
parse-failure marker. Scores are computed per conversation and then averaged;
:func:`aggregate` reports mean and sample standard deviation across
conversations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import CodeSet

# Distinguished class for model responses that did not parse. Kept in the
# label space so failed rows count against every metric instead of being
# silently dropped.
PARSE_ERROR_LABEL = "⟂"


class MetricsError(Exception):
    pass


class LengthMismatch(MetricsError):
    def __init__(self, n_gold: int, n_pred: int):
        super().__init__(f"gold has {n_gold} labels, prediction has {n_pred}")
        self.n_gold = n_gold
        self.n_pred = n_pred


class EmptyInput(MetricsError):
    pass


class EmptyCategory(MetricsError):
    def __init__(self, tag: str):
        super().__init__(f"no gold utterance carries subcategory {tag!r}")
        self.tag = tag


def _check_lengths(gold: Sequence[str], pred: Sequence[str]) -> None:
    if len(gold) != len(pred):
        raise LengthMismatch(len(gold), len(pred))
    if not gold:
        raise EmptyInput("label sequences must be non-empty")


@dataclass(frozen=True)
class _Counts:
    """Label counts of one gold/prediction pair, from which every metric is derived."""

    n: int
    gold: Counter
    pred: Counter
    agree: Counter  # class -> positions where gold and prediction both carry it


def _count(gold: Sequence[str], pred: Sequence[str]) -> _Counts:
    _check_lengths(gold, pred)
    return _Counts(
        n=len(gold),
        gold=Counter(gold),
        pred=Counter(pred),
        agree=Counter(g for g, p in zip(gold, pred) if g == p),
    )


def _accuracy(c: _Counts) -> float:
    return sum(c.agree.values()) / c.n


def _macro_f1(c: _Counts, classes: Sequence[str]) -> float:
    # Summed in sorted class order so the float result does not depend on
    # the order labels first occur in.
    total = 0.0
    for k in classes:
        tp = c.agree[k]
        n_pred = c.pred[k]
        n_gold = c.gold[k]
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_gold if n_gold else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return total / len(classes)


def _kappa(c: _Counts) -> float:
    n = c.n
    matches = sum(c.agree.values())
    # Integer arithmetic for the chance term keeps the degenerate test exact.
    expected_num = sum(m * c.pred[k] for k, m in c.gold.items())
    if expected_num == n * n:
        return 1.0 if matches == n else 0.0
    p_o = matches / n
    p_e = expected_num / (n * n)
    return (p_o - p_e) / (1.0 - p_e)


def _classes(c: _Counts) -> list[str]:
    return sorted(c.gold.keys() | c.pred.keys())


def accuracy(gold: Sequence[str], pred: Sequence[str]) -> float:
    """Fraction of positions where the labels match exactly."""
    return _accuracy(_count(gold, pred))


def macro_f1(gold: Sequence[str], pred: Sequence[str]) -> float:
    """Unweighted mean of per-class F1.

    The class space is the union of labels observed in either sequence.
    Precision and recall with empty denominators are taken as 0, and a class
    with precision + recall = 0 contributes F1 = 0.
    """
    c = _count(gold, pred)
    return _macro_f1(c, _classes(c))


def cohens_kappa(gold: Sequence[str], pred: Sequence[str]) -> float:
    """Cohen's kappa with chance agreement from the two marginal distributions.

    Degenerate case: when expected agreement is exactly 1 (both raters stuck
    on one identical class), kappa is 1 if observed agreement is perfect and 0
    otherwise.
    """
    return _kappa(_count(gold, pred))


@dataclass(frozen=True)
class MetricReport:
    """Scores for one conversation."""

    accuracy: float
    macro_f1: float
    kappa: float
    n: int
    n_classes: int


def score(gold: Sequence[str], pred: Sequence[str]) -> MetricReport:
    """All three metrics for one gold/prediction pair, from one counting pass."""
    c = _count(gold, pred)
    classes = _classes(c)
    return MetricReport(
        accuracy=_accuracy(c),
        macro_f1=_macro_f1(c, classes),
        kappa=_kappa(c),
        n=c.n,
        n_classes=len(classes),
    )


@dataclass(frozen=True)
class MetricSummary:
    """Mean and sample standard deviation of one metric across conversations."""

    mean: float
    std: float
    values: tuple[float, ...]


@dataclass(frozen=True)
class AggregateReport:
    accuracy: MetricSummary
    macro_f1: MetricSummary
    kappa: MetricSummary
    n_conversations: int


def _summarize(values: Sequence[float]) -> MetricSummary:
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = var**0.5
    else:
        std = 0.0
    return MetricSummary(mean=mean, std=std, values=tuple(values))


def aggregate(reports: Sequence[MetricReport]) -> AggregateReport:
    """Mean and sample std (n - 1 denominator) per metric; std is 0 for a single report."""
    if not reports:
        raise EmptyInput("aggregate needs at least one report")
    return AggregateReport(
        accuracy=_summarize([r.accuracy for r in reports]),
        macro_f1=_summarize([r.macro_f1 for r in reports]),
        kappa=_summarize([r.kappa for r in reports]),
        n_conversations=len(reports),
    )


def subcategory_slices(
    gold: Sequence[str],
    pred: Sequence[str],
    subcat: Mapping[int, str],
    tags: Iterable[str],
) -> dict[str, MetricReport]:
    """Score, for each of ``tags``, only the positions whose gold subcategory is that tag.

    Position p (0-based) corresponds to utterance index p + 1 in the subcat
    map. Positions are grouped in one pass; tags that never occur are left out
    of the result.
    """
    _check_lengths(gold, pred)
    keep: dict[str, list[int]] = {tag: [] for tag in tags}
    for i in range(len(gold)):
        positions = keep.get(subcat.get(i + 1))
        if positions is not None:
            positions.append(i)
    return {
        tag: score([gold[i] for i in positions], [pred[i] for i in positions])
        for tag, positions in keep.items()
        if positions
    }


PRESENT = "present"
ABSENT = "absent"


def binary_code_metrics(
    gold_codes: Sequence[CodeSet],
    pred_codes: Sequence["CodeSet | None"],
    code: str,
) -> MetricReport:
    """Reduce code sets to present/absent for one letter and score that.

    A None prediction stands for a failed parse and keeps its own class, so it
    disagrees with any gold value.
    """
    if len(gold_codes) != len(pred_codes):
        raise LengthMismatch(len(gold_codes), len(pred_codes))
    gold = [PRESENT if code in cs else ABSENT for cs in gold_codes]
    pred = [
        PARSE_ERROR_LABEL if cs is None else (PRESENT if code in cs else ABSENT)
        for cs in pred_codes
    ]
    return score(gold, pred)
