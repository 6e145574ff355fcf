"""Chance-corrected agreement scores over categorical label sequences.

Labels are plain strings: canonical thread labels (``"24"``, ``"-"``,
``"(24,-)"``), canonical code sets (``"E"``, ``"AC"``, ``""``), or the
parse-failure marker. Scores are computed per conversation and then averaged;
:func:`aggregate` reports mean and sample standard deviation across
conversations.

Macro-F1 sums per-class F1 in sorted class order, but only over the classes
that gold and prediction agree on at least once. Every other class has F1
exactly 0.0, and adding 0.0 to a non-negative sum leaves it unchanged, so the
result is the same float as a sum over the whole class space; the mean still
divides by the whole class space.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, itemgetter, mul
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


def _check_lengths(gold: Sequence[str], pred: Sequence[str]) -> None:
    if len(gold) != len(pred):
        raise LengthMismatch(len(gold), len(pred))
    if not gold:
        raise EmptyInput("label sequences must be non-empty")


@dataclass(frozen=True)
class MetricReport:
    """Scores for one conversation."""

    accuracy: float
    macro_f1: float
    kappa: float
    n: int
    n_classes: int


def score(gold: Sequence[str], pred: Sequence[str]) -> MetricReport:
    """Accuracy, macro-F1 and Cohen's kappa for one gold/prediction pair, from one
    counting pass.

    The class space is the union of labels in either sequence. Macro-F1 is the
    unweighted mean of per-class F1; precision and recall with empty
    denominators are taken as 0, and a class with precision + recall = 0 has
    F1 = 0. Kappa takes chance agreement from the two marginal distributions;
    when that is exactly 1 (both raters stuck on one identical class), kappa is
    1 if observed agreement is perfect and 0 otherwise.
    """
    _check_lengths(gold, pred)
    n = len(gold)
    gold_n, pred_n = Counter(gold), Counter(pred)
    # class -> number of positions where gold and prediction both carry it
    agree = Counter(compress(gold, map(eq, gold, pred)))
    n_classes = len(gold_n.keys() | pred_n.keys())
    # Summed in sorted class order so the float result does not depend on the
    # order labels first occur in; see the module docstring for the classes skipped.
    f1_sum = 0.0
    for k in sorted(agree):
        tp = agree[k]
        precision = tp / pred_n[k]
        recall = tp / gold_n[k]
        f1_sum += 2 * precision * recall / (precision + recall)
    matches = sum(agree.values())
    # Integer arithmetic for the chance term keeps the degenerate test exact.
    expected_num = sum(map(mul, gold_n.values(), map(pred_n.get, gold_n, repeat(0))))
    if expected_num == n * n:
        kappa = 1.0 if matches == n else 0.0
    else:
        p_o, p_e = matches / n, expected_num / (n * n)
        kappa = (p_o - p_e) / (1.0 - p_e)
    return MetricReport(
        accuracy=matches / n, macro_f1=f1_sum / n_classes, kappa=kappa, n=n, n_classes=n_classes
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
    map; indices outside 1..len(gold) are ignored. Positions are grouped in one
    pass over the map; tags that never occur are left out of the result.
    """
    _check_lengths(gold, pred)
    n = len(gold)
    keep: dict[str, list[int]] = {tag: [] for tag in tags}
    for index, tag in subcat.items():
        positions = keep.get(tag)
        if positions is not None and 0 < index <= n:
            positions.append(index - 1)
    slices = {}
    for tag, positions in keep.items():
        if positions:
            take = itemgetter(*positions)
            g, p = take(gold), take(pred)
            # itemgetter of one position returns the item, not a 1-tuple
            slices[tag] = score(g, p) if len(positions) > 1 else score((g,), (p,))
    return slices


PRESENT = "present"
ABSENT = "absent"


def presence(code: str, code_sets: Iterable["CodeSet | None"]) -> list[str]:
    """Each code set reduced to whether it holds the letter ``code``.

    A None code set stands for a failed parse and keeps its own class, so it
    disagrees with any gold value.
    """
    return [
        PARSE_ERROR_LABEL if cs is None else PRESENT if code in cs.letters else ABSENT
        for cs in code_sets
    ]
