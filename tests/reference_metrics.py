"""Brute-force metric reference used to cross-check the package.

Everything here goes through an explicit confusion matrix and exact rational
arithmetic, converted to float only at the end. Slower and dumber than the
package implementation on purpose; the two must agree to near machine
precision on random inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from threadlab.metrics import EmptyCategory, MetricReport, score


def confusion(gold: Sequence[str], pred: Sequence[str]) -> dict[tuple[str, str], int]:
    m: dict[tuple[str, str], int] = {}
    for g, p in zip(gold, pred):
        m[(g, p)] = m.get((g, p), 0) + 1
    return m


def ref_accuracy(gold: Sequence[str], pred: Sequence[str]) -> float:
    m = confusion(gold, pred)
    agree = sum(v for (g, p), v in m.items() if g == p)
    return float(Fraction(agree, len(gold)))


def ref_macro_f1(gold: Sequence[str], pred: Sequence[str]) -> float:
    m = confusion(gold, pred)
    classes = sorted(set(gold) | set(pred))
    f1s = []
    for c in classes:
        tp = m.get((c, c), 0)
        gold_c = sum(v for (g, _), v in m.items() if g == c)
        pred_c = sum(v for (_, p), v in m.items() if p == c)
        prec = Fraction(tp, pred_c) if pred_c else Fraction(0)
        rec = Fraction(tp, gold_c) if gold_c else Fraction(0)
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else Fraction(0))
    return float(sum(f1s) / len(f1s))


def ref_kappa(gold: Sequence[str], pred: Sequence[str]) -> float:
    n = len(gold)
    m = confusion(gold, pred)
    p_o = Fraction(sum(v for (g, p), v in m.items() if g == p), n)
    classes = set(gold) | set(pred)
    p_e = Fraction(0)
    for c in classes:
        gold_c = sum(v for (g, _), v in m.items() if g == c)
        pred_c = sum(v for (_, p), v in m.items() if p == c)
        p_e += Fraction(gold_c, n) * Fraction(pred_c, n)
    if p_e == 1:
        return 1.0 if p_o == 1 else 0.0
    return float((p_o - p_e) / (1 - p_e))


def rescan_macro_f1(gold: Sequence[str], pred: Sequence[str]) -> float:
    """The package's earlier macro-F1: three scans of both sequences per class.

    Same float expression and summation order as the counting implementation,
    so the two must agree exactly, not just to a tolerance.
    """
    classes = sorted(set(gold) | set(pred))
    total = 0.0
    for c in classes:
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        n_pred = sum(1 for p in pred if p == c)
        n_gold = sum(1 for g in gold if g == c)
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_gold if n_gold else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return total / len(classes)


def ref_subcategory_slice(
    gold: Sequence[str], pred: Sequence[str], subcat: Mapping[int, str], tag: str
) -> MetricReport:
    """Score the positions whose gold subcategory is ``tag``, one tag at a time.

    Position p (0-based) is utterance index p + 1 in ``subcat``. Raises
    EmptyCategory when the tag never occurs.
    """
    positions = [p for p in range(len(gold)) if subcat.get(p + 1) == tag]
    if not positions:
        raise EmptyCategory(tag)
    return score([gold[p] for p in positions], [pred[p] for p in positions])
