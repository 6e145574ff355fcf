import random

import pytest
from hypothesis import given, settings, strategies as st

from threadlab.corpus import SUBCATEGORY_TAGS, CodeSet
from threadlab.metrics import (
    ABSENT,
    PARSE_ERROR_LABEL,
    PRESENT,
    EmptyInput,
    LengthMismatch,
    aggregate,
    presence,
    score,
    subcategory_slices,
)

from reference_metrics import (
    EmptyCategory, ref_accuracy, ref_kappa, ref_macro_f1, ref_subcategory_slice, rescan_macro_f1
)


# --- hand-checked values ---------------------------------------------------


def test_alternating_pairs_kappa_zero():
    gold = ["A", "A", "B", "B"]
    pred = ["A", "B", "A", "B"]
    assert score(gold, pred).accuracy == 0.5
    assert score(gold, pred).macro_f1 == 0.5
    assert score(gold, pred).kappa == 0.0


def test_identical_sequences_kappa_one():
    gold = ["A", "B", "A", "C"]
    assert score(gold, list(gold)).kappa == 1.0
    assert score(gold, list(gold)).accuracy == 1.0
    assert score(gold, list(gold)).macro_f1 == 1.0


def test_degenerate_single_class():
    # both raters stuck on one class: chance agreement is exactly 1
    assert score(["A", "A"], ["A", "A"]).kappa == 1.0
    assert score(["A", "A"], ["A", "B"]).kappa == 0.0


def test_disjoint_label_sets():
    assert score(["A", "A"], ["B", "B"]).kappa == 0.0
    assert score(["A", "A"], ["B", "B"]).accuracy == 0.0


def test_macro_f1_counts_missed_class():
    gold = ["E", "-", "E"]
    pred = ["E", "E", "E"]
    # E: precision 2/3, recall 1, F1 0.8; "-": all zero -> macro 0.4
    assert score(gold, pred).macro_f1 == pytest.approx(0.4)
    assert score(gold, pred).accuracy == pytest.approx(2 / 3)


def test_parse_error_label_is_a_real_class():
    gold = ["1", "2", "-"]
    pred = ["1", PARSE_ERROR_LABEL, "-"]
    rep = score(gold, pred)
    assert rep.accuracy == pytest.approx(2 / 3)
    assert rep.n_classes == 4
    assert rep.kappa == pytest.approx(ref_kappa(gold, pred))


def test_input_checks():
    with pytest.raises(LengthMismatch):
        score(["A"], ["A", "B"]).accuracy
    with pytest.raises(EmptyInput):
        score([], []).kappa


# --- aggregation -----------------------------------------------------------


def test_aggregate_mean_and_sample_std():
    reps = [score(["A", "B"], ["A", "B"]), score(["A", "B", "C", "D", "E"], ["A", "B", "C", "D", "A"])]
    agg = aggregate(reps)
    assert agg.accuracy.values == (1.0, 0.8)
    assert agg.accuracy.mean == pytest.approx(0.9)
    # sample std with ddof=1: sqrt(((1-.9)^2 + (.8-.9)^2) / 1)
    assert agg.accuracy.std == pytest.approx(0.02**0.5)
    assert agg.n_conversations == 2


def test_aggregate_single_report_std_zero():
    agg = aggregate([score(["A", "B"], ["A", "A"])])
    assert agg.kappa.std == 0.0


def test_aggregate_empty():
    with pytest.raises(EmptyInput):
        aggregate([])


# --- slices ----------------------------------------------------------------


def test_subcategory_slice_position_mapping():
    gold = ["-", "1", "2", "-"]
    pred = ["-", "1", "-", "-"]
    subcat = {2: "AP", 3: "AP", 4: "TT"}
    rep = ref_subcategory_slice(gold, pred, subcat, "AP")
    assert rep.n == 2
    assert rep.accuracy == 0.5
    assert ref_subcategory_slice(gold, pred, subcat, "TT").n == 1
    assert ref_subcategory_slice(gold, pred, {3: "E"}, "E").accuracy == 0.0
    with pytest.raises(EmptyCategory):
        ref_subcategory_slice(gold, pred, subcat, "BC")


# --- binary code reduction -------------------------------------------------


def test_binary_code_metrics_reduction():
    gold = [CodeSet.of("E"), CodeSet.of("A"), CodeSet.of("A", "E"), CodeSet.of()]
    pred = [CodeSet.of("E"), CodeSet.of("E"), None, CodeSet.of()]
    rep = score(presence("E", gold), presence("E", pred))
    # gold -> P A P A ; pred -> P P ⟂ A
    assert rep.accuracy == 0.5
    assert rep.n_classes == 3
    got = score(
        [PRESENT, ABSENT, PRESENT, ABSENT],
        [PRESENT, PRESENT, PARSE_ERROR_LABEL, ABSENT],
    )
    assert rep == got


def test_binary_code_metrics_length_check():
    with pytest.raises(LengthMismatch):
        score(presence("E", [CodeSet.of("E")]), presence("E", []))


# --- brute-force reference cross-check -------------------------------------


def _random_instance(rng):
    n = rng.randint(1, 20)
    k = rng.randint(1, 5)
    alphabet = ["A", "B", "C", "D", "⟂"][:k]
    gold = [rng.choice(alphabet) for _ in range(n)]
    pred = [rng.choice(alphabet) for _ in range(n)]
    return gold, pred


def test_against_reference_randomized():
    rng = random.Random(7)
    for _ in range(300):
        gold, pred = _random_instance(rng)
        report = score(gold, pred)
        assert report.accuracy == pytest.approx(ref_accuracy(gold, pred), abs=1e-12)
        assert report.macro_f1 == pytest.approx(ref_macro_f1(gold, pred), abs=1e-12)
        assert report.kappa == pytest.approx(ref_kappa(gold, pred), abs=1e-12)
        assert report.macro_f1 == rescan_macro_f1(gold, pred)
        assert (report.n, report.n_classes) == (len(gold), len(set(gold) | set(pred)))


def _thread_like_instance(rng, n):
    """Thread labels of an n-line transcript: mostly distinct earlier line numbers."""

    def label(i):
        r = rng.random()
        if r < 0.15:
            return "-"
        if r < 0.22:
            return f"({rng.randint(1, i)},{rng.choice(['-', str(rng.randint(1, i))])})"
        if r < 0.27:
            return PARSE_ERROR_LABEL
        return str(rng.randint(1, i))

    gold = [label(i) for i in range(1, n + 1)]
    pred = [g if rng.random() < 0.6 and g != PARSE_ERROR_LABEL else label(i)
            for i, g in enumerate(gold, start=1)]
    return gold, pred


@pytest.mark.parametrize("n", [150, 400, 700])
def test_many_thread_label_classes_against_reference(n):
    gold, pred = _thread_like_instance(random.Random(n), n)
    rep = score(gold, pred)
    assert rep.n_classes > n // 3
    assert rep.macro_f1 == pytest.approx(ref_macro_f1(gold, pred), abs=1e-12)
    assert rep.macro_f1 == rescan_macro_f1(gold, pred)
    assert rep.accuracy == pytest.approx(ref_accuracy(gold, pred), abs=1e-12)
    assert rep.kappa == pytest.approx(ref_kappa(gold, pred), abs=1e-12)


@pytest.mark.parametrize("n", [150, 400, 700])
def test_subcategory_slices_against_one_tag_at_a_time(n):
    rng = random.Random(n)
    gold, pred = _thread_like_instance(rng, n)
    tags = sorted(SUBCATEGORY_TAGS)
    # "I" is left out of the map, so its slice is empty; indices outside 1..n are ignored
    subcat = {i: rng.choice(tags[1:]) for i in range(1, n + 1) if rng.random() < 0.4}
    subcat.update({0: "AP", -2: "TT", n + 1: "BC", n + 7: "I"})
    expected = {}
    for tag in tags:
        try:
            expected[tag] = ref_subcategory_slice(gold, pred, subcat, tag)
        except EmptyCategory:
            pass
    assert sorted(expected) == tags[1:]
    assert subcategory_slices(gold, pred, subcat, tags) == expected
    # a tag that occurs once gives a one-label slice
    assert subcategory_slices(gold, pred, {3: "I"}, tags) == {
        "I": ref_subcategory_slice(gold, pred, {3: "I"}, "I")
    }


def test_against_sklearn_when_available():
    sk = pytest.importorskip("sklearn.metrics")
    rng = random.Random(11)
    for _ in range(100):
        gold, pred = _random_instance(rng)
        assert score(gold, pred).accuracy == pytest.approx(sk.accuracy_score(gold, pred))
        labels = sorted(set(gold) | set(pred))
        assert score(gold, pred).macro_f1 == pytest.approx(
            sk.f1_score(gold, pred, labels=labels, average="macro", zero_division=0)
        )
        # sklearn returns nan for the degenerate chance==1 case; skip those
        if len(set(gold)) > 1 or len(set(pred)) > 1:
            assert score(gold, pred).kappa == pytest.approx(sk.cohen_kappa_score(gold, pred))


# --- properties ------------------------------------------------------------

pair_lists = st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from("ABC⟂"), min_size=n, max_size=n),
        st.lists(st.sampled_from("ABC⟂"), min_size=n, max_size=n),
    )
)


@given(pair_lists)
def test_metric_bounds(pair):
    gold, pred = pair
    assert 0.0 <= score(gold, pred).accuracy <= 1.0
    assert 0.0 <= score(gold, pred).macro_f1 <= 1.0
    assert score(gold, pred).kappa <= 1.0


@given(pair_lists, st.randoms(use_true_random=False))
@settings(max_examples=50)
def test_joint_permutation_invariance(pair, rng):
    gold, pred = pair
    order = list(range(len(gold)))
    rng.shuffle(order)
    g2 = [gold[i] for i in order]
    p2 = [pred[i] for i in order]
    assert score(g2, p2).accuracy == pytest.approx(score(gold, pred).accuracy)
    assert score(g2, p2).macro_f1 == pytest.approx(score(gold, pred).macro_f1)
    assert score(g2, p2).kappa == pytest.approx(score(gold, pred).kappa)


@given(pair_lists)
@settings(max_examples=50)
def test_bijective_relabeling_invariance(pair):
    gold, pred = pair
    rename = {"A": "X", "B": "Y", "C": "Z", "⟂": "W"}
    g2 = [rename[g] for g in gold]
    p2 = [rename[p] for p in pred]
    assert score(g2, p2).accuracy == pytest.approx(score(gold, pred).accuracy)
    assert score(g2, p2).macro_f1 == pytest.approx(score(gold, pred).macro_f1)
    assert score(g2, p2).kappa == pytest.approx(score(gold, pred).kappa)
