import json

import pytest
from hypothesis import given, strategies as st

from threadlab.corpus import (
    DEFAULT_BACKCHANNEL_LEXICON,
    NEW_THREAD,
    BadThreadSyntax,
    CodeSet,
    DuplicateIndex,
    ForwardLink,
    GoldAnnotations,
    LineRef,
    MalformedRecord,
    NonMonotonicTimestamp,
    ThreadLabel,
    Transcript,
    UnknownCode,
    Utterance,
    corpus_stats,
    format_timestamp,
    is_backchannel,
    parse_gold,
    parse_respond_line,
    parse_timestamp,
    parse_transcript,
    serialize_gold,
    serialize_transcript,
    thread_stats,
    validate_thread_graph,
)

from conftest import FIXTURES


# --- labels ----------------------------------------------------------------


def test_respond_line_forms():
    assert parse_respond_line("-").is_new_thread_only
    assert parse_respond_line("24").line_refs == (LineRef(24),)
    split = parse_respond_line("(24, -)")
    assert split.is_split
    assert split.targets == (LineRef(24), NEW_THREAD)
    two = parse_respond_line("(3, 9)")
    assert two.line_refs == (LineRef(3), LineRef(9))


def test_respond_line_surface_preserves_source_order():
    assert parse_respond_line("(9, 3)").surface() == "(9, 3)"
    assert parse_respond_line("(-, 24)").surface() == "(-, 24)"
    assert parse_respond_line("( 24 ,- )").surface() == "(24, -)"


def test_respond_line_canonical_sorts_and_strips_space():
    assert parse_respond_line("(9, 3)").canonical() == "(3,9)"
    assert parse_respond_line("(-, 24)").canonical() == "(24,-)"
    assert parse_respond_line("24").canonical() == "24"
    assert parse_respond_line("-").canonical() == "-"


@pytest.mark.parametrize("raw", ["", "()", "(1, 2, 3)", "(-, -)", "(1, 1)", "x", "1.5", "(1,)"])
def test_respond_line_rejects_bad_syntax(raw):
    with pytest.raises(ValueError):
        parse_respond_line(raw)


def test_thread_label_constraints():
    with pytest.raises(ValueError):
        ThreadLabel(targets=())
    with pytest.raises(ValueError):
        ThreadLabel(targets=(NEW_THREAD, NEW_THREAD))
    with pytest.raises(ValueError):
        ThreadLabel(targets=(LineRef(3), LineRef(3)))


def test_codeset_forms():
    assert CodeSet.from_string("[A, C]").canonical() == "AC"
    assert CodeSet.from_string("[]").canonical() == ""
    assert CodeSet.from_string("[C, A]").to_string() == "[A, C]"
    assert CodeSet.of("E").to_string() == "[E]"
    assert "E" in CodeSet.of("E")
    assert not CodeSet.from_string("[]")
    with pytest.raises(ValueError):
        CodeSet.from_string("[A, X]")


# --- timestamps ------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,ms",
    [("00:00:05", 5000), ("01:02:03", 3723000), ("02:15", 135000), (42000, 42000), ("90:00:00", 324000000)],
)
def test_parse_timestamp(raw, ms):
    assert parse_timestamp(raw) == ms


@pytest.mark.parametrize("raw", ["1:2:3:4", "00:61:00", "00:00:61", "abc", -5, True, None, 3.5])
def test_parse_timestamp_rejects(raw):
    with pytest.raises((ValueError, TypeError)):
        parse_timestamp(raw)


def test_format_timestamp_round_trip():
    assert format_timestamp(3723000) == "01:02:03"
    assert parse_timestamp(format_timestamp(5000)) == 5000


# --- transcript parsing ----------------------------------------------------


def _mk_jsonl(rows):
    return "\n".join(json.dumps(r) for r in rows) + "\n"


def test_parse_transcript_renumbers_in_order():
    src = _mk_jsonl(
        [
            {"index": 10, "timestamp": "00:00:01", "speaker": "A", "text": "one"},
            {"index": 20, "timestamp": "00:00:02", "speaker": "B", "text": "two"},
        ]
    )
    t = parse_transcript(src, "x")
    assert [u.index for u in t.utterances] == [1, 2]
    assert t[2].speaker == "B"


def test_parse_transcript_duplicate_index():
    src = _mk_jsonl(
        [
            {"index": 1, "timestamp": "00:00:01", "speaker": "A", "text": "one"},
            {"index": 1, "timestamp": "00:00:02", "speaker": "B", "text": "two"},
        ]
    )
    with pytest.raises(DuplicateIndex):
        parse_transcript(src)


def test_parse_transcript_nonmonotonic_timestamp():
    src = _mk_jsonl(
        [
            {"index": 1, "timestamp": "00:00:05", "speaker": "A", "text": "one"},
            {"index": 2, "timestamp": "00:00:01", "speaker": "B", "text": "two"},
        ]
    )
    with pytest.raises(NonMonotonicTimestamp) as exc:
        parse_transcript(src)
    assert exc.value.index == 2


def test_parse_transcript_missing_field():
    with pytest.raises(MalformedRecord):
        parse_transcript('{"index": 1, "timestamp": "00:00:01", "speaker": "A"}')


def test_parse_transcript_bad_json_line_number():
    with pytest.raises(MalformedRecord) as exc:
        parse_transcript('{"index": 1, "timestamp": "00:00:01", "speaker": "A", "text": "x"}\n{nope')
    assert exc.value.line_no == 2


@pytest.mark.parametrize("field", ["speaker", "text"])
def test_parse_transcript_rejects_lone_surrogates(field):
    # JSON may escape half a surrogate pair; such text cannot be sent as UTF-8
    good = {"index": 1, "timestamp": "00:00:01", "speaker": "A", "text": "fine"}
    bad = {"index": 2, "timestamp": "00:00:02", "speaker": "B", "text": "ok"}
    bad[field] = "half an emoji \ud83d here"
    src = json.dumps(good) + "\n" + json.dumps(bad) + "\n"
    assert "\\ud83d" in src
    with pytest.raises(MalformedRecord) as exc:
        parse_transcript(src)
    assert exc.value.line_no == 2
    assert field in exc.value.reason


def test_transcript_round_trip_jsonl(bundled):
    t, _ = bundled["ws01"]
    again = parse_transcript(serialize_transcript(t), t.id, t.scenario)
    assert again == t


def test_transcript_round_trip_csv(bundled):
    t, _ = bundled["cs01"]
    again = parse_transcript(serialize_transcript(t, fmt="csv"), t.id, t.scenario, fmt="csv")
    assert again == t


def test_gold_round_trip_both_formats(bundled):
    _, g = bundled["ws02"]
    assert parse_gold(serialize_gold(g), g.transcript_id) == g
    assert parse_gold(serialize_gold(g, fmt="csv"), g.transcript_id, fmt="csv") == g


def test_parse_gold_errors():
    with pytest.raises(BadThreadSyntax):
        parse_gold('{"index": 2, "respond_line": "x"}')
    with pytest.raises(ForwardLink):
        parse_gold('{"index": 2, "respond_line": "5"}')
    with pytest.raises(UnknownCode) as exc:
        parse_gold('{"index": 1, "respond_line": "-", "abcde": "[A, Z]"}')
    assert exc.value.code == "Z"
    with pytest.raises(MalformedRecord):
        parse_gold('{"index": 1, "respond_line": "-", "subcat": "XY"}')


# --- validation ------------------------------------------------------------


def test_is_backchannel():
    assert is_backchannel("Yeah.")
    assert is_backchannel("uh-huh")
    assert is_backchannel("OK, sure!")
    assert not is_backchannel("Yeah, that makes sense to me.")
    assert not is_backchannel("The yeah vote won.")
    assert "yeah" in DEFAULT_BACKCHANNEL_LEXICON


def _tiny(texts, labels):
    utts = tuple(
        Utterance(i, (i - 1) * 1000, "S", txt) for i, txt in enumerate(texts, start=1)
    )
    t = Transcript("tiny", utts)
    g = GoldAnnotations("tiny", {i: parse_respond_line(lbl) for i, lbl in enumerate(labels, 1)}, {}, {})
    return t, g


def test_validate_flags_missing_and_dangling():
    t, g = _tiny(["a", "b"], ["-", "1"])
    del g.thread[2]
    rep = validate_thread_graph(t, g)
    assert any(i.kind == "MissingLabel" and i.index == 2 for i in rep.errors)

    t2, g2 = _tiny(["a", "b", "c"], ["-", "1", "2"])
    g2.thread[3] = ThreadLabel.link(2)
    g2.thread[2] = ThreadLabel.link(1)
    big = GoldAnnotations("tiny", dict(g2.thread), {}, {})
    # a reference past the end of the transcript is dangling, not forward
    t_short, _ = _tiny(["a", "b"], ["-", "1"])
    rep2 = validate_thread_graph(t_short, big)
    assert any(i.kind == "DanglingRef" for i in rep2.errors)


def test_validate_lints_backchannel_and_long_gap():
    texts = ["question?", "Yeah."] + [f"filler {i}" for i in range(3, 18)]
    labels = ["-", "1"] + ["2"] + [str(i - 1) for i in range(4, 18)]
    t, g = _tiny(texts, labels)
    rep = validate_thread_graph(t, g)
    kinds = {i.kind for i in rep.lints}
    assert "BackchannelLinked" in kinds  # line 3 links to the bare "Yeah."
    assert rep.ok  # lints are not errors

    t2, g2 = _tiny(["a"] + [f"x {i}" for i in range(2, 17)], ["-"] + ["-"] * 14 + ["1"])
    rep2 = validate_thread_graph(t2, g2)
    assert any(i.kind == "LongGap" and i.index == 16 for i in rep2.lints)


def test_bundled_corpus_is_clean(bundled):
    for tid, (t, g) in bundled.items():
        rep = validate_thread_graph(t, g)
        assert rep.ok and not rep.lints, f"{tid}: {rep.errors + rep.lints}"


# --- statistics ------------------------------------------------------------


def test_thread_stats_counts_links_not_rows():
    t, g = _tiny(["a", "b", "c", "d"], ["-", "1", "(2, -)", "(1, 3)"])
    st = thread_stats(t, g)
    assert st.n_utterances == 4
    assert st.n_no_thread == 1
    assert st.n_links == 4  # 1 + 1 from the dash split + 2 from the pair
    assert st.min_gap == 1 and st.max_gap == 3
    assert st.raw_row_min_gap == 0  # the (2, -) row
    assert st.mean_gap == pytest.approx((1 + 1 + 3 + 1) / 4)


def test_thread_stats_no_links():
    t, g = _tiny(["a", "b"], ["-", "-"])
    st = thread_stats(t, g)
    assert st.n_links == 0
    assert st.mean_gap is None and st.min_gap is None and st.raw_row_min_gap is None


def test_corpus_stats_matches_frozen_fixture(bundled):
    frozen = json.loads((FIXTURES / "corpus_stats.json").read_text())
    assert corpus_stats(list(bundled.values())) == frozen["corpus"]


def test_thread_stats_matches_frozen_fixture(bundled):
    frozen = json.loads((FIXTURES / "corpus_stats.json").read_text())
    for tid, (t, g) in bundled.items():
        st = thread_stats(t, g)
        want = frozen["per_transcript"][tid]
        assert {k: getattr(st, k) for k in want} == want, tid


# --- properties ------------------------------------------------------------

label_strategy = st.one_of(
    st.just("-"),
    st.integers(1, 400).map(str),
    st.integers(1, 400).map(lambda i: f"({i}, -)"),
    st.integers(1, 400).map(lambda i: f"(-, {i})"),
    st.tuples(st.integers(1, 400), st.integers(1, 400))
    .filter(lambda ab: ab[0] != ab[1])
    .map(lambda ab: f"({ab[0]}, {ab[1]})"),
)


@given(label_strategy)
def test_label_surface_round_trip(raw):
    label = parse_respond_line(raw)
    assert parse_respond_line(label.surface()) == label
    # canonical is stable under reparsing too
    assert parse_respond_line(label.canonical()).canonical() == label.canonical()


@given(st.sets(st.sampled_from("ABCDE")))
def test_codeset_round_trip(letters):
    cs = CodeSet(frozenset(letters))
    assert CodeSet.from_string(cs.to_string()) == cs
    assert CodeSet.from_string(f"[{', '.join(sorted(letters))}]") == cs
