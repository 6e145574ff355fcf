import json
import re

import pytest
from hypothesis import given, strategies as st

from threadlab.corpus import (
    DEFAULT_BACKCHANNEL_LEXICON,
    NEW_THREAD,
    CodeSet,
    GoldAnnotations,
    LineRef,
    MalformedRecord,
    ThreadLabel,
    Transcript,
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

from threadlab.schema import as_fields

from conftest import FIXTURES

README = FIXTURES.parent.parent / "README.md"


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


@pytest.mark.parametrize("raw, surface, canonical", [
    ("-", "-", "-"), ("24", "24", "24"), (" 24 ", "24", "24"), ("(24, -)", "(24, -)", "(24,-)"),
    ("(-, 24)", "(-, 24)", "(24,-)"), ("(9, 3)", "(9, 3)", "(3,9)"), ("(3,9)", "(3, 9)", "(3,9)"),
])
def test_interned_labels_render_as_fresh_ones(raw, surface, canonical):
    # A repeated string returns the one interned label, which renders, compares,
    # hashes and prints like a label built from scratch.
    label = parse_respond_line(raw)
    assert parse_respond_line(raw) is label
    for _ in range(2):  # the first call computes each rendering, the second reads it back
        assert (label.surface(), label.canonical()) == (surface, canonical)
    fresh = ThreadLabel(label.targets)
    assert label == fresh and hash(label) == hash(fresh) and repr(label) == repr(fresh)
    assert (fresh.surface(), fresh.canonical()) == (surface, canonical)
    assert as_fields(label) == as_fields(fresh) == {"targets": label.targets}
    assert label.normalized().canonical() == canonical


@pytest.mark.parametrize("raw", ["(-, -)", "x", ""])
def test_a_bad_label_raises_on_every_call(raw):
    for _ in range(3):
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


@pytest.mark.parametrize("first, second", [(1, 1), (2, "2"), ("2", 2), (2.0, 2)])
def test_parse_transcript_duplicate_index(first, second):
    src = _mk_jsonl(
        [
            {"index": first, "timestamp": "00:00:01", "speaker": "A", "text": "one",
             "respond_line": "-"},
            {"index": second, "timestamp": "00:00:02", "speaker": "B", "text": "two",
             "respond_line": "-"},
        ]
    )
    for parse in (parse_transcript, parse_gold):
        with pytest.raises(MalformedRecord) as exc:
            parse(src)
        assert (exc.value.line_no, exc.value.reason) == (2, f"duplicate index {int(first)}")


def test_parse_transcript_nonmonotonic_timestamp():
    src = _mk_jsonl(
        [
            {"index": 1, "timestamp": "00:00:05", "speaker": "A", "text": "one"},
            {"index": 2, "timestamp": "00:00:01", "speaker": "B", "text": "two"},
        ]
    )
    with pytest.raises(MalformedRecord) as exc:
        parse_transcript(src)
    assert (exc.value.line_no, exc.value.reason) == (2, "timestamp decreases")


def test_a_record_fault_raises_before_an_earlier_decreasing_timestamp():
    src = _mk_jsonl(
        [
            {"index": 1, "timestamp": "00:00:05", "speaker": "A", "text": "one"},
            {"index": 2, "timestamp": "00:00:01", "speaker": "B", "text": "two"},
            {"index": 3, "timestamp": "00:00:06", "speaker": "", "text": "three"},
        ]
    )
    with pytest.raises(MalformedRecord) as exc:
        parse_transcript(src)
    assert (exc.value.line_no, exc.value.reason) == (3, "empty speaker")


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


@pytest.mark.parametrize("field", ["speaker", "text"])
def test_parse_transcript_rejects_a_null_speaker_or_text(field):
    rows = [{"index": 1, "timestamp": "00:00:01", "speaker": "A", "text": "one"},
            {"index": 2, "timestamp": "00:00:02", "speaker": "B", "text": "two"}]
    rows[1][field] = None
    with pytest.raises(MalformedRecord) as exc:
        parse_transcript(_mk_jsonl(rows))
    assert (exc.value.line_no, exc.value.reason) == (2, f"{field} is null")


@pytest.mark.parametrize("field, value", [
    ("speaker", True), ("speaker", ["A"]), ("text", False), ("text", {"a": [1]}), ("text", []),
])
def test_parse_transcript_rejects_a_speaker_or_text_that_is_not_a_string_or_number(field, value):
    rows = [{"index": 1, "timestamp": "00:00:01", "speaker": "A", "text": "one"},
            {"index": 2, "timestamp": "00:00:02", "speaker": "B", "text": "two"}]
    rows[1][field] = value
    with pytest.raises(MalformedRecord) as exc:
        parse_transcript(_mk_jsonl(rows))
    assert (exc.value.line_no, exc.value.reason) == (
        2, f"{field} is {value!r}, expected a string or number"
    )


def test_parse_transcript_reads_number_speaker_and_text_as_their_json_text():
    t = parse_transcript(_mk_jsonl([{"index": 1, "timestamp": 0, "speaker": 7, "text": 2.5}]))
    assert (t[1].speaker, t[1].text) == ("7", "2.5")


@pytest.mark.parametrize("indices, line_no, bad", [
    ([1.7], 1, "1.7"), ([1, 1.7, 1.2], 2, "1.7"), ([True], 1, "True"), ([1, "2.5"], 2, "'2.5'"),
    ([float("inf")], 1, "inf"),
])
def test_an_index_that_is_not_an_integer_is_a_bad_index_on_its_line(indices, line_no, bad):
    rows = [{"index": i, "timestamp": k, "speaker": "A", "text": "x"} for k, i in enumerate(indices)]
    for parse in (parse_transcript, parse_gold):
        with pytest.raises(MalformedRecord) as exc:
            parse(_mk_jsonl([{**row, "respond_line": "-"} for row in rows]))
        assert (exc.value.line_no, exc.value.reason) == (line_no, f"bad index {bad}")


def test_integral_float_and_string_indices_keep_their_reading():
    rows = [{"index": i, "timestamp": 0, "speaker": "A", "text": "x", "respond_line": "-"}
            for i in (2.0, "3", 1)]
    assert [u.index for u in parse_transcript(_mk_jsonl(rows)).utterances] == [1, 2, 3]
    assert list(parse_gold(_mk_jsonl(rows)).thread) == [2, 3, 1]


@pytest.mark.parametrize("raw, ms", [
    ("00:00:13", 13_000), ("1:02", 62_000), ("99:59:59", 359_999_000), ("00:60:00", None),
    ("\uff10\uff11:02:03", 3_723_000), ("00:00:00", 0), ("24:00:00", 86_400_000),
    ("00:00:60", None), ("\u0660\u0660:\u0660\u0660:\u0660\u0665", 5000), (" 00:00:05", 5000),
    ("00:00:5", None), ("0:00:05", 5000), ("5000", 5000),
])
def test_transcript_timestamps_read_as_parse_timestamp_reads_them(raw, ms):
    src = json.dumps({"index": 1, "timestamp": raw, "speaker": "A", "text": "x"})
    if ms is None:
        with pytest.raises(ValueError) as expected:
            parse_timestamp(raw)
        with pytest.raises(MalformedRecord) as exc:
            parse_transcript(src)
        assert exc.value.reason == str(expected.value)
    else:
        assert parse_timestamp(raw) == ms
        assert parse_transcript(src)[1].timestamp_ms == ms


def test_bytes_that_are_not_utf8_fail_on_their_line():
    src = json.dumps({"index": 1, "timestamp": "00:00:01", "speaker": "A", "text": "hi"})
    with pytest.raises(MalformedRecord) as exc:
        parse_transcript(src.encode() + b"\n\xff\xfe\n")
    assert (exc.value.line_no, exc.value.reason) == (2, "not UTF-8 text")

def test_transcript_round_trip_jsonl(bundled):
    # JSON leaves U+0085, U+2028 and U+2029 unescaped; they end no line
    separators = Transcript("sep", (Utterance(1, 0, "Ana", "a\x85b\u2028c\u2029d"),))
    for t in (bundled["ws01"][0], separators):
        again = parse_transcript(serialize_transcript(t), t.id, t.scenario)
        assert again == t


@pytest.mark.parametrize("indices, position, index", [((2,), 1, 2), ((1, 3), 2, 3), ((2, 1), 1, 2)])
def test_a_transcript_built_in_memory_needs_indices_1_to_n(indices, position, index):
    utts = tuple(Utterance(i, 0, "Ana", "hi") for i in indices)
    with pytest.raises(ValueError) as exc:
        Transcript("mem", utts)
    assert str(exc.value) == f"transcript mem: utterance at position {position} has index {index}"


def test_gold_round_trip_jsonl(bundled):
    _, g = bundled["ws02"]
    assert parse_gold(serialize_gold(g), g.transcript_id) == g


def test_readme_data_format_records_parse():
    section = README.read_text(encoding="utf-8").split("\n## Data format\n")[1].split("\n## ")[0]
    utterance, gold = re.findall(r"```\n(.*?)\n```", section, re.S)
    assert parse_transcript(utterance).utterances == (Utterance(1, 13_000, "Farid", "..."),)
    g = parse_gold(gold)
    assert g.thread[5].surface() == "(4, 1)"
    assert g.codes_at(5) == CodeSet.of("B", "E")
    assert g.subcat == {5: "CI"}


@pytest.mark.parametrize("raw, reason", [
    ("[A, Z]", "codes outside A-E: ['Z']"),
    ("A", "code set must be bracketed, got 'A'"),
    ("[A,, B]", "empty code in '[A,, B]'"),
], ids=["letter-outside-A-E", "unbracketed", "empty-code"])
def test_a_bad_code_set_raises_on_every_load(raw, reason):
    src = _mk_jsonl([{"index": 1, "respond_line": "-", "abcde": "[A, C]"},
                     {"index": 2, "respond_line": "-", "abcde": raw}])
    for _ in range(3):
        with pytest.raises(MalformedRecord) as exc:
            parse_gold(src)
        assert (exc.value.line_no, exc.value.reason) == (2, f"abcde {raw!r}: {reason}")


@pytest.mark.parametrize("key, value, expected", [
    ("abcde", ["A", "C"], 'a bracketed string such as "[A, C]"'),
    ("abcde", 5, 'a bracketed string such as "[A, C]"'),
    ("abcde", True, 'a bracketed string such as "[A, C]"'),
    ("subcat", ["AP"], 'a tag string such as "CI"'),
    ("subcat", {"tag": "AP"}, 'a tag string such as "CI"'),
])
def test_a_gold_code_set_or_subcategory_that_is_not_a_string_is_malformed(key, value, expected):
    src = _mk_jsonl([{"index": 1, "respond_line": "-", "abcde": "[A]", "subcat": "AP"},
                     {"index": 2, "respond_line": "-", key: value}])
    with pytest.raises(MalformedRecord) as exc:
        parse_gold(src)
    assert (exc.value.line_no, exc.value.reason) == (2, f"{key} is {value!r}, expected {expected}")


def test_a_null_or_blank_gold_code_set_or_subcategory_is_none():
    g = parse_gold(_mk_jsonl([{"index": 1, "respond_line": "-", "abcde": None, "subcat": None},
                              {"index": 2, "respond_line": "-", "abcde": " ", "subcat": ""},
                              {"index": 3, "respond_line": "-", "abcde": " [] ", "subcat": " AP"}]))
    assert (g.abcde, g.subcat) == ({3: CodeSet()}, {3: "AP"})


def test_parse_gold_errors():
    for src, reason in [
        ('{"index": 2, "respond_line": "x"}', "respond_line 'x' is not a thread label"),
        ('{"index": 2, "respond_line": "5"}', "respond_line '5' links forward"),
        ('{"index": 1, "respond_line": "-", "abcde": "[A, Z]"}',
         "abcde '[A, Z]': codes outside A-E: ['Z']"),
        ('{"index": 1, "respond_line": "-", "subcat": "XY"}', "unknown subcategory 'XY'"),
    ]:
        with pytest.raises(MalformedRecord) as exc:
            parse_gold(src)
        assert (exc.value.line_no, exc.value.reason) == (1, reason)


_NOT_A_LABEL_STRING = 'expected a thread label string such as "-", "24" or "(24, -)"'


@pytest.mark.parametrize("parse, fault, reason", [
    (parse_transcript, {"index": 1}, "duplicate index 1"),
    (parse_transcript, {"timestamp": "00:00:01"}, "timestamp decreases"),
    (parse_gold, {"index": 1}, "duplicate index 1"),
    (parse_gold, {"respond_line": "x"}, "respond_line 'x' is not a thread label"),
    (parse_gold, {"respond_line": "(-, -)"}, "respond_line '(-, -)' is not a thread label"),
    (parse_gold, {"respond_line": -1}, "respond_line '-1' is not a thread label"),
    (parse_gold, {"respond_line": True}, f"respond_line is True, {_NOT_A_LABEL_STRING}"),
    (parse_gold, {"respond_line": None}, f"respond_line is None, {_NOT_A_LABEL_STRING}"),
    (parse_gold, {"respond_line": 1.0}, f"respond_line is 1.0, {_NOT_A_LABEL_STRING}"),
    (parse_gold, {"respond_line": ["1"]}, f"respond_line is ['1'], {_NOT_A_LABEL_STRING}"),
    (parse_gold, {"respond_line": {"line": 1}},
     f"respond_line is {{'line': 1}}, {_NOT_A_LABEL_STRING}"),
    (parse_gold, {"respond_line": "9"}, "respond_line '9' links forward"),
    (parse_gold, {"respond_line": 2}, "respond_line '2' links forward"),
    (parse_gold, {"respond_line": "(1, 3)"}, "respond_line '(1, 3)' links forward"),
    (parse_gold, {"abcde": "[A, Z]"}, "abcde '[A, Z]': codes outside A-E: ['Z']"),
])
def test_a_record_fault_is_malformed_on_its_file_line(parse, fault, reason):
    # The blank line puts the faulty record on file line 3, at utterance position 2.
    good = {"index": 1, "timestamp": "00:00:05", "speaker": "A", "text": "one", "respond_line": "-"}
    bad = {**good, "index": 2, "timestamp": "00:00:06", "text": "two", **fault}
    with pytest.raises(MalformedRecord) as exc:
        parse(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n")
    assert (exc.value.line_no, exc.value.reason) == (3, reason)


def test_an_integer_respond_line_reads_as_its_text():
    g = parse_gold(_mk_jsonl([{"index": 1, "respond_line": "-"}, {"index": 2, "respond_line": 1}]))
    assert g.thread[2] == ThreadLabel.link(1)


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
