import random

import pytest
from hypothesis import given, strategies as st

from threadlab import outparse
from threadlab.corpus import NEW_THREAD, CodeSet, LineRef, parse_respond_line
from threadlab.outparse import (
    FORWARD_LINK,
    INDEX_MISMATCH,
    NO_MATCH,
    SPEAKER_MISMATCH,
    UNKNOWN_CODE,
    parse_block_response,
    parse_code_response,
    parse_thread_response,
)


# --- thread lines ----------------------------------------------------------


def test_documented_thread_forms():
    out = parse_thread_response("25 Red Morgan [respond line = (24, -)]", 25, "Red Morgan", "strict")
    assert out.ok
    assert out.value.label.targets == (LineRef(24), NEW_THREAD)

    out = parse_thread_response("3 Prerna [respond line = 1]", 3, "Prerna", "strict")
    assert out.ok
    assert out.value.label.line_refs == (LineRef(1),)


@pytest.mark.parametrize("parse", [
    lambda level: parse_thread_response("3 Prerna [respond line = 1]", 3, "Prerna", level),
    lambda level: parse_code_response("3 Prerna [A]", 3, "Prerna", level),
    lambda level: parse_block_response("3 Prerna [A]", [(3, "Prerna")], "code", level),
])
def test_an_unknown_strictness_level_is_refused(parse):
    with pytest.raises(ValueError) as exc:
        parse("bogus")
    assert str(exc.value) == "strictness must be one of ('strict', 'lenient'), got 'bogus'"


def test_thread_forward_link_fails_both_modes():
    for mode in ("strict", "lenient"):
        out = parse_thread_response("3 Prerna [respond line = 7]", 3, "Prerna", mode)
        assert not out.ok
        assert out.reason == FORWARD_LINK
    # a self-link is forward too
    out = parse_thread_response("3 Prerna [respond line = 3]", 3, "Prerna", "strict")
    assert out.reason == FORWARD_LINK


def test_strict_checks_index_and_speaker():
    out = parse_thread_response("4 Prerna [respond line = 1]", 3, "Prerna", "strict")
    assert out.reason == INDEX_MISMATCH
    out = parse_thread_response("3 Carumey [respond line = 1]", 3, "Prerna", "strict")
    assert out.reason == SPEAKER_MISMATCH
    # speaker comparison is case-insensitive
    assert parse_thread_response("3 PRERNA [respond line = 1]", 3, "Prerna", "strict").ok


def test_strict_rejects_multiline_and_prose():
    raw = "Sure! Here is my label:\n3 Prerna [respond line = 1]"
    assert not parse_thread_response(raw, 3, "Prerna", "strict").ok
    assert parse_thread_response(raw, 3, "Prerna", "lenient").ok


def test_lenient_mines_last_matching_line():
    raw = (
        "Let me think about this.\n"
        "3 Prerna [respond line = 2]\n"
        "Wait, actually:\n"
        "3 Prerna [respond_line= 1]\n"
        "Hope that helps!"
    )
    out = parse_thread_response(raw, 3, "Prerna", "lenient")
    assert out.ok
    assert out.value.label.line_refs == (LineRef(1),)


def test_lenient_tolerates_hash_and_missing_speaker():
    assert parse_thread_response("#3 Prerna [respond line = 1]", 3, "Prerna", "lenient").ok
    assert parse_thread_response("[respond line = 1]", 3, "Prerna", "lenient").ok
    assert parse_thread_response("3. [Respond Line = 1]", 3, "Prerna", "lenient").ok


def test_thread_no_match_and_bad_label():
    assert parse_thread_response("no labels here", 3, "P", "lenient").reason == NO_MATCH
    assert not parse_thread_response("3 P [respond line = banana]", 3, "P", "lenient").ok


# --- code lines ------------------------------------------------------------


def test_documented_code_forms():
    out = parse_code_response("10 Serena [E]", 10, "Serena", "strict")
    assert out.ok
    assert out.value.codes == CodeSet.of("E")

    out = parse_code_response("2 Oscar []", 2, "Oscar", "strict")
    assert out.ok
    assert out.value.codes == CodeSet.of()


def test_code_multi_letter_and_spacing():
    out = parse_code_response("5 Kai [A, C]", 5, "Kai", "strict")
    assert out.value.codes == CodeSet.of("A", "C")
    out = parse_code_response("5 Kai [ C,A ]", 5, "Kai", "lenient")
    assert out.value.codes == CodeSet.of("A", "C")
    # lenient uppercases stray lowercase letters
    out = parse_code_response("5 Kai [a, e]", 5, "Kai", "lenient")
    assert out.value.codes == CodeSet.of("A", "E")


def test_code_unknown_letter():
    out = parse_code_response("5 Kai [A, X]", 5, "Kai", "lenient")
    assert not out.ok
    assert out.reason == UNKNOWN_CODE


def test_code_lenient_skips_bracketed_prose():
    raw = "[thinking out loud]\nThe answer is:\n5 Kai [B]"
    out = parse_code_response(raw, 5, "Kai", "lenient")
    assert out.ok
    assert out.value.codes == CodeSet.of("B")


# --- blocks ----------------------------------------------------------------

EXPECTED = [(1, "Ana"), (2, "Ben"), (3, "Ana")]


def test_block_happy_path():
    raw = "1 Ana [respond line = -]\n2 Ben [respond line = 1]\n3 Ana [respond line = 2]"
    block = parse_block_response(raw, EXPECTED, "thread", "strict")
    assert all(o.ok for o in block.outcomes)
    labels = [o.value.label for o in block.outcomes]
    assert labels[0].is_new_thread_only
    assert labels[2].line_refs == (LineRef(2),)


def test_block_missing_line_fails_that_entry_only():
    raw = "1 Ana [respond line = -]\n3 Ana [respond line = 1]"
    block = parse_block_response(raw, EXPECTED, "thread", "strict")
    assert block.outcomes[0].ok
    assert not block.outcomes[1].ok
    assert block.outcomes[1].reason == NO_MATCH
    assert block.outcomes[2].ok


def test_block_duplicate_and_out_of_range_are_surplus():
    raw = (
        "1 Ana [respond line = -]\n"
        "1 Ana [respond line = -]\n"
        "2 Ben [respond line = 1]\n"
        "3 Ana [respond line = 2]\n"
        "9 Zed [respond line = 1]"
    )
    block = parse_block_response(raw, EXPECTED, "thread", "strict")
    assert all(o.ok for o in block.outcomes)


def test_block_indexless_lines_fill_positionally():
    raw = "[respond line = -]\n[respond line = 1]\n[respond line = 2]"
    block = parse_block_response(raw, EXPECTED, "thread", "lenient")
    assert all(o.ok for o in block.outcomes)
    assert block.outcomes[1].value.label.line_refs == (LineRef(1),)


def test_block_counts_indexless_lines_left_over():
    raw = "[respond line = -]\n[respond line = 1]\n3 Ana [respond line = 2]\n[respond line = 1]"
    block = parse_block_response(raw, EXPECTED, "thread", "lenient")
    assert all(o.ok for o in block.outcomes)

def test_code_block_with_noise():
    raw = (
        "Here are my labels:\n"
        "1 Ana [E]\n"
        "2 Ben []\n"
        "3 Ana [A, B]\n"
        "Those are all the labels."
    )
    block = parse_block_response(raw, EXPECTED, "code", "strict")
    assert [o.value.codes.canonical() for o in block.outcomes] == ["E", "", "AB"]


def test_block_empty_response():
    block = parse_block_response("", EXPECTED, "thread", "strict")
    assert all(not o.ok for o in block.outcomes)
    assert all(o.reason == NO_MATCH for o in block.outcomes)


# --- round-trip properties (serialization syntax <-> parser) ---------------

thread_labels = st.one_of(
    st.just("-"),
    st.integers(1, 23).map(str),
    st.integers(1, 23).map(lambda i: f"({i}, -)"),
    st.tuples(st.integers(1, 23), st.integers(1, 23))
    .filter(lambda ab: ab[0] != ab[1])
    .map(lambda ab: f"({ab[0]}, {ab[1]})"),
)


@given(thread_labels)
def test_thread_label_round_trip_through_response_syntax(surface):
    label = parse_respond_line(surface)
    line = f"24 Morgan [respond line = {label.surface()}]"
    out = parse_thread_response(line, 24, "Morgan", "strict")
    assert out.ok
    assert out.value.label == label


@given(st.sets(st.sampled_from("ABCDE")))
def test_codeset_round_trip_through_response_syntax(letters):
    cs = CodeSet(frozenset(letters))
    line = f"7 Ana {cs.to_string()}"
    out = parse_code_response(line, 7, "Ana", "strict")
    assert out.ok
    assert out.value.codes == cs


# --- the exact-line reader against the regexes -----------------------------

SPEAKERS = ["Ana", "Red Morgan", "R2D2", "Zoë", "12", "Al [x]", "A[b", "x]", " Bob", "Bob ", "",
            "#Bob", ".Bob", "A\x85B", "A\u2028B", "A B", "A\tB", "A\xa0B", "Red  Morgan", "-3 Ana"]
PAYLOADS = {
    "thread": ["-", "1", "2", "0", "007", "٣", "²", "(3, 3)", "(-, -)", "(2, -)", "(1, 2)",
               "(2, 1)", "(-, 1)", "(a, b)", " 5", "5 ", "", "[5", "1] [respond line = 2", "x",
               "\x855", "5\u2028", "5\r", "99"],
    "code": ["", "A", "E", "A, C", "C, A", "a, e", "A, X", "A,,B", "[A", "A B", " A ", "E, E",
             "A, B, C, D, E", "A,C", "A] [E", "A\x85", "b"],
}
OPENERS = {
    "thread": ["[respond line = ", "[Respond Line = ", "[respond_line= ", "[respond line ="],
    "code": ["[", "[ "],
}


def _drifted(rng, index, speaker):
    """A line head for (index, speaker): the instructed one, or index or speaker drift."""
    head_index = f"{index} " if rng.random() < 0.6 else rng.choice([
        f"{index + 1} ", f"0{index} ", f"#{index} ", "٣ ", "", f"{index}. ", f"{index}",
        f"{index}  ", f"{index}\t",
    ])
    head_speaker = speaker if rng.random() < 0.6 else rng.choice([
        speaker.upper(), speaker.lower(), speaker.replace(" ", "  "), rng.choice(SPEAKERS),
    ])
    return head_index + head_speaker


def _reply_line(rng, kind, index, speaker):
    payload = rng.choice(PAYLOADS[kind])
    if kind == "thread" and rng.random() < 0.4:
        payload = str(rng.randint(1, index + 2))  # forward links included
    opener = OPENERS[kind][0] if rng.random() < 0.7 else rng.choice(OPENERS[kind])
    tail = "]" if rng.random() < 0.7 else rng.choice(["].", "] ", "]\r", "] and more", ""])
    return f"{_drifted(rng, index, speaker)} {opener}{payload}{tail}"


def _reply(rng, kind, index, speaker):
    line = _reply_line(rng, kind, index, speaker)
    if rng.random() < 0.7:
        return line
    before, after = rng.choice([
        (" ", "\n"), ("Sure:\n", ""), ("", "\nThat is all."), ("\r\n", "\r\n"), ("x\x85", ""),
        (_reply_line(rng, kind, index, speaker) + "\n", ""), ("", "\u2028" + line),
    ])
    return before + line + after


def _block(rng, kind, expected):
    lines = []
    for index, speaker in expected:
        if rng.random() < 0.1:
            continue  # missing
        lines.append(_reply_line(rng, kind, index, speaker))
        if rng.random() < 0.08:
            lines.append(_reply_line(rng, kind, index, speaker))  # duplicate
    lines += rng.sample([
        "That is all.", "", "[respond line = 1]", "[E]", "[thinking]",  # prose and index-less
        _reply_line(rng, kind, 40, "Zed"),  # surplus
    ], rng.randint(0, 3))
    if rng.random() < 0.2:
        rng.shuffle(lines)
    return "\n".join(lines)


def test_exact_line_reader_gives_the_regex_outcome(monkeypatch):
    rng = random.Random(8)
    cases = []
    for _ in range(3000):
        kind = rng.choice(("thread", "code"))
        index = rng.choice((-1, 0)) if rng.random() < 0.05 else rng.randint(1, 30)
        speaker = rng.choice(SPEAKERS if rng.random() < 0.5 else SPEAKERS[:4])
        expected = [(index + k, rng.choice(SPEAKERS[:6])) for k in range(rng.randint(1, 5))]
        cases.append((kind, _reply(rng, kind, index, speaker), index, speaker,
                      _block(rng, kind, expected), expected))

    def parse_all():
        out = []
        for kind, raw, index, speaker, block, expected in cases:
            parse = parse_thread_response if kind == "thread" else parse_code_response
            for strictness in ("strict", "lenient"):
                out.append(parse(raw, index, speaker, strictness))
                out.append(parse_block_response(block, expected, kind, strictness))
        return out

    accepted = []
    read = outparse._read

    def counted(line, head):
        accepted.append(read(line, head))
        return accepted[-1]

    monkeypatch.setattr(outparse, "_read", counted)
    with_reader = parse_all()
    assert sum(payload is not None for payload in accepted) > 5000  # the reader does read
    monkeypatch.setattr(outparse, "_head", lambda index, speaker, kind: None)
    regex_only = parse_all()
    for k, (fast, slow) in enumerate(zip(with_reader, regex_only)):
        assert fast == slow, cases[k // 4]
    outcomes = [o for r in with_reader for o in getattr(r, "outcomes", (r,))]
    assert {o.reason for o in outcomes} == {
        None, NO_MATCH, INDEX_MISMATCH, SPEAKER_MISMATCH, FORWARD_LINK, UNKNOWN_CODE
    }
