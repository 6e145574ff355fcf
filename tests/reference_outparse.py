"""Plain reference for the reply parser's outcome rules, used to cross-check the package.

Every line goes through the regexes, every code list through its shape check
and letter test, and the forward-link test walks the label's targets: no
exact-line reader, no table of code sets, no kept maximum. Slower and dumber
than :mod:`threadlab.outparse` on purpose; the two must give equal outcomes,
field for field, on any reply.
"""

from __future__ import annotations

import re
from typing import Sequence

from threadlab.corpus import VALID_CODES, CodeSet, LineRef, parse_respond_line
from threadlab.outparse import (
    FORWARD_LINK,
    INDEX_MISMATCH,
    NO_MATCH,
    SPEAKER_MISMATCH,
    STRICTNESS_LEVELS,
    UNKNOWN_CODE,
    BlockParse,
    ParsedCodeLine,
    ParsedThreadLine,
    ParseOutcome,
)

# The instructed line: index, speaker, the opener, the payload and "]".
STRICT_LINE = {
    "thread": re.compile(
        r"^#?(?P<index>\d+)\s+(?P<speaker>.*?)\s*\[respond line = (?P<payload>[^\]]*)\]$"
    ),
    "code": re.compile(r"^#?(?P<index>\d+)\s+(?P<speaker>.*?)\s*\[(?P<payload>[^\]]*)\]$"),
}
# Index and speaker optional, a trailing dot, any case, and keyword drift for threads.
LENIENT_LINE = {
    "thread": re.compile(
        r"^#?\s*(?:(?P<index>\d+)[.:]?\s*)?(?P<speaker>[^\[\]]*?)\s*"
        r"\[\s*respond[\s_-]*line\s*=?\s*(?P<payload>[^\]]*)\]\s*\.?$",
        re.IGNORECASE,
    ),
    "code": re.compile(
        r"^#?\s*(?:(?P<index>\d+)[.:]?\s*)?(?P<speaker>[^\[\]]*?)\s*"
        r"\[(?P<payload>[^\]]*)\]\s*\.?$",
        re.IGNORECASE,
    ),
}
CODE_LIST = re.compile(r"^$|^[A-Za-z](\s*,\s*[A-Za-z])*$")


def failed(reason: str) -> ParseOutcome:
    return ParseOutcome(False, None, reason)


def ref_code_list(inner: str, strictness: str) -> CodeSet | str:
    """The code set of a payload, or the failure reason."""
    inner = inner.strip()
    if not CODE_LIST.match(inner):
        return NO_MATCH
    if inner == "":
        return CodeSet()
    letters = [p.strip() for p in inner.split(",")]
    if strictness == "lenient":
        letters = [p.upper() for p in letters]
    for letter in letters:
        if letter not in VALID_CODES:
            return UNKNOWN_CODE
    return CodeSet(frozenset(letters))


def _folded(speaker: str) -> str:
    """A speaker name with runs of space made one and case folded."""
    return " ".join(speaker.split()).casefold()


def ref_finish(kind, index, speaker, payload, expected_index, expected_speaker, strictness):
    """The outcome of a line read as (index, speaker, payload) for one expected entry."""
    if strictness == "strict":
        if index != expected_index:
            return failed(INDEX_MISMATCH)
        if speaker is None:
            return failed(SPEAKER_MISMATCH)
        if speaker != expected_speaker and _folded(speaker) != _folded(expected_speaker):
            return failed(SPEAKER_MISMATCH)
    if kind == "code":
        codes = ref_code_list(payload, strictness)
        if isinstance(codes, str):
            return failed(codes)
        return ParseOutcome(True, ParsedCodeLine(codes), None)
    try:
        label = parse_respond_line(payload)
    except ValueError:
        return failed(NO_MATCH)
    for target in label.targets:
        if isinstance(target, LineRef) and target.line >= expected_index:
            return failed(FORWARD_LINK)
    return ParseOutcome(True, ParsedThreadLine(label), None)


def _fields(m: re.Match) -> tuple[int | None, str | None, str]:
    index = int(m["index"]) if m["index"] else None
    speaker = m["speaker"] if m["speaker"] else None
    return index, speaker, m["payload"]


def ref_parse_line(kind, raw, expected_index, expected_speaker, strictness) -> ParseOutcome:
    """parse_thread_response (kind "thread") or parse_code_response (kind "code")."""
    if strictness not in STRICTNESS_LEVELS:
        raise ValueError(f"bad strictness {strictness!r}")
    m = None
    if strictness == "strict":
        line = raw.strip()
        if "\n" not in line:
            m = STRICT_LINE[kind].match(line)
    else:
        # The last line that reads as a label; brackets around prose are no code list.
        for each in raw.splitlines():
            match = LENIENT_LINE[kind].match(each.strip())
            if match is None:
                continue
            if kind == "code" and ref_code_list(match["payload"], strictness) == NO_MATCH:
                continue
            m = match
    if m is None:
        return failed(NO_MATCH)
    return ref_finish(kind, *_fields(m), expected_index, expected_speaker, strictness)


def ref_parse_block(
    raw: str, expected: Sequence[tuple[int, str]], kind: str, strictness: str
) -> BlockParse:
    """parse_block_response: lines aligned by index, index-less lines in order."""
    if strictness not in STRICTNESS_LEVELS:
        raise ValueError(f"bad strictness {strictness!r}")
    expected_indices = [idx for idx, _ in expected]
    by_index = {}
    positional = []
    for line in raw.splitlines():
        s = line.strip()
        if s == "":
            continue
        m = LENIENT_LINE[kind].match(s)
        if m is None:
            continue
        found = _fields(m)
        if kind == "code" and ref_code_list(found[2], "lenient") == NO_MATCH:
            continue
        if found[0] is None:
            positional.append(found)
        elif found[0] in expected_indices and found[0] not in by_index:
            by_index[found[0]] = found
    unfilled = [idx for idx in expected_indices if idx not in by_index]
    for idx, found in zip(unfilled, positional):
        by_index[idx] = found
    outcomes = []
    for idx, speaker in expected:
        if idx in by_index:
            outcomes.append(ref_finish(kind, *by_index[idx], idx, speaker, strictness))
        else:
            outcomes.append(failed(NO_MATCH))
    return BlockParse(tuple(outcomes))
