"""Parsing model responses into thread labels and code sets.

Responses are supposed to be single label lines like ``10 Serena [E]`` or
``25 Red Morgan [respond line = (24, -)]``, or a block of such lines for
whole-transcript prompts. Two strictness levels: ``strict`` demands exactly
the instructed shape with matching index and speaker (the right default when
replaying curated fixtures), while ``lenient`` digs the last plausible label
line out of surrounding prose and forgives spelling drift (the right default
when mining live model output). A line that is exactly the instructed one
is read with string operations and gives the outcome either regex would;
every other line goes through the regexes. A failed parse is never an
exception; it becomes a failed outcome carrying its reason, and evaluation
scores it as the reserved parse-error class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .corpus import VALID_CODES, CodeSet, ThreadLabel, parse_respond_line

STRICTNESS_LEVELS = ("strict", "lenient")

# Failure reasons.
NO_MATCH = "NoMatch"
INDEX_MISMATCH = "IndexMismatch"
SPEAKER_MISMATCH = "SpeakerMismatch"
FORWARD_LINK = "ForwardLink"
UNKNOWN_CODE = "UnknownCode"


@dataclass(slots=True)
class ParsedThreadLine:
    label: ThreadLabel


@dataclass(slots=True)
class ParsedCodeLine:
    codes: CodeSet


@dataclass(slots=True)
class ParseOutcome:
    """Ok(value) or Failed(reason)."""

    ok: bool
    value: ParsedThreadLine | ParsedCodeLine | None
    reason: str | None


def _norm_speaker(name: str) -> str:
    return " ".join(name.split()).casefold()


def _check_strictness(strictness: str) -> None:
    if strictness not in STRICTNESS_LEVELS:
        raise ValueError(f"strictness must be one of {STRICTNESS_LEVELS}, got {strictness!r}")


# ---------------------------------------------------------------------------
# Lines
# ---------------------------------------------------------------------------

# The instructed line is f"{index} {speaker} {opener}{payload}]", per kind.
_OPENERS = {"thread": "[respond line = ", "code": "["}

# Per kind, the strict regex (the instructed shape, speaker mandatory, lowercase
# keyword) and the lenient one (optional index and speaker, a trailing dot, and
# for threads keyword spelling drift). Both capture index, speaker and payload.
_LINE_RES = {
    kind: (
        re.compile(rf"^#?(?P<index>\d+)\s+(?P<speaker>.*?)\s*\[{strict}(?P<payload>[^\]]*)\]$"),
        re.compile(
            r"^#?\s*(?:(?P<index>\d+)[.:]?\s*)?(?P<speaker>[^\[\]]*?)\s*"
            rf"\[{lenient}(?P<payload>[^\]]*)\]\s*\.?$",
            re.IGNORECASE,
        ),
    )
    for kind, strict, lenient in (
        ("thread", "respond line = ", r"\s*respond[\s_-]*line\s*=?\s*"),
        ("code", "", ""),
    )
}

# Shape of a plausible code list: empty, or single letters joined by commas.
_CODE_LIST_RE = re.compile(r"^$|^[A-Za-z](\s*,\s*[A-Za-z])*$")

# Every code set keyed by its to_string() form without the brackets: "A, C", "".
_CODE_SETS = {
    cs.to_string()[1:-1]: cs
    for n in range(len(VALID_CODES) + 1)
    for cs in (CodeSet(frozenset(c)) for c in combinations(sorted(VALID_CODES), n))
}


@lru_cache(maxsize=1 << 12)
def _plain(speaker: str) -> bool:
    """True when the speaker is printable, not empty, and holds no bracket and
    no edge space; checked once per speaker, as a transcript repeats its few."""
    return (bool(speaker) and speaker == speaker.strip() and "[" not in speaker
            and "]" not in speaker and speaker.isprintable())


def _head(index: int, speaker: str, kind: str) -> str | None:
    """The instructed line for (index, speaker) up to its payload, or None.

    None unless every line regex reads that line as exactly this index and
    speaker: the index is not negative and the speaker is :func:`_plain`.
    """
    if index < 0 or not _plain(speaker):
        return None
    return f"{index} {speaker} {_OPENERS[kind]}"


def _read(line: str, head: str) -> str | None:
    """The payload of a stripped ``line`` that is ``head``, payload, ``]``; else None.

    The payload must hold no ``]`` and only printable characters, so no
    regex could split the line or end it elsewhere.
    """
    if line.startswith(head) and line.endswith("]"):
        payload = line[len(head):-1]
        if "]" not in payload and payload.isprintable():
            return payload
    return None


def _groups(m: re.Match) -> tuple[int | None, str | None, str]:
    index = m["index"]
    return int(index) if index else None, m["speaker"] or None, m["payload"]


def _parse_code_list(inner: str, strictness: str) -> CodeSet | str:
    """CodeSet on success, failure reason string otherwise."""
    codes = _CODE_SETS.get(inner)
    if codes is not None:
        return codes
    inner = inner.strip()
    if not _CODE_LIST_RE.match(inner):
        return NO_MATCH
    if not inner:
        return CodeSet()
    letters = [p.strip() for p in inner.split(",")]
    if strictness == "lenient":
        letters = [p.upper() for p in letters]
    if any(p not in VALID_CODES for p in letters):
        return UNKNOWN_CODE
    return CodeSet(frozenset(letters))


def _finish(
    kind: str,
    index: int | None,
    speaker: str | None,
    payload: str,
    expected_index: int,
    expected_speaker: str,
    strictness: str,
) -> ParseOutcome:
    """The outcome of a line read as (index, speaker, payload) for one expected entry."""
    if strictness == "strict" and (index != expected_index or speaker != expected_speaker):
        if index != expected_index:
            return ParseOutcome(False, None, INDEX_MISMATCH)
        if speaker is None or _norm_speaker(speaker) != _norm_speaker(expected_speaker):
            return ParseOutcome(False, None, SPEAKER_MISMATCH)
    if kind == "code":
        codes = _CODE_SETS.get(payload)
        if codes is None:
            codes = _parse_code_list(payload, strictness)
            if isinstance(codes, str):
                return ParseOutcome(False, None, codes)
        return ParseOutcome(True, ParsedCodeLine(codes), None)
    try:
        label = parse_respond_line(payload)
    except ValueError:
        return ParseOutcome(False, None, NO_MATCH)
    if label._max_line >= expected_index:
        return ParseOutcome(False, None, FORWARD_LINK)
    return ParseOutcome(True, ParsedThreadLine(label), None)


def _parse_line(
    kind: str, raw: str, expected_index: int, expected_speaker: str, strictness: str
) -> ParseOutcome:
    if strictness not in STRICTNESS_LEVELS:
        _check_strictness(strictness)
    line = raw.strip()
    head = _head(expected_index, expected_speaker, kind)
    payload = None if head is None else _read(line, head)
    if payload is not None:
        # The instructed line itself, which both strictness levels read alike.
        return _finish(kind, expected_index, expected_speaker, payload,
                       expected_index, expected_speaker, strictness)
    strict_re, lenient_re = _LINE_RES[kind]
    m = None
    if strictness == "strict":
        if "\n" not in line:
            m = strict_re.match(line)
    else:
        for each in raw.splitlines():
            match = lenient_re.match(each.strip())
            # Brackets around prose are not a code list; a code-shaped list
            # with a bad letter still counts as the model's answer.
            if match and (kind == "thread" or _parse_code_list(match["payload"], strictness)
                          != NO_MATCH):
                m = match
    if m is None:
        return ParseOutcome(False, None, NO_MATCH)
    return _finish(kind, *_groups(m), expected_index, expected_speaker, strictness)


def parse_thread_response(
    raw: str,
    expected_index: int,
    expected_speaker: str,
    strictness: str = "lenient",
) -> ParseOutcome:
    """Extract the thread label for one target utterance from a response."""
    return _parse_line("thread", raw, expected_index, expected_speaker, strictness)


def parse_code_response(
    raw: str,
    expected_index: int,
    expected_speaker: str,
    strictness: str = "lenient",
) -> ParseOutcome:
    """Extract the code set for one target utterance from a response.

    Duplicate letters collapse (``[C, E, E]`` -> ``{C, E}``); letters outside
    A-E fail with UnknownCode.
    """
    return _parse_line("code", raw, expected_index, expected_speaker, strictness)


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class BlockParse:
    """One outcome per expected entry."""

    outcomes: tuple[ParseOutcome, ...]


def parse_block_response(
    raw: str,
    expected: Sequence[tuple[int, str]],
    kind: str,
    strictness: str = "lenient",
) -> BlockParse:
    """Parse a multi-line labeling response against the expected entry list.

    Lines whose index parses are aligned to the matching expected entry, so
    shuffled output still lands in the right place; index-less lines fill the
    remaining entries in order. Every expected entry yields exactly one
    outcome (NoMatch when nothing aligned to it); surplus or duplicate lines
    are ignored.
    """
    _check_strictness(strictness)
    if kind not in _OPENERS:
        raise ValueError(f"kind must be 'thread' or 'code', got {kind!r}")
    # The instructed line's head per expected entry, keyed by its index text.
    heads = {}
    for idx, speaker in expected:
        head = _head(idx, speaker, kind)
        if head is not None:
            heads[str(idx)] = (idx, speaker, head)

    # Label lines as (index, speaker, payload), by index or in order.
    by_index: dict[int, tuple] = {}
    positional: list[tuple] = []
    expected_indices = {idx for idx, _ in expected}
    for line in raw.splitlines():
        s = line.strip()
        if not s:
            continue
        known = heads.get(s.partition(" ")[0])
        payload = None if known is None else _read(s, known[2])
        if payload is not None:
            found = (known[0], known[1], payload)
        else:
            m = _LINE_RES[kind][1].match(s)
            if not m:
                continue
            found = _groups(m)
        if kind == "code" and _parse_code_list(found[2], "lenient") == NO_MATCH:
            continue
        if found[0] is None:
            positional.append(found)
        elif found[0] in expected_indices and found[0] not in by_index:
            by_index[found[0]] = found

    unfilled = [idx for idx, _ in expected if idx not in by_index]
    pos_assignment = dict(zip(unfilled, positional))

    outcomes: list[ParseOutcome] = []
    for idx, speaker in expected:
        found = by_index.get(idx) or pos_assignment.get(idx)
        if found is None:
            outcomes.append(ParseOutcome(False, None, NO_MATCH))
        else:
            outcomes.append(_finish(kind, *found, idx, speaker, strictness))
    return BlockParse(tuple(outcomes))
