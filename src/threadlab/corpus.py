"""Transcripts, thread labels, discourse codes, and the gold-standard files that carry them.

A transcript is a flat list of timestamped utterances. Gold annotations attach a
thread label to every utterance (which earlier line it responds to, or a
new-thread marker), an optional set of collaborative-talk codes (letters A
through E), and an optional threading subcategory tag. This module owns the
JSONL parsing and serialization of both file kinds, structural validation of
the resulting thread graph, and descriptive statistics.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Container, Iterable, Mapping, Sequence

from .schema import MalformedRecord, json_value, objects, read, typed

VALID_CODES = frozenset("ABCDE")

# Threading subcategory tags: adjacency pairs, explicit coherence, implicit
# coherence, topic transitions, consensus information, backchannels, and
# self-continuations.
SUBCATEGORY_TAGS = frozenset({"AP", "E", "I", "TT", "CI", "BC", "SC"})

DEFAULT_BACKCHANNEL_LEXICON = frozenset(
    {
        "yeah",
        "yes",
        "ok",
        "okay",
        "hmm",
        "hmmm",
        "mhm",
        "mhmm",
        "uh-huh",
        "right",
        "sure",
        "no",
        "yep",
    }
)

# Links farther back than this many lines get flagged by the validator.
DEFAULT_LONG_GAP = 13


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Utterance:
    """One line of talk: 1-based index, milliseconds from session start, speaker, text."""

    index: int
    timestamp_ms: int
    speaker: str
    text: str

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"utterance index must be >= 1, got {self.index}")
        if self.timestamp_ms < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.timestamp_ms}")
        if not self.speaker:
            raise ValueError("speaker must be non-empty")


class NewThread(enum.Enum):
    """Marker target: the contribution starts a new thread instead of linking back."""

    NEW_THREAD = "-"


NEW_THREAD = NewThread.NEW_THREAD


@dataclass(frozen=True)
class LineRef:
    """Target pointing at an earlier line number."""

    line: int

    def __post_init__(self):
        if self.line < 1:
            raise ValueError(f"line reference must be >= 1, got {self.line}")


LinkTarget = LineRef | NewThread


@dataclass(frozen=True)
class ThreadLabel:
    """Where an utterance attaches in the conversation.

    Carries one or two targets. Two targets mean the utterance splits into two
    contributions, e.g. it answers line 24 and also opens a new thread. At most
    one target may be the new-thread marker, and targets are kept in source
    order; use :meth:`canonical` for order-insensitive comparison.
    """

    targets: tuple[LinkTarget, ...]

    def __post_init__(self):
        if len(self.targets) == 1:
            return  # a single target is always valid
        if not 1 <= len(self.targets) <= 2:
            raise ValueError(f"thread label needs 1 or 2 targets, got {len(self.targets)}")
        n_new = sum(1 for t in self.targets if t is NEW_THREAD)
        if n_new > 1:
            raise ValueError("at most one new-thread target allowed")
        if len(self.targets) == 2 and self.targets[0] == self.targets[1]:
            raise ValueError("split label targets must differ")

    @classmethod
    def new_thread(cls) -> "ThreadLabel":
        return cls((NEW_THREAD,))

    @classmethod
    def link(cls, line: int) -> "ThreadLabel":
        return cls((LineRef(line),))

    @property
    def line_refs(self) -> tuple[LineRef, ...]:
        return tuple(t for t in self.targets if isinstance(t, LineRef))

    @property
    def is_new_thread_only(self) -> bool:
        return all(t is NEW_THREAD for t in self.targets)

    @property
    def is_split(self) -> bool:
        return len(self.targets) == 2

    def surface(self) -> str:
        """Render in the form used inside prompts and gold files.

        Single link -> ``24``; new thread -> ``-``; splits -> ``(24, -)`` or
        ``(3, 9)``. Splits keep source order.
        """
        return self._surface

    def canonical(self) -> str:
        """Render as a stable category string for metric comparison.

        The :meth:`normalized` label's surface with no internal whitespace, so
        ``(9, 3)`` and ``(3, 9)`` map to the same string, ``(3,9)``.
        """
        return self._canonical

    # Each rendering is computed once per label and kept in the instance's
    # __dict__, outside the fields, so equality, hashing and repr ignore it.
    @cached_property
    def _surface(self) -> str:
        targets = self.targets
        if len(targets) == 1:
            return "-" if targets[0] is NEW_THREAD else str(targets[0].line)
        parts = ["-" if t is NEW_THREAD else str(t.line) for t in targets]
        return f"({parts[0]}, {parts[1]})"

    def normalized(self) -> "ThreadLabel":
        """This label with split targets in canonical order.

        Line numbers come ascending, then the new-thread marker: ``(9, 3)``
        becomes ``(3, 9)`` and ``(-, 4)`` becomes ``(4, -)``. A label already
        in that order is returned as it is.
        """
        if len(self.targets) == 1:
            return self
        a, b = self.targets
        if b is NEW_THREAD or (a is not NEW_THREAD and a.line < b.line):
            return self
        return ThreadLabel((b, a))

    @cached_property
    def _canonical(self) -> str:
        if len(self.targets) == 1:
            return self._surface
        return self.normalized()._surface.replace(" ", "")


_NEW_THREAD_LABEL = ThreadLabel((NEW_THREAD,))
_LABEL_SPLIT_RE = re.compile(r"^\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)$")


@lru_cache(maxsize=1 << 14)
def parse_respond_line(raw: str) -> ThreadLabel:
    """Parse a thread-label string: ``-``, ``24``, ``(24, -)``, or ``(3, 9)``.

    Raises ValueError on anything else (including ``(-, -)``). Labels are
    interned: gold files, replies and fed-back windows repeat the same few
    strings, so each string is parsed once and shares one label, whose
    renderings are then computed once. Errors are not cached.
    """
    s = raw.strip()
    if s == "-":
        return _NEW_THREAD_LABEL
    if s.isdigit():
        return ThreadLabel((LineRef(int(s)),))
    if not s:
        raise ValueError("empty thread label")
    m = _LABEL_SPLIT_RE.match(s)
    if m:
        return ThreadLabel((_parse_target(m.group(1)), _parse_target(m.group(2))))
    return ThreadLabel((_parse_target(s),))


def _parse_target(token: str) -> LinkTarget:
    if token == "-":
        return NEW_THREAD
    if token.isdigit():
        return LineRef(int(token))
    raise ValueError(f"bad link target {token!r}")


@dataclass(frozen=True)
class CodeSet:
    """Zero or more collaborative-talk codes (letters A-E) on one utterance."""

    letters: frozenset[str] = frozenset()

    def __post_init__(self):
        bad = set(self.letters) - VALID_CODES
        if bad:
            raise ValueError(f"codes outside A-E: {sorted(bad)}")

    @classmethod
    def of(cls, *letters: str) -> "CodeSet":
        return cls(frozenset(letters))

    @classmethod
    @lru_cache(maxsize=1024)
    def from_string(cls, raw: str) -> "CodeSet":
        """Parse the bracketed form: ``[A, C]``, ``[E]``, or ``[]``.

        Code sets are interned: a gold file repeats the same few strings (there
        are only 32 code sets), so each string is parsed once. Errors are not
        cached.
        """
        s = raw.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"code set must be bracketed, got {raw!r}")
        inner = s[1:-1].strip()
        if not inner:
            return cls()
        letters = [p.strip() for p in inner.split(",")]
        if any(not p for p in letters):
            raise ValueError(f"empty code in {raw!r}")
        return cls(frozenset(letters))

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __bool__(self) -> bool:
        return bool(self.letters)

    def to_string(self) -> str:
        """Bracketed form with letters sorted: ``[A, C]`` or ``[]``."""
        return "[" + ", ".join(sorted(self.letters)) + "]"

    def canonical(self) -> str:
        """Sorted letters with no punctuation: ``AC``; empty set -> empty string."""
        return "".join(sorted(self.letters))


_NO_CODES = CodeSet()


@dataclass(frozen=True)
class Transcript:
    """A whole conversation: contiguous 1..n utterances plus scenario metadata."""

    id: str
    utterances: tuple[Utterance, ...]
    scenario: str = ""

    def __post_init__(self):
        """Indices run 1..n, as ``__getitem__`` looks up by position: a check for
        transcripts built in memory, as ``parse_transcript`` renumbers 1..n."""
        for pos, u in enumerate(self.utterances, start=1):
            if u.index != pos:
                raise ValueError(
                    f"transcript {self.id}: utterance at position {pos} has index {u.index}"
                )

    def __len__(self) -> int:
        return len(self.utterances)

    def __getitem__(self, index: int) -> Utterance:
        """Look up by 1-based utterance index."""
        if not 1 <= index <= len(self.utterances):
            raise IndexError(f"utterance index {index} out of range 1..{len(self.utterances)}")
        return self.utterances[index - 1]


@dataclass(frozen=True)
class GoldAnnotations:
    """Human labels for one transcript.

    ``thread`` must cover every utterance index once paired with its
    transcript; ``abcde`` and ``subcat`` may be partial.
    """

    transcript_id: str
    thread: Mapping[int, ThreadLabel]
    abcde: Mapping[int, CodeSet] = field(default_factory=dict)
    subcat: Mapping[int, str] = field(default_factory=dict)

    def codes_at(self, index: int) -> CodeSet:
        """Code set for an utterance; indices without a record count as empty."""
        return self.abcde.get(index, _NO_CODES)


# ---------------------------------------------------------------------------
# Timestamp handling
# ---------------------------------------------------------------------------

_TS_CLOCK_RE = re.compile(r"^(\d{1,2}):(\d{2})(?::(\d{2}))?$")


def parse_timestamp(value: object) -> int:
    """Convert a source timestamp to milliseconds.

    Accepts ``HH:MM:SS``, ``MM:SS``, or a bare non-negative integer already in
    milliseconds.
    """
    if isinstance(value, bool):
        raise ValueError(f"bad timestamp {value!r}")
    if isinstance(value, int):
        if value < 0:
            raise ValueError(f"negative timestamp {value}")
        return value
    if isinstance(value, str):
        s = value.strip()
        if s.isdigit():
            return int(s)
        m = _TS_CLOCK_RE.match(s)
        if m:
            h_or_m, mid, sec = m.group(1), m.group(2), m.group(3)
            if sec is None:
                minutes, seconds = int(h_or_m), int(mid)
                hours = 0
            else:
                hours, minutes, seconds = int(h_or_m), int(mid), int(sec)
            if minutes > 59 or seconds > 59:
                raise ValueError(f"bad clock timestamp {value!r}")
            return ((hours * 60 + minutes) * 60 + seconds) * 1000
    raise ValueError(f"bad timestamp {value!r}")


def format_timestamp(ms: int) -> str:
    """Render milliseconds as ``HH:MM:SS`` (sub-second remainder dropped)."""
    s = ms // 1000
    return "%02d:%02d:%02d" % (s // 3600, s // 60 % 60, s % 60)


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

_TRANSCRIPT_FIELDS = ("index", "timestamp", "speaker", "text")
# The milliseconds of each field of the ``HH:MM:SS`` clock form every serialized
# transcript uses, by its two ASCII digits; any other timestamp takes parse_timestamp.
_HOURS_MS = {f"{n:02d}": n * 3_600_000 for n in range(100)}
_MINUTES_MS = {f"{n:02d}": n * 60_000 for n in range(60)}
_SECONDS_MS = {f"{n:02d}": n * 1000 for n in range(60)}


def _record_index(line_no: int, raw: object, seen: Container[int]) -> int:
    """``raw``, a record's ``index``: an integer, an integral float or a string
    holding an integer, as an int. Anything else, a bool or ``1.7`` among them,
    raises, and so does an index already in ``seen``."""
    index = raw
    if type(raw) is not int:
        try:
            if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
                raise ValueError
            index = int(raw)
        except (TypeError, ValueError):
            raise MalformedRecord(line_no, f"bad index {raw!r}") from None
    if index in seen:
        raise MalformedRecord(line_no, f"duplicate index {index}")
    return index


def _timestamp(line_no: int, value: object) -> int:
    """:func:`parse_timestamp` of a record's ``timestamp``; its ValueError is
    raised as MalformedRecord."""
    try:
        return parse_timestamp(value)
    except ValueError as exc:
        raise MalformedRecord(line_no, str(exc)) from None


def _text_field(line_no: int, field: str, value: object) -> str:
    """A transcript record's ``speaker`` or ``text``: a string, or a number read
    as its JSON text. A null, a bool, an array or an object raises."""
    if isinstance(value, str):
        return value
    if value is None:
        raise MalformedRecord(line_no, f"{field} is null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedRecord(line_no, f"{field} is {value!r}, expected a string or number")
    return str(value)


def parse_transcript(
    source: str | bytes,
    transcript_id: str = "",
    scenario: str = "",
) -> Transcript:
    """Parse a transcript file body.

    Source indices must be unique and timestamps non-decreasing; indices are
    then renumbered 1..n in file order. A record fault raises before a
    decreasing timestamp does, wherever the two are in the file.
    """
    utterances: list[Utterance] = []
    seen_indices: set[int] = set()
    prev_ts = 0
    decrease = None  # the file line of the first timestamp that decreases
    for line_no, rec in objects(source):
        try:
            index, ts, speaker, text = rec["index"], rec["timestamp"], rec["speaker"], rec["text"]
        except KeyError:
            missing = [f for f in _TRANSCRIPT_FIELDS if f not in rec]
            raise MalformedRecord(line_no, f"missing fields: {', '.join(missing)}") from None
        if type(index) is not int or index in seen_indices:
            index = _record_index(line_no, index, seen_indices)
        seen_indices.add(index)
        if type(ts) is str and len(ts) == 8 and ts[2] == ts[5] == ":":
            try:
                ts = _HOURS_MS[ts[:2]] + _MINUTES_MS[ts[3:5]] + _SECONDS_MS[ts[6:]]
            except KeyError:
                ts = _timestamp(line_no, ts)
        else:
            ts = _timestamp(line_no, ts)
        if type(speaker) is not str or type(text) is not str:
            speaker = _text_field(line_no, "speaker", speaker)
            text = _text_field(line_no, "text", text)
        speaker = speaker.strip()
        if not speaker:
            raise MalformedRecord(line_no, "empty speaker")
        if ts < prev_ts and decrease is None:
            decrease = line_no
        prev_ts = ts
        utterances.append(Utterance(len(utterances) + 1, ts, speaker, text))
    if decrease is not None:
        raise MalformedRecord(decrease, "timestamp decreases")
    return Transcript(id=transcript_id, utterances=tuple(utterances), scenario=scenario)


def serialize_transcript(t: Transcript) -> str:
    """Inverse of :func:`parse_transcript`; round-trips to an equal Transcript."""
    lines = [
        json.dumps(
            {
                "index": u.index,
                "timestamp": format_timestamp(u.timestamp_ms),
                "speaker": u.speaker,
                "text": u.text,
            },
            ensure_ascii=False,
        )
        for u in t.utterances
    ]
    return "\n".join(lines) + "\n"


def parse_gold(
    source: str | bytes,
    transcript_id: str = "",
) -> GoldAnnotations:
    """Parse a gold annotation file body.

    Each record carries ``index`` and ``respond_line``, a thread label that
    links back only, plus optional ``abcde`` (bracketed letters like ``[A, C]``
    or ``[]``) and ``subcat`` columns. A fault raises MalformedRecord on its line.
    """
    thread: dict[int, ThreadLabel] = {}
    abcde: dict[int, CodeSet] = {}
    subcat: dict[int, str] = {}
    for line_no, rec in objects(source):
        if "index" not in rec or "respond_line" not in rec:
            raise MalformedRecord(line_no, "missing index or respond_line")
        idx = rec["index"]
        if type(idx) is not int or idx in thread:
            idx = _record_index(line_no, idx, thread)
        raw_label = rec["respond_line"]
        if type(raw_label) is not str:
            # An integer reads as its text, as a speaker number does.
            if type(raw_label) is not int:
                raise MalformedRecord(line_no, f"respond_line is {raw_label!r}, expected a "
                                      'thread label string such as "-", "24" or "(24, -)"')
            raw_label = str(raw_label)
        try:
            label = parse_respond_line(raw_label)
        except ValueError:
            raise MalformedRecord(
                line_no, f"respond_line {raw_label!r} is not a thread label"
            ) from None
        for target in label.targets:
            if target is not NEW_THREAD and target.line >= idx:
                raise MalformedRecord(line_no, f"respond_line {raw_label!r} links forward")
        thread[idx] = label

        raw_codes = rec.get("abcde")
        if type(raw_codes) is str:
            raw_codes = raw_codes.strip()
        else:
            raw_codes = _gold_text(line_no, "abcde", raw_codes,
                                   'a bracketed string such as "[A, C]"')
        if raw_codes:
            try:
                abcde[idx] = CodeSet.from_string(raw_codes)
            except ValueError as exc:
                raise MalformedRecord(line_no, f"abcde {raw_codes!r}: {exc}") from None

        tag = rec.get("subcat")
        if type(tag) is str:
            tag = tag.strip()
        else:
            tag = _gold_text(line_no, "subcat", tag, 'a tag string such as "CI"')
        if tag:
            if tag not in SUBCATEGORY_TAGS:
                raise MalformedRecord(line_no, f"unknown subcategory {tag!r}")
            subcat[idx] = tag

    return GoldAnnotations(
        transcript_id=transcript_id, thread=thread, abcde=abcde, subcat=subcat
    )


def _gold_text(line_no: int, key: str, value: object, expected: str) -> str:
    """A gold record's optional ``abcde`` or ``subcat`` that is not a string:
    absent or null is ``""``, and any other value raises."""
    if value is None:
        return ""
    raise MalformedRecord(line_no, f"{key} is {value!r}, expected {expected}")


def serialize_gold(g: GoldAnnotations) -> str:
    """Inverse of :func:`parse_gold`; round-trips to an equal GoldAnnotations."""
    lines = []
    for idx in sorted(g.thread):
        rec: dict[str, object] = {"index": idx, "respond_line": g.thread[idx].surface()}
        if idx in g.abcde:
            rec["abcde"] = g.abcde[idx].to_string()
        if idx in g.subcat:
            rec["subcat"] = g.subcat[idx]
        lines.append(json.dumps(rec, ensure_ascii=False))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # error kinds: MissingLabel, DanglingRef; lints: BackchannelLinked, LongGap
    index: int
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[ValidationIssue, ...]
    lints: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        # Lints are advisory; only errors make the annotations unusable.
        return not self.errors


_PUNCT_STRIP_RE = re.compile(r"[^\w\s-]", re.UNICODE)


def is_backchannel(text: str) -> bool:
    """True when the text is just 1-2 tokens from ``DEFAULT_BACKCHANNEL_LEXICON``.

    Comparison lower-cases and strips punctuation, keeping internal hyphens so
    entries like ``uh-huh`` survive.
    """
    cleaned = _PUNCT_STRIP_RE.sub("", text.lower())
    tokens = [tok.strip("-_") for tok in cleaned.split()]
    tokens = [t for t in tokens if t]
    if not 1 <= len(tokens) <= 2:
        return False
    return all(t in DEFAULT_BACKCHANNEL_LEXICON for t in tokens)


def validate_thread_graph(t: Transcript, g: GoldAnnotations) -> ValidationReport:
    """Check a gold thread map against its transcript.

    Hard errors: utterances without a label, labels for unknown indices, and
    references to lines outside the transcript. Lints: links whose target is a
    bare backchannel (the guidebook says to skip those), and links reaching
    back more than ``DEFAULT_LONG_GAP`` lines.
    """
    errors: list[ValidationIssue] = []
    lints: list[ValidationIssue] = []
    n = len(t)

    for idx in range(1, n + 1):
        if idx not in g.thread:
            errors.append(ValidationIssue("MissingLabel", idx, "utterance has no thread label"))
    for idx in sorted(g.thread):
        if not 1 <= idx <= n:
            errors.append(
                ValidationIssue("DanglingRef", idx, f"label index {idx} outside 1..{n}")
            )
            continue
        for ref in g.thread[idx].line_refs:
            if not 1 <= ref.line <= n:
                errors.append(
                    ValidationIssue(
                        "DanglingRef", idx, f"link target {ref.line} outside 1..{n}"
                    )
                )
                continue
            if is_backchannel(t[ref.line].text):
                lints.append(
                    ValidationIssue(
                        "BackchannelLinked",
                        idx,
                        f"links to backchannel line {ref.line} ({t[ref.line].text!r})",
                    )
                )
            gap = idx - ref.line
            if gap > DEFAULT_LONG_GAP:
                lints.append(
                    ValidationIssue(
                        "LongGap", idx, f"gap {gap} to line {ref.line} exceeds {DEFAULT_LONG_GAP}"
                    )
                )
    return ValidationReport(errors=tuple(errors), lints=tuple(lints))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreadStats:
    """Descriptive numbers for one annotated transcript.

    Gap fields are None when the transcript has no backward links at all.
    ``raw_row_min_gap`` treats a split row (link plus new-thread marker) as
    distance 0, mirroring spreadsheet-style bookkeeping where the new-thread
    portion sits on its own line; ``min_gap`` counts actual links only.
    """

    n_utterances: int
    n_words: int
    n_no_thread: int
    n_links: int
    mean_gap: float | None
    min_gap: int | None
    max_gap: int | None
    raw_row_min_gap: int | None


def _label_stats(labels: Iterable[tuple[int, ThreadLabel]]) -> dict:
    """The ThreadStats label fields, ``n_no_thread`` to ``raw_row_min_gap``, of
    (index, label) pairs, in one pass over them."""
    n_no_thread = 0
    gaps: list[int] = []
    any_split_with_new = False
    for idx, label in labels:
        if label.is_new_thread_only:
            n_no_thread += 1
        for ref in label.line_refs:
            gaps.append(idx - ref.line)
        if label.line_refs and any(tg is NEW_THREAD for tg in label.targets):
            any_split_with_new = True
    return {
        "n_no_thread": n_no_thread,
        "n_links": len(gaps),
        "mean_gap": sum(gaps) / len(gaps) if gaps else None,
        "min_gap": min(gaps) if gaps else None,
        "max_gap": max(gaps) if gaps else None,
        "raw_row_min_gap": (0 if any_split_with_new else min(gaps)) if gaps else None,
    }


def thread_stats(t: Transcript, g: GoldAnnotations) -> ThreadStats:
    return ThreadStats(
        n_utterances=len(t),
        n_words=sum(len(u.text.split()) for u in t.utterances),
        **_label_stats(g.thread.items()),
    )


def corpus_stats(pairs: Sequence[tuple[Transcript, GoldAnnotations]]) -> dict:
    """Aggregate statistics over a whole corpus, as a JSON-friendly dict.

    Averages are computed from pooled totals, not means of per-transcript
    means. Code proportions are the fraction of utterances carrying each
    letter.
    """
    if not pairs:
        raise ValueError("corpus_stats needs at least one transcript")
    total_utt = sum(len(t) for t, _ in pairs)
    total_words = sum(sum(len(u.text.split()) for u in t.utterances) for t, _ in pairs)
    code_counts = {c: 0 for c in sorted(VALID_CODES)}
    for t, g in pairs:
        for idx in range(1, len(t) + 1):
            for c in g.codes_at(idx).letters:
                code_counts[c] += 1
    return {
        "n_transcripts": len(pairs),
        "total_utterances": total_utt,
        "total_words": total_words,
        "avg_utterances_per_transcript": total_utt / len(pairs),
        "avg_words_per_transcript": total_words / len(pairs),
        "avg_words_per_utterance": total_words / total_utt,
        **_label_stats(item for _, g in pairs for item in g.thread.items()),
        "code_proportions": {c: code_counts[c] / total_utt for c in sorted(code_counts)},
    }


# ---------------------------------------------------------------------------
# Corpus directory loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    """One transcript of a corpus directory; file names are relative to it."""

    id: str
    transcript: str
    gold: str
    scenario: str = ""


@dataclass(frozen=True)
class Manifest:
    transcripts: tuple[ManifestEntry, ...]


def load_corpus(corpus_dir: str | Path) -> dict[str, tuple[Transcript, GoldAnnotations]]:
    """The transcripts a directory's ``manifest.json`` lists, keyed by id in its order."""
    corpus_dir = Path(corpus_dir)
    pairs: dict[str, tuple[Transcript, GoldAnnotations]] = {}
    for entry in read(corpus_dir / "manifest.json", _parse_manifest):
        t = read(corpus_dir / entry.transcript, parse_transcript,
                 transcript_id=entry.id, scenario=entry.scenario)
        g = read(corpus_dir / entry.gold, parse_gold, transcript_id=entry.id)
        pairs[entry.id] = (t, g)
    return pairs


def _parse_manifest(source: bytes) -> tuple[ManifestEntry, ...]:
    """The manifest's entries, read by their fields; a repeated id raises ValueError."""
    entries = typed(Manifest, json_value(source)).transcripts
    seen: set[str] = set()
    for entry in entries:
        if entry.id in seen:
            raise ValueError(f"duplicate transcript id {entry.id!r}")
        seen.add(entry.id)
    return entries


def bundled_corpus_dir() -> Path:
    """Directory of the synthetic corpus that ships with the package."""
    return Path(__file__).parent / "data" / "corpus"
