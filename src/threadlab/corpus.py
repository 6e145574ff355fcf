"""Transcripts, thread labels, discourse codes, and the gold-standard files that carry them.

A transcript is a flat list of timestamped utterances. Gold annotations attach a
thread label to every utterance (which earlier line it responds to, or a
new-thread marker), an optional set of collaborative-talk codes (letters A
through E), and an optional threading subcategory tag. This module owns parsing
and serialization for both file kinds (JSONL and CSV), structural validation of
the resulting thread graph, and descriptive statistics.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

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


class CorpusError(Exception):
    """Base class for malformed transcript or annotation input.

    ``path`` is the file the input came from, when known; it leads the message.
    """

    path: Path | None = None

    def __str__(self) -> str:
        text = super().__str__()
        return f"{self.path}: {text}" if self.path else text


class MalformedRecord(CorpusError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class NonMonotonicTimestamp(CorpusError):
    def __init__(self, index: int):
        super().__init__(f"timestamp decreases at utterance {index}")
        self.index = index


class DuplicateIndex(CorpusError):
    def __init__(self, index: int):
        super().__init__(f"duplicate utterance index {index}")
        self.index = index


class BadThreadSyntax(CorpusError):
    def __init__(self, index: int, raw: str):
        super().__init__(f"utterance {index}: cannot parse thread label {raw!r}")
        self.index = index
        self.raw = raw


class ForwardLink(CorpusError):
    def __init__(self, index: int, target: int):
        super().__init__(f"utterance {index} links forward to line {target}")
        self.index = index
        self.target = target


class UnknownCode(CorpusError):
    def __init__(self, index: int, code: str):
        super().__init__(f"utterance {index}: unknown code {code!r}")
        self.index = index
        self.code = code


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


class NewThread:
    """Marker target: the contribution starts a new thread instead of linking back."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NewThread()"

    def __eq__(self, other):
        return isinstance(other, NewThread)

    def __hash__(self):
        return hash("NewThread")


NEW_THREAD = NewThread()


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
        if not 1 <= len(self.targets) <= 2:
            raise ValueError(f"thread label needs 1 or 2 targets, got {len(self.targets)}")
        n_new = sum(1 for t in self.targets if isinstance(t, NewThread))
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
        return all(isinstance(t, NewThread) for t in self.targets)

    @property
    def is_split(self) -> bool:
        return len(self.targets) == 2

    def surface(self) -> str:
        """Render in the form used inside prompts and gold files.

        Single link -> ``24``; new thread -> ``-``; splits -> ``(24, -)`` or
        ``(3, 9)``. Splits keep source order.
        """
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

    def canonical(self) -> str:
        """Render as a stable category string for metric comparison.

        The :meth:`normalized` label's surface with no internal whitespace, so
        ``(9, 3)`` and ``(3, 9)`` map to the same string, ``(3,9)``.
        """
        if len(self.targets) == 1:
            return self.surface()
        return self.normalized().surface().replace(" ", "")


_LABEL_SPLIT_RE = re.compile(r"^\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)$")


def parse_respond_line(raw: str) -> ThreadLabel:
    """Parse a thread-label string: ``-``, ``24``, ``(24, -)``, or ``(3, 9)``.

    Raises ValueError on anything else (including ``(-, -)``).
    """
    s = raw.strip()
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
    def from_string(cls, raw: str) -> "CodeSet":
        """Parse the bracketed form: ``[A, C]``, ``[E]``, or ``[]``."""
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


@dataclass(frozen=True)
class Transcript:
    """A whole conversation: contiguous 1..n utterances plus scenario metadata."""

    id: str
    utterances: tuple[Utterance, ...]
    scenario: str = ""

    def __post_init__(self):
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

    def __post_init__(self):
        for idx, label in self.thread.items():
            for ref in label.line_refs:
                if ref.line >= idx:
                    raise ForwardLink(idx, ref.line)
        bad_tags = set(self.subcat.values()) - SUBCATEGORY_TAGS
        if bad_tags:
            raise ValueError(f"unknown subcategory tags: {sorted(bad_tags)}")

    def codes_at(self, index: int) -> CodeSet:
        """Code set for an utterance; indices without a record count as empty."""
        return self.abcde.get(index, CodeSet())


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
    total = ms // 1000
    h, rem = divmod(total, 3600)
    m, s = divmod(rem, 60)
    return f"{h:02d}:{m:02d}:{s:02d}"


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

_TRANSCRIPT_FIELDS = ("index", "timestamp", "speaker", "text")


def _iter_records(source: str | bytes, fmt: str) -> Iterable[tuple[int, dict]]:
    """Yield (line_no, record) pairs from JSONL or CSV text."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if fmt == "jsonl":
        for line_no, line in enumerate(source.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(rec, dict):
                raise MalformedRecord(line_no, "record is not an object")
            yield line_no, rec
    elif fmt == "csv":
        reader = csv.DictReader(io.StringIO(source))
        # DictReader consumes the header, so data starts at line 2.
        for line_no, rec in enumerate(reader, start=2):
            if rec.get(None) is not None:
                raise MalformedRecord(line_no, "row has more cells than the header")
            yield line_no, {k: v for k, v in rec.items() if v is not None}
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'jsonl' or 'csv')")


def parse_transcript(
    source: str | bytes,
    transcript_id: str = "",
    scenario: str = "",
    fmt: str = "jsonl",
) -> Transcript:
    """Parse a transcript file body.

    Source indices must be unique and timestamps non-decreasing; indices are
    then renumbered 1..n in file order.
    """
    rows: list[tuple[int, int, str, str]] = []
    seen_indices: set[int] = set()
    for line_no, rec in _iter_records(source, fmt):
        missing = [f for f in _TRANSCRIPT_FIELDS if f not in rec]
        if missing:
            raise MalformedRecord(line_no, f"missing fields: {', '.join(missing)}")
        try:
            src_index = int(rec["index"])
        except (TypeError, ValueError):
            raise MalformedRecord(line_no, f"bad index {rec['index']!r}") from None
        if src_index in seen_indices:
            raise DuplicateIndex(src_index)
        seen_indices.add(src_index)
        try:
            ts = parse_timestamp(rec["timestamp"])
        except ValueError as exc:
            raise MalformedRecord(line_no, str(exc)) from None
        speaker = str(rec["speaker"]).strip()
        if not speaker:
            raise MalformedRecord(line_no, "empty speaker")
        text = str(rec["text"])
        # A JSON escape can give half a surrogate pair, which no prompt can carry.
        for field, value in (("speaker", speaker), ("text", text)):
            if value.isascii():
                continue
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedRecord(line_no, f"{field} is not valid Unicode text") from None
        rows.append((src_index, ts, speaker, text))

    utterances = []
    prev_ts = None
    for pos, (_, ts, speaker, text) in enumerate(rows, start=1):
        if prev_ts is not None and ts < prev_ts:
            raise NonMonotonicTimestamp(pos)
        prev_ts = ts
        utterances.append(Utterance(index=pos, timestamp_ms=ts, speaker=speaker, text=text))
    return Transcript(id=transcript_id, utterances=tuple(utterances), scenario=scenario)


def serialize_transcript(t: Transcript, fmt: str = "jsonl") -> str:
    """Inverse of :func:`parse_transcript`; round-trips to an equal Transcript."""
    if fmt == "jsonl":
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
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_TRANSCRIPT_FIELDS)
        for u in t.utterances:
            writer.writerow([u.index, format_timestamp(u.timestamp_ms), u.speaker, u.text])
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def parse_gold(
    source: str | bytes,
    transcript_id: str = "",
    fmt: str = "jsonl",
) -> GoldAnnotations:
    """Parse a gold annotation file body.

    Each record carries ``index`` and ``respond_line``, plus optional ``abcde``
    (bracketed letters like ``[A, C]`` or ``[]``) and ``subcat`` columns.
    """
    thread: dict[int, ThreadLabel] = {}
    abcde: dict[int, CodeSet] = {}
    subcat: dict[int, str] = {}
    for line_no, rec in _iter_records(source, fmt):
        if "index" not in rec or "respond_line" not in rec:
            raise MalformedRecord(line_no, "missing index or respond_line")
        try:
            idx = int(rec["index"])
        except (TypeError, ValueError):
            raise MalformedRecord(line_no, f"bad index {rec['index']!r}") from None
        if idx in thread:
            raise DuplicateIndex(idx)
        raw_label = str(rec["respond_line"])
        try:
            label = parse_respond_line(raw_label)
        except ValueError:
            raise BadThreadSyntax(idx, raw_label) from None
        for ref in label.line_refs:
            if ref.line >= idx:
                raise ForwardLink(idx, ref.line)
        thread[idx] = label

        raw_codes = rec.get("abcde")
        if raw_codes is not None and str(raw_codes).strip() != "":
            try:
                abcde[idx] = CodeSet.from_string(str(raw_codes))
            except ValueError:
                # Pin down which letter broke it, for the error message.
                inner = str(raw_codes).strip().strip("[]")
                parts = [p.strip() for p in inner.split(",") if p.strip()]
                bad = next((p for p in parts if p not in VALID_CODES), inner or raw_codes)
                raise UnknownCode(idx, str(bad)) from None

        raw_tag = rec.get("subcat")
        if raw_tag is not None and str(raw_tag).strip() != "":
            tag = str(raw_tag).strip()
            if tag not in SUBCATEGORY_TAGS:
                raise MalformedRecord(line_no, f"unknown subcategory {tag!r}")
            subcat[idx] = tag

    return GoldAnnotations(
        transcript_id=transcript_id, thread=thread, abcde=abcde, subcat=subcat
    )


def serialize_gold(g: GoldAnnotations, fmt: str = "jsonl") -> str:
    """Inverse of :func:`parse_gold`; round-trips to an equal GoldAnnotations."""
    indices = sorted(g.thread)
    if fmt == "jsonl":
        lines = []
        for idx in indices:
            rec: dict[str, object] = {"index": idx, "respond_line": g.thread[idx].surface()}
            if idx in g.abcde:
                rec["abcde"] = g.abcde[idx].to_string()
            if idx in g.subcat:
                rec["subcat"] = g.subcat[idx]
            lines.append(json.dumps(rec, ensure_ascii=False))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "respond_line", "abcde", "subcat"])
        for idx in indices:
            writer.writerow(
                [
                    idx,
                    g.thread[idx].surface(),
                    g.abcde[idx].to_string() if idx in g.abcde else "",
                    g.subcat.get(idx, ""),
                ]
            )
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


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


def is_backchannel(text: str, lexicon: frozenset[str] = DEFAULT_BACKCHANNEL_LEXICON) -> bool:
    """True when the text is just 1-2 acknowledgement tokens from the lexicon.

    Comparison lower-cases and strips punctuation, keeping internal hyphens so
    entries like ``uh-huh`` survive.
    """
    cleaned = _PUNCT_STRIP_RE.sub("", text.lower())
    tokens = [tok.strip("-_") for tok in cleaned.split()]
    tokens = [t for t in tokens if t]
    if not 1 <= len(tokens) <= 2:
        return False
    return all(t in lexicon for t in tokens)


def validate_thread_graph(
    t: Transcript,
    g: GoldAnnotations,
    backchannel_lexicon: frozenset[str] = DEFAULT_BACKCHANNEL_LEXICON,
    long_gap: int = DEFAULT_LONG_GAP,
) -> ValidationReport:
    """Check a gold thread map against its transcript.

    Hard errors: utterances without a label, labels for unknown indices, and
    references to lines outside the transcript. Lints: links whose target is a
    bare backchannel (the guidebook says to skip those), and links reaching
    back more than ``long_gap`` lines.
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
            if is_backchannel(t[ref.line].text, backchannel_lexicon):
                lints.append(
                    ValidationIssue(
                        "BackchannelLinked",
                        idx,
                        f"links to backchannel line {ref.line} ({t[ref.line].text!r})",
                    )
                )
            gap = idx - ref.line
            if gap > long_gap:
                lints.append(
                    ValidationIssue(
                        "LongGap", idx, f"gap {gap} to line {ref.line} exceeds {long_gap}"
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


def thread_stats(t: Transcript, g: GoldAnnotations) -> ThreadStats:
    n_words = sum(len(u.text.split()) for u in t.utterances)
    n_no_thread = sum(1 for lbl in g.thread.values() if lbl.is_new_thread_only)
    gaps: list[int] = []
    any_split_with_new = False
    for idx in sorted(g.thread):
        label = g.thread[idx]
        for ref in label.line_refs:
            gaps.append(idx - ref.line)
        if label.line_refs and any(isinstance(tg, NewThread) for tg in label.targets):
            any_split_with_new = True
    if gaps:
        mean_gap: float | None = sum(gaps) / len(gaps)
        min_gap: int | None = min(gaps)
        max_gap: int | None = max(gaps)
        raw_row_min = 0 if any_split_with_new else min_gap
    else:
        mean_gap = min_gap = max_gap = raw_row_min = None
    return ThreadStats(
        n_utterances=len(t),
        n_words=n_words,
        n_no_thread=n_no_thread,
        n_links=len(gaps),
        mean_gap=mean_gap,
        min_gap=min_gap,
        max_gap=max_gap,
        raw_row_min_gap=raw_row_min,
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
    n_no_thread = 0
    gaps: list[int] = []
    any_split_with_new = False
    code_counts = {c: 0 for c in sorted(VALID_CODES)}
    for t, g in pairs:
        st = thread_stats(t, g)
        n_no_thread += st.n_no_thread
        for idx in sorted(g.thread):
            label = g.thread[idx]
            gaps.extend(idx - ref.line for ref in label.line_refs)
            if label.line_refs and any(isinstance(tg, NewThread) for tg in label.targets):
                any_split_with_new = True
        for idx in range(1, len(t) + 1):
            for c in g.codes_at(idx).letters:
                code_counts[c] += 1
    stats: dict[str, object] = {
        "n_transcripts": len(pairs),
        "total_utterances": total_utt,
        "total_words": total_words,
        "avg_utterances_per_transcript": total_utt / len(pairs),
        "avg_words_per_transcript": total_words / len(pairs),
        "avg_words_per_utterance": total_words / total_utt,
        "n_no_thread": n_no_thread,
        "n_links": len(gaps),
        "mean_gap": sum(gaps) / len(gaps) if gaps else None,
        "min_gap": min(gaps) if gaps else None,
        "max_gap": max(gaps) if gaps else None,
        "raw_row_min_gap": (0 if any_split_with_new else min(gaps)) if gaps else None,
        "code_proportions": {c: code_counts[c] / total_utt for c in sorted(code_counts)},
    }
    return stats


# ---------------------------------------------------------------------------
# Corpus directory loading
# ---------------------------------------------------------------------------


def load_corpus(corpus_dir: str | Path) -> dict[str, tuple[Transcript, GoldAnnotations]]:
    """Load a corpus directory driven by its ``manifest.json``.

    The manifest lists transcripts as objects with ``id``, ``scenario``,
    ``transcript`` and ``gold`` file names (relative to the directory).
    Returns transcripts keyed by id, in manifest order.
    """
    corpus_dir = Path(corpus_dir)
    manifest_path = corpus_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    pairs: dict[str, tuple[Transcript, GoldAnnotations]] = {}
    for entry in manifest["transcripts"]:
        t_path = corpus_dir / entry["transcript"]
        g_path = corpus_dir / entry["gold"]
        t = _parse_file(parse_transcript, t_path, transcript_id=entry["id"],
                        scenario=entry.get("scenario", ""))
        g = _parse_file(parse_gold, g_path, transcript_id=entry["id"])
        if entry["id"] in pairs:
            exc = MalformedRecord(0, f"duplicate transcript id {entry['id']!r} in manifest")
            exc.path = manifest_path
            raise exc
        pairs[entry["id"]] = (t, g)
    return pairs


def _parse_file(parse: Callable, path: Path, **kw):
    """``parse`` the file's text, as CSV for a ``.csv`` suffix; a CorpusError names the file."""
    fmt = "csv" if path.suffix == ".csv" else "jsonl"
    try:
        return parse(path.read_text(encoding="utf-8"), fmt=fmt, **kw)
    except CorpusError as exc:
        exc.path = path
        raise


def bundled_corpus_dir() -> Path:
    """Directory of the synthetic corpus that ships with the package."""
    return Path(__file__).parent / "data" / "corpus"
