"""Deterministic prompt rendering from external template assets.

Templates live as UTF-8 text files next to this module. The only templating
feature is ``{name}`` substitution for a fixed set of declared variables per
template; braces that are part of the instructions shown to the model (for
example the output-format line ``{line_number} {speaker} [A, B, ...]``) are
left alone because their names are never declared. Rendering is a pure
function of its inputs, so prompts can be frozen as golden files and compared
byte for byte.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .corpus import GoldAnnotations, ThreadLabel, Transcript, Utterance, format_timestamp
from .schema import FileError, decoded, read
from .windowing import MissingThreadLabel, Window

TEMPLATES_DIR = Path(__file__).parent / "templates"

# Substitution variables each template declares. Anything else in braces is
# literal prompt text.
TEMPLATE_VARIABLES: dict[str, frozenset[str]] = {
    "thread_all_at_once": frozenset({"shots_block", "transcript_block", "num_utterances"}),
    "thread_window": frozenset({"window_n", "transcript_block"}),
    "abcde_window_plain": frozenset(
        {"transcript_block", "target_timestamp", "target_speaker", "target_text"}
    ),
    "abcde_window_threaded": frozenset(
        {"transcript_block", "target_timestamp", "target_speaker", "target_text"}
    ),
    "abcde_full_plain": frozenset({"transcript_block", "num_utterances"}),
    "abcde_full_threaded": frozenset({"transcript_block", "num_utterances"}),
    "baseline_lee": frozenset({"transcript_block", "target_speaker", "target_text"}),
    "baseline_qamar": frozenset({"transcript_block"}),
    "baseline_martinenghi": frozenset({"transcript_block", "num_utterances"}),
}
TEMPLATE_IDS = tuple(TEMPLATE_VARIABLES)
# Templates that ask about every utterance of a whole transcript, which is
# what stating its length means; every other template asks about one target.
WHOLE_TRANSCRIPT_TEMPLATES = frozenset(
    t for t, names in TEMPLATE_VARIABLES.items() if "num_utterances" in names
)

ABCDE_VARIANTS = tuple(t for t in TEMPLATE_IDS if t.startswith("abcde_"))
BASELINE_VARIANTS = tuple(t for t in TEMPLATE_IDS if t.startswith("baseline_"))

MAX_SHOTS = 3


class TemplateError(FileError):
    """A template file that lacks a delimiter or a declared placeholder."""


# Markers every prompt of a template carries: around the transcript block,
# and around the target line on templates that show its text.
TRANSCRIPT_START = "<<<TRANSCRIPT_START>>>"
_TRANSCRIPT_DELIMITERS = (TRANSCRIPT_START, "<<<TRANSCRIPT_END>>>")
_TARGET_DELIMITERS = ("<<<TARGET_START>>>", "<<<TARGET_END>>>")


@lru_cache(maxsize=None)
def _compile(
    template_id: str, template_dir: str | Path | None, window_n: int | None = None
) -> tuple[str, tuple[tuple[str, str, bytes], ...]]:
    """A template's text, read and checked once, cut at its declared placeholders.

    Gives the head, the template's whole first literal, then for each
    placeholder but ``window_n`` its name, the literal after it and the bytes
    JSON writes for that literal. ``window_n`` (the configured window size,
    which ``thread_window`` states) is filled in where it stands, joining the
    literals around it. Filling the names keeps every literal, so a template
    with its delimiters and every declared placeholder renders prompts that
    have them too. Errors are not cached, so a faulty template raises on every
    render.
    """
    path = (Path(template_dir) if template_dir else TEMPLATES_DIR) / f"{template_id}.txt"
    text = read(path, decoded).replace("\r\n", "\n")
    declared = sorted(TEMPLATE_VARIABLES[template_id])
    needles = _TRANSCRIPT_DELIMITERS
    if "target_text" in declared:
        needles += _TARGET_DELIMITERS
    lost = [needle for needle in needles if needle not in text]
    if lost:
        raise TemplateError(f"{path}: template lacks delimiters {lost}")
    absent = [name for name in declared if "{" + name + "}" not in text]
    if absent:
        raise TemplateError(f"{path}: template never mentions {absent}")
    pattern = re.compile(r"\{(" + "|".join(re.escape(name) for name in declared) + r")\}")
    parts = [""]
    for k, part in enumerate(pattern.split(text)):
        if k % 2 and part != "window_n":
            parts += part, ""
        else:
            parts[-1] += str(window_n) if k % 2 else part
    return parts[0], tuple(
        (name, literal, _escaped(literal)) for name, literal in zip(parts[1::2], parts[2::2])
    )


# ---------------------------------------------------------------------------
# Transcript serialization inside prompts
# ---------------------------------------------------------------------------


def _label_suffix(label: ThreadLabel) -> str:
    """`` [respond_line= X]``: ASCII that JSON writes as it is."""
    return f" [respond_line= {label.surface()}]"


def utterance_line(u: Utterance, label: ThreadLabel | None = None) -> str:
    """``#3 Prerna: text`` with `` [respond_line= X]`` appended when labeled."""
    line = f"#{u.index} {u.speaker}: {u.text}"
    if label is not None:
        line += _label_suffix(label)
    return line


def transcript_lines(
    utterances: Sequence[Utterance], labels: Mapping[int, ThreadLabel] | None = None
) -> list[str | None]:
    """Each utterance's prompt line, labeled from ``labels`` when given.

    With ``labels``, the line of an utterance they leave out is None, which
    every prompt refuses as a missing thread label.
    """
    if labels is None:
        return [utterance_line(u) for u in utterances]
    return [
        None if (label := labels.get(u.index)) is None else utterance_line(u, label)
        for u in utterances
    ]


def _block(lines: Sequence[str | None], first: int) -> str:
    """A transcript block from the lines of utterances ``first``, ``first`` + 1, ...

    A None line raises MissingThreadLabel for its utterance.
    """
    if None in lines:
        raise MissingThreadLabel(first + lines.index(None))
    return "\n".join(lines)


# UTF-8 bytes that JSON escapes other than the quote, the backslash and "\n".
_RARE_ESCAPES = bytes(b for b in range(0x20) if b != 0x0A)


def _escaped(text: str) -> bytes:
    """The UTF-8 bytes JSON writes for ``text`` inside a string.

    With ensure_ascii=False JSON escapes only ASCII characters: the quote, the
    backslash and the control characters. Multi-byte UTF-8 sequences hold no
    ASCII byte, so the encoded text is escaped in place when "\\n" is its only
    control character; any other one takes encode_basestring.
    """
    data = text.encode("utf-8")
    if len(data.translate(None, _RARE_ESCAPES)) == len(data):
        return data.replace(b"\\", b"\\\\").replace(b'"', b'\\"').replace(b"\n", b"\\n")
    return encode_basestring(text)[1:-1].encode("utf-8")


class WindowLines:
    """Prompt lines of one transcript, as one text and its JSON escape.

    ``text`` holds the lines, each followed by "\\n". ``escaped`` holds the
    UTF-8 bytes JSON writes for that text inside a string, where each "\\n" is
    the two bytes ``\\\\n``. Line k (from 0) starts at ``starts[k]`` in the text
    and at ``escaped_starts[k]`` in the escaped bytes, and each list ends with
    its buffer's length, so a run of lines is one slice of each. A None line, a
    thread label that is missing, raises MissingThreadLabel for its utterance,
    line k being utterance ``first`` + k.

    Lines that hold nothing JSON escapes and no character beyond ASCII are
    ``plain``: escaped as one text, only their line ends grow. Other lines are
    escaped one by one.
    """

    __slots__ = ("text", "escaped", "starts", "escaped_starts", "plain")

    def __init__(self, lines: Sequence[str | None], first: int = 1):
        if None in lines:
            raise MissingThreadLabel(first + lines.index(None))
        self.text = text = "\n".join(lines) + "\n" if lines else ""
        self.starts = list(accumulate(map((1).__add__, map(len, lines)), initial=0))
        self.plain = text.isascii() and len(escaped := _escaped(text)) == len(text) + len(lines)
        if self.plain:
            self.escaped = escaped
            self.escaped_starts = [start + k for k, start in enumerate(self.starts)]
        else:
            escaped = [_escaped(line) + b"\\n" for line in lines]
            self.escaped = b"".join(escaped)
            self.escaped_starts = list(accumulate(map(len, escaped), initial=0))


class FedLines:
    """The context lines a self-feedback chain shows: the last ``size`` lines it
    labeled, each followed by "\\n", as text and as the bytes JSON writes for it.

    The chain labels its targets in order and feeds each one, so at each
    target these are the lines its window shows before it.
    """

    __slots__ = ("text", "escaped")

    def __init__(self, size: int):
        self.text: deque[str] = deque(maxlen=size)
        self.escaped: deque[bytes] = deque(maxlen=size)

    def feed(self, lines: WindowLines, k: int, label: ThreadLabel) -> None:
        """Add line ``k`` of ``lines`` with ``label`` appended, sliced from its
        text and escaped bytes: the label's suffix holds nothing JSON escapes."""
        s, e, suffix = lines.starts, lines.escaped_starts, _label_suffix(label)
        self.text.append(f"{lines.text[s[k]:s[k + 1] - 1]}{suffix}\n")
        self.escaped.append(b"%s%s\\n" % (lines.escaped[e[k]:e[k + 1] - 2], suffix.encode()))


# ---------------------------------------------------------------------------
# Rendered prompt container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutputContract:
    """What a well-behaved response to this prompt looks like: one of
    ``thread_line``, ``code_line``, ``thread_block`` or ``code_block``."""

    kind: str


@dataclass(slots=True)
class RenderedPrompt:
    """Prompt text plus the metadata needed to parse and attribute the response.

    ``expected_entries`` are the (index, speaker) pairs the response must
    label, in order: a window prompt's one target, or every utterance of a
    block prompt's transcript. ``target_index``/``target_speaker`` repeat a
    window prompt's target and are None on block prompts.

    Every renderer also gives ``head``, its template's first literal, which
    starts ``text``, and ``escaped_tail``, the UTF-8 bytes JSON writes for the
    rest of ``text``: what :func:`llm.prompt_digest` hashes after the head. A
    prompt built without them is hashed from ``text`` whole.
    """

    text: str
    expected_output: OutputContract
    target_index: int | None
    target_speaker: str | None
    transcript_id: str
    expected_entries: tuple[tuple[int, str], ...]
    escaped_tail: bytes | None = None
    head: str = ""


_THREAD_LINE = OutputContract("thread_line")
_CODE_LINE = OutputContract("code_line")
_THREAD_BLOCK = OutputContract("thread_block")
_CODE_BLOCK = OutputContract("code_block")


# The target utterance's fields that window templates show, by placeholder
# name, as expressions of ``target`` in a window renderer's compiled function.
_TARGET_FIELDS = {
    "target_speaker": "target.speaker",
    "target_text": "target.text",
    "target_timestamp": "format_timestamp(target.timestamp_ms)",
}


@dataclass(slots=True)
class WindowText:
    """The buffers a run's window prompts over one transcript are sliced from.

    A window shows its context lines from ``context`` and its target's line
    from ``lines``; they are one buffer where the target's line is labeled as
    the context's are. Position k of both is utterance ``first`` + k.
    """

    context: WindowLines | FedLines
    lines: WindowLines
    first: int = 1


WindowRenderer = Callable[[WindowText, Utterance, str], RenderedPrompt]


# The start of every window renderer's compiled function: the transcript block
# of ``target``'s window, as pieces of text and of escaped bytes sliced from
# ``text``'s buffers.
_WINDOW_BLOCK = (
    "    i = target.index - text.first + 1",  # the target's line is position i - 1
    "    a = i - n if i > n else 0",
    "    context, lines = text.context, text.lines",
    "    s, e = lines.starts, lines.escaped_starts",
    "    if context is lines:",
    "        block = lines.text[s[a]:s[i] - 1],",
    "        block_escaped = lines.escaped[e[a]:e[i] - 2],",
    "    else:",
    "        line = lines.text[s[i - 1]:s[i] - 1]",
    "        line_escaped = lines.escaped[e[i - 1]:e[i] - 2]",
    "        if type(context) is FedLines:",
    "            block = *context.text, line",
    "            block_escaped = *context.escaped, line_escaped",
    "        else:",
    "            cs, ce = context.starts, context.escaped_starts",
    "            block = context.text[cs[a]:cs[i - 1]], line",
    "            block_escaped = context.escaped[ce[a]:ce[i - 1]], line_escaped",
)


@lru_cache(maxsize=None)
def window_renderer(
    template_id: str, n: int, template_dir: str | Path | None = None
) -> WindowRenderer:
    """The single-line prompt function of a window template, for windows of size ``n``.

    Every window template renders here: ``thread_window``, the two
    ``abcde_window`` variants, ``baseline_lee`` and ``baseline_qamar``. The
    template is cut once, with ``n`` filled in as ``window_n``, and its
    literals are escaped once. The function takes a transcript's
    :class:`WindowText`, the target utterance and the transcript id. A
    prompt's text, and the escaped bytes of its text after the head, are each
    one join of the literals, slices of the WindowText and the target's
    fields. The function is compiled once per template, as :mod:`dataclasses`
    compiles ``__init__``, so a call walks no list of placeholders.
    """
    head, split = _compile(template_id, template_dir, n)
    scope = {
        "RenderedPrompt": RenderedPrompt, "FedLines": FedLines, "_escaped": _escaped,
        "format_timestamp": format_timestamp, "head": head, "n": n,
        "contract": _THREAD_LINE if template_id == "thread_window" else _CODE_LINE,
    }
    # Each placeholder's value, then the literal after it, named in the scope.
    fields, text_parts, escaped_parts = [], ["head"], []
    for k, (name, literal, literal_escaped) in enumerate(split):
        scope[f"literal{k}"], scope[f"escaped{k}"] = literal, literal_escaped
        if name == "transcript_block":
            text_parts.append("*block")
            escaped_parts.append("*block_escaped")
        else:
            fields.append(f"    value{k} = {_TARGET_FIELDS[name]}")
            text_parts.append(f"value{k}")
            escaped_parts.append(f"encode(value{k})")
        text_parts.append(f"literal{k}")
        escaped_parts.append(f"escaped{k}")
    if fields:
        # The target's fields are parts of its line, so they hold nothing
        # JSON escapes when the line's buffer holds nothing.
        fields.insert(0, "    encode = str.encode if text.lines.plain else _escaped")
    exec("\n".join([
        "def render(text, target, transcript_id=''):",
        *_WINDOW_BLOCK,
        *fields,
        "    return RenderedPrompt(",
        f"        ''.join([{', '.join(text_parts)}]), contract, target.index, target.speaker,",
        "        transcript_id, ((target.index, target.speaker),),",
        f"        b''.join([{', '.join(escaped_parts)}]), head,",
        "    )",
    ]), scope)
    return scope["render"]


def render_full(
    template_id: str,
    t: Transcript,
    labels: Mapping[int, ThreadLabel] | None = None,
    shots: Sequence[tuple[Transcript, GoldAnnotations]] = (),
    template_dir: str | Path | None = None,
) -> RenderedPrompt:
    """A block prompt asking for one line per utterance of the whole transcript.

    Every whole-transcript template renders here: ``thread_all_at_once``, the
    two ``abcde_full`` variants and ``baseline_martinenghi``. With ``labels``,
    every utterance is labeled from them, and one they leave out raises
    MissingThreadLabel. ``shots`` are the labeled example transcripts that
    only ``thread_all_at_once`` embeds.
    """
    values = {
        "transcript_block": _block(transcript_lines(t.utterances, labels), 1),
        "num_utterances": str(len(t)),
    }
    contract = _CODE_BLOCK
    if template_id == "thread_all_at_once":
        values["shots_block"] = _shots_block(shots)
        contract = _THREAD_BLOCK
    # Filled in one pass: utterance text cannot smuggle in placeholders.
    head, split = _compile(template_id, template_dir)
    out, out_escaped = [head], []
    for name, literal, literal_escaped in split:
        value = values[name]
        out += value, literal
        out_escaped += _escaped(value), literal_escaped
    return RenderedPrompt(
        "".join(out), contract, None, None, t.id,
        tuple((u.index, u.speaker) for u in t.utterances), b"".join(out_escaped), head,
    )


# ---------------------------------------------------------------------------
# Threading prompts
# ---------------------------------------------------------------------------


def render_thread_window(w: Window, template_dir: str | Path | None = None) -> RenderedPrompt:
    """Sliding-window threading prompt: labeled context, unlabeled target line."""
    utterances = [u for u, _ in w.context] + [w.target]
    context = WindowLines([utterance_line(u, label) for u, label in w.context])
    text = WindowText(context, WindowLines(transcript_lines(utterances)), utterances[0].index)
    return window_renderer("thread_window", w.n, template_dir)(text, w.target, w.transcript_id)


def _shots_block(shots: Sequence[tuple[Transcript, GoldAnnotations]]) -> str:
    # The lead-in sentence mentions example transcripts only when there are
    # some; the zero-shot wording drops that clause.
    if not shots:
        return " Then I will provide the transcript for threading."
    noun = (
        "an example transcript with labels"
        if len(shots) == 1
        else "example transcripts with labels"
    )
    parts = [
        f" Then I will provide {noun} and a new transcript without labels for threading."
    ]
    for k, (shot_t, shot_g) in enumerate(shots, start=1):
        block = _block(transcript_lines(shot_t.utterances, shot_g.thread), 1)
        parts.append(
            f"\n\n<<<EXAMPLE_{k}_START>>>\n{block}\n<<<EXAMPLE_{k}_END>>>"
        )
    return "".join(parts)


def render_thread_all_at_once(
    t: Transcript,
    shots: Sequence[tuple[Transcript, GoldAnnotations]] = (),
    template_dir: str | Path | None = None,
) -> RenderedPrompt:
    """Whole-transcript threading prompt with 0-3 fully labeled example transcripts.

    Shots are embedded in the order given; the response must contain one label
    line per utterance of the unlabeled transcript.
    """
    if len(shots) > MAX_SHOTS:
        raise ValueError(f"at most {MAX_SHOTS} shots supported, got {len(shots)}")
    return render_full("thread_all_at_once", t, shots=shots, template_dir=template_dir)


# ---------------------------------------------------------------------------
# Code-labeling prompts
# ---------------------------------------------------------------------------


def render_abcde(
    variant: str,
    payload: Window | Transcript,
    thread_labels: Mapping[int, ThreadLabel] | None = None,
    template_dir: str | Path | None = None,
) -> RenderedPrompt:
    """Render one of the four code-labeling prompt variants.

    Window variants take a Window payload and ask for a single code line for
    its target; full variants take a Transcript and ask for one line per
    utterance. Threaded variants additionally weave ``thread_labels`` into the
    transcript block and require a label for every serialized line, including
    the target itself.
    """
    if variant not in ABCDE_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {ABCDE_VARIANTS}")
    threaded = variant.endswith("_threaded")
    if threaded and thread_labels is None:
        raise MissingThreadLabel(0)
    return _render_code(variant, payload, thread_labels if threaded else None, template_dir)


def render_baseline(
    variant: str,
    payload: Window | Transcript,
    template_dir: str | Path | None = None,
) -> RenderedPrompt:
    """Render one of the three baseline code-labeling prompts.

    ``baseline_lee`` and ``baseline_qamar`` work from a window and label its
    last utterance; ``baseline_martinenghi`` labels a whole transcript.
    """
    if variant not in BASELINE_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {BASELINE_VARIANTS}")
    return _render_code(variant, payload, None, template_dir)


def _render_code(
    variant: str,
    payload: object,
    labels: Mapping[int, ThreadLabel] | None,
    template_dir: str | Path | None,
) -> RenderedPrompt:
    """A code-labeling prompt: a whole transcript's for the full-transcript
    variants, a window target's for the others."""
    full = variant in WHOLE_TRANSCRIPT_TEMPLATES
    expected = Transcript if full else Window
    if not isinstance(payload, expected):
        raise TypeError(
            f"{variant} expects a {expected.__name__} payload, got {type(payload).__name__}"
        )
    if full:
        return render_full(variant, payload, labels, template_dir=template_dir)
    utterances = [u for u, _ in payload.context] + [payload.target]
    lines = WindowLines(transcript_lines(utterances, labels), utterances[0].index)
    text = WindowText(lines, lines, utterances[0].index)
    return window_renderer(variant, payload.n, template_dir)(
        text, payload.target, payload.transcript_id
    )
