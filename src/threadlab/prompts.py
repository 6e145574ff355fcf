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
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
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
def _compile(template_id: str, template_dir: str | Path | None) -> tuple[str, ...]:
    """A template's text, read and checked once, cut at its declared placeholders.

    Literal text sits at even positions and placeholder names at odd ones.
    Filling the names keeps every literal, so a template with its delimiters
    and every declared placeholder renders prompts that have them too. Errors
    are not cached, so a faulty template raises on every render.
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
    return tuple(pattern.split(text))


def _fill(template_id: str, template_dir: str | Path | None, values: Mapping[str, object]) -> str:
    """The template filled in one pass: utterance text cannot smuggle in placeholders."""
    parts = list(_compile(template_id, template_dir))
    for i in range(1, len(parts), 2):
        parts[i] = str(values[parts[i]])
    return "".join(parts)


# ---------------------------------------------------------------------------
# Transcript serialization inside prompts
# ---------------------------------------------------------------------------


def utterance_line(u: Utterance, label: ThreadLabel | None = None) -> str:
    """``#3 Prerna: text`` with `` [respond_line= X]`` appended when labeled."""
    line = f"#{u.index} {u.speaker}: {u.text}"
    if label is not None:
        line += f" [respond_line= {label.surface()}]"
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
    """

    text: str
    expected_output: OutputContract
    target_index: int | None
    target_speaker: str | None
    transcript_id: str
    expected_entries: tuple[tuple[int, str], ...]


_THREAD_LINE = OutputContract("thread_line")
_CODE_LINE = OutputContract("code_line")
_THREAD_BLOCK = OutputContract("thread_block")
_CODE_BLOCK = OutputContract("code_block")


# The target utterance's fields that window templates show, by placeholder name.
_TARGET_FIELDS: dict[str, Callable[[Utterance], str]] = {
    "target_speaker": attrgetter("speaker"),
    "target_text": attrgetter("text"),
    "target_timestamp": lambda u: format_timestamp(u.timestamp_ms),
}

WindowRenderer = Callable[[Sequence[str | None], Utterance, str], RenderedPrompt]


@lru_cache(maxsize=None)
def window_renderer(
    template_id: str, n: int, template_dir: str | Path | None = None
) -> WindowRenderer:
    """The single-line prompt function of a window template, for windows of size ``n``.

    Every window template renders here: ``thread_window``, the two
    ``abcde_window`` variants, ``baseline_lee`` and ``baseline_qamar``. The
    template's parts are cut once, with ``window_n`` (the configured window
    size, which ``thread_window`` states) filled in and neighbouring literals
    joined, so ``thread_window`` is a prefix, the transcript block and a
    suffix. The function takes the window's transcript lines, the target's
    last, from :func:`utterance_line` (a None line stands for a thread label
    that is missing and raises MissingThreadLabel), the target utterance and
    the transcript id.
    """
    parts = [""]
    for k, part in enumerate(_compile(template_id, template_dir)):
        if k % 2 and part != "window_n":
            parts += part, ""
        else:
            parts[-1] += str(n) if k % 2 else part
    parts = tuple(parts)
    contract = _THREAD_LINE if template_id == "thread_window" else _CODE_LINE

    def render(
        lines: Sequence[str | None], target: Utterance, transcript_id: str = ""
    ) -> RenderedPrompt:
        block = _block(lines, target.index - len(lines) + 1)
        if len(parts) == 3:  # prefix, the transcript block, suffix
            text = parts[0] + block + parts[2]
        else:  # the target's fields too, or the block more than once
            text = parts[0]
            for k in range(1, len(parts), 2):
                name = parts[k]
                value = block if name == "transcript_block" else _TARGET_FIELDS[name](target)
                text += value + parts[k + 1]
        return RenderedPrompt(
            text, contract, target.index, target.speaker, transcript_id,
            ((target.index, target.speaker),),
        )

    return render


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
    values: dict[str, object] = {
        "transcript_block": _block(transcript_lines(t.utterances, labels), 1),
        "num_utterances": len(t),
    }
    contract = _CODE_BLOCK
    if template_id == "thread_all_at_once":
        values["shots_block"] = _shots_block(shots)
        contract = _THREAD_BLOCK
    text = _fill(template_id, template_dir, values)
    return RenderedPrompt(
        text, contract, None, None, t.id, tuple((u.index, u.speaker) for u in t.utterances)
    )


# ---------------------------------------------------------------------------
# Threading prompts
# ---------------------------------------------------------------------------


def render_thread_window(w: Window, template_dir: str | Path | None = None) -> RenderedPrompt:
    """Sliding-window threading prompt: labeled context, unlabeled target line."""
    lines = [utterance_line(u, label) for u, label in w.context]
    lines.append(utterance_line(w.target))
    return window_renderer("thread_window", w.n, template_dir)(lines, w.target, w.transcript_id)


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
    lines = transcript_lines([u for u, _ in payload.context] + [payload.target], labels)
    return window_renderer(variant, payload.n, template_dir)(
        lines, payload.target, payload.transcript_id
    )
