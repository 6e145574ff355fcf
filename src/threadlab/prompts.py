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
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import GoldAnnotations, ThreadLabel, Transcript, Utterance, format_timestamp
from .windowing import Window

TEMPLATES_DIR = Path(__file__).parent / "templates"

TEMPLATE_IDS = (
    "thread_all_at_once",
    "thread_window",
    "abcde_window_plain",
    "abcde_window_threaded",
    "abcde_full_plain",
    "abcde_full_threaded",
    "baseline_lee",
    "baseline_qamar",
    "baseline_martinenghi",
)

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

ABCDE_VARIANTS = (
    "abcde_window_plain",
    "abcde_window_threaded",
    "abcde_full_plain",
    "abcde_full_threaded",
)
BASELINE_VARIANTS = ("baseline_lee", "baseline_qamar", "baseline_martinenghi")

MAX_SHOTS = 3


class MissingThreadLabel(Exception):
    def __init__(self, index: int):
        super().__init__(f"no thread label available for utterance {index}")
        self.index = index


# Markers every prompt of a template carries: around the transcript block,
# and on code-labeling windows around the target line too.
_TRANSCRIPT_DELIMITERS = ("<<<TRANSCRIPT_START>>>", "<<<TRANSCRIPT_END>>>")
_TARGET_DELIMITERS = ("<<<TARGET_START>>>", "<<<TARGET_END>>>")


@lru_cache(maxsize=None)
def _load(template_id: str, template_dir: str | None) -> str:
    """A template's text, checked once for its delimiters.

    Substitution keeps all literal text, so every prompt rendered from a
    template that has them has them too. The error is not cached.
    """
    base = Path(template_dir) if template_dir else TEMPLATES_DIR
    raw = (base / f"{template_id}.txt").read_text(encoding="utf-8").replace("\r\n", "\n")
    needles = _TRANSCRIPT_DELIMITERS
    if template_id.startswith("abcde_window"):
        needles += _TARGET_DELIMITERS
    lost = [needle for needle in needles if needle not in raw]
    if lost:
        raise ValueError(f"{template_id}: template lacks delimiters {lost}")
    return raw


def load_template(template_id: str, template_dir: str | Path | None = None) -> str:
    if template_id not in TEMPLATE_VARIABLES:
        raise KeyError(f"unknown template {template_id!r}")
    return _load(template_id, str(template_dir) if template_dir else None)


@lru_cache(maxsize=64)
def _split(template_id: str, text: str) -> tuple[str, ...]:
    """Template text cut at its declared placeholders.

    Literal text sits at even positions and placeholder names at odd ones.
    A template that never mentions a declared variable raises; the error is
    not cached, so it is raised again on every call.
    """
    declared = sorted(TEMPLATE_VARIABLES[template_id])
    absent = [name for name in declared if "{" + name + "}" not in text]
    if absent:
        raise ValueError(f"{template_id}: template never mentions {absent}")
    pattern = re.compile(r"\{(" + "|".join(re.escape(name) for name in declared) + r")\}")
    return tuple(pattern.split(text))


def substitute(template_id: str, text: str, values: Mapping[str, object]) -> str:
    """Replace declared ``{name}`` placeholders in a single pass.

    Single-pass means substituted content is never rescanned, so utterance
    text cannot smuggle in further placeholders. Raises if a declared variable
    is missing from ``values`` or an undeclared one is supplied.
    """
    declared = TEMPLATE_VARIABLES[template_id]
    if values.keys() != declared:
        extra = set(values) - declared
        if extra:
            raise ValueError(f"{template_id}: undeclared variables {sorted(extra)}")
        missing = declared - set(values)
        raise ValueError(f"{template_id}: missing variables {sorted(missing)}")
    parts = list(_split(template_id, text))
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
    :func:`render_window` refuses as a missing thread label.
    """
    if labels is None:
        return [utterance_line(u) for u in utterances]
    return [
        None if (label := labels.get(u.index)) is None else utterance_line(u, label)
        for u in utterances
    ]


def transcript_block(
    utterances: Sequence[Utterance],
    labels: Mapping[int, ThreadLabel] | None = None,
    require_labels: bool = False,
) -> str:
    lines = []
    for u in utterances:
        label = labels.get(u.index) if labels else None
        if require_labels and label is None:
            raise MissingThreadLabel(u.index)
        lines.append(utterance_line(u, label))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Rendered prompt container
# ---------------------------------------------------------------------------

OUTPUT_KINDS = ("thread_line", "code_line", "thread_block", "code_block")


@dataclass(frozen=True)
class OutputContract:
    """What a well-behaved response to this prompt looks like."""

    kind: str
    n_lines: int

    def __post_init__(self):
        if self.kind not in OUTPUT_KINDS:
            raise ValueError(f"unknown output kind {self.kind!r}")
        if self.n_lines < 1:
            raise ValueError("n_lines must be >= 1")


@dataclass(frozen=True)
class RenderedPrompt:
    """Prompt text plus the metadata needed to parse and attribute the response.

    ``target_index``/``target_speaker`` identify the one line a single-line
    prompt asks about; block prompts instead carry the full ``expected_entries``
    of (index, speaker) pairs.
    """

    template_id: str
    text: str
    expected_output: OutputContract
    target_index: int | None
    target_speaker: str | None
    transcript_id: str = ""
    expected_entries: tuple[tuple[int, str], ...] | None = None


_THREAD_LINE = OutputContract(kind="thread_line", n_lines=1)
_CODE_LINE = OutputContract(kind="code_line", n_lines=1)


def render_window(
    template_id: str,
    lines: Sequence[str | None],
    target: Utterance,
    n: int,
    transcript_id: str = "",
    template_dir: str | Path | None = None,
) -> RenderedPrompt:
    """A single-line prompt from its window's transcript lines, the target's last.

    Every window template renders here: ``thread_window``, the two
    ``abcde_window`` variants, ``baseline_lee`` and ``baseline_qamar``.
    ``lines`` come from :func:`utterance_line`; a None line stands for a
    thread label that is missing and raises MissingThreadLabel. ``n`` is the
    configured window size, which ``thread_window`` states.
    """
    if None in lines:
        raise MissingThreadLabel(target.index - len(lines) + 1 + lines.index(None))
    values: dict[str, object] = {"transcript_block": "\n".join(lines)}
    if template_id == "thread_window":
        values["window_n"] = n
    elif template_id != "baseline_qamar":
        values["target_speaker"] = target.speaker
        values["target_text"] = target.text
        if template_id != "baseline_lee":
            values["target_timestamp"] = format_timestamp(target.timestamp_ms)
    text = substitute(template_id, load_template(template_id, template_dir), values)
    return RenderedPrompt(
        template_id=template_id,
        text=text,
        expected_output=_THREAD_LINE if template_id == "thread_window" else _CODE_LINE,
        target_index=target.index,
        target_speaker=target.speaker,
        transcript_id=transcript_id,
    )


# ---------------------------------------------------------------------------
# Threading prompts
# ---------------------------------------------------------------------------


def render_thread_window(w: Window, template_dir: str | Path | None = None) -> RenderedPrompt:
    """Sliding-window threading prompt: labeled context, unlabeled target line."""
    lines = [utterance_line(u, label) for u, label in w.context]
    lines.append(utterance_line(w.target))
    return render_window("thread_window", lines, w.target, w.n, w.transcript_id, template_dir)


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
        block = transcript_block(shot_t.utterances, shot_g.thread, require_labels=True)
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
    text = substitute(
        "thread_all_at_once",
        load_template("thread_all_at_once", template_dir),
        {
            "shots_block": _shots_block(shots),
            "transcript_block": transcript_block(t.utterances),
            "num_utterances": len(t),
        },
    )
    return RenderedPrompt(
        template_id="thread_all_at_once",
        text=text,
        expected_output=OutputContract(kind="thread_block", n_lines=len(t)),
        target_index=None,
        target_speaker=None,
        transcript_id=t.id,
        expected_entries=tuple((u.index, u.speaker) for u in t.utterances),
    )


# ---------------------------------------------------------------------------
# Code-labeling prompts
# ---------------------------------------------------------------------------


def _window_payload(variant: str, payload: object) -> Window:
    if not isinstance(payload, Window):
        raise TypeError(f"{variant} expects a Window payload, got {type(payload).__name__}")
    return payload


def _transcript_payload(variant: str, payload: object) -> Transcript:
    if not isinstance(payload, Transcript):
        raise TypeError(f"{variant} expects a Transcript payload, got {type(payload).__name__}")
    return payload


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

    if variant.startswith("abcde_window"):
        w = _window_payload(variant, payload)
        lines = transcript_lines(
            [u for u, _ in w.context] + [w.target], thread_labels if threaded else None
        )
        return render_window(variant, lines, w.target, w.n, w.transcript_id, template_dir)

    t = _transcript_payload(variant, payload)
    block = transcript_block(
        t.utterances, thread_labels if threaded else None, require_labels=threaded
    )
    text = substitute(
        variant,
        load_template(variant, template_dir),
        {"transcript_block": block, "num_utterances": len(t)},
    )
    return RenderedPrompt(
        template_id=variant,
        text=text,
        expected_output=OutputContract(kind="code_block", n_lines=len(t)),
        target_index=None,
        target_speaker=None,
        transcript_id=t.id,
        expected_entries=tuple((u.index, u.speaker) for u in t.utterances),
    )


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

    if variant == "baseline_martinenghi":
        t = _transcript_payload(variant, payload)
        text = substitute(
            variant,
            load_template(variant, template_dir),
            {"transcript_block": transcript_block(t.utterances), "num_utterances": len(t)},
        )
        return RenderedPrompt(
            template_id=variant,
            text=text,
            expected_output=OutputContract(kind="code_block", n_lines=len(t)),
            target_index=None,
            target_speaker=None,
            transcript_id=t.id,
            expected_entries=tuple((u.index, u.speaker) for u in t.utterances),
        )

    w = _window_payload(variant, payload)
    lines = transcript_lines([u for u, _ in w.context] + [w.target])
    return render_window(variant, lines, w.target, w.n, w.transcript_id, template_dir)
