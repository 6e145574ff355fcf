"""Sliding windows over a transcript for incremental labeling.

A window holds the target utterance plus the utterances immediately before it,
capped at n - 1 lines of context. Depending on the feedback mode, context
lines carry thread labels taken from the model's own earlier predictions
(``self``), from human annotation (``gold``), or none at all (``none``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, TypeVar

from .corpus import ThreadLabel, Transcript, Utterance

FEEDBACK_MODES = ("self", "gold", "none")


class MissingThreadLabel(Exception):
    """A window or prompt line needs the thread label of an utterance that has none."""

    def __init__(self, index: int):
        super().__init__(f"no thread label available for utterance {index}")
        self.index = index


@dataclass(frozen=True)
class WindowConfig:
    n: int  # window size including the target line
    feedback: str = "self"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"window size must be >= 2, got {self.n}")
        if self.feedback not in FEEDBACK_MODES:
            raise ValueError(f"feedback must be one of {FEEDBACK_MODES}, got {self.feedback!r}")


@dataclass(frozen=True)
class Window:
    """Context lines (with labels unless feedback is off) plus the unlabeled target."""

    context: tuple[tuple[Utterance, ThreadLabel | None], ...]
    target: Utterance
    target_index: int
    n: int  # configured window size; actual size is min(n, target_index)
    transcript_id: str = ""

    def __post_init__(self):
        k = min(self.n, self.target_index)
        if len(self.context) != k - 1:
            raise ValueError(
                f"window at {self.target_index} needs {k - 1} context lines, "
                f"got {len(self.context)}"
            )


T = TypeVar("T")


def context_slice(items: Sequence[T], target_index: int, n: int) -> Sequence[T]:
    """The entries a window of size ``n`` shows before its target, in order.

    ``items`` holds one entry per utterance in index order: the utterances
    themselves, or their prompt lines. That is the ``min(n, target_index) - 1``
    entries just before utterance ``target_index``.
    """
    return items[max(0, target_index - n) : target_index - 1]


def make_window(
    t: Transcript,
    target_index: int,
    cfg: WindowConfig,
    labels: Mapping[int, ThreadLabel] | None = None,
) -> Window:
    """Build the window ending at ``target_index``.

    Context is exactly the ``min(cfg.n, target_index) - 1`` utterances
    immediately before the target; early targets simply see everything
    available, and the first utterance gets an empty context rather than any
    special-case label. With feedback on, every context line must have a label
    in ``labels``.
    """
    if not 1 <= target_index <= len(t):
        raise IndexError(f"target index {target_index} outside 1..{len(t)}")
    context = []
    # Transcript guarantees utterances[i].index == i + 1.
    for u in context_slice(t.utterances, target_index, cfg.n):
        if cfg.feedback == "none":
            label = None
        else:
            label = (labels or {}).get(u.index)
            if label is None:
                raise MissingThreadLabel(u.index)
        context.append((u, label))
    return Window(
        context=tuple(context),
        target=t.utterances[target_index - 1],
        target_index=target_index,
        n=cfg.n,
        transcript_id=t.id,
    )
