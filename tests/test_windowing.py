import pytest
from hypothesis import given, settings, strategies as st

from threadlab.corpus import ThreadLabel, Transcript, Utterance
from threadlab.windowing import (
    MissingThreadLabel,
    Window,
    WindowConfig,
    make_window,
)


def _transcript(n: int) -> Transcript:
    utts = tuple(Utterance(i, i * 1000, f"S{i % 3}", f"line {i}") for i in range(1, n + 1))
    return Transcript("t", utts)


def _labels(n: int) -> dict[int, ThreadLabel]:
    return {
        i: ThreadLabel.new_thread() if i == 1 else ThreadLabel.link(i - 1)
        for i in range(1, n + 1)
    }


def test_window_config_rejects_tiny_n():
    with pytest.raises(ValueError):
        WindowConfig(n=1)
    with pytest.raises(ValueError):
        WindowConfig(n=10, feedback="vibes")


def test_make_window_context_is_trailing_slice():
    t = _transcript(30)
    labels = _labels(30)
    w = make_window(t, 25, WindowConfig(n=10), labels)
    assert [u.index for u, _ in w.context] == list(range(16, 25))
    assert w.target.index == 25
    assert all(lbl is labels[u.index] for u, lbl in w.context)


def test_make_window_start_of_transcript():
    t = _transcript(5)
    w = make_window(t, 1, WindowConfig(n=10), {})
    assert w.context == ()
    assert w.target.index == 1


def test_make_window_missing_feedback_label():
    t = _transcript(5)
    with pytest.raises(MissingThreadLabel) as exc:
        make_window(t, 3, WindowConfig(n=10), {1: ThreadLabel.new_thread()})
    assert exc.value.index == 2


def test_make_window_feedback_none_skips_labels():
    t = _transcript(5)
    w = make_window(t, 3, WindowConfig(n=10, feedback="none"))
    assert [lbl for _, lbl in w.context] == [None, None]


@given(
    n_utts=st.integers(1, 200),
    n=st.sampled_from([2, 10, 20, 30]),
    i=st.integers(1, 200),
)
@settings(max_examples=80)
def test_context_index_set_invariant(n_utts, n, i):
    if i > n_utts:
        i = 1 + i % n_utts
    t = _transcript(n_utts)
    w = make_window(t, i, WindowConfig(n=n), _labels(n_utts))
    expected = list(range(max(1, i - n + 1), i))
    assert [u.index for u, _ in w.context] == expected
    assert len(w.context) == min(n, i) - 1
