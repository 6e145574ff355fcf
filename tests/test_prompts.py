import pytest

from threadlab.corpus import Transcript, Utterance
from threadlab.prompts import (
    MAX_SHOTS,
    TEMPLATE_IDS,
    MissingThreadLabel,
    TemplateError,
    render_abcde,
    render_baseline,
    render_thread_all_at_once,
    render_thread_window,
    transcript_lines,
    utterance_line,
)
from threadlab.windowing import WindowConfig, make_window

from conftest import FIXTURES


def _windows(golden_target):
    t, g = golden_target
    i = len(t)
    with_labels = make_window(t, i, WindowConfig(n=10, feedback="gold"), g.thread)
    plain = make_window(t, i, WindowConfig(n=10, feedback="none"))
    return t, g, with_labels, plain


def _render_all(golden_target, golden_shot):
    t, g, w_labeled, w_plain = _windows(golden_target)
    return {
        "thread_window": render_thread_window(w_labeled),
        "thread_all_at_once": render_thread_all_at_once(t, [golden_shot]),
        "abcde_window_plain": render_abcde("abcde_window_plain", w_plain),
        "abcde_window_threaded": render_abcde("abcde_window_threaded", w_plain, g.thread),
        "abcde_full_plain": render_abcde("abcde_full_plain", t),
        "abcde_full_threaded": render_abcde("abcde_full_threaded", t, g.thread),
        "baseline_martinenghi": render_baseline("baseline_martinenghi", t),
        "baseline_lee": render_baseline("baseline_lee", w_plain),
        "baseline_qamar": render_baseline("baseline_qamar", w_plain),
    }


def test_all_nine_templates_render_to_frozen_fixtures(golden_target, golden_shot):
    rendered = _render_all(golden_target, golden_shot)
    assert sorted(rendered) == sorted(TEMPLATE_IDS)
    for name, prompt in rendered.items():
        frozen = (FIXTURES / "prompts" / f"{name}.txt").read_text(encoding="utf-8")
        assert prompt.text == frozen, f"{name} drifted from its fixture"


def test_delimiters_and_exactly_line(golden_target, golden_shot):
    rendered = _render_all(golden_target, golden_shot)
    for name, prompt in rendered.items():
        assert "<<<TRANSCRIPT_START>>>" in prompt.text, name
        assert "<<<TRANSCRIPT_END>>>" in prompt.text, name
        assert "{transcript_block}" not in prompt.text, name
    for name in ("abcde_window_plain", "abcde_window_threaded", "baseline_lee"):
        assert "<<<TARGET_START>>>" in rendered[name].text, name
    for name in ("thread_all_at_once", "abcde_full_plain", "abcde_full_threaded"):
        assert "EXACTLY 6 label lines" in rendered[name].text, name


def test_literal_output_format_braces_survive(golden_target, golden_shot):
    rendered = _render_all(golden_target, golden_shot)
    assert "{Utterance Number} {Speaker Name}" in rendered["thread_window"].text
    assert "{line_number} {speaker}" in rendered["abcde_window_plain"].text
    assert "{line_number} {speaker}" in rendered["baseline_qamar"].text


def test_utterance_line_serialization(golden_target):
    t, g = golden_target
    assert utterance_line(t[1]) == "#1 Nadia: Should we sketch the circuit before lunch?"
    assert utterance_line(t[5], g.thread[5]).endswith(" [respond_line= (4, 1)]")
    block = "\n".join(transcript_lines(t.utterances, g.thread))
    assert len(block.splitlines()) == len(t)


def test_window_prompt_leaves_target_unlabeled(golden_target):
    t, g, w_labeled, _ = _windows(golden_target)
    prompt = render_thread_window(w_labeled)
    last_block_line = prompt.text.split("<<<TRANSCRIPT_END>>>")[0].strip().splitlines()[-1]
    assert last_block_line == "#6 Leo: Which resistor goes on the left side?"
    assert prompt.target_index == 6
    assert prompt.target_speaker == "Leo"
    assert prompt.expected_output.kind == "thread_line"


def test_shots_block_wording_scales(golden_target, golden_shot):
    t, _ = golden_target
    zero = render_thread_all_at_once(t).text
    one = render_thread_all_at_once(t, [golden_shot]).text
    two = render_thread_all_at_once(t, [golden_shot, golden_shot]).text
    assert "example transcript" not in zero
    assert "an example transcript with labels" in one
    assert "example transcripts with labels" in two
    assert "<<<EXAMPLE_1_START>>>" in one and "<<<EXAMPLE_2_START>>>" not in one
    assert "<<<EXAMPLE_2_START>>>" in two
    with pytest.raises(ValueError):
        render_thread_all_at_once(t, [golden_shot] * (MAX_SHOTS + 1))


def test_threaded_variant_requires_every_label(golden_target):
    t, g, _, w_plain = _windows(golden_target)
    partial = {i: g.thread[i] for i in list(g.thread)[:-1]}
    with pytest.raises(MissingThreadLabel):
        render_abcde("abcde_full_threaded", t, partial)
    with pytest.raises(MissingThreadLabel):
        render_abcde("abcde_window_threaded", w_plain, None)


@pytest.mark.parametrize("variant", ["abcde_window_threaded", "abcde_window_plain"])
def test_a_window_showing_a_missing_thread_label_names_that_utterance(golden_target, variant):
    t, g, _, w_plain = _windows(golden_target)
    partial = {i: label for i, label in g.thread.items() if i != 4}
    if variant.endswith("_plain"):  # plain prompts show no thread labels
        assert render_abcde(variant, w_plain, partial).text == render_abcde(variant, w_plain).text
        return
    with pytest.raises(MissingThreadLabel) as exc:
        render_abcde(variant, w_plain, partial)
    assert exc.value.index == 4


def test_template_dir_overrides_a_builtin_template_by_its_own_text(tmp_path, golden_target):
    _, _, w_labeled, _ = _windows(golden_target)
    builtin = render_thread_window(w_labeled).text
    (tmp_path / "thread_window.txt").write_text(
        "Window {window_n}.\n<<<TRANSCRIPT_START>>>\n{transcript_block}\n<<<TRANSCRIPT_END>>>\n",
        encoding="utf-8",
    )
    custom = render_thread_window(w_labeled, template_dir=tmp_path).text
    block = builtin.split("<<<TRANSCRIPT_START>>>\n")[1].split("\n<<<TRANSCRIPT_END>>>")[0]
    assert custom == f"Window 10.\n<<<TRANSCRIPT_START>>>\n{block}\n<<<TRANSCRIPT_END>>>\n"
    assert render_thread_window(w_labeled).text == builtin


def test_a_template_without_its_delimiters_is_refused_on_every_render(tmp_path, golden_target):
    _, _, w_labeled, w_plain = _windows(golden_target)
    (tmp_path / "thread_window.txt").write_text(
        "Window {window_n}.\n{transcript_block}\n<<<TRANSCRIPT_END>>>\n", encoding="utf-8"
    )
    (tmp_path / "abcde_window_plain.txt").write_text(
        "<<<TRANSCRIPT_START>>>\n{transcript_block}\n<<<TRANSCRIPT_END>>>\n"
        "{target_timestamp} {target_speaker} {target_text}\n",
        encoding="utf-8",
    )
    for _ in range(2):
        with pytest.raises(ValueError, match="lacks delimiters.*TRANSCRIPT_START"):
            render_thread_window(w_labeled, template_dir=tmp_path)
        with pytest.raises(ValueError, match="TARGET_START.*TARGET_END"):
            render_abcde("abcde_window_plain", w_plain, template_dir=tmp_path)


def test_every_template_with_a_target_line_needs_the_target_markers(tmp_path, golden_target):
    _, _, _, w_plain = _windows(golden_target)
    (tmp_path / "baseline_lee.txt").write_text(
        "<<<TRANSCRIPT_START>>>\n{transcript_block}\n<<<TRANSCRIPT_END>>>\n"
        "{target_speaker}: {target_text}\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="baseline_lee.*TARGET_START.*TARGET_END"):
        render_baseline("baseline_lee", w_plain, template_dir=tmp_path)


def _window_template(tmp_path, head):
    (tmp_path / "thread_window.txt").write_text(
        head + "\n<<<TRANSCRIPT_START>>>\n{transcript_block}\n<<<TRANSCRIPT_END>>>\n",
        encoding="utf-8",
    )


def test_a_template_missing_a_declared_variable_is_refused_on_every_render(
    tmp_path, golden_target
):
    _, _, w_labeled, _ = _windows(golden_target)
    _window_template(tmp_path, "Window.")
    for _ in range(2):  # the template is compiled once and cached; its errors are not
        with pytest.raises(TemplateError, match=r"thread_window\.txt: template never mentions"):
            render_thread_window(w_labeled, template_dir=tmp_path)


def test_a_repeated_placeholder_is_filled_at_every_occurrence(tmp_path, golden_target):
    _, _, w_labeled, _ = _windows(golden_target)
    _window_template(tmp_path, "Window {window_n} of {window_n}.")
    text = render_thread_window(w_labeled, template_dir=tmp_path).text
    assert text.startswith("Window 10 of 10.\n<<<TRANSCRIPT_START>>>\n")


def test_placeholder_like_text_in_an_utterance_survives_verbatim(tmp_path):
    t = Transcript("t", (
        Utterance(1, 0, "A", "say {transcript_block} aloud"),
        Utterance(2, 1000, "B", "and {window_n} too"),
    ))
    _window_template(tmp_path, "Window {window_n}.")
    text = render_thread_window(
        make_window(t, 2, WindowConfig(n=5, feedback="none")), template_dir=tmp_path
    ).text
    assert text == (
        "Window 5.\n<<<TRANSCRIPT_START>>>\n"
        "#1 A: say {transcript_block} aloud\n#2 B: and {window_n} too\n<<<TRANSCRIPT_END>>>\n"
    )


def test_render_baseline_rejects_wrong_payload(golden_target):
    t, g, w_labeled, w_plain = _windows(golden_target)
    with pytest.raises(TypeError):
        render_baseline("baseline_lee", t)
    with pytest.raises(TypeError):
        render_baseline("baseline_martinenghi", w_plain)
    with pytest.raises(ValueError):
        render_baseline("baseline_nope", t)


def test_block_prompt_metadata(golden_target):
    t, _ = golden_target
    p = render_abcde("abcde_full_plain", t)
    assert p.expected_output.kind == "code_block"
    assert p.expected_entries == tuple((u.index, u.speaker) for u in t.utterances)
