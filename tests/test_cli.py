import json
import re
import subprocess
import sys

import pytest

from threadlab.cli import main
from threadlab.corpus import bundled_corpus_dir

TRANSCRIPTS = "ws01,cs01"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _thread_run(capsys, out_dir, extra=()):
    code, out, err = _run(
        capsys, "thread", "--provider", "oracle", "--model", "test-model",
        "--window", "10", "--transcripts", TRANSCRIPTS,
        "--out", str(out_dir), *extra,
    )
    assert code == 0, err
    match = re.search(r"run ([0-9a-f]{16}):", out)
    assert match, out
    return match.group(1)


def test_ingest_emits_stats_json(capsys):
    code, out, err = _run(capsys, "ingest")
    assert code == 0
    stats = json.loads(out)
    assert stats["n_transcripts"] == 12
    assert stats["total_utterances"] > 0


def _one_transcript_corpus(tmp_path, edit_line=None, edit_gold_line=None):
    """A corpus of ws01 alone; the edit functions rewrite one record's JSON line."""
    src = bundled_corpus_dir()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manifest.json").write_text(json.dumps({"transcripts": [
        {"id": "ws01", "transcript": "ws01.jsonl", "gold": "ws01.gold.jsonl"}]}))
    for name, edit in (("ws01.jsonl", edit_line), ("ws01.gold.jsonl", edit_gold_line)):
        lines = (src / name).read_text(encoding="utf-8").splitlines()
        if edit is not None:
            lines[2] = edit(lines[2])
        (corpus / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return corpus


def _add_lone_surrogate(line):
    rec = json.loads(line)
    rec["text"] += " \ud83d"
    return json.dumps(rec)


def test_ingest_and_thread_reject_a_lone_surrogate_by_line(capsys, tmp_path):
    corpus = _one_transcript_corpus(tmp_path, edit_line=_add_lone_surrogate)
    for argv in (["ingest"], ["thread", "--provider", "oracle", "--model", "m", "--window", "5",
                              "--transcripts", "ws01", "--out", str(tmp_path / "out")]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--corpus", str(corpus)])
        assert exc.value.code == f"{corpus / 'ws01.jsonl'}: line 3: text is not valid Unicode text"


CORPUS_COMMANDS = {
    "ingest": [],
    "validate": [],
    "thread": ["--provider", "oracle", "--model", "m", "--window", "5"],
    "code": ["--provider", "oracle", "--model", "m", "--window", "5", "--thread-source", "human"],
    "eval": ["--run", "0123456789abcdef"],
    "report": ["--runs", "0123456789abcdef"],
}


@pytest.mark.parametrize("command", list(CORPUS_COMMANDS))
def test_a_corpus_error_is_one_line_naming_file_and_line(tmp_path, command):
    corpus = _one_transcript_corpus(tmp_path, edit_gold_line=lambda line: line[:-1])
    argv = [command, *CORPUS_COMMANDS[command], "--corpus", str(corpus)]
    if command not in ("ingest", "validate"):
        argv += ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"{corpus / 'ws01.gold.jsonl'}: line 3: invalid JSON")


def test_a_corpus_error_exits_1_with_one_stderr_line(tmp_path):
    corpus = _one_transcript_corpus(tmp_path, edit_line=_add_lone_surrogate)
    proc = subprocess.run(
        [sys.executable, "-m", "threadlab.cli", "validate", "--corpus", str(corpus)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"{corpus / 'ws01.jsonl'}: line 3: text is not valid Unicode text\n"


def test_a_run_stopped_by_a_provider_error_names_its_run_and_cache(capsys, tmp_path):
    # ws01 is in the fixture, cs01 is not: the replay misses on cs01's first window.
    recorded = tmp_path / "ws01" / "cache.jsonl"
    config = tmp_path / "record.json"
    config.write_text(json.dumps({"cache": str(recorded)}))
    _thread_run(capsys, tmp_path / "ws01", extra=("--transcripts", "ws01", "--config", str(config)))
    cache = tmp_path / "cache.jsonl"
    config.write_text(json.dumps({"fixtures": str(recorded), "cache": str(cache)}))
    argv = ["thread", "--provider", "replay", "--model", "test-model", "--window", "10",
            "--transcripts", TRANSCRIPTS, "--concurrency", "1", "--config", str(config),
            "--out", str(tmp_path)]
    run_id = _thread_run(capsys, tmp_path / "ids")  # the same spec, run with the oracle
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert re.fullmatch(
        rf"run {run_id} stopped by FixtureMiss: no recorded response for prompt [0-9a-f]{{64}}; "
        rf"its finished calls are kept in {re.escape(str(cache))}",
        exc.value.code,
    ), exc.value.code
    assert len(cache.read_text(encoding="utf-8").splitlines()) == 21  # every ws01 window
    assert not (tmp_path / "runs").exists()


def test_an_auth_error_without_a_cache_says_no_cache_keeps_the_calls(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    run_id = _thread_run(capsys, tmp_path / "ids", extra=("--transcripts", "ws01"))
    with pytest.raises(SystemExit) as exc:
        main(["thread", "--provider", "http", "--model", "test-model", "--window", "10",
              "--transcripts", "ws01", "--out", str(tmp_path)])
    assert exc.value.code == (
        f"run {run_id} stopped by AuthError: environment variable OPENAI_API_KEY is not set; "
        "no cache keeps its finished calls"
    )


def test_validate_bundled_corpus_clean(capsys):
    code, out, err = _run(capsys, "validate")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert all(line.endswith(": clean") for line in lines)


def test_validate_unknown_transcript(capsys):
    code, out, err = _run(capsys, "validate", "--transcript", "nope")
    assert code == 2
    assert "nope" in err


def test_thread_writes_run_log(capsys, tmp_path):
    run_id = _thread_run(capsys, tmp_path)
    log_path = tmp_path / "runs" / run_id / "log.jsonl"
    assert log_path.exists()
    first = json.loads(log_path.read_text(encoding="utf-8").splitlines()[0])
    assert first["kind"] == "meta"
    assert first["spec"]["task"] == "threading"
    assert first["spec"]["window"]["n"] == 10


def test_eval_writes_eval_json(capsys, tmp_path):
    run_id = _thread_run(capsys, tmp_path)
    code, out, err = _run(capsys, "eval", "--run", run_id, "--out", str(tmp_path),
                          "--subcats", "AP,TT")
    assert code == 0, err
    assert "kappa 1.0000" in out
    eval_path = tmp_path / "runs" / run_id / "eval.json"
    result = json.loads(eval_path.read_text(encoding="utf-8"))
    assert result["run_id"] == run_id
    assert result["aggregate"]["kappa"]["mean"] == 1.0
    assert set(result["slices"]) == {"AP", "TT"}


def test_eval_replaces_eval_json(capsys, tmp_path):
    run_id = _thread_run(capsys, tmp_path)
    eval_path = tmp_path / "runs" / run_id / "eval.json"
    eval_path.write_text("stale", encoding="utf-8")
    code, _, err = _run(capsys, "eval", "--run", run_id, "--out", str(tmp_path))
    assert code == 0, err
    assert json.loads(eval_path.read_text(encoding="utf-8"))["run_id"] == run_id
    assert sorted(p.name for p in eval_path.parent.iterdir()) == ["eval.json", "log.jsonl"]


def test_eval_counts_a_repeated_subcategory_once(capsys, tmp_path):
    run_id = _thread_run(capsys, tmp_path)
    code, _, err = _run(capsys, "eval", "--run", run_id, "--out", str(tmp_path),
                        "--subcats", "E,E")
    assert code == 0, err
    result = json.loads((tmp_path / "runs" / run_id / "eval.json").read_text(encoding="utf-8"))
    assert list(result["slices"]) == ["E"]
    assert result["slices"]["E"]["n_conversations"] == 2  # ws01 and cs01


def test_eval_rejects_unknown_subcategory(capsys, tmp_path):
    run_id = _thread_run(capsys, tmp_path)
    with pytest.raises(SystemExit, match="XX"):
        main(["eval", "--run", run_id, "--out", str(tmp_path), "--subcats", "AP,XX"])
    assert not (tmp_path / "runs" / run_id / "eval.json").exists()


@pytest.mark.parametrize("command", ["eval --run", "report --runs"])
def test_unknown_run_id_is_a_one_line_error(tmp_path, command):
    proc = subprocess.run(
        [sys.executable, "-m", "threadlab.cli", *command.split(), "0123456789abcdef",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode != 0
    path = tmp_path / "runs" / "0123456789abcdef" / "log.jsonl"
    assert proc.stderr == f"no run log at {path}\n"


def test_report_writes_csv_and_svg(capsys, tmp_path):
    first = _thread_run(capsys, tmp_path)
    second = _thread_run(capsys, tmp_path, extra=("--window", "20"))
    assert first != second
    code, out, err = _run(
        capsys, "report", "--runs", f"{first},{second}",
        "--labels", "n10,n20", "--out", str(tmp_path),
    )
    assert code == 0, err
    csv_path = tmp_path / "reports" / "tradeoff.csv"
    svg_path = tmp_path / "reports" / "tradeoff.svg"
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 4  # header, two runs, human
    assert lines[1].startswith("n10,")
    assert lines[-1].startswith("human,")
    assert svg_path.read_text(encoding="utf-8").count("<circle") == 6
    assert "human: kappa 1.0000" in out


def test_report_prefers_saved_eval(capsys, tmp_path):
    run_id = _thread_run(capsys, tmp_path)
    _run(capsys, "eval", "--run", run_id, "--out", str(tmp_path))
    eval_path = tmp_path / "runs" / run_id / "eval.json"
    doctored = json.loads(eval_path.read_text(encoding="utf-8"))
    for name in ("kappa", "accuracy", "macro_f1"):
        doctored["aggregate"][name]["mean"] = 0.5
    eval_path.write_text(json.dumps(doctored), encoding="utf-8")
    code, out, err = _run(capsys, "report", "--runs", run_id, "--out", str(tmp_path))
    assert code == 0
    assert "kappa 0.5000" in out  # read back, not recomputed


def test_code_with_human_threads(capsys, tmp_path):
    code, out, err = _run(
        capsys, "code", "--provider", "oracle", "--model", "test-model",
        "--window", "10", "--transcripts", "ws02",
        "--thread-source", "human", "--out", str(tmp_path),
    )
    assert code == 0, err
    run_id = re.search(r"run ([0-9a-f]{16}):", out).group(1)
    meta = json.loads(
        (tmp_path / "runs" / run_id / "log.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert meta["spec"]["task"] == "abcde"
    assert meta["spec"]["thread_source"] == "human"
    assert meta["spec"]["window"]["feedback"] == "none"


def test_config_file_supplies_spec(capsys, tmp_path):
    config = {
        "provider": "oracle",
        "spec": {
            "task": "threading",
            "strategy": "all_at_once",
            "model": {"model_id": "cfg-model"},
            "transcripts": ["cs02"],
            "shots": 1,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = _run(capsys, "thread", "--config", str(cfg_path),
                          "--out", str(tmp_path))
    assert code == 0, err
    run_id = re.search(r"run ([0-9a-f]{16}):", out).group(1)
    meta = json.loads(
        (tmp_path / "runs" / run_id / "log.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert meta["spec"]["model"]["model_id"] == "cfg-model"
    assert meta["spec"]["shots"] == 1


def test_config_pricing_sets_run_cost(capsys, tmp_path):
    pricing_path = tmp_path / "pricing.json"
    pricing_path.write_text(
        json.dumps({"test-model": {"input_per_1m": 1.0, "output_per_1m": 2.0}}), encoding="utf-8")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"pricing": str(pricing_path)}), encoding="utf-8")
    run_id = _thread_run(capsys, tmp_path, extra=("--config", str(cfg_path)))
    lines = (tmp_path / "runs" / run_id / "log.jsonl").read_text(encoding="utf-8").splitlines()
    summary = json.loads(lines[-1])
    assert summary["kind"] == "summary"
    assert summary["cost_usd"] > 0


def test_missing_model_is_an_error(capsys, tmp_path):
    with pytest.raises(SystemExit, match="model"):
        main(["thread", "--provider", "oracle", "--window", "10",
              "--transcripts", "ws01", "--out", str(tmp_path)])


def test_bad_spec_is_an_error(capsys, tmp_path):
    with pytest.raises(SystemExit, match="bad experiment spec"):
        main(["thread", "--provider", "oracle", "--model", "m",
              "--window", "10", "--shots", "2",
              "--transcripts", "ws01", "--out", str(tmp_path)])


def test_config_spec_typo_is_an_error(capsys, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"spec": {"stratgy": "all_at_once"}}), encoding="utf-8")
    with pytest.raises(SystemExit, match="bad experiment spec: .*stratgy"):
        main(["thread", "--config", str(cfg_path), "--provider", "oracle", "--model", "m",
              "--transcripts", "ws01", "--out", str(tmp_path)])


def test_replay_requires_fixtures(capsys, tmp_path):
    with pytest.raises(SystemExit, match="fixtures"):
        main(["thread", "--provider", "replay", "--model", "m",
              "--window", "10", "--transcripts", "ws01", "--out", str(tmp_path)])


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "threadlab.cli", "validate", "--transcript", "ws01"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ws01: clean"
