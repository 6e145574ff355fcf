import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from threadlab.cli import main
from threadlab.corpus import bundled_corpus_dir

TRANSCRIPTS = "ws01,cs01"
REPLAY_FIXTURES = Path(__file__).parent / "fixtures" / "replay" / "responses.jsonl"


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


def _fails(argv, line):
    """``threadlab *argv``, run in a process of its own, exits 1 with ``line`` as its one
    stderr line."""
    proc = subprocess.run([sys.executable, "-m", "threadlab.cli", *map(str, argv)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, line + "\n")


@pytest.fixture(scope="module")
def processes():
    """Runs the larger fault tables' ``_fails`` calls two at a time. Each fault process
    spends about 0.2 s starting and importing the package, so such a table sets up
    all its rows first and then runs their processes in this pool."""
    with ThreadPoolExecutor(2) as pool:
        yield pool


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
    corpus.mkdir(parents=True)
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


def _with(**fields):
    """An edit of one JSON line that sets ``fields``."""
    return lambda line: json.dumps({**json.loads(line), **fields})


def test_ingest_and_thread_reject_a_lone_surrogate_by_line(tmp_path, processes):
    corpus = _one_transcript_corpus(tmp_path, edit_line=_add_lone_surrogate)
    line = f"{corpus / 'ws01.jsonl'}: line 3: text is not valid Unicode text"
    runs = [processes.submit(_fails, [*argv, "--corpus", corpus], line) for argv in (
        ["ingest"], ["thread", "--provider", "oracle", "--model", "m", "--window", "5",
                     "--transcripts", "ws01", "--out", tmp_path / "out"])]
    for run in runs:
        run.result()


CORPUS_COMMANDS = {
    "ingest": [],
    "validate": [],
    "thread": ["--provider", "oracle", "--model", "m", "--window", "5"],
    "code": ["--provider", "oracle", "--model", "m", "--window", "5", "--thread-source", "human"],
    "eval": ["--run", "0123456789abcdef"],
    "report": ["--runs", "0123456789abcdef"],
}


@pytest.fixture(scope="module")
def corpus_commands(tmp_path_factory, processes):
    """Each of CORPUS_COMMANDS, running on one corpus whose gold line 3 is cut short."""
    tmp = tmp_path_factory.mktemp("corpus_commands")
    corpus = _one_transcript_corpus(tmp, edit_gold_line=lambda line: line[:-1])
    line = f"{corpus / 'ws01.gold.jsonl'}: line 3: invalid JSON: Expecting ',' delimiter"
    started = {}
    for command, flags in CORPUS_COMMANDS.items():
        argv = [command, *flags, "--corpus", corpus]
        if command not in ("ingest", "validate"):
            argv += ["--out", tmp / "out"]
        started[command] = processes.submit(_fails, argv, line)
    return started


@pytest.mark.parametrize("command", list(CORPUS_COMMANDS))
def test_a_corpus_error_is_one_line_naming_file_and_line(corpus_commands, command):
    corpus_commands[command].result()


def test_a_corpus_error_exits_1_with_one_stderr_line(tmp_path, processes):
    null_speaker = _one_transcript_corpus(tmp_path / "null_speaker", edit_line=_with(speaker=None))
    bool_speaker = _one_transcript_corpus(tmp_path / "bool_speaker", edit_line=_with(speaker=True))
    repeated_index = _one_transcript_corpus(tmp_path / "repeated_index", edit_line=_with(index=2))
    list_codes = _one_transcript_corpus(tmp_path / "list_codes", edit_gold_line=_with(abcde=["A"]))
    bool_label = _one_transcript_corpus(tmp_path / "bool_label",
                                        edit_gold_line=_with(respond_line=True))
    forward = _one_transcript_corpus(tmp_path / "forward", edit_gold_line=_with(respond_line="9"))
    surrogate = _one_transcript_corpus(tmp_path / "surrogate", edit_line=_add_lone_surrogate)
    not_utf8 = _one_transcript_corpus(tmp_path / "not_utf8")
    transcript = not_utf8 / "ws01.jsonl"
    transcript.write_bytes(b"\xff\xfe" + transcript.read_bytes())
    truncated = _one_transcript_corpus(tmp_path / "truncated")
    manifest = truncated / "manifest.json"
    manifest.write_text(manifest.read_text(encoding="utf-8")[:40], encoding="utf-8")
    no_gold = _one_transcript_corpus(tmp_path / "no_gold")
    (no_gold / "manifest.json").write_text(json.dumps({"transcripts": [
        {"id": "ws01", "transcript": "ws01.jsonl"}]}))
    a_list = _one_transcript_corpus(tmp_path / "a_list")
    (a_list / "manifest.json").write_text("[1]")
    no_manifest = _one_transcript_corpus(tmp_path / "no_manifest")
    (no_manifest / "manifest.json").unlink()
    entry = {"id": "ws01", "transcript": "ws01.jsonl", "gold": "ws01.gold.jsonl"}
    int_scenario = _one_transcript_corpus(tmp_path / "int_scenario")
    (int_scenario / "manifest.json").write_text(json.dumps({"transcripts": [
        {**entry, "scenario": 5}]}))
    unknown_key = _one_transcript_corpus(tmp_path / "unknown_key")
    (unknown_key / "manifest.json").write_text(json.dumps({"transcripts": [
        {**entry, "speakers": 3}]}))
    repeated = _one_transcript_corpus(tmp_path / "repeated")
    (repeated / "manifest.json").write_text(json.dumps({"transcripts": [entry, entry]}))
    runs = [processes.submit(_fails, ["validate", "--corpus", corpus], line) for corpus, line in (
        (null_speaker, f"{null_speaker / 'ws01.jsonl'}: line 3: speaker is null"),
        (bool_speaker,
         f"{bool_speaker / 'ws01.jsonl'}: line 3: speaker is True, expected a string or number"),
        (repeated_index, f"{repeated_index / 'ws01.jsonl'}: line 3: duplicate index 2"),
        (list_codes, f"{list_codes / 'ws01.gold.jsonl'}: line 3: abcde is ['A'], "
                     'expected a bracketed string such as "[A, C]"'),
        (bool_label, f"{bool_label / 'ws01.gold.jsonl'}: line 3: respond_line is True, "
                     'expected a thread label string such as "-", "24" or "(24, -)"'),
        (forward, f"{forward / 'ws01.gold.jsonl'}: line 3: respond_line '9' links forward"),
        (surrogate, f"{surrogate / 'ws01.jsonl'}: line 3: text is not valid Unicode text"),
        (not_utf8, f"{transcript}: line 1: not UTF-8 text"),
        (truncated, f"{manifest}: line 1: invalid JSON: Unterminated string starting at"),
        (no_gold, f"{no_gold / 'manifest.json'}: missing key 'transcripts[0].gold'"),
        (a_list, f"{a_list / 'manifest.json'}: value is [1], expected object"),
        (no_manifest, f"{no_manifest / 'manifest.json'}: No such file or directory"),
        (int_scenario,
         f"{int_scenario / 'manifest.json'}: transcripts[0].scenario is 5, expected str"),
        (unknown_key,
         f"{unknown_key / 'manifest.json'}: unknown key 'transcripts[0].speakers'"),
        (repeated, f"{repeated / 'manifest.json'}: duplicate transcript id 'ws01'"),
    )]
    for run in runs:
        run.result()


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
    _fails(["thread", "--provider", "http", "--model", "test-model", "--window", "10",
            "--transcripts", "ws01", "--out", tmp_path],
           f"run {run_id} stopped by AuthError: environment variable OPENAI_API_KEY is not set; "
           "no cache keeps its finished calls")


# fault: (config file text or None, argv after the oracle thread run's flags,
# the one line it exits with); {tmp} stands for the row's directory
INPUT_FAULTS = {
    "unknown transcript id": (None, ["--transcripts", "zz"], "transcript 'zz' not in corpus"),
    "repeated transcript id": (
        None, ["--transcripts", "ws01,cs01,ws01"],
        "bad experiment spec: transcript 'ws01' is listed twice",
    ),
    "missing config file": (
        None, ["--config", "{tmp}/none.json"], "{tmp}/none.json: No such file or directory",
    ),
    "config not JSON": (
        '{"cache": ', ["--config", "{tmp}/config.json"],
        "{tmp}/config.json: line 1: invalid JSON: Expecting value",
    ),
    "config not an object": (
        "[1]", ["--config", "{tmp}/config.json"],
        "{tmp}/config.json: value is [1], expected object",
    ),
    "provider not a string": (
        '{"provider": 5}', ["--config", "{tmp}/config.json"],
        "{tmp}/config.json: provider is 5, expected str",
    ),
    "missing pricing file": (
        '{"pricing": "{tmp}/none.json"}', ["--config", "{tmp}/config.json"],
        "{tmp}/none.json: No such file or directory",
    ),
    "spec not an object": (
        '{"spec": [1]}', ["--config", "{tmp}/config.json"],
        "{tmp}/config.json: spec is [1], expected object or None",
    ),
    "model not an object": (
        '{"spec": {"model": [1]}}', ["--config", "{tmp}/config.json"],
        "bad experiment spec: model is [1], expected object",
    ),
    "window not an object": (
        '{"spec": {"window": 5}}', ["--config", "{tmp}/config.json"],
        "bad experiment spec: window is 5, expected object or None",
    ),
    "pricing not an object": (
        '{"pricing": "{tmp}/pricing.json"}', ["--config", "{tmp}/config.json"],
        "{tmp}/pricing.json: value is [1], expected object",
    ),
    "pricing rate not a number": (
        '{"pricing": "{tmp}/pricing.json"}', ["--config", "{tmp}/config.json"],
        "{tmp}/pricing.json: m.input_per_1m is 'x', expected float",
    ),
    "pricing rate missing": (
        '{"pricing": "{tmp}/pricing.json"}', ["--config", "{tmp}/config.json"],
        "{tmp}/pricing.json: missing key 'm.output_per_1m'",
    ),
    "model not priced": (
        '{"pricing": "{tmp}/pricing.json"}', ["--config", "{tmp}/config.json"],
        "{tmp}/pricing.json: no pricing entry for model 'm'",
    ),
    "unknown config key": (
        '{"pricng": "{tmp}/pricing.json"}', ["--config", "{tmp}/config.json"],
        "{tmp}/config.json: unknown key 'pricng'",
    ),
    "cache not a path": (
        '{"cache": 5}', ["--config", "{tmp}/config.json"],
        "{tmp}/config.json: cache is 5, expected str or None",
    ),
    "corpus_dir not a path": (
        '{"corpus_dir": [1]}', ["--config", "{tmp}/config.json"],
        "{tmp}/config.json: corpus_dir is [1], expected str or None",
    ),
    "pricing not a path": (
        '{"pricing": 5}', ["--config", "{tmp}/config.json"],
        "{tmp}/config.json: pricing is 5, expected str or None",
    ),
    "fixtures not a path": (
        '{"fixtures": 5}', ["--config", "{tmp}/config.json", "--provider", "replay"],
        "{tmp}/config.json: fixtures is 5, expected str or None",
    ),
    "spec template_dir not a path": (
        '{"spec": {"template_dir": 5}}', ["--config", "{tmp}/config.json"],
        "bad experiment spec: template_dir is 5, expected str or None",
    ),
    "spec bool field a string": (
        '{"spec": {"model": {"model_id": "m", "fixed_temperature": "false"}}}',
        ["--config", "{tmp}/config.json"],
        "bad experiment spec: model.fixed_temperature is 'false', expected bool",
    ),
    "spec transcripts a string": (
        # an empty --transcripts leaves the config's list in force
        '{"spec": {"transcripts": "ws01"}}', ["--config", "{tmp}/config.json", "--transcripts", ""],
        "bad experiment spec: transcripts is 'ws01', expected list",
    ),
    "missing template directory": (
        '{"spec": {"template_dir": "{tmp}/nope"}}', ["--config", "{tmp}/config.json"],
        "{tmp}/nope/thread_window.txt: No such file or directory",
    ),
    "template without delimiters": (
        '{"spec": {"template_dir": "{tmp}/templates"}}', ["--config", "{tmp}/config.json"],
        "{tmp}/templates/thread_window.txt: template lacks delimiters ['<<<TRANSCRIPT_START>>>']",
    ),
    "template not UTF-8": (
        '{"spec": {"template_dir": "{tmp}/templates"}}', ["--config", "{tmp}/config.json"],
        "{tmp}/templates/thread_window.txt: line 1: not UTF-8 text",
    ),
    "template_dir outside the spec": (
        '{"template_dir": "{tmp}/templates"}', ["--config", "{tmp}/config.json"],
        "{tmp}/config.json: unknown key 'template_dir'",
    ),
    # an empty --model leaves the model to the config
    "no model": (
        None, ["--model", ""], "no model configured; pass --model or set spec.model in the config",
    ),
    "shots with a window": (
        None, ["--shots", "2"], "bad experiment spec: shots only apply to all-at-once threading",
    ),
    "spec key misspelt": (
        '{"spec": {"stratgy": "all_at_once"}}', ["--config", "{tmp}/config.json"],
        "bad experiment spec: unknown key 'stratgy'",
    ),
    "replay without fixtures": (
        None, ["--provider", "replay"], "replay provider needs a 'fixtures' path in the config",
    ),
    "concurrency below one": (None, ["--concurrency", "0"], "concurrency must be at least 1, got 0"),
}
# the file, beside the config, that each fault's config names
FAULT_FILES = {
    "pricing not an object": ("pricing.json", "[1]"),
    "pricing rate not a number": (
        "pricing.json", '{"m": {"input_per_1m": "x", "output_per_1m": 1}}'),
    "pricing rate missing": ("pricing.json", '{"m": {"input_per_1m": 1}}'),
    "model not priced": ("pricing.json", '{"n": {"input_per_1m": 1, "output_per_1m": 1}}'),
    "template without delimiters": (
        "templates/thread_window.txt", "{window_n}\n{transcript_block}\n<<<TRANSCRIPT_END>>>\n"),
    "template not UTF-8": ("templates/thread_window.txt", "\xff{window_n}"),
}


@pytest.fixture(scope="module")
def input_faults(tmp_path_factory, processes):
    """Each INPUT_FAULTS row's directory and its command, running."""
    started = {}
    for fault, (config, extra, line) in INPUT_FAULTS.items():
        tmp = tmp_path_factory.mktemp("input")
        if config is not None:
            (tmp / "config.json").write_text(config.replace("{tmp}", str(tmp)))
        if fault in FAULT_FILES:
            name, text = FAULT_FILES[fault]
            (tmp / name).parent.mkdir(exist_ok=True)
            # as latin-1, so "\xff" is a byte that is never valid UTF-8
            (tmp / name).write_bytes(text.encode("latin-1"))
        argv = ["thread", "--provider", "oracle", "--model", "m", "--window", "5",
                "--transcripts", "ws01", "--out", "{tmp}/out", *extra]
        started[fault] = tmp, processes.submit(
            _fails, [arg.replace("{tmp}", str(tmp)) for arg in argv],
            line.replace("{tmp}", str(tmp)))
    return started


@pytest.mark.parametrize("fault", list(INPUT_FAULTS))
def test_a_run_input_fault_is_a_one_line_error(input_faults, fault):
    tmp, run = input_faults[fault]
    run.result()
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("argv", [["thread"], ["code", "--thread-source", "human"]])
def test_a_gold_file_that_leaves_an_utterance_unlabeled_is_a_one_line_error(tmp_path, argv):
    corpus = tmp_path / "corpus"
    shutil.copytree(bundled_corpus_dir(), corpus)
    gold = corpus / "ws01.gold.jsonl"
    gold.write_text("\n".join(gold.read_text(encoding="utf-8").splitlines()[:-1]) + "\n",
                    encoding="utf-8")
    _fails([*argv, "--provider", "oracle", "--model", "m", "--window", "5", "--transcripts", "ws01",
            "--corpus", corpus, "--out", tmp_path / "out"],
           "ws01: no gold thread label for utterance 21")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval --run {run}", "report --runs {run}"])
def test_a_log_record_of_a_transcript_outside_the_spec_is_a_one_line_error(
    capsys, tmp_path, command
):
    run_id = _thread_run(capsys, tmp_path)
    log = tmp_path / "runs" / run_id / "log.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines()
    stray = lines[1].replace('"transcript_id": "ws01"', '"transcript_id": "ws02"')
    assert stray != lines[1]
    log.write_text("\n".join([*lines[:-1], stray, lines[-1]]) + "\n", encoding="utf-8")
    _fails([*command.format(run=run_id).split(), "--out", tmp_path],
           f"{log}: record for transcript 'ws02', which the run's spec does not list")


def _with_stray_record(data):
    """The log with a ws02 copy of its first record after it."""
    lines = data.split(b"\n")
    return b"\n".join([*lines[:2], lines[1].replace(b'"ws01"', b'"ws02"', 1), *lines[2:]])


def _line_2(new):
    return lambda data: b"\n".join([data.split(b"\n")[0], new, *data.split(b"\n")[2:]])


def _first_prediction(new):
    """The log with its first record's prediction replaced by ``new``."""
    return lambda data: re.sub(rb'"predicted": "[^"]*"', b'"predicted": "%s"' % new, data, count=1)


def _cache_record(**changes):
    """A cache line with the given fields changed."""
    d = {"prompt_hash": "0" * 64, "response_text": "1 A [respond line = -]", "input_tokens": 12,
         "output_tokens": 3, "latency_ms": 0, "provider": "oracle", "tokens_estimated": True}
    return json.dumps({**d, **changes}).encode()


RUN = "--provider oracle --model test-model --window 10 --transcripts ws01,cs01 --out {tmp}"
# fault: (the file broken, its bytes from the old ones, the command then run,
# the line it exits with after the file's path); {tmp} is the row's directory,
# {run} the run id of an oracle threading run with {"cache": "{tmp}/c.jsonl"},
# then evaluated, and {code} that of an oracle code run, not evaluated
RUN_FILE_FAULTS = {
    "log with an unknown key": (
        "runs/{run}/log.jsonl",
        lambda data: data.replace(b'"record", ', b'"record", "bogus": 1, ', 1),
        "eval --run {run} --out {tmp}",
        "line 2: unknown key 'bogus'",
    ),
    "log cut mid-line, eval": (
        "runs/{run}/log.jsonl", lambda data: data[:200], "eval --run {run} --out {tmp}",
        "line 1: invalid JSON: Unterminated string starting at",
    ),
    "log cut mid-line, report": (
        "runs/{run}/log.jsonl", lambda data: data[:200], "report --runs {run} --out {tmp}",
        "line 1: invalid JSON: Unterminated string starting at",
    ),
    "log cut mid-line, code": (
        "runs/{run}/log.jsonl", lambda data: data[:200],
        f"code {RUN} --thread-source llm:{{run}}",
        "line 1: invalid JSON: Unterminated string starting at",
    ),
    "cache line 2 not JSON": (
        "c.jsonl", _line_2(b"{not json"), f"thread {RUN} --config {{tmp}}/cache.json",
        "line 2: invalid JSON: Expecting property name enclosed in double quotes",
    ),
    "cache not UTF-8": (
        "c.jsonl", lambda data: b"\xff\xfe" + data, f"thread {RUN} --config {{tmp}}/cache.json",
        "line 1: not UTF-8 text",
    ),
    "replay fixture line not an object": (
        "c.jsonl", _line_2(b"[1]"),
        f"thread {RUN} --config {{tmp}}/replay.json".replace("oracle", "replay"),
        "line 2: record is not an object",
    ),
    "eval.json cut": (
        "runs/{run}/eval.json", lambda data: data[:100], "report --runs {run} --out {tmp}",
        "line 7: invalid JSON: Expecting value",
    ),
    "eval.json of the wrong shape": (
        "runs/{run}/eval.json", lambda data: b"{}", "report --runs {run} --out {tmp}",
        "missing key 'run_id'",
    ),
    "eval.json value of the wrong type": (
        "runs/{run}/eval.json",
        lambda data: re.sub(rb'("kappa": \{\s*"mean": )[^,]*', rb'\1"x"', data, count=1),
        "report --runs {run} --out {tmp}",
        "aggregate.kappa.mean is 'x', expected float",
    ),
    "cache value of the wrong type": (
        "c.jsonl", _line_2(_cache_record(input_tokens="12")),
        f"thread {RUN} --config {{tmp}}/cache.json",
        "line 2: input_tokens is '12', expected int",
    ),
    "cache value null": (
        "c.jsonl", _line_2(_cache_record(response_text=None)),
        f"thread {RUN} --config {{tmp}}/cache.json",
        "line 2: response_text is None, expected str",
    ),
    "replay fixture value of the wrong type": (
        "c.jsonl", _line_2(_cache_record(latency_ms=1.5)),
        f"thread {RUN} --config {{tmp}}/replay.json".replace("oracle", "replay"),
        "line 2: latency_ms is 1.5, expected int",
    ),
    "log value of the wrong type": (
        "runs/{run}/log.jsonl", lambda data: data.replace(b'"index": 1,', b'"index": "x",', 1),
        "eval --run {run} --out {tmp}",
        "line 2: index is 'x', expected int",
    ),
    "log summary value of the wrong type": (
        "runs/{run}/log.jsonl",
        lambda data: re.sub(rb'"wall_time_ms": \d+', b'"wall_time_ms": "x"', data),
        "report --runs {run} --out {tmp}",
        "line 34: wall_time_ms is 'x', expected int",
    ),
    "log spec value of the wrong type": (
        "runs/{run}/log.jsonl",
        lambda data: data.replace(b'"transcripts": ["ws01", "cs01"]', b'"transcripts": "ws01"', 1),
        "eval --run {run} --out {tmp}",
        "line 1: spec.transcripts is 'ws01', expected list",
    ),
    "log without its summary line": (
        "runs/{run}/log.jsonl", lambda data: data[:data.rindex(b"\n", 0, -1) + 1],
        "report --runs {run} --out {tmp}",
        "run log has no summary line",
    ),
    "log line of an unknown kind": (
        "runs/{run}/log.jsonl",
        lambda data: data.replace(b'"kind": "record"', b'"kind": "recrod"', 1),
        "eval --run {run} --out {tmp}",
        "line 2: unknown kind 'recrod'",
    ),
    "log without ws01's record 2, eval": (
        "runs/{run}/log.jsonl",
        lambda data: data.replace(data.split(b"\n")[2] + b"\n", b"", 1),
        "eval --run {run} --out {tmp}",
        "ws01: records cover [1, 3, 4, 5, 6]..., expected 1..21",
    ),
    "log without ws01's record 7, code": (
        "runs/{run}/log.jsonl",
        lambda data: data.replace(data.split(b"\n")[7] + b"\n", b"", 1),
        f"code {RUN} --thread-source llm:{{run}}",
        "ws01: records cover [1, 2, 3, 4, 5]..., expected 1..21",
    ),
    "log with a stray record, code": (
        "runs/{run}/log.jsonl", _with_stray_record, f"code {RUN} --thread-source llm:{{run}}",
        "record for transcript 'ws02', which the run's spec does not list",
    ),
    "log prediction not a code set, eval": (
        "runs/{code}/log.jsonl", _first_prediction(b"XZ"), "eval --run {code} --out {tmp}",
        "ws01: codes outside A-E: ['X', 'Z']",
    ),
    "log prediction not a code set, report": (
        "runs/{code}/log.jsonl", _first_prediction(b"XZ"), "report --runs {code} --out {tmp}",
        "ws01: codes outside A-E: ['X', 'Z']",
    ),
    "log prediction not a thread label, code": (
        "runs/{run}/log.jsonl", _first_prediction(b"garbage"),
        f"code {RUN} --thread-source llm:{{run}}",
        "ws01: bad link target 'garbage'",
    ),
    "log with its meta line repeated": (
        "runs/{run}/log.jsonl", lambda data: data[:data.index(b"\n") + 1] + data,
        "eval --run {run} --out {tmp}",
        "line 2: repeated meta line",
    ),
}


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory):
    """The directory and ids of an oracle threading run with {"cache": "{tmp}/c.jsonl"},
    then evaluated, and of an oracle code run. Their files hold no path of their own,
    so a row runs in a copy."""
    run = tmp_path_factory.mktemp("run")
    (run / "cache.json").write_text(json.dumps({"cache": str(run / "c.jsonl")}))
    assert main(f"thread {RUN} --config {{tmp}}/cache.json".format(tmp=run).split()) == 0
    (run_id,) = (path.name for path in (run / "runs").iterdir())
    assert main(["eval", "--run", run_id, "--out", str(run)]) == 0
    assert main(f"code {RUN}".format(tmp=run).split()) == 0
    (code_id,) = (path.name for path in (run / "runs").iterdir() if path.name != run_id)
    return run, run_id, code_id


@pytest.fixture(scope="module")
def run_file_faults(tmp_path_factory, processes, oracle_run):
    """Each RUN_FILE_FAULTS row's command, running in its copy of the oracle run."""
    run, run_id, code_id = oracle_run
    started = {}
    for fault, (name, edit, command, line) in RUN_FILE_FAULTS.items():
        tmp = tmp_path_factory.mktemp("run_file")
        shutil.copytree(run, tmp, dirs_exist_ok=True)
        (tmp / "cache.json").write_text(json.dumps({"cache": str(tmp / "c.jsonl")}))
        (tmp / "replay.json").write_text(json.dumps({"fixtures": str(tmp / "c.jsonl")}))
        path = tmp / name.format(run=run_id, code=code_id)
        path.write_bytes(edit(path.read_bytes()))
        started[fault] = processes.submit(
            _fails, command.format(tmp=tmp, run=run_id, code=code_id).split(), f"{path}: {line}")
    return started


@pytest.mark.parametrize("fault", list(RUN_FILE_FAULTS))
def test_a_broken_run_file_is_a_one_line_error_naming_it(run_file_faults, fault):
    run_file_faults[fault].result()


# fault: (the output path blocked, how, the command then run, the line it exits
# with); {tmp} and {run} as for RUN_FILE_FAULTS, and {tmp}/cache.json names a
# {tmp}/c.jsonl that does not exist yet
OUTPUT_FAULTS = {
    "--out a file": (
        "out", Path.touch, f"thread {RUN}".replace("{tmp}", "{tmp}/out"),
        "{tmp}/out/runs/{run}: Not a directory",
    ),
    "--out a file, with a cache": (
        "out", Path.touch,
        f"thread {RUN} --config {{tmp}}/cache.json".replace("--out {tmp}", "--out {tmp}/out"),
        "{tmp}/out/runs/{run}: Not a directory",
    ),
    "log a directory": (
        "runs/{run}/log.jsonl", Path.mkdir, f"thread {RUN}",
        "{tmp}/runs/{run}/log.jsonl: Is a directory",
    ),
    "eval.json a directory": (
        "runs/{run}/eval.json", Path.mkdir, "eval --run {run} --out {tmp}",
        "{tmp}/runs/{run}/eval.json: Is a directory",
    ),
    "reports a file": (
        "reports", Path.touch, "report --runs {run} --out {tmp}", "{tmp}/reports: File exists",
    ),
}


@pytest.fixture(scope="module")
def output_faults(tmp_path_factory, processes, oracle_run):
    """Each OUTPUT_FAULTS row's command, running in its copy of the oracle run."""
    run, run_id, _ = oracle_run
    started = {}
    for fault, (name, block, command, line) in OUTPUT_FAULTS.items():
        tmp = tmp_path_factory.mktemp("output")
        shutil.copytree(run, tmp, dirs_exist_ok=True)
        (tmp / "c.jsonl").unlink()
        (tmp / "cache.json").write_text(json.dumps({"cache": str(tmp / "c.jsonl")}))
        path = tmp / name.format(run=run_id)
        path.unlink(missing_ok=True)
        block(path)
        started[fault] = tmp, processes.submit(
            _fails, command.format(tmp=tmp, run=run_id).split(), line.format(tmp=tmp, run=run_id))
    return started


@pytest.mark.parametrize("fault", list(OUTPUT_FAULTS))
def test_an_output_path_that_cannot_be_written_is_a_one_line_error(output_faults, fault):
    tmp, done = output_faults[fault]
    done.result()
    # a run with the cache config meets its blocked path before its first call
    assert not (tmp / "c.jsonl").exists()


def test_validate_bundled_corpus_clean(capsys):
    code, out, err = _run(capsys, "validate")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert all(line.endswith(": clean") for line in lines)


def test_validate_prints_errors_and_lints_and_exits_1(capsys, tmp_path):
    corpus = _one_transcript_corpus(tmp_path)
    gold = corpus / "ws01.gold.jsonl"
    lines = gold.read_text(encoding="utf-8").splitlines()
    lines[19] = lines[19].replace('"(7, 16)"', '"1"')  # utterance 20 links 19 lines back
    assert '"respond_line": "1"' in lines[19]
    gold.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")  # 21 has no label
    code, out, _ = _run(capsys, "validate", "--corpus", str(corpus))
    assert code == 1
    assert out == (
        "ws01: ERROR MissingLabel at 21: utterance has no thread label\n"
        "ws01: LINT LongGap at 20: gap 19 to line 1 exceeds 13\n"
    )


def test_validate_unknown_transcript():
    _fails(["validate", "--transcript", "nope"], "transcript 'nope' not in corpus")


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
    _fails(["eval", "--run", run_id, "--out", tmp_path, "--subcats", "AP,XX"],
           "unknown subcategory tags: XX")
    assert not (tmp_path / "runs" / run_id / "eval.json").exists()


@pytest.mark.parametrize("command", ["eval --run", "report --runs"])
def test_unknown_run_id_is_a_one_line_error(tmp_path, command):
    path = tmp_path / "runs" / "0123456789abcdef" / "log.jsonl"
    _fails([*command.split(), "0123456789abcdef", "--out", tmp_path],
           f"{path}: No such file or directory")


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


def test_report_labels_must_match_runs_one_for_one(tmp_path):
    _fails(["report", "--runs", "a,b", "--labels", "x", "--out", tmp_path],
           "--labels must match --runs one for one")


def test_report_refuses_a_pricing_file_that_lacks_a_run_model(capsys, tmp_path):
    run_id = _thread_run(capsys, tmp_path)  # no pricing, so the log has no cost
    pricing = tmp_path / "pricing.json"
    pricing.write_text('{"m": {"input_per_1m": 1, "output_per_1m": 1}}', encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pricing": str(pricing)}), encoding="utf-8")
    _fails(["report", "--runs", run_id, "--config", config, "--out", tmp_path],
           f"{pricing}: no pricing entry for model 'test-model'")
    assert not (tmp_path / "reports").exists()


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


def test_report_after_a_rerun_scores_the_new_log(capsys, tmp_path):
    # the frozen fixture's replies to ws01 are noisy, the oracle's are gold
    argv = ["thread", "--model", "frozen-test-model", "--window", "10", "--transcripts", "ws01",
            "--out", str(tmp_path)]
    code, out, _ = _run(capsys, *argv, "--provider", "oracle")
    run_id = re.search(r"run ([0-9a-f]{16}):", out)[1]
    assert "kappa 1.0000" in _run(capsys, "eval", "--run", run_id, "--out", str(tmp_path))[1]
    config = tmp_path / "replay.json"
    config.write_text(json.dumps({"fixtures": str(REPLAY_FIXTURES)}))
    code, out, _ = _run(capsys, *argv, "--provider", "replay", "--config", str(config))
    assert (code, re.search(r"run ([0-9a-f]{16}):", out)[1]) == (0, run_id)
    assert not (tmp_path / "runs" / run_id / "eval.json").exists()
    _, reported, _ = _run(capsys, "report", "--runs", run_id, "--out", str(tmp_path))
    kappa = re.search(r"kappa (\d\.\d{4}) ", _run(capsys, "eval", "--run", run_id,
                                                  "--out", str(tmp_path))[1])[1]
    assert kappa != "1.0000"
    assert f"{run_id}: kappa {kappa}," in reported


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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "threadlab.cli", "validate", "--transcript", "ws01"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ws01: clean"


# Steps that build no HttpProvider, each followed by a check that the HTTP
# stack is still unloaded; run in a fresh interpreter, as this one has loaded it.
_NO_HTTP_STACK = """
import contextlib, io, re, sys

def check(step):
    loaded = [m for m in ("requests", "urllib3", "charset_normalizer", "idna") if m in sys.modules]
    if loaded:
        sys.exit(f"{step} loaded {loaded}")

import threadlab
check("import threadlab")
from threadlab.cli import main
out = sys.argv[1]

def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if main(list(argv)) != 0:
            sys.exit(f"{argv[0]} failed")
    check(argv[0])
    return buf.getvalue()

run("validate", "--transcript", "ws01")
printed = run("thread", "--provider", "oracle", "--model", "m", "--window", "10",
              "--transcripts", "ws01", "--out", out)
run_id = re.search(r"run ([0-9a-f]{16}):", printed).group(1)
run("eval", "--run", run_id, "--out", out)
run("report", "--runs", run_id, "--out", out)
"""


def test_runs_without_an_http_provider_never_load_the_http_stack(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _NO_HTTP_STACK, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
