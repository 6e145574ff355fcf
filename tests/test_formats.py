"""The on-disk formats: run-log lines, cache lines and spec dicts.

Key order and exact bytes are pinned here so that a change to how records are
encoded cannot silently change what earlier runs wrote.
"""

import dataclasses
import json
import random
import re
import typing

import pytest
from conftest import FIXTURES

from threadlab.llm import (
    CompletionCache,
    CompletionRecord,
    ModelConfig,
    OracleProvider,
    PricingTable,
    ProviderResult,
    ReplayProvider,
    TransportError,
)
from threadlab.runner import ExperimentSpec, RunLog, UtteranceRecord, run_threading
from threadlab.schema import MalformedRecord, as_fields, json_line, objects, record_reader
from threadlab.windowing import WindowConfig

SPEC_KEYS = ["task", "strategy", "model", "transcripts", "window", "shots", "shot_ids",
             "thread_source", "template_override", "template_dir"]
MODEL_KEYS = ["model_id", "temperature", "max_output_tokens", "endpoint", "auth_env",
              "fixed_temperature"]
RECORD_KEYS = ["kind", "transcript_id", "index", "prompt_hash", "predicted", "gold", "ok",
               "fail_reason", "input_tokens", "output_tokens", "latency_ms"]
SUMMARY_KEYS = ["kind", "wall_time_ms", "input_tokens", "output_tokens", "cost_usd",
                "failed_transcripts", "n_fallback_labels"]
CACHE_KEYS = ["prompt_hash", "response_text", "input_tokens", "output_tokens", "latency_ms",
              "provider", "tokens_estimated"]

SPEC = ExperimentSpec(task="threading", strategy="window", model=ModelConfig(model_id="test-model"),
                      transcripts=("ws01", "cs01"), window=WindowConfig(n=10))


class FaultyOracle:
    """Gold, except a transport fault at cs01 line 3 and junk at ws01 line 5."""

    name = "faulty"

    def __init__(self, corpus):
        self.oracle = OracleProvider({tid: g for tid, (_, g) in corpus.items()})

    def send(self, prompt, model, prompt_hash):
        target = (prompt.transcript_id, prompt.target_index)
        if target == ("cs01", 3):
            raise TransportError("injected")
        if target == ("ws01", 5):
            return ProviderResult("no idea, sorry", None, None, 0)
        return self.oracle.send(prompt, model, prompt_hash)


def _faulted_log(bundled):
    """A priced self-feedback run with every summary field off its default."""
    pricing = PricingTable.from_dict({"test-model": {"input_per_1m": 1.5, "output_per_1m": 2.0}})
    log = run_threading(SPEC, bundled, FaultyOracle(bundled), pricing=pricing)
    return dataclasses.replace(log, wall_time_ms=1234)


def _log_lines(bundled):
    return [json.loads(line) for line in _faulted_log(bundled).to_jsonl().splitlines()]


def _from_lines(lines):
    return RunLog.from_jsonl("\n".join(json.dumps(d) for d in lines))


def test_run_log_line_keys_keep_their_order(bundled):
    meta, *records, summary = _log_lines(bundled)
    assert list(meta) == ["kind", "run_id", "spec"] and meta["kind"] == "meta"
    assert list(meta["spec"]) == SPEC_KEYS
    assert list(meta["spec"]["model"]) == MODEL_KEYS
    assert list(meta["spec"]["window"]) == ["n", "feedback"]
    assert records and all(list(r) == RECORD_KEYS and r["kind"] == "record" for r in records)
    assert list(summary) == SUMMARY_KEYS and summary["kind"] == "summary"


def test_run_log_round_trip_is_exact(bundled):
    log = _faulted_log(bundled)
    assert log.failed_transcripts == ("cs01",)
    assert log.n_fallback_labels == 2
    assert log.cost_usd > 0
    text = log.to_jsonl()
    again = RunLog.from_jsonl(text)
    assert again == log
    assert again.to_jsonl() == text


@pytest.mark.parametrize("line, key", [(0, "run_id"), (0, "spec"), (1, "gold")])
def test_run_log_line_missing_a_field_raises(bundled, line, key):
    lines = _log_lines(bundled)
    del lines[line][key]
    with pytest.raises(MalformedRecord, match=rf"^line {line + 1}: .*missing .*'{key}'$"):
        _from_lines(lines)


@pytest.mark.parametrize("line", [0, 1, -1])
def test_run_log_line_with_an_unknown_key_raises(bundled, line):
    lines = _log_lines(bundled)
    lines[line]["note"] = "x"
    with pytest.raises((TypeError, ValueError), match="note"):
        _from_lines(lines)


@pytest.mark.parametrize("key, value", [("index", "x"), ("ok", 1), ("fail_reason", 3)])
def test_run_log_record_value_of_the_wrong_type_raises(bundled, key, value):
    lines = _log_lines(bundled)
    lines[1][key] = value
    with pytest.raises(MalformedRecord, match=rf"^line 2: {key} is {value!r}, expected "):
        _from_lines(lines)


@pytest.mark.parametrize("line, path", [
    (0, ("spec", "model", "model_id")), (0, ("spec", "transcripts", 1)), (1, ("gold",)),
    (-1, ("failed_transcripts", 0)),
])
def test_run_log_line_with_a_lone_surrogate_raises(bundled, line, path):
    # json.dumps escapes the half pair as \ud83d, which reads back as a str
    # that no file or prompt can encode
    lines = _log_lines(bundled)
    *outer, last = path
    target = lines[line]
    for key in outer:
        target = target[key]
    target[last] = "half \ud83d"
    where = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]
    line_no = len(lines) if line < 0 else line + 1
    with pytest.raises(MalformedRecord,
                       match=rf"^line {line_no}: {re.escape(where)} is not valid Unicode text$"):
        _from_lines(lines)


@pytest.mark.parametrize("fail_reason", [None, "TransportError"])
def test_an_utterance_record_with_every_field_set_round_trips(fail_reason):
    rec = UtteranceRecord("ws01", 7, "f" * 64, "(3, -)", "4", fail_reason is None, fail_reason,
                          input_tokens=812, output_tokens=9, latency_ms=41)
    again = RunLog.from_jsonl(RunLog(SPEC.run_id, SPEC, [rec]).to_jsonl())
    assert again.records == [rec]
    assert [type(v) for v in dataclasses.astuple(again.records[0])] == [
        type(v) for v in dataclasses.astuple(rec)]
    moved = dataclasses.replace(rec, index=8, predicted="-")
    assert (moved.index, moved.predicted, moved.gold) == (8, "-", "4") and rec.index == 7


KIND_FAULTS = {
    "unknown kind": (lambda lines: lines[1].update(kind="recrod"),
                     "line 2: unknown kind 'recrod'"),
    "no kind": (lambda lines: lines[1].pop("kind"), "line 2: missing key 'kind'"),
    "kind a list": (lambda lines: lines[1].update(kind=["record"]),
                    "line 2: unknown kind ['record']"),
    "meta repeated": (lambda lines: lines.insert(1, dict(lines[0])),
                      "line 2: repeated meta line"),
    "summary repeated": (lambda lines: lines.append(dict(lines[-1])),
                         "line {n}: repeated summary line"),
}


@pytest.mark.parametrize("fault", list(KIND_FAULTS))
def test_run_log_line_of_an_unknown_or_repeated_kind_raises(bundled, fault):
    edit, message = KIND_FAULTS[fault]
    lines = _log_lines(bundled)
    edit(lines)
    with pytest.raises(MalformedRecord, match=f"^{re.escape(message.format(n=len(lines)))}$"):
        _from_lines(lines)


@pytest.mark.parametrize("entry, message", [
    ({"input_per_1m": True, "output_per_1m": 2.5}, "m.input_per_1m is True, expected float"),
    ({"input_per_1m": 1, "output_per_1m": "2.5"}, "m.output_per_1m is '2.5', expected float"),
    ({"input_per_1m": 1}, "missing key 'm.output_per_1m'"),
    ({"input_per_1m": 1, "output_per_1m": 2, "cached_per_1m": 0}, "unknown key 'm.cached_per_1m'"),
])
def test_pricing_entry_is_read_by_its_fields(entry, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PricingTable.from_dict({"m": entry})


def test_pricing_rate_reads_an_int_as_a_float():
    rate = PricingTable.from_dict({"m": {"input_per_1m": 2, "output_per_1m": 0.5}}).rate("m")
    assert (rate.input_per_1m, rate.output_per_1m) == (2.0, 0.5)
    assert type(rate.input_per_1m) is float


@dataclasses.dataclass
class _Listed:
    name: str | None
    parts: tuple[str, ...]


def test_build_typed_reads_a_tuple_field_from_a_list():
    build = record_reader(_Listed)
    assert build(1, {"name": None, "parts": ["a", "b"]}) == _Listed(None, ("a", "b"))
    with pytest.raises(MalformedRecord, match=r"^line 1: parts\[1\] is 1, expected str$"):
        build(1, {"name": None, "parts": ["a", 1]})


def test_cache_line_keys_keep_their_order(tmp_path):
    path = tmp_path / "cache.jsonl"
    CompletionCache(path).put(CompletionRecord("h1", "r", 1, 2, 3, "x", True))
    line = path.read_text(encoding="utf-8")
    assert list(json.loads(line)) == CACHE_KEYS
    assert line == (
        '{"prompt_hash": "h1", "response_text": "r", "input_tokens": 1, "output_tokens": 2, '
        '"latency_ms": 3, "provider": "x", "tokens_estimated": true}\n'
    )


# Characters JSON escapes, characters it leaves as they are though they end a
# line elsewhere, f-string and format syntax, and characters outside the BMP.
WRITER_CHARS = ['"', "\\", "\n", "\x00", "\x1f", "\x85", "\u2028", "{", "}", "%", "'",
                "\U0001f600", "\U00010348", "a", "é", " "]


def _any_value(rng):
    """A value of any JSON scalar type, or of none: a record field may hold a wrong type."""
    return rng.choice([
        lambda: "".join(rng.choices(WRITER_CHARS, k=rng.randrange(12))),
        lambda: rng.choice([0, 1, -1, 2**63, -(2**64) - 1, 10**30, rng.randrange(-10**6, 10**6)]),
        lambda: rng.choice([True, False]),
        lambda: None,
        lambda: rng.choice([0.0, -0.0, 1.5, 2.0, 1e300, float("nan"), float("inf"),
                            float("-inf"), rng.uniform(-1e6, 1e6)]),
        lambda: [1, "{x}"],
    ])()


def _random_records(rng, cls, n):
    """``n`` records of ``cls`` whose fields mostly hold a value of their own type
    (a bool passes for an int) and otherwise a value of any type."""
    hints = typing.get_type_hints(cls)
    records = []
    for _ in range(n):
        values = []
        for f in dataclasses.fields(cls):
            value = _any_value(rng)
            while rng.random() < 0.75 and not isinstance(value, hints[f.name]):
                value = _any_value(rng)
            values.append(value)
        records.append(cls(*values))
    return records


@pytest.mark.parametrize("cls", [CompletionRecord, UtteranceRecord])
def test_json_line_writes_what_json_dumps_writes(cls):
    rng = random.Random(f"json_line {cls.__name__}")
    for record in _random_records(rng, cls, 3000):
        fields = as_fields(record)
        assert json_line(record) == json.dumps(fields, ensure_ascii=False)
        assert json_line(record, '{"kind": "record", ') == json.dumps(
            {"kind": "record", **fields}, ensure_ascii=False)


@pytest.mark.parametrize("name", ["all_at_once_n10", "all_at_once_n20", "window_n10",
                                  "window_n20"])
def test_a_replayed_run_log_is_byte_identical_to_its_frozen_log(bundled, name):
    replay = FIXTURES / "replay"
    cell = next(c for c in json.loads((replay / "specs.json").read_text(encoding="utf-8"))
                if c["name"] == name)
    provider = ReplayProvider.from_path(replay / "responses.jsonl")
    log = run_threading(ExperimentSpec.from_dict(cell["spec"]), bundled, provider, cache=None)
    frozen = (replay / f"log_{name}.jsonl").read_text(encoding="utf-8")
    assert dataclasses.replace(log, wall_time_ms=0).to_jsonl() == frozen


def _cache_line(**changes):
    d = {"prompt_hash": "h1", "response_text": "r", "input_tokens": 1, "output_tokens": 1,
         "latency_ms": 0, "provider": "x", "tokens_estimated": False, **changes}
    return json.dumps({k: v for k, v in d.items() if v is not None}) + "\n"


def test_cache_line_missing_a_field_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_line(response_text=None))
    with pytest.raises(MalformedRecord,
                       match=rf"^{re.escape(str(path))}: line 1: .*missing .*'response_text'$"):
        CompletionCache(path)


def test_cache_line_with_an_unknown_key_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_line(note="x"))
    with pytest.raises(MalformedRecord,
                       match=rf"^{re.escape(str(path))}: line 1: unknown key 'note'$"):
        CompletionCache(path)


@pytest.mark.parametrize("key, value", [("input_tokens", "12"), ("response_text", None),
                                        ("latency_ms", 1.5), ("tokens_estimated", 0)])
def test_cache_line_value_of_the_wrong_type_raises(tmp_path, key, value):
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_line(prompt_hash="h0") + json.dumps({**json.loads(_cache_line()),
                                                                 key: value}) + "\n")
    with pytest.raises(MalformedRecord, match=rf"^{re.escape(str(path))}: line 2: "
                                              rf"{key} is {re.escape(repr(value))}, expected "):
        CompletionCache(path)


def test_cache_line_integral_float_reads_as_an_int(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_line(latency_ms=2.0))
    latency = CompletionCache(path).get("h1").latency_ms
    assert latency == 2 and type(latency) is int


def test_a_cache_line_and_a_record_line_with_their_keys_reversed_read_as_in_order(
    bundled, tmp_path
):
    in_order = json.loads(_cache_line())
    for name, d in (("in_order", in_order), ("reversed", dict(reversed(in_order.items())))):
        (tmp_path / name).write_text(json.dumps(d) + "\n")
    cached = [CompletionCache(tmp_path / name).get("h1") for name in ("in_order", "reversed")]
    assert cached[0] is not None and cached[1] == cached[0]
    meta, *records, summary = _log_lines(bundled)
    turned = [meta, *(dict(reversed(r.items())) for r in records), summary]
    assert _from_lines(turned) == _from_lines([meta, *records, summary])


@pytest.mark.parametrize("escape", ["\\ud83d", "\\uDE00", "\\ud83d\\ude00"])
def test_a_cache_line_with_a_lone_surrogate_escape_raises_on_its_line(bundled, tmp_path, escape):
    # Half a surrogate pair reads as a str that no cache line can hold, so the
    # file is refused on its line when opened, not when a run caches the reply.
    # An escaped pair is one character and replays.
    spec = dataclasses.replace(SPEC, transcripts=("ws01",),
                               window=WindowConfig(n=10, feedback="none"))
    cached = tmp_path / "cache.jsonl"
    oracle = OracleProvider({tid: g for tid, (_, g) in bundled.items()})
    run_threading(spec, bundled, oracle, cache=CompletionCache(cached), concurrency=1)
    lines = cached.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"response_text": "', '"response_text": "' + escape, 1)
    cached.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if escape.count("\\u") == 1:
        with pytest.raises(MalformedRecord, match=rf"^{re.escape(str(cached))}: line 3: "
                                                  "response_text is not valid Unicode text$"):
            ReplayProvider.from_path(cached)
        return
    other = tmp_path / "other.jsonl"
    log = run_threading(spec, bundled, ReplayProvider.from_path(cached),
                        cache=CompletionCache(other), concurrency=1)
    assert len(log.records) == len(bundled["ws01"][0])
    assert "\U0001f600" in other.read_text(encoding="utf-8")


def _per_line_loads(text):
    """The JSONL reader's rule as json.loads states it: (line, object) pairs up
    to the first bad line, and that line's number and reason."""
    pairs = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            return pairs, (line_no, f"invalid JSON: {exc.msg}")
        if not isinstance(rec, dict):
            return pairs, (line_no, "record is not an object")
        pairs.append((line_no, rec))
    return pairs, None


@pytest.mark.parametrize("line", [
    "", "\u3000", '  {"a": 1}  ', '{"a": 1}\r', '\ufeff{"a": 1}',
    '{"a": 1} {"b": 2}', '{"a":\n1}', "[1]", '"x"', "NaN",
    '{"a": 1, "a": 2}', '{"a": "x\u2028y"}',
])
def test_objects_reads_each_line_as_json_loads_does(line):
    text = '{"first": 0}\n' + line + '\n{"last": [1.5, null]}\n'
    pairs, error = [], None
    try:
        for pair in objects(text):
            pairs.append(pair)
    except MalformedRecord as exc:
        error = exc.line_no, exc.reason
    assert (pairs, error) == _per_line_loads(text)


def _spec_json(**changes):
    d = {
        "task": "threading",
        "strategy": "window",
        "model": {"model_id": "test-model", "temperature": 0.0},
        "transcripts": ["ws01", "cs01"],
        "window": {"n": 10, "feedback": "self"},
    }
    for where, value in changes.items():
        d[where] = {**d[where], **value} if where in ("model", "window") else value
    return d


def test_spec_from_dict_coerces_numbers():
    spec = ExperimentSpec.from_dict(_spec_json(model={"temperature": 0}, window={"n": 10.0}))
    assert isinstance(spec.model.temperature, float) and isinstance(spec.window.n, int)
    assert spec == SPEC
    assert spec.run_id == SPEC.run_id


@pytest.mark.parametrize(
    "changes, typo",
    [
        (dict(thread_sorce="human"), "thread_sorce"),
        (dict(model={"temprature": 0.5}), "temprature"),
        (dict(window={"feedbak": "gold"}), "feedbak"),
    ],
)
def test_spec_from_dict_rejects_unknown_keys(changes, typo):
    with pytest.raises(ValueError, match=typo):
        ExperimentSpec.from_dict(_spec_json(**changes))


@pytest.mark.parametrize("changes, message", [
    (dict(model={"fixed_temperature": "false"}),
     "model.fixed_temperature is 'false', expected bool"),
    (dict(model={"fixed_temperature": 1}), "model.fixed_temperature is 1, expected bool"),
    (dict(model={"temperature": True}), "model.temperature is True, expected float"),
    (dict(transcripts="ws01"), "transcripts is 'ws01', expected list"),
    (dict(shot_ids=["a", 1]), "shot_ids[1] is 1, expected str"),
    (dict(window={"n": 10.5}), "window.n is 10.5, expected int"),
    (dict(template_override=5), "template_override is 5, expected str or None"),
])
def test_spec_from_dict_names_a_value_of_the_wrong_type(changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentSpec.from_dict(_spec_json(**changes))
