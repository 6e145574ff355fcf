from pathlib import Path

import pytest

from threadlab.corpus import bundled_corpus_dir, load_corpus, parse_gold, parse_transcript

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def bundled():
    return load_corpus(bundled_corpus_dir())


def _load_pair(stem: str):
    golden = FIXTURES / "golden"
    t = parse_transcript(
        (golden / f"{stem}.jsonl").read_text(encoding="utf-8"), transcript_id=stem
    )
    g = parse_gold((golden / f"{stem}.gold.jsonl").read_text(encoding="utf-8"), transcript_id=stem)
    return t, g


@pytest.fixture(scope="session")
def golden_target():
    return _load_pair("target")


@pytest.fixture(scope="session")
def golden_shot():
    return _load_pair("shot")


@pytest.fixture(scope="session")
def golden_escapes():
    """Seven lines of speakers and text holding characters JSON escapes."""
    return _load_pair("escapes")
