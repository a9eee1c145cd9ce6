"""Every run of the CLI output corpus prints what ``cli_corpus.json`` records.

The corpus is a characterization test: it pins today's exit codes, stdout
and stderr over ``cli_corpus.CASES``, so a change that moves any of them
shows here.  ``differences`` says how each field compares.  A deliberate
change regenerates the record (``python3 tests/cli_corpus.py``) and quotes
the printed diff in CHANGES.md.
"""

import pytest

from .cli_corpus import CASES, differences, load, run_case

RECORDED = load()


def test_record_matches_the_cases():
    assert [case["id"] for case in CASES] == list(RECORDED)


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_corpus_case(case, tmp_path, monkeypatch):
    monkeypatch.delenv("CASIMIR_MEDIUM_RELTOL", raising=False)
    problems = differences(case, RECORDED[case["id"]], run_case(case, str(tmp_path)))
    assert not problems, "\n".join(problems)
