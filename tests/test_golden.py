"""The golden fingerprint corpus: every entry recomputes bit-identically.

Runs the same code as ``python tools/regen_golden.py --check``, one test
per corpus entry, so a failure names the workload × backend × plan cell
and the fields that moved.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "regen_golden", ROOT / "tools" / "regen_golden.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CORPUS = golden.load_corpus()


def test_corpus_covers_every_entry():
    assert sorted(CORPUS) == sorted(golden.entry_keys())


@pytest.mark.parametrize("key", golden.entry_keys())
def test_entry_matches_corpus(key):
    fresh = golden.compute_entry(key)
    assert golden.diff_entries({key: CORPUS.get(key, {})},
                               {key: fresh}) == []


def test_retry_entry_exercises_back_pressure():
    entry = CORPUS[golden.RETRY_KEY]
    assert entry["lci.retry.sendd"] > 0
    assert entry["lci.retry.recvd"] > 0


def test_diff_names_moved_fields():
    old = {"a/lci/none": {"makespan": 1.0, "tasks": 3}, "gone": {}}
    new = {"a/lci/none": {"makespan": 2.0, "tasks": 3}, "added": {}}
    assert golden.diff_entries(old, new) == [
        "~ a/lci/none: makespan 1.0 -> 2.0",
        "+ added (new entry)",
        "- gone (entry removed)",
    ]
