"""The checkpoint journal: append, replay, torn lines, invalidation.

The journal's contract is crash safety: it must be valid after a kill
at any byte offset (the worst case is one torn final line, skipped with
a warning and recomputed), idempotent per cell key, keyed exactly like
the cell cache (so a config change replays nothing), and invalidated
wholesale by a code-version or schema change.  Outcomes here are
lightweight stand-ins — the journal never looks inside the payload.
"""

import json
import warnings
from dataclasses import replace
from unittest import mock

import pytest

from repro.core import checkpoint
from repro.core.checkpoint import CHECKPOINT_SCHEMA, CheckpointJournal
from repro.core.parallel import CellOutcome, CellTask
from repro.core.study import StudyConfig

CONFIG = StudyConfig(runs=2, seed=77)
TASKS = tuple(
    CellTask("sawtooth", "cpu_bandwidth", variant)
    for variant in ("single", "all")
)


def _outcome(task: CellTask, value: float = 1.0) -> CellOutcome:
    return CellOutcome(task=task, result=value)


def _fill(path) -> CheckpointJournal:
    journal = CheckpointJournal(path)
    for i, task in enumerate(TASKS):
        journal.record(CONFIG, task, False, False, _outcome(task, float(i)))
    return journal


class TestRoundtrip:
    def test_recorded_cells_replay_in_a_fresh_journal(self, tmp_path):
        path = tmp_path / "j.ckpt"
        writer = _fill(path)
        assert writer.recorded == len(TASKS)

        reader = CheckpointJournal(path)
        for i, task in enumerate(TASKS):
            replayed = reader.lookup(CONFIG, task, False, False)
            assert replayed is not None and replayed.result == float(i)
        assert reader.replayed == len(TASKS)
        assert reader.corrupt == reader.stale == 0

    def test_missing_file_is_a_fresh_run(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "absent.ckpt")
        assert journal.lookup(CONFIG, TASKS[0], False, False) is None
        assert journal.stats()["replayed"] == 0

    def test_config_change_replays_nothing(self, tmp_path):
        path = tmp_path / "j.ckpt"
        _fill(path)
        reader = CheckpointJournal(path)
        other = replace(CONFIG, seed=78)
        assert reader.lookup(other, TASKS[0], False, False) is None
        # execution knobs are byte-neutral and must NOT re-key
        resumed = replace(CONFIG, jobs=4, cell_timeout=9.0,
                          max_cell_retries=5, checkpoint="elsewhere")
        assert reader.lookup(resumed, TASKS[0], False, False) is not None

    def test_record_is_idempotent_per_cell(self, tmp_path):
        path = tmp_path / "j.ckpt"
        journal = CheckpointJournal(path)
        for _ in range(3):
            journal.record(CONFIG, TASKS[0], False, False, _outcome(TASKS[0]))
        assert journal.recorded == 1
        assert len(path.read_bytes().splitlines()) == 1


class TestTornLines:
    def test_torn_final_line_warns_once_and_skips(self, tmp_path):
        path = tmp_path / "j.ckpt"
        _fill(path)
        with open(path, "ab") as fh:
            fh.write(b'{"schema": 1, "torn')  # the killed-run signature
        reader = CheckpointJournal(path)
        with pytest.warns(RuntimeWarning, match="torn write"):
            assert reader.lookup(CONFIG, TASKS[0], False, False) is not None
        assert reader.corrupt == 1
        # the load happens once; later lookups must not re-warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reader.lookup(CONFIG, TASKS[1], False, False) is not None
        assert reader.corrupt == 1

    def test_fragment_torn_after_load_is_sealed_on_next_record(
        self, tmp_path
    ):
        # a fragment that lands after the journal was loaded (another
        # writer killed mid-line) must not swallow the next record
        path = tmp_path / "j.ckpt"
        journal = CheckpointJournal(path)
        journal.record(CONFIG, TASKS[0], False, False, _outcome(TASKS[0]))
        with open(path, "ab") as fh:
            fh.write(b'{"schema": 1, "torn')
        journal.record(CONFIG, TASKS[1], False, False,
                       _outcome(TASKS[1], 5.0))
        reader = CheckpointJournal(path)
        with pytest.warns(RuntimeWarning, match="torn write"):
            replayed = reader.lookup(CONFIG, TASKS[1], False, False)
        assert replayed is not None and replayed.result == 5.0
        assert reader.corrupt == 1

    def test_garbage_payload_counts_as_corrupt(self, tmp_path):
        path = tmp_path / "j.ckpt"
        line = json.dumps({
            "schema": CHECKPOINT_SCHEMA,
            "version": checkpoint._CODE_VERSION,
            "digest": "d", "key": "k", "cell": "c",
            "payload": "bm90IGEgcGlja2xl",  # base64("not a pickle")
        })
        path.write_text(line + "\n")
        reader = CheckpointJournal(path)
        with pytest.warns(RuntimeWarning, match="unreadable line"):
            assert reader.lookup(CONFIG, TASKS[0], False, False) is None
        assert reader.corrupt == 1


class TestInvalidation:
    def test_version_change_marks_lines_stale(self, tmp_path):
        path = tmp_path / "j.ckpt"
        _fill(path)
        with mock.patch.object(checkpoint, "_CODE_VERSION", "0.0.0-test"):
            reader = CheckpointJournal(path)
            assert reader.lookup(CONFIG, TASKS[0], False, False) is None
        assert reader.stale == len(TASKS)
        assert reader.corrupt == 0  # stale is not corruption

    def test_schema_change_marks_lines_stale(self, tmp_path):
        path = tmp_path / "j.ckpt"
        _fill(path)
        with mock.patch.object(checkpoint, "CHECKPOINT_SCHEMA",
                               CHECKPOINT_SCHEMA + 1):
            reader = CheckpointJournal(path)
            assert reader.lookup(CONFIG, TASKS[0], False, False) is None
        assert reader.stale == len(TASKS)


class TestUnwritable:
    def test_unwritable_journal_warns_once_and_counts(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        journal = CheckpointJournal(blocker / "j.ckpt")
        with pytest.warns(RuntimeWarning, match="cannot append"):
            journal.record(CONFIG, TASKS[0], False, False, _outcome(TASKS[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            journal.record(CONFIG, TASKS[1], False, False, _outcome(TASKS[1]))
        assert journal.write_failed == 2
        assert journal.recorded == 0
