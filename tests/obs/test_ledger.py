"""Run ledger: content-addressed recording, index discipline, queries.

Unit coverage of :mod:`repro.obs.ledger`: record/load round-trips, the
``latest``/prefix resolution rules, gc pruning, the torn-index-tail
crash discipline, never-raise write degradation, and the shape of the
documents the study/bench assembly helpers build.
"""

import json

import pytest

from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table4
from repro.errors import LedgerError
from repro.machines.registry import get_machine
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    record_study_run,
    study_metrics_doc,
    study_outcome_doc,
)

pytestmark = pytest.mark.ledger


def _small_study(seed=77):
    study = Study(StudyConfig(runs=2, seed=seed))
    build_table4(study, machines=[get_machine("sawtooth")])
    return study


@pytest.fixture(scope="module")
def study():
    return _small_study()


class TestRecord:
    def test_record_writes_documents_and_index(self, tmp_path, study):
        ledger = RunLedger(tmp_path)
        entry = record_study_run(
            study, targets=["table4"], ledger=ledger,
            started=1.0, finished=2.0,
        )
        assert entry is not None
        assert (entry.directory / "manifest.json").exists()
        assert (entry.directory / "metrics.json").exists()
        assert (entry.directory / "outcome.json").exists()
        records, skipped = ledger.read_index()
        assert skipped == 0
        assert [r["run_id"] for r in records] == [entry.run_id]
        assert records[0]["schema"] == LEDGER_SCHEMA
        assert records[0]["kind"] == "cli"
        assert records[0]["targets"] == ["table4"]

    def test_run_id_is_content_addressed(self, tmp_path, study):
        ledger = RunLedger(tmp_path)
        a = record_study_run(study, targets=["table4"], ledger=ledger,
                             started=1.0, finished=2.0)
        b = record_study_run(study, targets=["table4"], ledger=ledger,
                             started=1.0, finished=2.0)
        c = record_study_run(study, targets=["table4"], ledger=ledger,
                             started=3.0, finished=4.0)
        assert a.run_id == b.run_id  # byte-identical record, same id
        assert c.run_id != a.run_id  # different started: different id

    def test_load_roundtrips_every_document(self, tmp_path, study):
        ledger = RunLedger(tmp_path)
        entry = record_study_run(study, targets=["table4"], ledger=ledger,
                                 started=1.0, finished=2.0)
        run = ledger.load(entry.run_id)
        assert run.record["run_id"] == entry.run_id
        assert run.manifest["schema"] == "repro.manifest/v1"
        assert run.metrics["schema"] == "repro.bench/v1"
        assert run.outcome["outcome"] == "ok"
        assert run.attribution is None  # no observability armed

    def test_unwritable_directory_degrades_to_warning(self, tmp_path, study):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        ledger = RunLedger(blocker / "runs")
        with pytest.warns(RuntimeWarning, match="cannot record run"):
            entry = record_study_run(study, targets=["table4"],
                                     ledger=ledger, started=1.0)
        assert entry is None


class TestResolve:
    def _seed(self, tmp_path, n=3):
        ledger = RunLedger(tmp_path)
        study = _small_study()
        ids = []
        for i in range(n):
            entry = record_study_run(
                study, targets=["table4"], ledger=ledger,
                started=float(i), finished=float(i) + 0.5,
            )
            ids.append(entry.run_id)
        return ledger, ids

    def test_latest_resolves_to_newest(self, tmp_path):
        ledger, ids = self._seed(tmp_path)
        assert ledger.resolve("latest") == ids[-1]
        assert ledger.resolve("last") == ids[-1]

    def test_exact_and_unique_prefix(self, tmp_path):
        ledger, ids = self._seed(tmp_path)
        assert ledger.resolve(ids[0]) == ids[0]
        # run ids are 12 random-ish hex chars; an 11-char prefix is
        # unique unless two ids collide on it, which the seeds do not
        assert ledger.resolve(ids[0][:11]) == ids[0]

    def test_unknown_token_raises(self, tmp_path):
        ledger, _ids = self._seed(tmp_path)
        with pytest.raises(LedgerError, match="no run matching"):
            ledger.resolve("zzzzzzzzzzzz")

    def test_ambiguous_prefix_raises(self, tmp_path):
        ledger, ids = self._seed(tmp_path)
        with pytest.raises(LedgerError, match="ambiguous run prefix"):
            ledger.resolve("")

    def test_empty_ledger_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="no recorded runs"):
            RunLedger(tmp_path).resolve("latest")


class TestIndexDiscipline:
    def test_torn_tail_is_skipped_and_sealed(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(kind="cli", targets=["a"],
                      outcome={"outcome": "ok", "started": 1.0})
        with open(ledger.index_path, "a") as fh:
            fh.write('{"schema": "repro.ledger/v1", "run_id": "to')
        records, skipped = ledger.read_index()
        assert len(records) == 1 and skipped == 1
        ledger.record(kind="cli", targets=["b"],
                      outcome={"outcome": "ok", "started": 2.0})
        records, skipped = ledger.read_index()
        assert len(records) == 2 and skipped == 1

    def test_foreign_schema_lines_are_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        tmp_path.mkdir(exist_ok=True)
        ledger.index_path.parent.mkdir(parents=True, exist_ok=True)
        ledger.index_path.write_text(
            json.dumps({"schema": "other/v9", "run_id": "x"}) + "\n"
        )
        records, skipped = ledger.read_index()
        assert records == [] and skipped == 1


class TestGc:
    def test_gc_keeps_newest_and_removes_directories(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ids = []
        for i in range(4):
            entry = ledger.record(
                kind="cli", targets=["t"],
                outcome={"outcome": "ok", "started": float(i)},
            )
            ids.append(entry.run_id)
        removed = ledger.gc(keep=2)
        assert removed == ids[:2]
        records, _ = ledger.read_index()
        assert [r["run_id"] for r in records] == ids[2:]
        for run_id in ids[:2]:
            assert not (tmp_path / run_id).exists()
        for run_id in ids[2:]:
            assert (tmp_path / run_id).exists()

    def test_gc_rewrite_leaves_a_clean_index(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i in range(3):
            ledger.record(kind="cli", targets=["t"],
                          outcome={"outcome": "ok", "started": float(i)})
        with open(ledger.index_path, "a") as fh:
            fh.write('{"schema": "repro.ledger/v1", "run_id": "to')
        ledger.gc(keep=2)
        assert not list(tmp_path.glob("*.tmp"))
        records, skipped = ledger.read_index()
        assert len(records) == 2 and skipped == 0

    def test_gc_spares_duplicate_id_still_kept(self, tmp_path):
        # the same content recorded twice shares one run directory; gc
        # of the older index line must not delete the survivor's files
        ledger = RunLedger(tmp_path)
        a = ledger.record(kind="cli", targets=["t"],
                          outcome={"outcome": "ok", "started": 1.0})
        b = ledger.record(kind="cli", targets=["t"],
                          outcome={"outcome": "ok", "started": 1.0})
        assert a.run_id == b.run_id
        removed = ledger.gc(keep=1)
        assert removed == [a.run_id]
        assert (tmp_path / b.run_id / "outcome.json").exists()

    def test_negative_keep_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="keep count"):
            RunLedger(tmp_path).gc(keep=-1)


class TestDocumentAssembly:
    def test_study_metrics_doc_is_bench_schema(self, study):
        doc = study_metrics_doc(study)
        assert doc["schema"] == "repro.bench/v1"
        assert doc["config"] == {"repeats": 2, "seed": 77, "faults": "none"}
        metrics = doc["targets"]["study"]["metrics"]
        assert metrics, "study produced no flattened metrics"
        for name, row in metrics.items():
            assert name.startswith("sim.")
            assert set(row) == {"mean", "std", "n", "unit", "better", "gate"}
            assert row["better"] in ("lower", "higher")

    def test_bandwidth_metrics_gate_higher_is_better(self, study):
        metrics = study_metrics_doc(study)["targets"]["study"]["metrics"]
        bw = [n for n in metrics if "babelstream" in n]
        lat = [n for n in metrics if "osu" in n]
        assert bw and lat
        assert all(metrics[n]["better"] == "higher" for n in bw)
        assert all(metrics[n]["better"] == "lower" for n in lat)

    def test_study_outcome_doc_counts_cells(self, study):
        doc = study_outcome_doc(study, outcome="ok", exit_code=0,
                                started=1.0, finished=3.5)
        assert doc["schema"] == LEDGER_SCHEMA
        assert doc["wall_seconds"] == 2.5
        assert doc["cells"]["total"] == len(study.cell_results) > 0
        assert doc["cells"]["degraded"] == 0
        assert doc["degraded"] == []
