"""Crash-safe checkpoint journal: append-only log of completed cells.

A killed study — OOM, walltime, Ctrl-C, a node reboot — loses every
completed benchmark cell today unless the persistent cache was armed.
This module gives the scheduler a *run-scoped* alternative with crash
safety as the design center: every completed
:class:`~repro.core.parallel.CellOutcome` is appended to a
:mod:`repro.jsonl` journal **as it finishes** (one line per cell), so
the journal is valid after a kill at any byte offset — the worst case
is one torn final line, which replay skips and recomputes.

``--resume JOURNAL`` points a later run at the same file: cells whose
content-addressed key (:func:`~repro.core.cellcache.cell_key` — the
machine spec, every byte-relevant config field, the seed derivation,
the fault plan, the cell identity and the observability flags) matches
a journaled line are *replayed* through the exact
:meth:`Study._consume` merge path instead of recomputed; everything
else runs normally and is appended in turn.  Because cell results are
a pure function of ``(seed, cell)`` and merge effects replay in the
builders' request order (DESIGN.md 5e), the resumed run's stdout,
artifacts and simulation metrics are byte-identical to an
uninterrupted run.

Journal lines carry the code version and are re-keyed on load, so a
journal written by different code or a different configuration is
skipped (counted, never served).  Supervisor-degraded cells (real
worker crashes, deadline kills) are deliberately *not* journaled — a
resumed run re-attempts them, since a host-level failure says nothing
about the cell itself.
"""

from __future__ import annotations

import base64
import pickle
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .. import jsonl
from .._version import __version__ as _CODE_VERSION
from ..obs import live, runtime as obs
from .cellcache import cell_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .parallel import CellOutcome, CellTask
    from .study import StudyConfig

#: bump on any line-layout change: lines written under another schema
#: are skipped as stale on load (counted, never served)
CHECKPOINT_SCHEMA = 2


class CheckpointJournal:
    """Append-only JSONL journal of completed cell outcomes.

    Replay/record/skip tallies are kept locally (for :meth:`stats`) and
    mirrored into the active observability context's ``checkpoint.*``
    counters.  Only abnormal-or-journal events count — a run without a
    journal armed keeps the whole namespace at zero.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path).expanduser()
        self.replayed = 0
        self.recorded = 0
        #: unparseable lines (torn final write, disk corruption)
        self.corrupt = 0
        #: parseable lines skipped for schema/version mismatch
        self.stale = 0
        #: append attempts lost to an unwritable journal
        self.write_failed = 0
        self._warned_unwritable = False
        #: digest -> (key text, outcome); loaded lazily on first use
        self._index: Optional[dict] = None

    # -- bookkeeping -------------------------------------------------------
    def _count(self, counter: str, amount: int = 1) -> None:
        obs.current().metrics.counter(counter).inc(amount)

    def stats(self) -> dict:
        return {
            "path": str(self.path),
            "replayed": self.replayed,
            "recorded": self.recorded,
            "corrupt": self.corrupt,
            "stale": self.stale,
            "write_failed": self.write_failed,
        }

    # -- load --------------------------------------------------------------
    def _ensure_index(self) -> dict:
        if self._index is not None:
            return self._index
        self._index = {}
        docs, corrupt = jsonl.read(self.path)
        for doc in docs:
            try:
                if (
                    doc["schema"] != CHECKPOINT_SCHEMA
                    or doc["version"] != _CODE_VERSION
                ):
                    self.stale += 1
                    continue
                outcome = pickle.loads(base64.b64decode(doc["payload"]))
                self._index[doc["digest"]] = (doc["key"], outcome)
            except Exception:
                corrupt += 1
        if corrupt:
            # a torn final line is the *expected* signature of a killed
            # run, so one gentle notice covers the whole load
            self.corrupt += corrupt
            self._count("checkpoint.line.corrupt", corrupt)
            warnings.warn(
                f"checkpoint journal {self.path}: skipped {corrupt} "
                f"unreadable line(s) (torn write from an interrupted run?)",
                RuntimeWarning,
                stacklevel=3,
            )
        return self._index

    def lookup(
        self,
        config: "StudyConfig",
        task: "CellTask",
        obs_enabled: bool,
        profile: bool,
    ) -> Optional["CellOutcome"]:
        """The journaled outcome for one cell, or ``None`` (= compute)."""
        digest, key = cell_key(config, task, obs_enabled, profile)
        entry = self._ensure_index().get(digest)
        if entry is None or entry[0] != key:
            return None
        self.replayed += 1
        self._count("checkpoint.cell.replayed")
        live.current().checkpoint_replay("/".join(task.label()))
        return entry[1]

    # -- record ------------------------------------------------------------
    def record(
        self,
        config: "StudyConfig",
        task: "CellTask",
        obs_enabled: bool,
        profile: bool,
        outcome: "CellOutcome",
    ) -> None:
        """Append one completed outcome (never raises).

        Idempotent per cell key — replayed or already-journaled cells
        are not re-appended, so a resumed run does not grow the journal
        quadratically.
        """
        index = self._ensure_index()
        digest, key = cell_key(config, task, obs_enabled, profile)
        if digest in index:
            return
        doc = {
            "schema": CHECKPOINT_SCHEMA,
            "version": _CODE_VERSION,
            "digest": digest,
            "key": key,
            "cell": "/".join(task.label()),
            "payload": base64.b64encode(
                pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii"),
        }
        try:
            jsonl.append(self.path, doc)
        except OSError as exc:
            self.write_failed += 1
            if not self._warned_unwritable:
                self._warned_unwritable = True
                warnings.warn(
                    f"cannot append to checkpoint journal {self.path}: "
                    f"{exc} (continuing without checkpointing)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return
        index[digest] = (key, outcome)
        self.recorded += 1
        self._count("checkpoint.cell.recorded")
