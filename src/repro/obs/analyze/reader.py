"""Read Chrome ``trace_event`` JSON back into typed spans.

The exporters in :mod:`repro.obs.export` write traces for humans (load
in Perfetto); this reader closes the loop for *programs*: a recorded
trace file — or the in-memory dict :func:`repro.obs.export.chrome_trace`
returns — parses back into :class:`ReadSpan` / :class:`ReadInstant`
records with the original categories, timelines (simulated vs host
wall-time) and second-denominated timestamps, so the analysis layer
(critical-path attribution, the ``bench`` harness) can consume exactly
the artifacts a run emits.

Every event the exporter can write is reconstructible:

* ``ph: "X"`` complete events → finished :class:`ReadSpan`;
* ``ph: "B"`` begin events (spans still open at export) → unfinished
  :class:`ReadSpan` with ``end = None``;
* ``ph: "i"`` instants → :class:`ReadInstant`;
* ``ph: "M"`` metadata → the process/lane name tables.

Anything structurally off — missing required keys, an unknown phase, a
``tid`` with no lane — raises
:class:`~repro.errors.TraceAnalysisError` rather than silently skipping
records: a trace the reader cannot fully account for must not feed a
regression verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ...errors import TraceAnalysisError
from ..export import PID_SIM, PID_WALL

_US = 1e-6


@dataclass(frozen=True)
class ReadSpan:
    """One span read back from a trace (times in seconds)."""

    name: str
    category: str
    #: ``"sim"`` (simulated clock) or ``"wall"`` (host, origin-relative)
    timeline: str
    begin: float
    #: ``None`` for a span that was still open at export time
    end: Optional[float]
    args: dict[str, Any] = field(default_factory=dict)
    #: simulation run the span belongs to (``args.run`` in the file);
    #: a trace written without run numbers reads as one run, 0
    run: int = 0

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.begin

    @property
    def sim_begin(self) -> Optional[float]:
        """Simulated begin time, mirroring ``SpanRecord`` (None on wall)."""
        return self.begin if self.timeline == "sim" else None

    @property
    def sim_end(self) -> Optional[float]:
        return self.end if self.timeline == "sim" else None


@dataclass(frozen=True)
class ReadInstant:
    """One instant event read back from a trace."""

    name: str
    category: str
    time: float
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class TraceDocument:
    """A fully parsed trace: spans, instants and the name tables."""

    spans: list[ReadSpan] = field(default_factory=list)
    instants: list[ReadInstant] = field(default_factory=list)
    #: pid -> timeline label ("simulated time", "host wall time")
    processes: dict[int, str] = field(default_factory=dict)
    #: (pid, tid) -> category lane name
    lanes: dict[tuple[int, int], str] = field(default_factory=dict)
    recorded: int = 0
    dropped: int = 0

    # -- construction ------------------------------------------------------
    @classmethod
    def from_dict(cls, doc: dict) -> "TraceDocument":
        if not isinstance(doc, dict) or "traceEvents" not in doc:
            raise TraceAnalysisError(
                "not a Chrome trace_event document (no 'traceEvents' key)"
            )
        events = doc["traceEvents"]
        if not isinstance(events, list):
            raise TraceAnalysisError("'traceEvents' must be a list")
        other = doc.get("otherData", {})
        out = cls(
            recorded=int(other.get("recorded", 0)),
            dropped=int(other.get("dropped", 0)),
        )
        for event in events:
            out._ingest(event)
        return out

    @classmethod
    def load(cls, path: str) -> "TraceDocument":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise TraceAnalysisError(f"cannot read trace {path}: {exc}") from exc
        return cls.from_dict(doc)

    def _require(self, event: dict, keys: Iterable[str]) -> None:
        missing = [k for k in keys if k not in event]
        if missing:
            raise TraceAnalysisError(
                f"trace event {event.get('name', '?')!r} missing keys "
                f"{missing} (got {sorted(event)})"
            )

    def _timeline(self, pid: int) -> str:
        if pid == PID_SIM:
            return "sim"
        if pid == PID_WALL:
            return "wall"
        raise TraceAnalysisError(f"unknown trace pid: {pid}")

    def _ingest(self, event: dict) -> None:
        if not isinstance(event, dict):
            raise TraceAnalysisError(f"trace event is not an object: {event!r}")
        ph = event.get("ph")
        if ph == "M":
            self._require(event, ("name", "pid", "tid", "args"))
            label = event["args"].get("name", "")
            if event["name"] == "process_name":
                self.processes[event["pid"]] = label
            elif event["name"] == "thread_name":
                self.lanes[(event["pid"], event["tid"])] = label
            else:
                raise TraceAnalysisError(
                    f"unknown metadata event {event['name']!r}"
                )
            return
        if ph == "X":
            self._require(event, ("name", "cat", "ts", "dur", "pid", "tid"))
            args = dict(event.get("args", {}))
            args.pop("wall_ms", None)  # exporter-added annotation
            run = args.pop("run", 0)
            self.spans.append(ReadSpan(
                name=event["name"],
                category=event["cat"],
                timeline=self._timeline(event["pid"]),
                begin=event["ts"] * _US,
                end=(event["ts"] + event["dur"]) * _US,
                args=args,
                run=run,
            ))
            return
        if ph == "B":
            self._require(event, ("name", "cat", "ts", "pid", "tid"))
            args = dict(event.get("args", {}))
            args.pop("unfinished", None)
            run = args.pop("run", 0)
            self.spans.append(ReadSpan(
                name=event["name"],
                category=event["cat"],
                timeline=self._timeline(event["pid"]),
                begin=event["ts"] * _US,
                end=None,
                args=args,
                run=run,
            ))
            return
        if ph == "i":
            self._require(event, ("name", "cat", "ts", "pid", "tid"))
            self.instants.append(ReadInstant(
                name=event["name"],
                category=event["cat"],
                time=event["ts"] * _US,
                args=dict(event.get("args", {})),
            ))
            return
        raise TraceAnalysisError(f"unknown trace phase {ph!r}")

    # -- queries -----------------------------------------------------------
    def sim_spans(self) -> list[ReadSpan]:
        return [s for s in self.spans if s.timeline == "sim"]

    def wall_spans(self) -> list[ReadSpan]:
        return [s for s in self.spans if s.timeline == "wall"]

    def by_category(self, category: str) -> list[ReadSpan]:
        return [s for s in self.spans if s.category == category]

    def categories(self) -> set[str]:
        return {s.category for s in self.spans} | {
            i.category for i in self.instants
        }

    def cell_windows(self, category: str = "benchmarks") -> list[ReadSpan]:
        """The benchmark *cell windows*: sim-time spans the instrumented
        benchmarks wrap around their timed section (``osu.pingpong``,
        ``cs.memcpy``), in begin order."""
        windows = [
            s for s in self.sim_spans()
            if s.category == category and s.finished
        ]
        return sorted(windows, key=lambda s: s.begin)

    def span_names(self) -> dict[str, int]:
        """Multiplicity of every span name (the cross-check currency)."""
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out
