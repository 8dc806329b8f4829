"""Nested spans and instant events over a bounded ring buffer.

A :class:`Tracer` records two record kinds:

* :class:`SpanRecord` — a named interval with begin/end in host
  wall-time (always) and in simulated time (when the tracer view has a
  sim clock).  Spans nest; the context-manager API enforces LIFO exit
  order, and the manual ``begin``/``end`` API raises
  :class:`~repro.errors.ObservabilityError` on violations.
* :class:`TraceEvent` (from :mod:`repro.sim.trace`) — an instant event;
  the legacy ``TraceRecorder`` adapter forwards into this.

Storage is a bounded ring: once ``capacity`` records are held, new
records are *dropped and counted* (never silently) — the same policy
the old ``TraceRecorder`` used, so a runaway sweep cannot eat the heap.
A :class:`NullTracer` singleton serves the disabled path: ``span()``
returns one shared no-op context manager, so an instrumented hot path
costs one method call when observability is off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import ObservabilityError

#: default ring capacity (records, spans and instants combined)
DEFAULT_CAPACITY = 1 << 16

#: lazily bound TraceEvent class (the import cycle with sim.trace keeps
#: it out of module scope; binding once avoids a per-instant import)
_TraceEvent = None


@dataclass(slots=True)
class SpanRecord:
    """One finished (or still-open, at export time) span."""

    name: str
    category: str
    wall_begin: float
    wall_end: Optional[float] = None
    sim_begin: Optional[float] = None
    sim_end: Optional[float] = None
    depth: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)
    #: the simulation run (one ``Environment``) the span belongs to;
    #: every run starts at simulated t=0, so sim times compare only
    #: between spans of the same run
    run: int = 0

    @property
    def finished(self) -> bool:
        return self.wall_end is not None

    @property
    def wall_duration(self) -> float:
        if self.wall_end is None:
            raise ObservabilityError(f"span {self.name!r} is still open")
        return self.wall_end - self.wall_begin

    @property
    def sim_duration(self) -> Optional[float]:
        if self.sim_begin is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_begin


class Span:
    """Handle for one in-flight span; usable as a context manager."""

    __slots__ = ("_tracer", "_record", "_clock")

    def __init__(self, tracer: "Tracer", record: SpanRecord,
                 clock: Optional[Callable[[], float]]) -> None:
        self._tracer = tracer
        self._record = record
        self._clock = clock

    @property
    def name(self) -> str:
        return self._record.name

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (chainable)."""
        self._record.attrs.update(attrs)
        return self

    def end(self) -> SpanRecord:
        """Close the span; must be the innermost open span."""
        self._tracer._end(self)
        return self._record

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._record.attrs.setdefault("error", exc_type.__name__)
        self.end()


class Tracer:
    """Span + instant recorder with a bounded ring and drop accounting."""

    enabled = True

    def __init__(
        self,
        capacity: Optional[int] = DEFAULT_CAPACITY,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ObservabilityError(f"tracer capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._records: list[Any] = []
        self._stack: list[Span] = []
        self.dropped = 0
        self.wall_origin = time.perf_counter()
        #: number of the current simulation run (see :meth:`new_run`)
        self.run = 0

    # -- recording ---------------------------------------------------------
    def new_run(self) -> None:
        """Start a new simulation run: spans recorded from now on carry
        the next run number.  Called wherever a fresh ``Environment``
        (simulated t=0) is created."""
        self.run += 1

    def _keep(self, record: Any) -> bool:
        if self.capacity is not None and len(self._records) >= self.capacity:
            self.dropped += 1
            return False
        self._records.append(record)
        return True

    def span(
        self,
        name: str,
        category: str = "span",
        clock: Optional[Callable[[], float]] = None,
        **attrs: Any,
    ) -> Span:
        """Open a nested span (use as ``with tracer.span(...) as s:``)."""
        return self.begin(name, category, clock=clock, **attrs)

    def begin(
        self,
        name: str,
        category: str = "span",
        clock: Optional[Callable[[], float]] = None,
        **attrs: Any,
    ) -> Span:
        """Manual-API begin; close with ``span.end()`` in LIFO order."""
        clock = clock if clock is not None else self._clock
        record = SpanRecord(
            name=name,
            category=category,
            wall_begin=time.perf_counter(),
            sim_begin=clock() if clock is not None else None,
            depth=len(self._stack),
            attrs=dict(attrs),
            run=self.run,
        )
        span = Span(self, record, clock)
        self._stack.append(span)
        self._keep(record)
        return span

    def _end(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            open_names = [s.name for s in self._stack]
            raise ObservabilityError(
                f"span exit-order violation: ending {span.name!r} while the "
                f"open stack is {open_names!r} (spans must close LIFO)"
            )
        self._stack.pop()
        record = span._record
        if record.wall_end is not None:
            raise ObservabilityError(f"span {record.name!r} ended twice")
        record.wall_end = time.perf_counter()
        if span._clock is not None:
            record.sim_end = span._clock()

    def complete(
        self,
        name: str,
        category: str,
        sim_begin: float,
        sim_end: float,
        **attrs: Any,
    ) -> None:
        """Record a retrospective sim-time span (device-side phases whose
        begin/end are only known once the simulated work has run)."""
        if sim_end < sim_begin:
            raise ObservabilityError(
                f"complete span {name!r} ends before it begins "
                f"({sim_end} < {sim_begin})"
            )
        now = time.perf_counter()
        # ``attrs`` is already a fresh dict built from the keyword
        # arguments, so it can be stored without a defensive copy
        self._keep(SpanRecord(
            name=name, category=category,
            wall_begin=now, wall_end=now,
            sim_begin=sim_begin, sim_end=sim_end,
            depth=len(self._stack), attrs=attrs, run=self.run,
        ))

    def instant(self, sim_time: float, category: str, label: str,
                attrs: Optional[dict] = None) -> None:
        """Record one instant event (the ``TraceRecorder`` adapter path)."""
        global _TraceEvent
        if _TraceEvent is None:
            from ..sim.trace import TraceEvent as _TraceEvent_cls
            _TraceEvent = _TraceEvent_cls

        self._keep(_TraceEvent(sim_time, category, label, attrs or {}))

    def absorb(
        self,
        records: list,
        *,
        wall_origin: Optional[float] = None,
        dropped: int = 0,
    ) -> None:
        """Append records captured by another tracer (a worker process).

        The parallel study scheduler ships each worker's ring back to
        the parent and merges cells in roster order; ``absorb`` is that
        merge.  Span records are copied (never aliased — one outcome
        may be absorbed more than once when a table is rebuilt) and
        their host wall-times rebased from the worker's origin onto
        this tracer's, so relative timing stays meaningful; simulated
        times are absolute and travel untouched.  Run numbers shift
        past this tracer's counter, which then advances past the
        donor's highest run, so absorbed runs never share a number with
        local or earlier-absorbed ones and a merge numbers runs exactly
        as the serial loop would.  The donor's drop count folds into
        ours, and capacity accounting applies to the absorbed records
        exactly as if they had been recorded locally.
        """
        offset = 0.0
        if wall_origin is not None:
            offset = self.wall_origin - wall_origin
        base = last = self.run
        for record in records:
            if isinstance(record, SpanRecord):
                last = max(last, base + record.run)
                record = SpanRecord(
                    name=record.name,
                    category=record.category,
                    wall_begin=record.wall_begin + offset,
                    wall_end=(
                        None if record.wall_end is None
                        else record.wall_end + offset
                    ),
                    sim_begin=record.sim_begin,
                    sim_end=record.sim_end,
                    depth=record.depth,
                    attrs=dict(record.attrs),
                    run=base + record.run,
                )
            self._keep(record)
        self.run = last
        if dropped:
            self.dropped += dropped

    # -- scoped views ------------------------------------------------------
    def with_clock(self, clock: Callable[[], float]) -> "ClockedTracer":
        """A view of this tracer whose spans also record simulated time."""
        return ClockedTracer(self, clock)

    # -- reading -----------------------------------------------------------
    def records(self) -> list[Any]:
        return list(self._records)

    def span_records(self) -> list[SpanRecord]:
        return [r for r in self._records if isinstance(r, SpanRecord)]

    def events(self) -> list[Any]:
        return [r for r in self._records if not isinstance(r, SpanRecord)]

    def open_spans(self) -> list[SpanRecord]:
        return [s._record for s in self._stack]

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        if self._stack:
            raise ObservabilityError(
                f"clearing a tracer with {len(self._stack)} open span(s)"
            )
        self._records.clear()
        self.dropped = 0


class ClockedTracer:
    """Lightweight view binding a sim clock to every span it opens."""

    __slots__ = ("_tracer", "_clock")
    enabled = True

    def __init__(self, tracer: Tracer, clock: Callable[[], float]) -> None:
        self._tracer = tracer
        self._clock = clock

    def span(self, name: str, category: str = "span", **attrs: Any) -> Span:
        return self._tracer.begin(name, category, clock=self._clock, **attrs)

    def begin(self, name: str, category: str = "span", **attrs: Any) -> Span:
        return self._tracer.begin(name, category, clock=self._clock, **attrs)

    def complete(self, name: str, category: str, sim_begin: float,
                 sim_end: float, **attrs: Any) -> None:
        self._tracer.complete(name, category, sim_begin, sim_end, **attrs)

    def instant(self, sim_time: float, category: str, label: str,
                attrs: Optional[dict] = None) -> None:
        self._tracer.instant(sim_time, category, label, attrs)


class _NullSpan:
    """Shared do-nothing span."""

    __slots__ = ()
    name = "null"

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every call is a cheap no-op."""

    enabled = False
    dropped = 0
    capacity = 0

    def span(self, name: str, category: str = "span", **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def begin(self, name: str, category: str = "span", **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def complete(self, name: str, category: str, sim_begin: float,
                 sim_end: float, **attrs: Any) -> None:
        return None

    def instant(self, sim_time: float, category: str, label: str,
                attrs: Optional[dict] = None) -> None:
        return None

    def new_run(self) -> None:
        return None

    def absorb(self, records: list, *, wall_origin: Optional[float] = None,
               dropped: int = 0) -> None:
        return None

    def with_clock(self, clock: Callable[[], float]) -> "NullTracer":
        return self

    def records(self) -> list:
        return []

    def span_records(self) -> list:
        return []

    def events(self) -> list:
        return []

    def open_spans(self) -> list:
        return []

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        return None


NULL_TRACER = NullTracer()
