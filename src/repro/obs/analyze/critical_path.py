"""Critical-path extraction and per-phase latency attribution.

Given the simulated-time spans recorded inside one benchmark *cell
window* (the ``benchmarks``-category span an instrumented benchmark
wraps around its timed section), this module answers the question the
paper keeps circling — *where does the latency actually go?* — by
decomposing the window into an exclusive, gap-free timeline:

* at every instant the **innermost** live span wins (latest begin, then
  shortest), so an ``xfer:<link>`` reservation inside a ``send.eager``
  claims its own time and the remainder of the send attributes to the
  protocol phase;
* instants covered by no span at all become the ``overhead`` phase —
  the software o_send/o_recv costs and scheduling waits that the paper
  notes "obscure latency" for small messages.

Because the segments partition the window exactly, the phase times sum
to the cell's span total by construction (the property the regression
harness asserts).  For a serialised microbenchmark — a ping-pong, a
single memcpy — this exclusive timeline *is* the critical path.

Every simulation run starts its clock at t=0, so a window is
attributed against the spans of its own run only (the ``run`` number
the tracer stamps on each span); spans of other runs overlap it in
simulated time but never belong to it.

Works on both live :class:`repro.obs.span.SpanRecord` objects and
:class:`repro.obs.analyze.reader.ReadSpan` records read back from a
trace file; anything exposing ``name``/``category``/``sim_begin``/
``sim_end``/``run`` qualifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ...errors import TraceAnalysisError

#: the phase charged for time no span covers (software/protocol gaps)
OVERHEAD_PHASE = "overhead"

#: categories whose spans participate in attribution (the ``benchmarks``
#: window itself and wall-time ``study`` cells are containers, not phases)
_PHASE_CATEGORIES = frozenset({"mpisim", "netsim", "gpurt"})


def phase_of(name: str, category: str) -> str:
    """Map a span to its attribution phase.

    The mapping mirrors the instrumentation taxonomy: MPI protocol
    spans by name (``send.eager`` → *eager*, the RTS/CTS handshake →
    *match*, ``send.rendezvous`` → *rendezvous*), prefixed device spans
    by stage (``launch:``/``queue:``/``exec:``/``dma:``), link
    reservations (``xfer:``) → *link*.
    """
    if category == "mpisim":
        if name == "send.eager":
            return "eager"
        if name == "rendezvous.handshake":
            return "match"
        if name == "send.rendezvous":
            return "rendezvous"
        return "mpi"
    if category == "netsim":
        return "link"
    if category == "gpurt":
        prefix = name.split(":", 1)[0]
        if prefix in ("launch", "queue", "exec", "dma"):
            return prefix
        return "gpu"
    return "other"


@dataclass(frozen=True)
class Segment:
    """One exclusive slice of the cell timeline."""

    begin: float
    end: float
    phase: str
    #: span name that owned the slice; ``None`` for overhead gaps
    span: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.begin


@dataclass
class PhaseAttribution:
    """Critical-path decomposition of one benchmark cell."""

    cell: str
    begin: float
    end: float
    segments: list[Segment] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.end - self.begin

    @property
    def phases(self) -> dict[str, float]:
        """Exclusive seconds per phase; sums to :attr:`total` exactly."""
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.phase] = out.get(seg.phase, 0.0) + seg.duration
        return out

    def phase_shares(self) -> dict[str, float]:
        total = self.total
        if total <= 0.0:
            return {phase: 0.0 for phase in self.phases}
        return {phase: t / total for phase, t in self.phases.items()}

    def to_json(self) -> dict:
        return {
            "cell": self.cell,
            "total_us": self.total * 1e6,
            "phases_us": {
                phase: seconds * 1e6
                for phase, seconds in sorted(self.phases.items())
            },
        }

    def to_detailed_json(self) -> dict:
        """:meth:`to_json` plus per-span microseconds within each phase
        (``spans_us``) — the drill-down level the run ledger persists so
        ``repro runs flame`` can break a phase open after the fact.
        Overhead gaps carry no span name and fold into ``(uncovered)``.
        """
        spans: dict[str, dict[str, float]] = {}
        for seg in self.segments:
            per = spans.setdefault(seg.phase, {})
            name = seg.span if seg.span is not None else "(uncovered)"
            per[name] = per.get(name, 0.0) + seg.duration * 1e6
        doc = self.to_json()
        doc["spans_us"] = {
            phase: dict(sorted(per.items()))
            for phase, per in sorted(spans.items())
        }
        return doc


def _sim_phase_spans(spans: Iterable[Any]) -> list[Any]:
    out = []
    for span in spans:
        if getattr(span, "category", None) not in _PHASE_CATEGORIES:
            continue
        if span.sim_begin is None or span.sim_end is None:
            continue
        out.append(span)
    return out


def attribute_window(
    spans: Iterable[Any],
    window_begin: float,
    window_end: float,
    cell: str = "cell",
) -> PhaseAttribution:
    """Decompose ``[window_begin, window_end]`` into exclusive segments.

    ``spans`` is any iterable of span-like records; only simulated-time
    spans of the phase categories participate, clipped to the window.
    """
    if window_end < window_begin:
        raise TraceAnalysisError(
            f"cell window ends before it begins "
            f"({window_end} < {window_begin})"
        )
    clipped = []
    for span in _sim_phase_spans(spans):
        begin = max(span.sim_begin, window_begin)
        end = min(span.sim_end, window_end)
        if end > begin:  # zero-length spans attribute no time
            clipped.append((begin, end, span))
    # elementary intervals between every span boundary inside the window
    cuts = {window_begin, window_end}
    for begin, end, _span in clipped:
        cuts.add(begin)
        cuts.add(end)
    ordered = sorted(cuts)
    segments: list[Segment] = []
    for a, b in zip(ordered, ordered[1:]):
        if b <= a:
            continue
        covering = [s for s in clipped if s[0] <= a and s[1] >= b]
        if covering:
            # innermost wins: latest begin, then earliest end (shortest)
            begin, end, owner = max(covering, key=lambda s: (s[0], -s[1]))
            phase = phase_of(owner.name, owner.category)
            name = owner.name
        else:
            phase, name = OVERHEAD_PHASE, None
        if segments and segments[-1].phase == phase \
                and segments[-1].span == name and segments[-1].end == a:
            segments[-1] = Segment(segments[-1].begin, b, phase, name)
        else:
            segments.append(Segment(a, b, phase, name))
    return PhaseAttribution(
        cell=cell, begin=window_begin, end=window_end, segments=segments
    )


def attribute_cells(
    spans: Sequence[Any],
    windows: Sequence[Any] | None = None,
) -> list[PhaseAttribution]:
    """Attribute every benchmark cell window found in ``spans``.

    ``windows`` defaults to the finished simulated-time spans of the
    ``benchmarks`` category (one per instrumented timed section).  The
    phase spans are bucketed by run once, and each window is attributed
    against its own run's bucket only, so the pass is linear in the
    number of spans.
    """
    if windows is None:
        windows = [
            s for s in spans
            if getattr(s, "category", None) == "benchmarks"
            and s.sim_begin is not None and s.sim_end is not None
        ]
    by_run: dict[int, list[Any]] = {}
    for span in _sim_phase_spans(spans):
        by_run.setdefault(span.run, []).append(span)
    return [
        attribute_window(
            by_run.get(window.run, ()), window.sim_begin, window.sim_end,
            cell=window.name,
        )
        for window in sorted(windows, key=lambda s: s.sim_begin)
    ]


def attributions_from_tracer(tracer) -> list[PhaseAttribution]:
    """Attribute every benchmark cell window recorded by a live tracer.

    Bridges the live :class:`~repro.obs.span.SpanTracer` to the
    file-oriented attribution path: finished simulated-time spans become
    :class:`~repro.obs.analyze.reader.ReadSpan` records and run through
    :func:`attribute_cells` — the exact pipeline ``analyze`` applies to
    a trace read back from disk, so live and post-hoc attribution can
    never disagree.
    """
    from .reader import ReadSpan

    spans = [
        ReadSpan(
            name=r.name,
            category=r.category,
            timeline="sim",
            begin=r.sim_begin,
            end=r.sim_end,
            run=r.run,
        )
        for r in tracer.span_records()
        if r.sim_begin is not None
    ]
    return attribute_cells(spans)


# ---------------------------------------------------------------------------
# metrics cross-check: spans vs DECLARED_COUNTERS
# ---------------------------------------------------------------------------

#: span name (exact or ``prefix:``) -> counter that must agree with its
#: multiplicity in a lossless trace
SPAN_COUNTER_MAP: dict[str, str] = {
    "send.eager": "mpisim.send.eager",
    "send.rendezvous": "mpisim.send.rendezvous",
    "xfer:": "netsim.link.reserved",
    "launch:": "gpurt.kernel.launched",
    "exec:": "gpurt.kernel.completed",
    "dma:": "gpurt.dma.issued",
}


def cross_check_counters(
    span_names: dict[str, int],
    snapshot: dict,
    dropped: int = 0,
) -> list[str]:
    """Compare span multiplicities against the metrics snapshot.

    Returns human-readable findings (empty = consistent).  A trace with
    dropped records cannot be checked exactly, so only counters the
    trace *over*-reports are flagged then.
    """
    findings: list[str] = []
    for key, counter in SPAN_COUNTER_MAP.items():
        if key.endswith(":"):
            observed = sum(
                n for name, n in span_names.items() if name.startswith(key)
            )
        else:
            observed = span_names.get(key, 0)
        entry = snapshot.get(counter)
        if entry is None:
            if observed:
                findings.append(
                    f"{observed} {key!r} span(s) but counter {counter} "
                    "is absent from the snapshot"
                )
            continue
        expected = entry.get("value", 0)
        if observed == expected:
            continue
        if dropped and observed < expected:
            continue  # the ring dropped records; undercount is expected
        findings.append(
            f"span/counter mismatch: {observed} {key!r} span(s) vs "
            f"{counter} = {expected}"
        )
    return findings
