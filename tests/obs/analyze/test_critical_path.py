"""Critical-path attribution: exclusive segments, exact phase sums."""

from dataclasses import replace

import pytest

from repro.core.study import Study, StudyConfig
from repro.core.tables import build_table6
from repro.errors import TraceAnalysisError
from repro.machines.registry import get_machine
from repro.obs import ObsContext, chrome_trace, runtime as obs
from repro.obs.analyze import (
    OVERHEAD_PHASE,
    SPAN_COUNTER_MAP,
    TraceDocument,
    attribute_cells,
    attribute_window,
    attributions_from_tracer,
    critical_path,
    cross_check_counters,
    phase_of,
)
from repro.obs.analyze.reader import ReadSpan
from repro.obs.export import write_chrome_trace
from repro.obs.span import DEFAULT_CAPACITY


def span(name, category, begin, end) -> ReadSpan:
    return ReadSpan(name=name, category=category, timeline="sim",
                    begin=begin, end=end)


def traced_study(capacity=DEFAULT_CAPACITY):
    """The tracer of a multi-run study: Frontier's Comm|Scope row and
    device ping-pongs with every run simulated (28 runs, 24 windows)."""
    ctx = ObsContext.create(capacity=capacity)
    with obs.observability(ctx):
        study = Study(StudyConfig(runs=2, seed=1, exact=True))
        frontier = get_machine("frontier")
        study.commscope(frontier)
        study.device_latency(frontier)
    return ctx.tracer


def by_window(tracer) -> dict:
    """Each window's attribution, keyed by (run, begin, end, name)."""
    spans = tracer.span_records()
    return {
        (w.run, w.sim_begin, w.sim_end, w.name): attribute_cells(spans, [w])[0]
        for w in spans if w.category == "benchmarks"
    }


class TestPhaseOf:
    @pytest.mark.parametrize("name,category,phase", [
        ("send.eager", "mpisim", "eager"),
        ("rendezvous.handshake", "mpisim", "match"),
        ("send.rendezvous", "mpisim", "rendezvous"),
        ("recv.wait", "mpisim", "mpi"),
        ("xfer:numalink", "netsim", "link"),
        ("launch:empty", "gpurt", "launch"),
        ("queue:empty", "gpurt", "queue"),
        ("exec:empty", "gpurt", "exec"),
        ("dma:h2d", "gpurt", "dma"),
        ("other:thing", "gpurt", "gpu"),
        ("anything", "benchmarks", "other"),
    ])
    def test_taxonomy(self, name, category, phase):
        assert phase_of(name, category) == phase


class TestAttributeWindow:
    def test_gap_becomes_overhead(self):
        att = attribute_window(
            [span("send.eager", "mpisim", 2.0, 4.0)], 0.0, 10.0
        )
        assert att.phases == {"eager": 2.0, OVERHEAD_PHASE: 8.0}
        assert sum(att.phases.values()) == att.total == 10.0

    def test_innermost_span_wins(self):
        spans = [
            span("send.eager", "mpisim", 0.0, 10.0),
            span("xfer:link0", "netsim", 3.0, 7.0),
        ]
        att = attribute_window(spans, 0.0, 10.0)
        assert att.phases == {"eager": 6.0, "link": 4.0}

    def test_tie_on_begin_prefers_shorter(self):
        spans = [
            span("send.eager", "mpisim", 0.0, 10.0),
            span("xfer:link0", "netsim", 0.0, 4.0),
        ]
        att = attribute_window(spans, 0.0, 10.0)
        assert att.phases == {"link": 4.0, "eager": 6.0}

    def test_spans_clipped_to_window(self):
        spans = [span("send.eager", "mpisim", -5.0, 3.0),
                 span("dma:h2d", "gpurt", 8.0, 20.0)]
        att = attribute_window(spans, 0.0, 10.0)
        assert att.phases == {"eager": 3.0, "dma": 2.0, OVERHEAD_PHASE: 5.0}

    def test_non_phase_categories_ignored(self):
        spans = [span("osu.pingpong", "benchmarks", 0.0, 10.0),
                 span("cell", "study", 0.0, 10.0)]
        att = attribute_window(spans, 0.0, 10.0)
        assert att.phases == {OVERHEAD_PHASE: 10.0}

    def test_unfinished_spans_ignored(self):
        att = attribute_window(
            [span("send.eager", "mpisim", 1.0, None)], 0.0, 10.0
        )
        assert att.phases == {OVERHEAD_PHASE: 10.0}

    def test_adjacent_same_owner_segments_merge(self):
        # one eager span split by an inner xfer: three segments, merged
        # neighbours only where owner matches
        spans = [
            span("send.eager", "mpisim", 0.0, 6.0),
            span("xfer:l", "netsim", 2.0, 4.0),
        ]
        att = attribute_window(spans, 0.0, 6.0)
        assert [(s.phase, s.begin, s.end) for s in att.segments] == [
            ("eager", 0.0, 2.0), ("link", 2.0, 4.0), ("eager", 4.0, 6.0),
        ]

    def test_phases_sum_exactly_to_total(self):
        spans = [
            span("send.eager", "mpisim", 0.1, 0.9),
            span("xfer:a", "netsim", 0.2, 0.5),
            span("dma:h2d", "gpurt", 0.85, 1.4),
        ]
        att = attribute_window(spans, 0.0, 1.2)
        assert sum(att.phases.values()) == pytest.approx(att.total, rel=1e-12)
        shares = att.phase_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(TraceAnalysisError, match="ends before"):
            attribute_window([], 5.0, 1.0)

    def test_to_json_microseconds(self):
        att = attribute_window(
            [span("send.eager", "mpisim", 0.0, 1e-6)], 0.0, 2e-6, cell="c"
        )
        doc = att.to_json()
        assert doc["cell"] == "c"
        assert doc["total_us"] == pytest.approx(2.0)
        assert doc["phases_us"]["eager"] == pytest.approx(1.0)


class TestAttributeCells:
    def test_default_windows_are_benchmark_spans(self):
        spans = [
            span("osu.pingpong", "benchmarks", 0.0, 4.0),
            span("osu.pingpong", "benchmarks", 10.0, 12.0),
            span("send.eager", "mpisim", 1.0, 2.0),
            span("send.eager", "mpisim", 10.5, 11.0),
        ]
        atts = attribute_cells(spans)
        assert [a.cell for a in atts] == ["osu.pingpong", "osu.pingpong"]
        assert atts[0].phases == {"eager": 1.0, OVERHEAD_PHASE: 3.0}
        assert atts[1].phases == {"eager": 0.5, OVERHEAD_PHASE: 1.5}

    def test_no_windows_no_cells(self):
        assert attribute_cells([span("send.eager", "mpisim", 0.0, 1.0)]) == []

    def test_windows_see_only_their_own_runs_spans(self):
        # both runs start at simulated t=0, so their spans overlap in time
        spans = [
            replace(span("osu.pingpong", "benchmarks", 0.0, 4.0), run=1),
            replace(span("send.eager", "mpisim", 1.0, 2.0), run=1),
            replace(span("cs.memcpy", "benchmarks", 0.0, 4.0), run=2),
            replace(span("dma:h2d", "gpurt", 0.5, 3.5), run=2),
        ]
        pingpong, memcpy = attribute_cells(spans)
        assert pingpong.phases == {"eager": 1.0, OVERHEAD_PHASE: 3.0}
        assert memcpy.phases == {"dma": 3.0, OVERHEAD_PHASE: 1.0}


class TestRunScopedStudy:
    """Attribution over a real multi-run study's trace."""

    def test_each_span_is_handed_only_to_its_own_runs_windows(
        self, monkeypatch
    ):
        handed = []
        real = critical_path.attribute_window

        def spy(spans, *args, **kwargs):
            spans = list(spans)
            handed.append(len(spans))
            return real(spans, *args, **kwargs)

        tracer = traced_study()
        monkeypatch.setattr(critical_path, "attribute_window", spy)
        attributions = attributions_from_tracer(tracer)
        phase_spans = [
            r for r in tracer.span_records()
            if r.category in ("mpisim", "netsim", "gpurt")
        ]
        assert len(handed) == len(attributions) == 24
        # the whole ring per window would be 24 x len(phase_spans)
        assert 0 < sum(handed) <= len(phase_spans)

    @pytest.mark.parametrize("capacity", [50, 100, 150])
    def test_small_ring_keeps_surviving_windows_exact(self, capacity):
        full = by_window(traced_study())
        small = traced_study(capacity)
        assert small.dropped
        kept = by_window(small)
        assert 0 < len(kept) < len(full)
        for key, attribution in kept.items():
            assert attribution == full[key], key


class TestPostHoc:
    """The trace file path attributes as the live tracer does."""

    @pytest.fixture(scope="class")
    def table6_frontier(self, tmp_path_factory):
        ctx = ObsContext.create()
        with obs.observability(ctx):
            build_table6(Study(StudyConfig(runs=2, seed=1, exact=True)),
                         [get_machine("frontier")])
        path = tmp_path_factory.mktemp("trace") / "trace.json"
        write_chrome_trace(str(path), ctx.tracer)
        return ctx.tracer, str(path)

    def test_trace_file_attributes_as_the_live_tracer(self, table6_frontier):
        tracer, path = table6_frontier
        doc = TraceDocument.load(path)
        live = attributions_from_tracer(tracer)
        read = attribute_cells(doc.sim_spans(), doc.cell_windows())
        assert len(live) == 16
        assert [a.cell for a in read] == [a.cell for a in live]
        for mine, theirs in zip(read, live):
            # the file stores microsecond floats: times round-trip to
            # within a few ulps, not bit for bit
            assert mine.phases == pytest.approx(theirs.phases, rel=1e-12)
            assert mine.total == pytest.approx(theirs.total, rel=1e-12)
        windows = doc.cell_windows()
        assert len({w.run for w in windows}) == len(windows)
        assert all("run" not in s.args for s in doc.spans)

    def test_trace_without_run_numbers_reads_as_one_run(self, table6_frontier):
        tracer, _ = table6_frontier
        trace = chrome_trace(tracer)
        for event in trace["traceEvents"]:
            event.get("args", {}).pop("run", None)
        doc = TraceDocument.from_dict(trace)
        assert {s.run for s in doc.spans} == {0}
        spans = doc.sim_spans()
        assert attribute_cells(spans, doc.cell_windows()) == [
            attribute_window(spans, w.begin, w.end, cell=w.name)
            for w in doc.cell_windows()
        ]


class TestCrossCheck:
    def _snapshot(self, **values):
        return {
            name: {"type": "counter", "value": value}
            for name, value in values.items()
        }

    def test_consistent_trace_is_clean(self):
        names = {"send.eager": 3, "xfer:a": 2, "xfer:b": 1}
        snap = self._snapshot(**{
            "mpisim.send.eager": 3,
            "netsim.link.reserved": 3,
        })
        assert cross_check_counters(names, snap) == []

    def test_mismatch_flagged(self):
        names = {"send.eager": 2}
        snap = self._snapshot(**{"mpisim.send.eager": 5})
        findings = cross_check_counters(names, snap)
        assert len(findings) == 1
        assert "mpisim.send.eager" in findings[0]

    def test_dropped_records_tolerate_undercount(self):
        names = {"send.eager": 2}
        snap = self._snapshot(**{"mpisim.send.eager": 5})
        assert cross_check_counters(names, snap, dropped=3) == []
        # but an overcount is still a bug even with drops
        names = {"send.eager": 9}
        assert cross_check_counters(names, snap, dropped=3)

    def test_absent_counter_with_spans_flagged(self):
        findings = cross_check_counters({"dma:h2d": 1}, {})
        assert any("gpurt.dma.issued" in f for f in findings)

    def test_map_covers_core_subsystems(self):
        counters = set(SPAN_COUNTER_MAP.values())
        assert {"mpisim.send.eager", "netsim.link.reserved",
                "gpurt.kernel.launched", "gpurt.dma.issued"} <= counters
