"""Self-time arithmetic over a traced pass and the per-layer metrics.

A span is ``[name, start_ns, end_ns, parent_index, key]`` as written by
``traced.py``.  A span's self time is its duration minus the part of
that interval its child spans cover, so nested calls such as
``full_report`` -> ``build_table6`` -> ``Study.commscope`` ->
``Environment.run`` are each counted once, in the innermost layer.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: ``sim.events.<subsystem>``: the SimProfiler's subsystems this
#: benchmark reports; any other subsystem is folded into ``other``
SUBSYSTEMS = (
    "benchmarks", "core", "faults", "gpurt", "hardware", "harness",
    "memsys", "mpisim", "netsim", "openmp", "sim", "other",
)

#: per-layer self-time metric -> the span names whose self time it sums
SELF_TIME_METRICS = {
    "import.numpy_s": ("import.numpy",),
    "import.networkx_s": ("import.networkx",),
    "import.repro_s": ("import.repro",),
    "machines.roster_s": ("machines.roster",),
    "study.babelstream_s": ("study.babelstream",),
    "study.osu_s": ("study.osu",),
    "study.commscope_s": ("study.commscope",),
    "sim.run_s": ("sim.run",),
    "gpurt.runtime_init_s": ("gpurt.runtime_init",),
    "render_s": ("render",),
    "compare_s": ("compare",),
    "parallel.wait_s": ("parallel.wait",),
    "obs.attribution_s": ("obs.attribution",),
    "obs.export_s": ("obs.export",),
    "ledger.record_s": ("ledger.record",),
    "cli.self_s": ("cli.main",),
}

#: per-layer count metric -> the span name whose occurrences it counts
SPAN_COUNT_METRICS = {
    "sim.run_calls": "sim.run",
    "gpurt.runtimes_built": "gpurt.runtime_init",
    "obs.attribution_calls": "obs.attribution",
}

#: per-layer count metric -> the call counter ``traced.py`` keeps
CALL_COUNT_METRICS = {
    "hardware.classify_calls": "hardware.classify",
    "mpisim.worlds_built": "mpisim.world",
    "openmp.teams_built": "openmp.team",
}

#: per-layer metrics ``traced.py`` records as facts at the wrapped call
FACT_METRICS = (
    "parallel.workers", "obs.windows", "obs.spans", "obs.spans_dropped",
)


def union_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the part its children cover (ns)."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (end - start) - union_ns(children.get(i, ()), start, end)
        for i, (_, start, end, *_) in enumerate(spans)
    ]


def residual_ns(spans, t0: int, t1: int) -> int:
    """Time in ``[t0, t1]`` outside every root span: the unwrapped rest."""
    roots = [(s[1], s[2]) for s in spans if s[3] < 0]
    return (t1 - t0) - union_ns(roots, t0, t1)


def accounting_error_ns(spans, t0: int, t1: int) -> int:
    """Self times plus the residual, minus the traced wall: 0 unless a
    child escapes its parent or siblings overlap (double counting)."""
    return sum(self_times(spans)) + residual_ns(spans, t0, t1) - (t1 - t0)


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(trace: dict, t0: int) -> dict[str, float]:
    """Per-layer metrics from one traced pass spawned at ``t0`` (ns)."""
    spans = trace["spans"]
    selfs = self_times(spans)
    by_name: dict[str, int] = defaultdict(int)
    occurrences: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        by_name[span[0]] += own
        occurrences[span[0]] += 1
    out: dict[str, float] = {
        metric: sum(by_name[n] for n in names) / 1e9
        for metric, names in SELF_TIME_METRICS.items()
    }
    out["unwrapped_s"] = residual_ns(spans, t0, trace["end_ns"]) / 1e9
    for metric, name in SPAN_COUNT_METRICS.items():
        out[metric] = occurrences[name]
    for metric, name in CALL_COUNT_METRICS.items():
        out[metric] = trace["counts"].get(name, 0)
    for metric in FACT_METRICS:
        out[metric] = trace["facts"].get(metric, 0)

    cells = [s for s in spans if s[0].startswith("study.")]
    calls = len(cells)
    distinct = len({s[4] for s in cells})
    cell_ms = [(s[2] - s[1]) / 1e6 for s in cells]
    out["study.cell_calls"] = calls
    out["study.cells_distinct"] = distinct
    out["study.useful_ratio"] = distinct / calls if calls else 0.0
    out["study.cell_ms_p50"] = _percentile(cell_ms, 50)
    out["study.cell_ms_p90"] = _percentile(cell_ms, 90)

    out["sim.events"] = trace["events"]
    by_subsystem = dict.fromkeys(SUBSYSTEMS, 0)
    for name, events in trace["events_by_subsystem"].items():
        by_subsystem[name if name in by_subsystem else "other"] += events
    for name, events in by_subsystem.items():
        out[f"sim.events.{name}"] = events
    return out
