"""Traced pass: one CLI invocation with spans around each layer's calls.

Run as a script in a fresh interpreter::

    PERFBENCH_TRACE=out.json python perfbench/traced.py <repro CLI args>

It imports numpy, networkx and ``repro.harness.cli`` under their own
spans, builds the machine roster, then wraps the public functions of
each layer where the program looks them up, installs the program's
``SimProfiler`` through ``repro.sim.engine.profiled`` and calls
``cli.main``.  Spans (name, start, end, parent, key) and call counts
stay in memory and are written once, as JSON, when the pass ends.
Timestamps are ``CLOCK_MONOTONIC`` nanoseconds, the clock the parent
uses to stamp the spawn, so the parent can place them on its timeline.

The file imports only the standard library before the program, and it
takes its own directory off ``sys.path`` so the program resolves its
imports exactly as under ``python -m repro``.
"""

import os
import sys
import time

clock = time.monotonic_ns


class Recorder:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent_index, key]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.facts: dict[str, int] = {}

    def open(self, name: str, key=None) -> list:
        parent = self.stack[-1] if self.stack else -1
        record = [name, 0, 0, parent, key]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = clock()
        return record

    def close(self, record: list) -> None:
        record[2] = clock()
        self.stack.pop()

    def spanned(self, name: str, fn, key=None):
        """``fn`` wrapped in a span named ``name``; ``key(args, kwargs)``
        labels the span (used to tell distinct study cells apart)."""
        opener, closer = self.open, self.close

        def wrapper(*args, **kwargs):
            record = opener(name, key(args, kwargs) if key else None)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(record)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped to count its calls, without a span."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def rebind(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``.

    For a module, every loaded ``repro`` module that imported the same
    object by name is rebound too, so the wrapper is what each caller
    looks up (``build_team``, for one, is imported into its callers).
    """
    if isinstance(owner, type):
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        return
    original = getattr(owner, attr)
    replacement = make(original)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if vars(module).get(attr) is original:
            setattr(module, attr, replacement)


def study_key(method: str):
    def key(args, kwargs):
        rest = [getattr(a, "name", repr(a)) for a in args[1:]]
        rest += [f"{k}={v!r}" for k, v in sorted(kwargs.items())]
        return "/".join([method, *map(str, rest)])
    return key


def instrument(rec: Recorder, profiler) -> None:
    """Wrap each layer's public entry points (see perfbench/README.md)."""
    import repro.core.report
    import repro.core.summary
    import repro.core.supervisor
    import repro.core.tables
    import repro.harness.cli
    import repro.harness.compare
    import repro.obs.analyze
    import repro.obs.export
    import repro.obs.ledger
    import repro.openmp.team
    from repro.core.parallel import CellScheduler
    from repro.core.study import Study
    from repro.gpurt.api import DeviceRuntime
    from repro.hardware.topology import Topology
    from repro.mpisim.world import MpiWorld
    from repro.sim import engine

    for method, layer in (
        ("cpu_bandwidth", "study.babelstream"),
        ("gpu_bandwidth", "study.babelstream"),
        ("host_latency", "study.osu"),
        ("device_latency", "study.osu"),
        ("commscope", "study.commscope"),
    ):
        rebind(Study, method,
               lambda fn, layer=layer, method=method:
               rec.spanned(layer, fn, study_key(method)))
    rebind(engine.Environment, "run", lambda fn: rec.spanned("sim.run", fn))
    rebind(DeviceRuntime, "__init__",
           lambda fn: rec.spanned("gpurt.runtime_init", fn))
    rebind(Topology, "classify_gpu_pair",
           lambda fn: rec.counted("hardware.classify", fn))
    rebind(MpiWorld, "__init__", lambda fn: rec.counted("mpisim.world", fn))
    rebind(repro.openmp.team, "build_team",
           lambda fn: rec.counted("openmp.team", fn))
    for module, names in (
        (repro.core.tables, ("build_table4", "build_table5", "build_table6",
                             "render_table4", "render_table5",
                             "render_table6")),
        (repro.core.summary, ("build_table7", "render_table7")),
        (repro.core.report, ("full_report", "inventory_section")),
    ):
        for name in names:
            rebind(module, name, lambda fn: rec.spanned("render", fn))
    for name in ("compare_table4", "compare_table5", "compare_table6",
                 "render_comparison"):
        rebind(repro.harness.compare, name,
               lambda fn: rec.spanned("compare", fn))
    rebind(CellScheduler, "lookup", lambda fn: rec.spanned("parallel.wait", fn))

    def pool(cls):
        def make(*args, **kwargs):
            workers = kwargs.get("max_workers", args[0] if args else 0)
            rec.facts["parallel.workers"] = (
                rec.facts.get("parallel.workers", 0) + int(workers or 0)
            )
            return cls(*args, **kwargs)
        return make

    rebind(repro.core.supervisor, "ProcessPoolExecutor", pool)

    def attribution(fn):
        timed = rec.spanned("obs.attribution", fn)

        def wrapper(tracer, *args, **kwargs):
            windows = timed(tracer, *args, **kwargs)
            facts = rec.facts
            facts["obs.windows"] = facts.get("obs.windows", 0) + len(windows)
            facts["obs.spans"] = max(facts.get("obs.spans", 0), len(tracer))
            facts["obs.spans_dropped"] = max(
                facts.get("obs.spans_dropped", 0), tracer.dropped
            )
            return windows
        return wrapper

    rebind(repro.obs.analyze, "attributions_from_tracer", attribution)
    for name in ("write_chrome_trace", "write_metrics", "text_summary"):
        rebind(repro.obs.export, name, lambda fn: rec.spanned("obs.export", fn))
    rebind(repro.obs.ledger, "record_study_run",
           lambda fn: rec.spanned("ledger.record", fn))

    # cli.main installs its own observability context, which resets the
    # engine hook; each target therefore runs under the profiler
    def profiled_target(fn):
        def wrapper(*args, **kwargs):
            with engine.profiled(profiler):
                return fn(*args, **kwargs)
        return wrapper

    rebind(repro.harness.cli, "run_target", profiled_target)


def main(argv: list[str]) -> int:
    out_path = os.environ["PERFBENCH_TRACE"]
    rec = Recorder()
    record = rec.open("import.numpy")
    import numpy
    rec.close(record)
    record = rec.open("import.networkx")
    import networkx
    rec.close(record)
    record = rec.open("import.repro")
    import repro.harness.cli as cli
    from repro.machines.registry import cpu_machines, gpu_machines
    rec.close(record)
    record = rec.open("machines.roster")
    cpu_machines()
    gpu_machines()
    rec.close(record)
    record = rec.open("bench.instrument")
    from repro.obs.profiler import SimProfiler
    profiler = SimProfiler()
    instrument(rec, profiler)
    rec.close(record)
    status = 1
    try:
        status = rec.spanned("cli.main", cli.main)(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        end = clock()
        sys.stdout.flush()
        report = profiler.report()
        import json

        with open(out_path, "w") as fh:
            json.dump({
                "end_ns": end,
                "spans": rec.spans,
                "counts": rec.counts,
                "facts": rec.facts,
                "events": report.total_events,
                "events_by_subsystem": {
                    name: stats.events
                    for name, stats in report.subsystems.items()
                },
                "versions": {
                    "numpy": numpy.__version__,
                    "networkx": networkx.__version__,
                },
            }, fh)
    return status


if __name__ == "__main__":
    del sys.path[0]
    sys.exit(main(sys.argv[1:]))
