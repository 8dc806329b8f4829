"""End-to-end CLI benchmark of ``python -m repro``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload all-default --seed 20230612 \\
        --seconds 25 --trace 0

One run is a closed loop with one client: passes of the workload's CLI
command run back to back, each in a fresh interpreter, for ``--seconds``
seconds (at least three passes).  A fixed calibration program runs
between passes, and timings are reported at the reference host speed
(see ``CALIBRATE``).  Outside the timed loop the run evaluates
``python -m repro check`` once and makes one traced pass (``traced.py``).
The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The line before it is the run
record (commit, seed, pass counts, calibrations, versions, load average).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from gate import Gate, check_report_problems
from spans import accounting_error_ns, layer_metrics

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 20230612
DEFAULT_RUNS = 100
MIN_PASSES = 3
#: a pass still running after this long is killed and counted as failed
PASS_TIMEOUT_S = 150

#: an untraced pass: ``python -m repro`` plus one timestamp written at
#: the entry of ``cli.main`` (after import and the first roster build)
LAUNCH = (
    "import os, sys, time\n"
    "import repro.harness.cli as cli\n"
    "from repro.machines.registry import cpu_machines, gpu_machines\n"
    "cpu_machines()\n"
    "gpu_machines()\n"
    "with open(os.environ['PERFBENCH_MARK'], 'w') as fh:\n"
    "    fh.write(str(time.monotonic_ns()))\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)

#: a fixed amount of interpreter start-up and bytecode work, run in a
#: fresh interpreter before the first timed invocation and after each
#: one.  The host's speed drifts by up to 2x over seconds to minutes
#: (neighbours on shared cores), and a fresh ``python`` slows with it
#: much as the CLI does, so each timing is scaled by REFERENCE_CAL_S over
#: the mean of the two calibrations around it
CALIBRATE = (
    "s = 0\n"
    "d = {}\n"
    "for k in range(150000):\n"
    "    s += k * 3 % 7\n"
    "    d[k & 1023] = str(k)\n"
)
#: the calibration's median wall on the host the benchmark was tuned on
#: (2 vCPUs, Python 3.11), so reported times are seconds at that speed
REFERENCE_CAL_S = 0.075


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    #: sha256 of stdout at DEFAULT_SEED and DEFAULT_RUNS, recorded at
    #: commit dc9a979
    sha256: str
    #: obs-off twin run after each pass, for ``obs_overhead_x``
    companion: tuple[str, ...] | None = None
    #: serial command whose traced pass supplies the DES event count and
    #: the stdout this workload must reproduce
    reference: tuple[str, ...] | None = None


TABLES_EXACT = ("table4", "table5", "table6", "--exact")
_TABLES_SHA = "d854fda994ebd29180ddd2851abf7d8630145cd381acf16a77b166496c9f43da"
WORKLOADS = {w.name: w for w in (
    Workload(
        "all-default", ("all",),
        "93e5505f0bac286ad2b2ce2841b9c2497c4e85199c098b2a6b62c3beefd9c6b8",
    ),
    Workload("tables-exact", TABLES_EXACT, _TABLES_SHA),
    Workload(
        "report-obs",
        ("compare", "report", "--metrics-out", "metrics.json",
         "--trace-out", "trace.json"),
        "4017a3ea7cffe2e508e7e9515e0850fb802a57bb0ba9814d67fb902833d1055d",
        companion=("compare", "report"),
    ),
    Workload(
        "tables-exact-jobs2", TABLES_EXACT + ("--jobs", "2"), _TABLES_SHA,
        reference=TABLES_EXACT,
    ),
)}


@dataclass
class Pass:
    """One CLI invocation, timed from spawn to exit."""

    returncode: int
    t0: int
    wall_ns: int
    #: spawn to the entry of ``cli.main``; ``None`` if never reached
    setup_ns: int | None
    maxrss_kb: int
    stdout: bytes
    stderr: str
    trace: dict | None = None


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns invocations, each with fresh ledger and cache directories
    under ``root``, no TTY and no ``REPRO_*`` variable but those set here."""

    def __init__(self, root: Path, src: Path) -> None:
        self.root = root
        self.env = {
            k: v for k, v in os.environ.items()
            if not k.startswith("REPRO_") and k != "PYTHONPATH"
        }
        self.env["PYTHONPATH"] = str(src)
        self.count = 0

    def calibrate(self) -> int:
        """Wall of one run of ``CALIBRATE`` in a fresh interpreter, in ns."""
        t0 = time.monotonic_ns()
        subprocess.run(
            [sys.executable, "-I", "-S", "-c", CALIBRATE], check=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            timeout=PASS_TIMEOUT_S,
        )
        return time.monotonic_ns() - t0

    def invoke(self, argv, *, traced: bool = False,
               module: bool = False) -> Pass:
        self.count += 1
        work = self.root / f"inv-{self.count}"
        work.mkdir(parents=True)
        env = dict(
            self.env,
            REPRO_LEDGER_DIR=str(work / "ledger"),
            XDG_CACHE_HOME=str(work / "cache"),
            PERFBENCH_MARK=str(work / "mark"),
            PERFBENCH_TRACE=str(work / "trace.json"),
        )
        if traced:
            cmd = [sys.executable, str(HERE / "traced.py"), *argv]
        elif module:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, "-c", LAUNCH, *argv]
        try:
            with open(work / "stdout", "wb") as out, \
                    open(work / "stderr", "wb") as err:
                t0 = time.monotonic_ns()
                proc = subprocess.Popen(
                    cmd, cwd=work, env=env, stdin=subprocess.DEVNULL,
                    stdout=out, stderr=err, start_new_session=True,
                )
                timer = threading.Timer(
                    PASS_TIMEOUT_S, _kill_group, (proc.pid,)
                )
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    _kill_group(proc.pid)
                    os.waitpid(proc.pid, 0)
                    raise
                finally:
                    timer.cancel()
                t1 = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
            mark = work / "mark"
            trace_file = work / "trace.json"
            return Pass(
                returncode=proc.returncode,
                t0=t0,
                wall_ns=t1 - t0,
                setup_ns=(
                    int(mark.read_text()) - t0 if mark.exists() else None
                ),
                maxrss_kb=usage.ru_maxrss,
                stdout=(work / "stdout").read_bytes(),
                stderr=(work / "stderr").read_text("utf-8", "replace"),
                trace=(
                    json.loads(trace_file.read_text())
                    if traced and trace_file.exists() else None
                ),
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def speed_factors(cal_ns: list[int]) -> list[float]:
    """Scale for the timing between each two consecutive calibrations:
    REFERENCE_CAL_S over their mean, so a slow spell of the host, which
    lengthens both, cancels."""
    return [
        REFERENCE_CAL_S * 2e9 / (a + b) for a, b in zip(cal_ns, cal_ns[1:])
    ]


def _commit() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run(workload: Workload, *, seed: int, seconds: float, trace: bool,
        runs: int, root: Path, src: Path,
        units: dict[str, str]) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record)."""
    runner = Runner(root, src)
    suffix = ("--runs", str(runs), "--seed", str(seed))
    expected = (
        workload.sha256 if (seed, runs) == (DEFAULT_SEED, DEFAULT_RUNS)
        else None
    )
    gate = Gate(expected)
    load_start = os.getloadavg()

    check = runner.invoke(
        ("check", "--seed", str(seed), "--runs", str(runs)), module=True
    )
    gate.note(check_report_problems(
        check.returncode, check.stdout.decode("utf-8", "replace")
    ))

    # traced passes run before the timed loop, so they also fill the
    # bytecode cache the timed passes would otherwise pay for once
    def traced_pass(argv, label: str) -> Pass:
        p = runner.invoke(argv + suffix, traced=True)
        gate.admit(label, p.returncode, p.stdout, p.stderr)
        if p.trace is None:
            gate.note([f"{label}: wrote no trace"])
        else:
            error = accounting_error_ns(p.trace["spans"], p.t0,
                                        p.trace["end_ns"])
            if error:
                gate.note([f"{label}: self times plus residual miss the "
                           f"traced wall by {error} ns"])
        return p

    counted = traced_pass(workload.reference or workload.argv,
                          "traced reference" if workload.reference
                          else "traced")
    traced = counted
    if trace and workload.reference:
        traced = traced_pass(workload.argv, "traced")

    primary: list[Pass] = []
    companion: list[Pass] = []
    #: every timed invocation in order, each between two calibrations
    timed: list[Pass] = []
    cal_ns = [runner.calibrate()]
    start = time.monotonic()
    last = 0.0
    # stop before a pass that would end past ``seconds``, given the last one
    while (len(primary) < MIN_PASSES
           or time.monotonic() - start + last <= seconds):
        began = time.monotonic()
        p = runner.invoke(workload.argv + suffix)
        cal_ns.append(runner.calibrate())
        gate.admit(f"pass {len(primary) + 1}", p.returncode, p.stdout,
                   p.stderr)
        primary.append(p)
        timed.append(p)
        if workload.companion:
            q = runner.invoke(workload.companion + suffix)
            cal_ns.append(runner.calibrate())
            gate.admit(f"obs-off pass {len(companion) + 1}", q.returncode,
                       q.stdout, q.stderr)
            companion.append(q)
            timed.append(q)
        last = time.monotonic() - began
    scale = {id(p): f for p, f in zip(timed, speed_factors(cal_ns))}

    raw_wall_s = _median(p.wall_ns for p in primary) / 1e9
    wall_s = _median(p.wall_ns * scale[id(p)] for p in primary) / 1e9
    if trace:
        metrics = {}
        if traced.trace is not None:
            metrics = layer_metrics(traced.trace, traced.t0)
        metrics["trace_overhead_x"] = traced.wall_ns / 1e9 / raw_wall_s
    else:
        set_up = [p for p in timed if p.setup_ns is not None]
        events = counted.trace["events"] if counted.trace else 0
        busy_s = _median(
            (p.wall_ns - p.setup_ns) * scale[id(p)]
            for p in primary if p.setup_ns is not None
        ) / 1e9
        metrics = {
            "wall_s": wall_s,
            "setup_s": _median(
                p.setup_ns * scale[id(p)] for p in set_up
            ) / 1e9,
            "sim_events_per_s": events / busy_s if busy_s else 0.0,
            "peak_rss_mb": _median(p.maxrss_kb for p in primary) / 1024,
            # each obs-on pass over the obs-off twin run right after it,
            # so host speed drift between pairs cancels; obs is off on
            # workloads without a twin, so their ratio is 1
            "obs_overhead_x": _median(
                p.wall_ns / q.wall_ns for p, q in zip(primary, companion)
            ) if companion else 1.0,
        }
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    versions = (counted.trace or {}).get("versions", {})
    record = {
        "workload": workload.name,
        "seed": seed,
        "runs": runs,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _commit(),
        "passes": len(primary),
        "pass_wall_s": [p.wall_ns / 1e9 for p in primary],
        "obs_off_pass_wall_s": [q.wall_ns / 1e9 for q in companion],
        "calibration_s": [c / 1e9 for c in cal_ns],
        "unscaled_wall_s": raw_wall_s,
        "failed_frac": gate.failed / gate.attempted,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "networkx": versions.get("networkx"),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "problems": gate.problems,
    }
    return result, record


def units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--runs", type=int, default=DEFAULT_RUNS,
        help="executions per cell passed to the CLI (smoke tests lower it)",
    )
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "repro" / "harness" / "cli.py").is_file():
        print(f"perfbench: no program under {src}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    scratch = checkout / ".perfbench-tmp"
    root = scratch / f"run-{os.getpid()}"
    try:
        result, record = run(
            WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), runs=args.runs, root=root, src=src,
            units=units(),
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for problem in record["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
