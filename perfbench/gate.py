"""Correctness gate applied to every pass of a benchmark run."""

from __future__ import annotations

import hashlib
import re

DEGRADED_MARK = "—†"
LEDGER_FAILURE = "run-ledger recording failed"
#: the paper-reference suite ``python -m repro check`` evaluates
EXPECTED_CHECKS = 108

_CHECK_SUMMARY = re.compile(r"(\d+) passed, (\d+) failed, (\d+) skipped")


def pass_problems(returncode: int, stdout: bytes, stderr: str) -> list[str]:
    """Why one CLI invocation failed, or ``[]`` when it passed."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if DEGRADED_MARK in stdout.decode("utf-8", "replace"):
        problems.append(f"degraded cell ({DEGRADED_MARK}) in stdout")
    if LEDGER_FAILURE in stderr:
        problems.append(f"'{LEDGER_FAILURE}' on stderr")
    return problems


def check_report_problems(returncode: int, stdout: str) -> list[str]:
    """Why a ``repro check`` report fails the gate, or ``[]``.

    Exit code 0 is not enough: a report whose checks were all skipped
    also exits 0.  The last summary line must read exactly
    108 passed, 0 failed, 0 skipped.
    """
    found = _CHECK_SUMMARY.findall(stdout)
    if not found:
        return [f"check: no summary line (exit code {returncode})"]
    passed, failed, skipped = map(int, found[-1])
    problems = []
    if returncode != 0:
        problems.append(f"check: exit code {returncode}")
    if (passed, failed, skipped) != (EXPECTED_CHECKS, 0, 0):
        problems.append(
            f"check: {passed} passed, {failed} failed, {skipped} skipped "
            f"(want {EXPECTED_CHECKS} passed, 0 failed, 0 skipped)"
        )
    return problems


class Gate:
    """Counts passes and failures for one benchmark run.

    Every admitted pass must pass :func:`pass_problems` and print the
    same stdout as the first pass admitted; when ``expected_sha256`` is
    given, that first stdout must also hash to it.
    """

    def __init__(self, expected_sha256: str | None = None) -> None:
        self.expected_sha256 = expected_sha256
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def admit(self, label: str, returncode: int, stdout: bytes,
              stderr: str) -> bool:
        self.attempted += 1
        problems = pass_problems(returncode, stdout, stderr)
        if self.reference is None:
            self.reference = stdout
            digest = hashlib.sha256(stdout).hexdigest()
            if self.expected_sha256 and digest != self.expected_sha256:
                problems.append(
                    f"stdout sha256 {digest} != recorded "
                    f"{self.expected_sha256}"
                )
        elif stdout != self.reference:
            problems.append("stdout differs from the run's first pass")
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def note(self, problems: list[str]) -> None:
        """Record run-level problems (check report, span accounting)."""
        self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems
