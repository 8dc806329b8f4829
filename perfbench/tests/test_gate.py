"""The correctness gate rejects each injected failure."""

import hashlib

from gate import Gate, check_report_problems

TABLE = "==> table4\nRank/Name  Triad\n1. Frontier  1.0\n\n".encode()
CHECK_OK = "table6.tioga.d2d.D  ok  10.12\nOK: 108 passed, 0 failed, 0 skipped\n"


def test_clean_passes_are_admitted():
    gate = Gate(hashlib.sha256(TABLE).hexdigest())
    assert gate.admit("pass 1", 0, TABLE, "ledger: recorded run abc\n")
    assert gate.admit("pass 2", 0, TABLE, "")
    assert (gate.attempted, gate.failed, gate.correct) == (2, 0, True)


def test_non_zero_exit_fails_the_pass():
    gate = Gate()
    assert not gate.admit("pass 1", 1, TABLE, "")
    assert (gate.failed, gate.correct) == (1, False)


def test_one_changed_stdout_byte_fails_the_pass():
    gate = Gate()
    gate.admit("pass 1", 0, TABLE, "")
    changed = bytearray(TABLE)
    changed[-5] ^= 1
    assert not gate.admit("pass 2", 0, bytes(changed), "")
    assert gate.failed == 1 and not gate.correct


def test_recorded_digest_mismatch_fails():
    gate = Gate(hashlib.sha256(b"other").hexdigest())
    assert not gate.admit("pass 1", 0, TABLE, "")


def test_degraded_footnote_fails_the_pass():
    gate = Gate()
    degraded = TABLE.replace(b"1.0", "—†".encode())
    assert not gate.admit("pass 1", 3, degraded, "")
    assert not Gate().admit("pass 1", 0, degraded, "")


def test_ledger_warning_fails_the_pass():
    warning = ("RuntimeWarning: run-ledger recording failed: disk full "
               "(run results are unaffected)\n")
    assert not Gate().admit("pass 1", 0, TABLE, warning)


def test_check_report_must_pass_all_108():
    assert check_report_problems(0, CHECK_OK) == []


def test_all_skipped_check_report_fails_despite_exit_0():
    report = "x  skipped  is not a metrics: path\nOK: 0 passed, 0 failed, 108 skipped\n"
    assert check_report_problems(0, report)


def test_failed_or_missing_check_summary_fails():
    assert check_report_problems(3, "FAIL: 107 passed, 1 failed, 0 skipped\n")
    assert check_report_problems(0, "no summary here\n")


def test_run_level_problems_make_the_run_incorrect():
    gate = Gate()
    gate.admit("pass 1", 0, TABLE, "")
    gate.note(["check: 0 passed, 0 failed, 108 skipped"])
    assert gate.failed == 0 and not gate.correct
