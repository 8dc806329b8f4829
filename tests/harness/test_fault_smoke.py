"""CI smoke target: ``python -m repro selfcheck faults``.

Marked ``faults`` so CI can select it (``pytest -m faults``); it also
runs in the default tier-1 sweep.
"""

import pytest

from repro.harness.cli import main
from repro.harness.selfcheck import render_suite, run_suite


@pytest.mark.faults
def test_selfcheck_smoke_target_passes(capsys):
    code = main(["selfcheck", "faults"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "fault smoke passed" in out


@pytest.mark.faults
def test_fault_smoke_suite_is_clean():
    findings = run_suite("faults")
    assert findings == []
    assert "passed" in render_suite("faults", findings)


@pytest.mark.faults
def test_selfcheck_without_faults_skips_smoke(capsys):
    code = main(["selfcheck"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "fault smoke" not in out
