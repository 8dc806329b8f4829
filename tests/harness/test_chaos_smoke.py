"""CI smoke target: ``python -m repro selfcheck chaos``.

Marked ``chaos`` so CI can select the crash-recovery suite
(``pytest -m chaos``); it also runs in the default tier-1 sweep.
"""

import pytest

from repro.harness.cli import main
from repro.harness.selfcheck import render_suite, run_suite


@pytest.mark.chaos
def test_selfcheck_chaos_target_passes(capsys):
    code = main(["selfcheck", "chaos"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "chaos smoke passed" in out


@pytest.mark.chaos
def test_chaos_smoke_suite_is_clean():
    findings = run_suite("chaos")
    assert findings == []
    assert "passed" in render_suite("chaos", findings)


@pytest.mark.chaos
def test_selfcheck_without_flag_skips_chaos_smoke(capsys):
    code = main(["selfcheck"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "chaos smoke" not in out
