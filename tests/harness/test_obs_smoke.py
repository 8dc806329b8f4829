"""CI smoke target: ``python -m repro selfcheck obs``.

Marked ``obs`` so CI can select it (``pytest -m obs``); it also runs in
the default tier-1 sweep.
"""

import pytest

from repro.harness.cli import main
from repro.harness.selfcheck import render_suite, run_suite


@pytest.mark.obs
def test_selfcheck_obs_smoke_target_passes(capsys):
    code = main(["selfcheck", "obs"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "obs smoke passed" in out


@pytest.mark.obs
def test_obs_smoke_suite_is_clean():
    findings = run_suite("obs")
    assert findings == []
    assert "passed" in render_suite("obs", findings)


@pytest.mark.obs
def test_selfcheck_without_obs_skips_smoke(capsys):
    code = main(["selfcheck"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "obs smoke" not in out
