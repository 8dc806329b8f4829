"""CI smoke target: ``python -m repro selfcheck parallel``.

Marked ``parallel`` so CI can select the equivalence suite
(``pytest -m parallel``); it also runs in the default tier-1 sweep.
"""

import pytest

from repro.core.study import Study
from repro.harness.cli import main
from repro.harness.selfcheck import render_suite, run_suite


@pytest.mark.parallel
def test_selfcheck_parallel_target_passes(capsys):
    code = main(["selfcheck", "parallel"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "parallel smoke passed" in out


@pytest.mark.parallel
def test_parallel_smoke_suite_is_clean():
    findings = run_suite("parallel")
    assert findings == []
    assert "passed" in render_suite("parallel", findings)


@pytest.mark.parallel
def test_selfcheck_without_flag_skips_parallel_smoke(capsys):
    code = main(["selfcheck"])
    out = capsys.readouterr().out
    assert code == 0
    assert "self-check passed" in out
    assert "parallel smoke" not in out


@pytest.mark.parallel
def test_smoke_runs_at_jobs_2_through_the_cli(monkeypatch, capsys):
    # the CI job's exact invocation; selfcheck takes no --jobs, so the
    # equivalence suite must build its own two-worker studies
    jobs = []
    init = Study.__init__

    def spy(self, config, *args, **kwargs):
        jobs.append(config.jobs)
        init(self, config, *args, **kwargs)

    monkeypatch.setattr(Study, "__init__", spy)
    code = main(["selfcheck", "parallel"])
    out = capsys.readouterr().out
    assert code == 0
    assert "parallel smoke passed" in out
    assert 1 in jobs and 2 in jobs
