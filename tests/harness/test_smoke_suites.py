"""``python -m repro selfcheck [SUITE ...]``: every smoke suite through the CLI.

Each case carries its subsystem's marker, so ``pytest -m faults`` (or
``obs``, ``parallel``, ``chaos``, ``ledger``, ``checks``) selects its
suite; all of them also run in the default tier-1 sweep.  The expected
lines are pinned byte for byte.
"""

import pytest

from repro.harness import selfcheck
from repro.harness.cli import main
from repro.harness.selfcheck import SUITES, Finding

STRUCTURAL = "self-check passed: 13 machines, 6 check families, no findings"

CASES = [
    pytest.param(
        "faults",
        "fault smoke passed: 5 check families (null plan, retransmit, "
        "link windows, GPU faults, watchdog)",
        marks=pytest.mark.faults, id="faults",
    ),
    pytest.param(
        "obs",
        "obs smoke passed: 7 check families (null context, span roundtrip, "
        "histogram edges, --profile CLI, trace reader, bench gate, live "
        "status server)",
        marks=pytest.mark.obs, id="obs",
    ),
    pytest.param(
        "parallel",
        "parallel smoke passed: 3 check families (jobs knob, "
        "serial-vs-parallel digest, scheduler stats)",
        marks=pytest.mark.parallel, id="parallel",
    ),
    pytest.param(
        "cache",
        "cache smoke passed: 2 check families (cold/warm byte-identity, "
        "version invalidation)",
        id="cache",
    ),
    pytest.param(
        "chaos",
        "chaos smoke passed: 3 check families (kill-and-recover "
        "byte-identity, retry exhaustion footnote, truncated-journal resume)",
        marks=pytest.mark.chaos, id="chaos",
    ),
    pytest.param(
        "ledger",
        "ledger smoke passed: 3 check families (record/list/diff/gc "
        "roundtrip, injected-regression gate, torn-index recovery)",
        marks=pytest.mark.ledger, id="ledger",
    ),
    pytest.param(
        "checks",
        "checks smoke passed: 3 check families (spec roundtrip, "
        "injected-regression gate, adaptive stopping)",
        marks=pytest.mark.checks, id="checks",
    ),
]


def test_cases_cover_every_suite():
    assert [case.values[0] for case in CASES] == list(SUITES)


@pytest.mark.parametrize("name, passed", CASES)
def test_suite_passes_through_the_cli(name, passed, capsys):
    code = main(["selfcheck", name])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.splitlines() == [STRUCTURAL, passed]


def test_plain_selfcheck_adds_no_smoke_section(capsys):
    assert main(["selfcheck"]) == 0
    assert capsys.readouterr().out == STRUCTURAL + "\n"


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["selfcheck", "nope"])
    assert excinfo.value.code == 2
    assert "unknown suite 'nope'" in capsys.readouterr().err


class TestFindingsExit3:
    """A finding anywhere fails the command, as ``repro check`` does."""

    FINDING = Finding("Frontier", "smoke", "injected")

    def test_structural_finding(self, monkeypatch, capsys):
        monkeypatch.setattr(selfcheck, "ALL_CHECKS",
                            selfcheck.ALL_CHECKS + (lambda: [self.FINDING],))
        assert main(["selfcheck"]) == 3
        assert "[Frontier] smoke: injected" in capsys.readouterr().out

    def test_suite_finding(self, monkeypatch, capsys):
        suite = SUITES["checks"]
        monkeypatch.setitem(SUITES, "checks", suite._replace(
            checks=suite.checks[:-1] + (lambda: [self.FINDING],)
        ))
        assert main(["selfcheck", "checks"]) == 3
        out = capsys.readouterr().out
        assert out.splitlines() == [STRUCTURAL, "[Frontier] smoke: injected"]
