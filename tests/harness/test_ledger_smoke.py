"""``repro selfcheck ledger``: the run-ledger smoke family."""

import pytest

from repro.harness.cli import main
from repro.harness.selfcheck import SUITES, render_suite, run_suite

pytestmark = pytest.mark.ledger


class TestLedgerSmoke:
    def test_smoke_suite_is_clean(self):
        findings = run_suite("ledger")
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_render_names_the_families(self):
        text = render_suite("ledger", [])
        assert f"{len(SUITES['ledger'].checks)} check families" in text
        assert "injected-regression gate" in text
        assert "torn-index recovery" in text

    def test_cli_flag_appends_the_section(self, capsys):
        code = main(["selfcheck", "ledger"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ledger smoke passed" in out

    def test_without_flag_no_section(self, capsys):
        code = main(["selfcheck"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ledger smoke" not in out
