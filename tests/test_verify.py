import pytest

import hooklab.verify as verify_mod
from hooklab import CountTable, verify_theorem
from hooklab.cli import main


class TestReports:
    def test_every_theorem_id_is_wired(self):
        for theorem in verify_mod.THEOREM_IDS:
            report = verify_theorem(theorem, nmax=8, order=16)
            assert report.ok
            assert report.cells

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown theorem id"):
            verify_theorem("thm0.0")

    def test_report_json_shape(self):
        report = verify_theorem("thm4.1", nmax=8, order=16, h=0, k=2)
        data = report.to_json_dict()
        assert data["theorem"] == "thm4.1"
        assert data["ok"] is True
        assert data["cells"][0]["params"] == {"h": 0, "k": 2}

    def test_mismatch_reporting(self, monkeypatch):
        # corrupt the oracle to confirm divergences are located and reported
        def broken(h, n_max):
            values = {n: 0 for n in range(n_max + 1)}
            values[4] = 99
            return CountTable("fixed-hooks", {"h": h}, values)

        monkeypatch.setattr(verify_mod.oracle, "count_fixed_hooks", broken)
        report = verify_theorem("thm4.2", nmax=8, order=16, h=0)
        assert not report.ok
        cell = report.cells[0]
        assert cell.status == "mismatch"
        n, expected, actual = cell.first_divergence
        assert n in (1, 4)
        assert "first divergence" in report.to_text()

    def test_mismatch_exit_code(self, monkeypatch, capsys):
        def broken(h, n_max):
            return CountTable("fixed-hooks", {"h": h}, {n: 0 for n in range(n_max + 1)})

        monkeypatch.setattr(verify_mod.oracle, "count_fixed_hooks", broken)
        code = main(["verify", "thm4.2", "--h", "0", "--nmax", "8", "--order", "16"])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

