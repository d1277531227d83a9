import json
import subprocess
import sys
from dataclasses import replace

import pytest

from fibrand import cli
from fibrand.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--count", "25")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "prime,period,in_terms_of_p,binary_value"
        assert lines[1] == "3,8,2p+2,-1"
        assert lines[2] == "5,20,5(p-1),1"
        assert lines[9] == "29,14,(p-1)/2,1"
        assert lines[14] == "47,32,(2p+2)/3,-1"
        assert lines[25] == "101,50,(p-1)/2,1"
        assert len(lines) == 26

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--count", "1")
        assert code == 0
        assert out.splitlines()[1:] == ["3,8,2p+2,-1"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--count", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0] == {
            "prime": 3, "period": 8, "in_terms_of_p": "2p+2", "binary_value": -1,
        }
        assert rows[1]["prime"] == 5

    def test_text(self, capsys):
        code, out, _ = run(capsys, "table", "--count", "2", "--format", "text")
        assert code == 0
        assert "5(p-1)" in out

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "table", "--count", "10")
        _, second, _ = run(capsys, "table", "--count", "10")
        assert first == second

    def test_count_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "table", "--count", "0")
        assert code == 2
        assert "error" in err

    def test_count_above_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, "table", "--count", str(10**6 + 1))
        assert code == 2
        assert "error" in err


class TestBits:
    def test_primes_csv(self, capsys):
        code, out, _ = run(capsys, "bits", "--kind", "primes", "--count", "4")
        assert code == 0
        assert out == "-1,1,-1,1\n"

    def test_general_csv(self, capsys):
        code, out, _ = run(capsys, "bits", "--kind", "general", "--count", "2")
        assert code == 0
        assert out == "-1,1\n"

    def test_text_lines(self, capsys):
        code, out, _ = run(
            capsys, "bits", "--kind", "primes", "--count", "3", "--format", "text"
        )
        assert code == 0
        assert out == "-1\n+1\n-1\n"

    def test_start_offsets(self, capsys):
        _, out, _ = run(capsys, "bits", "--kind", "primes", "--count", "1",
                        "--start", "25")
        assert out == "1\n"
        _, out, _ = run(capsys, "bits", "--kind", "general", "--count", "1",
                        "--start", "7")
        assert out == "1\n"

    def test_count_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bits", "--kind", "primes", "--count", "0")
        assert code == 2
        assert "count" in err


class TestRandomness:
    def test_prime_text_report(self, capsys):
        code, out, _ = run(capsys, "randomness", "--kind", "primes",
                           "--length", "175")
        assert code == 0
        assert "convention = circular" in out
        assert out.splitlines()[-1] == "R = 0.9458"

    def test_linear_convention(self, capsys):
        code, out, _ = run(capsys, "randomness", "--kind", "primes",
                           "--length", "175", "--convention", "linear-unbiased")
        assert code == 0
        assert out.splitlines()[-1] == "R = 0.8887"

    def test_csv_profile(self, capsys):
        code, out, err = run(capsys, "randomness", "--kind", "general",
                             "--length", "16", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,C(k)"
        assert lines[1] == "0,1"
        assert len(lines) == 17
        assert err.startswith("R = ")

    def test_length_one_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "randomness", "--kind", "primes", "--length", "1")
        assert code == 2


class TestKeygen:
    def test_text_with_origin_comment(self, capsys):
        code, out, _ = run(capsys, "keygen", "--bits", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# origin: kind=prime-indexed start=1 count=8"
        assert lines[1] == "01010010"

    def test_hex(self, capsys):
        code, out, _ = run(capsys, "keygen", "--bits", "8", "--format", "hex")
        assert code == 0
        assert out == "52\n"

    def test_raw(self, capsysbinary):
        code = main(["keygen", "--bits", "8", "--format", "raw"])
        assert code == 0
        assert capsysbinary.readouterr().out == b"\x52"

    def test_bits_zero_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "keygen", "--bits", "0")
        assert code == 2


class TestVerify:
    @pytest.mark.parametrize(
        "suite,limit",
        [
            ("table", None),
            ("bound", "250"),
            ("class-theorem", "2000"),
            ("oracle", "2000"),
        ],
    )
    def test_suites_pass(self, capsys, suite, limit):
        argv = ["verify", "--suite", suite]
        if limit:
            argv += ["--limit", limit]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert f"{suite}: pass" in out

    def test_bound_reports_equality_set(self, capsys):
        _, out, _ = run(capsys, "verify", "--suite", "bound", "--limit", "250")
        assert "[10, 50, 250]" in out

    def test_bad_limit_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bound", "--limit", "1")
        assert code == 2


class TestParser:
    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fibrand", "table", "--count", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "3,8,2p+2,-1"


class TestVerifyFailure:
    """Exit code 1: each suite reports FAIL when what it checks is broken."""

    @staticmethod
    def wrong_period(p, real):
        rec = real(p)
        return replace(rec, period=rec.period + 1) if p == 47 else rec

    def test_table(self, capsys, monkeypatch):
        real = cli.pisano_period_prime
        monkeypatch.setattr(cli, "pisano_period_prime", lambda p: self.wrong_period(p, real))
        code, out, _ = run(capsys, "verify", "--suite", "table")
        assert code == 1
        assert out.startswith("table: FAIL (row 14: computed (47, 33,")

    def test_bound(self, capsys, monkeypatch):
        real = cli.verify_period_bound

        def over_bound(limit):
            checks = real(limit)
            checks[3] = checks[3]._replace(period=100, bound_met=False)
            return checks

        monkeypatch.setattr(cli, "verify_period_bound", over_bound)
        code, out, _ = run(capsys, "verify", "--suite", "bound", "--limit", "250")
        assert code == 1
        assert out == "bound: FAIL (m=5: period 100 exceeds 6m)\n"

    def test_class_theorem(self, capsys, monkeypatch):
        real = cli.pisano_period_prime
        monkeypatch.setattr(cli, "pisano_period_prime", lambda p: self.wrong_period(p, real))
        code, out, _ = run(capsys, "verify", "--suite", "class-theorem", "--limit", "100")
        assert code == 1
        assert out == "class-theorem: FAIL (p=47: period 33 does not divide 96)\n"

    def test_oracle(self, capsys, monkeypatch):
        real = cli.pisano_period_bruteforce
        monkeypatch.setattr(cli, "pisano_period_bruteforce", lambda m: real(m) * (2 if m == 47 else 1))
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--limit", "100")
        assert code == 1
        assert out == "oracle: FAIL (p=47: order search gives 32, iteration gives 64)\n"
