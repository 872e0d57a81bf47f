"""The command line interface, exercised through real subprocesses."""

import json
import re
import subprocess
import sys

import pytest

from cm7prime import cli, prover
from cm7prime.certificate import build_certificate, serialize


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "cm7prime.cli", *args],
                          capture_output=True, text=True, timeout=300,
                          **kwargs)


class TestTest:
    def test_prime_line(self):
        res = run_cli("test", "17")
        assert res.returncode == 0
        assert re.fullmatch(r"k=17 verdict=Prime digits=6 mults=\d+ "
                            r"ms=\d+\.\d\d\n", res.stdout)

    def test_forced_composite_line(self):
        res = run_cli("test", "8")
        assert res.returncode == 0
        assert res.stdout.startswith(
            "k=8 verdict=Composite:ForcedCongruence digits=3 mults=0 ")

    def test_no_square_root_line(self):
        res = run_cli("test", "11")
        assert res.returncode == 0
        assert "verdict=Composite:NoSqrtMinus7" in res.stdout
        assert "digits=4" in res.stdout

    def test_json_output(self):
        res = run_cli("test", "17", "--json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["k"] == 17
        assert doc["verdict"] == "Prime"
        assert doc["digits"] == 6
        assert isinstance(doc["mults"], int) and doc["mults"] > 0
        assert isinstance(doc["ms"], float)

    def test_small_k_is_usage_error(self):
        assert run_cli("test", "1").returncode == 2

    def test_unknown_mode_rejected_by_parser(self):
        # step 8 has one rule, so test takes no mode option at all
        assert run_cli("test", "17", "--mode", "strong").returncode == 2

    def test_digits_past_the_int_str_limit(self, monkeypatch, capsys):
        """J_14283 has 4301 digits, one over CPython's default str() limit."""
        result = prover.test_jk(2)
        monkeypatch.setattr(prover, "test_jk", lambda k: result)
        assert cli.main(["test", "14283"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k=14283 ") and " digits=4301 " in out


class TestSearch:
    def test_range_to_thirty(self):
        res = run_cli("search", "2", "30")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[-1].startswith("# survivors=")
        assert lines[-1].endswith("primes=10")
        for line in lines[:-1]:
            assert re.fullmatch(r"\d+,[A-Za-z:]+,\d+,\d+\.\d\d", line)
        primes = [int(l.split(",")[0]) for l in lines[:-1]
                  if l.split(",")[1] == "Prime"]
        assert primes == [2, 3, 4, 5, 7, 9, 10, 17, 18, 28]

    def test_weak_sieve_keeps_more_indices(self):
        res = run_cli("search", "2", "30", "--sieve-limit", "3")
        lines = res.stdout.splitlines()
        assert len(lines) == 27  # 26 records + summary
        ks = [int(l.split(",")[0]) for l in lines[:-1]]
        assert ks == [k for k in range(2, 31) if k not in (8, 16, 24)]
        assert lines[-1] == "# survivors=26 primes=10"

    def test_range_below_four(self):
        res = run_cli("search", "2", "3")
        assert res.returncode == 0
        assert res.stdout.splitlines()[-1] == "# survivors=2 primes=2"

    def test_inverted_range_is_usage_error(self):
        assert run_cli("search", "5", "4").returncode == 2

    def test_sieve_limit_is_bounded(self):
        # rejected while parsing, before any sieve work
        res = run_cli("search", "2", "30", "--sieve-limit", str(10**8 + 1))
        assert (res.returncode, res.stdout) == (2, "")
        assert "--sieve-limit: must be <= 100000000" in res.stderr

    def test_out_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_cli("search", "2", "30", "--out", str(out))
        assert res.returncode == 0
        assert res.stdout == ""
        direct = run_cli("search", "2", "30")
        assert _strip_ms(out.read_text()) == _strip_ms(direct.stdout)

    def test_jobs_do_not_change_records(self):
        one = run_cli("search", "2", "40", "--jobs", "1")
        two = run_cli("search", "2", "40", "--jobs", "2")
        assert _strip_ms(one.stdout) == _strip_ms(two.stdout)


@pytest.mark.parametrize("args", [("search", "2", "30"), ("certify", "17")])
def test_out_into_missing_directory_is_io_error(tmp_path, args):
    out = tmp_path / "missing" / "out.txt"
    res = run_cli(*args, "--out", str(out))
    assert res.returncode == 3
    assert "error: cannot write" in res.stderr
    assert res.stdout == ""
    assert not out.parent.exists()


def _strip_ms(text: str) -> list[str]:
    return [",".join(line.split(",")[:3]) for line in text.splitlines()]


class TestCertifyVerify:
    def test_certify_writes_canonical_text(self):
        res = run_cli("certify", "17")
        assert res.returncode == 0
        assert res.stdout == serialize(build_certificate(17))

    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "cert.txt"
        assert run_cli("certify", "18", "--out", str(path)).returncode == 0
        res = run_cli("verify", str(path))
        assert res.returncode == 0
        assert res.stdout == "VALID\n"

    def test_composite_has_no_certificate(self):
        res = run_cli("certify", "8")
        assert res.returncode == 0
        assert res.stdout == "no certificate: composite\n"

    def test_small_k_is_usage_error(self):
        assert run_cli("certify", "1").returncode == 2

    def test_tampered_certificate_is_invalid(self, tmp_path):
        cert = build_certificate(17)
        x, y, z = cert.q
        text = serialize(cert).replace(f"y={y}\n", f"y={(y + 1) % cert.n}\n")
        path = tmp_path / "bad.txt"
        path.write_text(text)
        res = run_cli("verify", str(path))
        assert res.returncode == 0
        assert res.stdout == "INVALID:curve-equation\n"

    def test_absurd_r_is_invalid_not_a_crash(self, tmp_path):
        cert = build_certificate(17)
        path = tmp_path / "big_r.txt"
        path.write_text(serialize(cert).replace(f"r={cert.r}\n",
                                                f"r={10**30}\n"))
        res = run_cli("verify", str(path))
        assert res.returncode == 0
        assert res.stdout == "INVALID:r-bound\n"

    def test_missing_file_is_io_error(self, tmp_path):
        res = run_cli("verify", str(tmp_path / "nope.txt"))
        assert res.returncode == 3
        assert "cannot read" in res.stderr

    def test_garbage_file_is_parse_error(self, tmp_path):
        path = tmp_path / "garbage.txt"
        for garbage in (b"hello world\n", b"JKCERT 1\nk=\xff\n"):  # not UTF-8
            path.write_bytes(garbage)
            res = run_cli("verify", str(path))
            assert res.returncode == 3
            assert "malformed certificate" in res.stderr


class TestSelftest:
    def test_all_modules_pass(self):
        res = run_cli("selftest")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert len(lines) == 8
        assert all(line.endswith(": PASS") for line in lines)


class TestBench:
    def test_table_and_ratio(self):
        res = run_cli("bench", "--kset", "33,65")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0].split() == ["k", "step2_s", "step7_s"]
        assert lines[1].split()[0] == "33"
        assert lines[2].split()[0] == "65"
        assert re.fullmatch(r"ratio step7\(65\)/step7\(33\) = \d+\.\d\d",
                            lines[3])

    def test_kset_entries_may_be_spaced(self):
        res = run_cli("bench", "--kset", " 33, 65 ")
        assert res.returncode == 0
        assert [l.split()[0] for l in res.stdout.splitlines()[1:3]] == \
            ["33", "65"]

    def test_bad_kset_is_usage_error(self):
        assert run_cli("bench", "--kset", "2,bad").returncode == 2
        assert run_cli("bench", "--kset", "").returncode == 2
        assert run_cli("bench", "--kset", "1").returncode == 2
        # an empty entry is an error wherever it sits, spaced or not
        for kset in ("2,", "2, ", ",33", "33,,65"):
            res = run_cli("bench", "--kset", kset)
            assert (res.returncode, res.stdout) == (2, ""), kset
        for kset in (",", " , ", " "):
            res = run_cli("bench", "--kset", kset)
            assert (res.returncode, res.stdout) == (2, ""), kset
            assert "must name at least one k" in res.stderr, kset


class TestParser:
    @pytest.mark.parametrize("args", [
        ("test", "1_7"), ("test", "+17"), ("test", "\u0661\u0667"),
        ("test", "017"), ("certify", "+17"),
        ("search", "2", "30", "--jobs", "+1"),
        ("search", "2", "30", "--sieve-limit", "1_000"),
        ("bench", "--kset", "+33"), ("bench", "--kset", "33,0_65"),
    ])
    def test_integers_must_be_canonical_decimals(self, args):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""

    def test_no_arguments_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate").returncode == 2
