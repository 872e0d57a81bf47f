"""The command line interface, exercised through real subprocesses."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cm7prime import cli, prover
from cm7prime.certificate import build_certificate, serialize


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cm7prime.cli", *args],
                          capture_output=True, text=True, timeout=300,
                          env=env, **kwargs)


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
        # the first five keys keep their bytes; the rest are appended
        assert res.stdout.startswith('{"k": 17, "verdict": "Prime", '
                                     '"digits": 6, "mults": 121, "ms": ')
        doc = json.loads(res.stdout)
        assert doc["k"] == 17
        assert doc["verdict"] == "Prime"
        assert doc["digits"] == 6
        assert isinstance(doc["mults"], int) and doc["mults"] > 0
        assert isinstance(doc["ms"], float)
        assert doc["schema"] == 1
        assert (doc["step_reached"], doc["early_exit"]) == (8, False)
        assert doc["step2_s"] > 0 and doc["step7_s"] > 0
        assert (doc["multiplications"], doc["squarings"], doc["additions"],
                doc["gcd_calls"]) == (68, 53, 76, 4)
        res = run_cli("test", "11", "--json")
        doc = json.loads(res.stdout)
        assert doc["verdict"] == "Composite:NoSqrtMinus7"
        assert (doc["step_reached"], doc["early_exit"]) == (3, False)
        assert doc["step2_s"] > 0 and doc["step7_s"] == 0
        assert doc["multiplications"] + doc["squarings"] == doc["mults"]
        assert doc["gcd_calls"] == 0

    def test_small_k_is_usage_error(self):
        assert run_cli("test", "1").returncode == 2

    def test_k_above_the_bound_is_usage_error(self):
        # rejected while parsing: the closed form at k would not fit memory
        res = run_cli("test", str(2**24 + 1))
        assert (res.returncode, res.stdout) == (2, "")
        assert "k must be <= 16777216" in res.stderr

    def test_k_at_the_bound_parses(self):
        # parsed only; a run at this k would never finish
        args = cli._build_parser().parse_args(["test", str(2**24)])
        assert args.k == 2**24

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

    def test_over_long_file_is_refused_before_parsing(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setattr(cli, "_MAX_K", 17)
        limit = cli._max_certificate_chars()  # 5 * 7 digits + 64
        assert limit == 99
        sizes = []  # every read the command asks for

        def spy_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            read = fh.read
            fh.read = lambda size=-1: sizes.append(size) or read(size)
            return fh

        monkeypatch.setattr(cli, "open", spy_open, raising=False)
        path = tmp_path / "cert.txt"
        path.write_text(serialize(build_certificate(17)))  # k = 17 fits
        assert cli.main(["verify", str(path)]) == 0
        assert capsys.readouterr().out == "VALID\n"
        path.write_text("x" * (limit - 1) + "\n")  # read whole, then parsed
        assert cli.main(["verify", str(path)]) == 3
        assert "malformed certificate: expected 9 lines" in \
            capsys.readouterr().err
        path.write_text("x" * limit + "\n")
        assert cli.main(["verify", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: malformed certificate: longer than "
                                "99 characters, the most a certificate with "
                                "k <= 17 takes\n")
        assert sizes == [limit + 1] * 3

    def test_k_above_the_cap_is_refused_before_n_is_read(self, tmp_path,
                                                          capsys):
        # N and the point may have k + 3 bits, so parsing a 1.6-million
        # digit N took 2.15 s before this check; it is never converted
        n = "1" + "0" * 1_600_000
        path = tmp_path / "huge_k.txt"
        path.write_text(f"JKCERT 1\nk=99999999\nN={n}\na=-1\nd=1\nr=3\n"
                        f"x=1\ny=1\nz=1\n")
        t = time.perf_counter()
        assert cli.main(["verify", str(path)]) == 3
        assert time.perf_counter() - t < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: malformed certificate: k must be <= "
                                f"{cli._MAX_K}, the largest k this program "
                                "accepts\n")

    def test_garbage_file_is_parse_error(self, tmp_path):
        path = tmp_path / "garbage.txt"
        for garbage in (b"hello world\n", b"JKCERT 1\nk=\xff\n"):  # not UTF-8
            path.write_bytes(garbage)
            res = run_cli("verify", str(path))
            assert res.returncode == 3
            assert "malformed certificate" in res.stderr


class TestParser:
    @pytest.mark.parametrize("args", [
        ("test", "1_7"), ("test", "+17"), ("test", "\u0661\u0667"),
        ("test", "017"), ("certify", "+17"),
        ("search", "2", "30", "--jobs", "+1"),
        ("search", "2", "30", "--sieve-limit", "1_000"),
    ])
    def test_integers_must_be_canonical_decimals(self, args):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""

    def test_no_arguments_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate").returncode == 2


# CPython's int<->str limit: unset (4300 digits), its floor, and lifted
INT_STR_LIMITS = [None, "640", "0"]


def _with_int_str_limit(monkeypatch, limit):
    if limit is None:
        monkeypatch.delenv("PYTHONINTMAXSTRDIGITS", raising=False)
    else:
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", limit)


class TestOneReader:
    """Every outside integer is read one way, whatever the interpreter's
    int<->str limit, and only argument errors exit 2."""

    @pytest.mark.parametrize("limit", INT_STR_LIMITS)
    def test_long_r_fails_the_bound_under_any_limit(self, tmp_path,
                                                    monkeypatch, limit):
        cert = build_certificate(17)
        path = tmp_path / "long_r.txt"
        path.write_text(serialize(cert).replace(f"r={cert.r}\n",
                                                "r=" + "7" * 700 + "\n"))
        _with_int_str_limit(monkeypatch, limit)
        res = run_cli("verify", str(path))
        assert (res.returncode, res.stdout) == (0, "INVALID:r-bound\n")

    @pytest.mark.parametrize("limit", INT_STR_LIMITS)
    def test_long_a_is_an_unknown_twist_under_any_limit(self, tmp_path,
                                                        monkeypatch, limit):
        path = tmp_path / "long_a.txt"
        path.write_text(serialize(build_certificate(17)).replace(
            "a=-1\n", "a=-" + "7" * 700 + "\n"))
        _with_int_str_limit(monkeypatch, limit)
        res = run_cli("verify", str(path))
        assert (res.returncode, res.stdout) == (3, "")
        assert "is not a known twist" in res.stderr

    @pytest.mark.parametrize("limit", INT_STR_LIMITS)
    @pytest.mark.parametrize("field", ["k", "a", "r"])
    def test_4301_digits_are_refused_under_any_limit(self, tmp_path,
                                                     monkeypatch, field,
                                                     limit):
        cert = build_certificate(17)
        line = f"{field}={getattr(cert, field)}\n"
        path = tmp_path / "long.txt"
        path.write_text(serialize(cert).replace(
            line, f"{field}=1" + "0" * 4300 + "\n"))
        _with_int_str_limit(monkeypatch, limit)
        res = run_cli("verify", str(path))
        assert (res.returncode, res.stdout) == (3, "")
        assert f"malformed certificate: {field} has more digits" in res.stderr

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(k):
            raise ValueError("internal bug")

        monkeypatch.setattr(prover, "test_jk", broken)
        with pytest.raises(ValueError, match="internal bug"):
            cli.main(["test", "17"])

    @pytest.mark.parametrize("args", [
        ("search", "2", "30", "--jobs", "0"),
        ("search", "2", "30", "--jobs", "-1"),
        ("search", "5", "4"),
    ])
    def test_bounds_are_checked_while_parsing(self, args):
        res = run_cli(*args)
        assert (res.returncode, res.stdout) == (2, "")
        assert "usage: cm7prime" in res.stderr
