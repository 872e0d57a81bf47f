"""Sieving the index range by small primes, with three interchangeable engines."""

import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from cm7prime import prover
from cm7prime.jk_sequence import jk_closed, jk_mod_stream, trace_mod
from cm7prime.sieve import (_ENGINES, _engine_python, iter_primes, sieve_range,
                            survivors)

SRC = Path(__file__).resolve().parent.parent / "src"
TABLE_PRIMES_TO_400 = [2, 3, 4, 5, 7, 9, 10, 17, 18, 28, 38, 49, 53, 60, 63,
                       65, 77, 84, 87, 100, 109, 147, 170, 213, 235, 287,
                       319, 375]


class TestIterPrimes:
    def test_small(self):
        assert list(iter_primes(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert list(iter_primes(1)) == []
        assert list(iter_primes(2)) == [2]

    def test_count_to_10000(self):
        assert sum(1 for _ in iter_primes(10**4)) == 1229

    def test_segmented_matches_dense_eratosthenes(self):
        # re-derive the same range with a plain one-shot sieve
        limit = 4 * 10**5 + 1  # four segments of 2^16 odd numbers
        flags = bytearray([1]) * (limit + 1)
        flags[0] = flags[1] = 0
        for p in range(2, int(limit**0.5) + 1):
            if flags[p]:
                flags[p * p::p] = bytearray(len(flags[p * p::p]))
        dense = [p for p in range(2, limit + 1) if flags[p]]
        assert list(iter_primes(limit)) == dense


class TestExamples:
    def test_limit_3_eliminates_multiples_of_8(self):
        report = sieve_range(40, 3)
        gone = [k for k in range(1, 41) if not report.survivor_mask[k]]
        assert gone == [8, 16, 24, 32, 40]
        assert report.per_prime == {3: 5}

    def test_limit_5_also_takes_the_5_divisible_indices(self):
        report = sieve_range(30, 5)
        expect = [k for k in range(1, 31) if k not in (8, 16, 24, 6, 30)]
        assert survivors(report) == expect

    def test_limit_2_eliminates_nothing(self):
        report = sieve_range(30, 2)
        assert survivors(report) == list(range(1, 31))
        assert report.per_prime == {}

    def test_eleven_hits_its_residue_classes_but_spares_its_own_indices(self):
        # J_1 = J_2 = 11: those two indices survive sieving by 11 itself
        report = sieve_range(50, 11)
        hit_by_11 = [k for k in range(1, 51)
                     if jk_closed(k).value % 11 == 0 and jk_closed(k).value > 11]
        assert all(not report.survivor_mask[k] for k in hit_by_11)
        assert report.survivor_mask[1] and report.survivor_mask[2]
        assert all(k % 10 in (1, 2, 6) for k in hit_by_11)

    def test_small_j_list(self):
        assert sieve_range(30, 100).small_j_list == (1, 2, 3, 4)
        assert sieve_range(30, 10).small_j_list == ()
        assert sieve_range(30, 160).small_j_list == (1, 2, 3, 4, 5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sieve_range(3, 100)
        with pytest.raises(ValueError):
            sieve_range(30, 1)
        with pytest.raises(ValueError):
            sieve_range(30, 100, engine="gpu")


class TestSoundness:
    def test_every_eliminated_index_has_a_verified_factor(self):
        n, limit = 400, 1000
        report = sieve_range(n, limit)
        eliminated = [k for k in range(1, n + 1) if not report.survivor_mask[k]]
        assert eliminated, "sieve should remove something at this limit"
        # recompute divisibility from the residue stream, independently of
        # which engine produced the mask
        divisible: dict[int, list[int]] = {k: [] for k in range(1, n + 1)}
        for ell in iter_primes(limit):
            if ell in (2, 7):
                continue
            for k, residue in enumerate(jk_mod_stream(ell, n), start=1):
                if residue == 0:
                    divisible[k].append(ell)
        for k in eliminated:
            jk = jk_closed(k).value
            witnesses = [ell for ell in divisible[k] if jk > ell]
            assert witnesses, k
            assert all(jk % ell == 0 for ell in witnesses), k

    def test_no_table_index_is_eliminated(self):
        report = sieve_range(400, 10**4)
        for k in TABLE_PRIMES_TO_400:
            assert report.survivor_mask[k], k

    def test_per_prime_counts_match_mask_arithmetic(self):
        report = sieve_range(200, 100)
        assert all(count > 0 for count in report.per_prime.values())
        # 7 never divides J_k and 2 never divides an odd number
        assert 2 not in report.per_prime
        assert 7 not in report.per_prime
        # every count is at most the number of eliminated indices
        gone = sum(1 for k in range(1, 201) if not report.survivor_mask[k])
        assert all(c <= gone for c in report.per_prime.values())


class TestEngines:
    @pytest.mark.parametrize("n,limit", [(50, 3), (120, 50), (400, 500),
                                         (1000, 37), (4, 10**3), (12, 10**4),
                                         (50, 11), (30, 2)])
    def test_reports_are_identical(self, n, limit):
        py = sieve_range(n, limit, engine="python")
        pe = sieve_range(n, limit, engine="period")
        np_ = sieve_range(n, limit, engine="numpy")
        assert py == pe == np_

    def test_guard_spares_each_prime_j_from_itself(self):
        # J_1..J_12 = 11, 11, 23, 67, 151, 275, 487, 963, 2039, 4211, 8327,
        # 16291: 23 and 67 hit only their own index, 11 hits k = 1 and 2,
        # and the composites 275 = 5^2 * 11 and 963 = 3^2 * 107 stay hit
        report = sieve_range(4, 10**3)
        assert survivors(report) == [1, 2, 3, 4]
        assert report.per_prime == {}
        report = sieve_range(12, 10**4)
        assert survivors(report) == [1, 2, 3, 4, 5, 7, 9, 10]
        assert report.per_prime == {3: 1, 5: 1, 11: 3, 107: 1, 757: 1, 1481: 1}
        assert report.small_j_list == tuple(range(1, 12))

    def test_auto_resolves(self):
        assert sieve_range(50, 30) == sieve_range(50, 30, engine="python")

    @pytest.mark.parametrize("n,limit", [(400, 10**4), (1000, 10**4)])
    def test_default_is_period_on_both_old_sides(self, n, limit, monkeypatch):
        # (400, 10^4) and (1000, 10^4) sat on either side of a former
        # n^2 < 30 L switch to numpy; the default now has no special case
        calls = []

        def spy(name, engine):
            return lambda n, primes: calls.append(name) or engine(n, primes)

        for name, engine in list(_ENGINES.items()):
            monkeypatch.setitem(_ENGINES, name, spy(name, engine))
        assert sieve_range(n, limit) == sieve_range(n, limit, engine="python")
        assert calls == ["period", "python"]

    def test_no_default_path_imports_numpy(self, monkeypatch):
        # a fresh interpreter that could import numpy sieves and searches
        # on the defaults, gets the python engine's report and rows, and
        # never loads numpy
        code = (
            "import sys\n"
            "import cm7prime\n"
            "print(repr(cm7prime.sieve_range(400, 10**4)))\n"
            "print(repr([(k, v, s.multiplications, s.squarings, s.additions,"
            " s.gcd_calls) for k, v, s in cm7prime.search(2, 400, 10**4)]))\n"
            "print('numpy' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        monkeypatch.setattr(prover, "sieve_range",
                            partial(sieve_range, engine="python"))
        rows = [(k, v, s.multiplications, s.squarings, s.additions,
                 s.gcd_calls) for k, v, s in prover.search(2, 400, 10**4)]
        assert res.stdout.splitlines() == [
            repr(sieve_range(400, 10**4, engine="python")), repr(rows),
            "False"]


class TestDiscreteLogEngine:
    def test_every_small_prime_matches_the_stream(self):
        primes = [p for p in iter_primes(3000) if p not in (2, 7)]
        kinds = {p % 7 in (1, 2, 4) for p in primes}
        assert kinds == {True, False} and {3, 5, 11} <= set(primes)
        for ell in primes:
            got = _ENGINES["period"](2000, [ell])
            assert got == _engine_python(2000, [ell]), ell

    def test_both_roots_hitting_one_k_count_once(self):
        # 340337 splits, and each root of x^2 - x + 2 gives a zero of J_k
        # at the same k, where 340337^2 | J_k
        ell, n = 340337, 10**5
        elim, per_prime = _ENGINES["period"](n, [ell])
        assert per_prime == {ell: 1}
        assert (elim, per_prime) == _engine_python(n, [ell])
        k, square = elim.index(1), ell * ell
        t_k, _ = trace_mod(k, square)
        assert (1 + 2 * t_k + pow(2, k + 2, square)) % square == 0

    def test_matches_numpy_at_search_scale(self):
        pytest.importorskip("numpy")
        assert (sieve_range(3000, 10**5, engine="period")
                == sieve_range(3000, 10**5, engine="numpy"))

    @pytest.mark.parametrize("n,limit,digest", [
        (3000, 10**5,
         "21057dedafed7c3624f1415db9dbdb573573f161b04d571be164b38ef0324aa8"),
        (20000, 3 * 10**5,
         "bbd0bc36f6059d909687e38f3b0b45dcff07891e7d193a884327d5ee7680bdf7"),
    ])
    def test_default_matches_frozen_digest(self, n, limit, digest):
        # hashed as perfbench's sieve_digest does; every engine gave these
        # values, the second is perfbench/reference.json's sieve-deep entry
        report = sieve_range(n, limit)
        h = hashlib.sha256(report.survivor_mask)
        h.update(json.dumps([report.n, report.limit,
                             sorted(report.per_prime.items()),
                             list(report.small_j_list)]).encode())
        assert h.hexdigest() == digest


class TestSurvivorsHelper:
    def test_matches_mask(self):
        report = sieve_range(60, 100)
        got = survivors(report)
        assert got == sorted(got)
        assert set(got) == {k for k in range(1, 61) if report.survivor_mask[k]}
        assert report.survivor_mask[0] == 0
