"""Sieving the index range by small primes, with three interchangeable engines."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from math import isqrt
from pathlib import Path

import pytest

from cm7prime import lanes, prover, sieve
from cm7prime.jk_sequence import jk_closed, jk_mod_stream, trace_mod
from cm7prime.sieve import (_ENGINES, _bsgs, _engine_python, _inert_zeros,
                            _least_factors, _prime_powers, _root_zeros,
                            _split_zeros, _sqrt_mod, iter_primes, sieve_range,
                            survivors)

SRC = Path(__file__).resolve().parent.parent / "src"

_LANE_OBSTACLE = lanes.lane_obstacle()
needs_a_lane = pytest.mark.skipif(
    _LANE_OBSTACLE is not None,
    reason=f"the sieve cannot fork a lane here: {_LANE_OBSTACLE}")


def _python(code: str) -> subprocess.CompletedProcess:
    """A fresh interpreter running code, with the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def _cpu_mask() -> set[int] | None:
    """This process's CPU mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return None


@pytest.fixture
def two_lane_calls(monkeypatch):
    """Spy on the period engine's two-lane path: the n of each call."""
    calls = []
    two_lanes = sieve._two_lanes

    def spy(n, primes, spf):
        calls.append(n)
        return two_lanes(n, primes, spf)

    monkeypatch.setattr(sieve, "_two_lanes", spy)
    return calls


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

    def test_default_equals_python_reference(self):
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

    def test_no_default_path_imports_numpy_or_the_pool(self, monkeypatch):
        # a fresh interpreter that could import numpy sieves and searches
        # on the defaults, gets the python engine's report and rows, and
        # never loads numpy or the process pool
        code = (
            "import sys\n"
            "import cm7prime\n"
            "print(repr(cm7prime.sieve_range(400, 10**4)))\n"
            "print(repr([(k, v, s.multiplications, s.squarings, s.additions,"
            " s.gcd_calls) for k, v, s in cm7prime.search(2, 400, 10**4)]))\n"
            "print('numpy' in sys.modules)\n"
            "print('concurrent.futures.process' in sys.modules)\n")
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
            "False", "False"]


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
        (10**5, 10**6,
         "95ee279536336b126c5b9e407e59b5111dca5ff9ead24df90e91d8ecd65ce3bd"),
        pytest.param(
            10**6, 10**7,
            "898c5e6635eb408f3672e11cb7ad9ae982c63b661a003debf010d9fe295aee5d",
            marks=pytest.mark.slow),
    ])
    def test_default_matches_frozen_digest(self, n, limit, digest,
                                           two_lane_calls):
        # hashed as perfbench's sieve_digest does; every engine gave these
        # values, the second is perfbench/reference.json's sieve-deep entry;
        # the last two come from the engine that computed full orders, and
        # hold the README's 16,387 and 140,958 survivors; each size has
        # enough primes for the engine to fork its lane
        report = sieve_range(n, limit)
        h = hashlib.sha256(report.survivor_mask)
        h.update(json.dumps([report.n, report.limit,
                             sorted(report.per_prime.items()),
                             list(report.small_j_list)]).encode())
        assert h.hexdigest() == digest
        assert two_lane_calls == ([n] if _LANE_OBSTACLE is None else [])


class TestSieveLane:
    """From _LANE_MIN_PRIMES primes on, a forked lane takes every other
    prime; the report is the one-lane engine's, bit for bit."""

    @needs_a_lane
    @pytest.mark.parametrize("n,limit", [(50, 5), (120, 50), (400, 500),
                                         (1000, 37), (12, 10**4), (50, 11),
                                         (2000, 3000), (400, 10**4)])
    def test_two_lanes_match_one_lane_and_the_stream(self, n, limit,
                                                     two_lane_calls,
                                                     monkeypatch):
        monkeypatch.setattr(sieve, "_LANE_MIN_PRIMES", 1)
        mask = _cpu_mask()
        two = sieve_range(n, limit)
        assert two_lane_calls == [n]
        assert _cpu_mask() == mask  # the caller was pinned only meanwhile
        monkeypatch.setattr(sieve, "_LANE_MIN_PRIMES", 10**9)
        one = sieve_range(n, limit)
        assert two_lane_calls == [n]
        py = sieve_range(n, limit, engine="python")
        assert two == one == py
        assert (list(two.per_prime.items()) == list(one.per_prime.items())
                == list(py.per_prime.items()))

    def test_small_sieves_stay_on_one_lane(self, two_lane_calls):
        assert sieve._LANE_MIN_PRIMES > sum(1 for _ in iter_primes(10**4))
        sieve_range(400, 10**4)
        _ENGINES["period"](2000, [1033])
        assert two_lane_calls == []

    @needs_a_lane
    @pytest.mark.parametrize("how", ["exit", "raise", "short", "unequal"])
    def test_a_lost_lane_raises_and_leaves_no_child(self, how, monkeypatch):
        import marshal

        parent = os.getpid()
        period_zeros = sieve._period_zeros
        dumps = marshal.dumps

        def lane_fails(n, primes, spf):
            elim, (hit, counts) = period_zeros(n, primes, spf)
            if os.getpid() != parent:
                if how == "exit":
                    os._exit(0)
                if how == "raise":
                    raise RuntimeError("the lane fails")
                if how == "unequal":  # one count more than primes that hit
                    counts.append(1)
            return elim, (hit, counts)

        monkeypatch.setattr(sieve, "_LANE_MIN_PRIMES", 1)
        monkeypatch.setattr(sieve, "_period_zeros", lane_fails)
        if how == "short":
            monkeypatch.setattr(marshal, "dumps",
                                lambda value: dumps(value)[:-1])
        mask = _cpu_mask()
        with pytest.raises(lanes.LaneLost):
            sieve_range(400, 10**4)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # reaped, none left
        assert _cpu_mask() == mask

    @needs_a_lane
    def test_signals_while_the_caller_waits_are_handled(self, monkeypatch):
        # the caller blocks on the pipe while the lane works; each signal
        # runs its handler there, and the read resumes (PEP 475)
        parent = os.getpid()
        period_zeros = sieve._period_zeros

        def slow_lane(n, primes, spf):
            if os.getpid() != parent:
                time.sleep(0.3)
            return period_zeros(n, primes, spf)

        monkeypatch.setattr(sieve, "_LANE_MIN_PRIMES", 1)
        monkeypatch.setattr(sieve, "_period_zeros", slow_lane)
        ticks = []
        previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(1))
        signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
        try:
            report = sieve_range(400, 10**4)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(ticks) >= 10
        assert report == sieve_range(400, 10**4, engine="python")

    @needs_a_lane
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="os.sched_setaffinity is missing")
    def test_pinning_to_one_cpu_shuts_the_lane(self):
        # the usable CPUs are read at each sieve, not once per process
        res = _python(
            "import os\n"
            "from cm7prime import sieve\n"
            "calls = []\n"
            "two_lanes = sieve._two_lanes\n"
            "def spy(n, primes, spf):\n"
            "    calls.append(n)\n"
            "    return two_lanes(n, primes, spf)\n"
            "sieve._two_lanes = spy\n"
            "sieve._LANE_MIN_PRIMES = 1\n"
            "sieve.sieve_range(40, 100)\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "sieve.sieve_range(50, 100)\n"
            "print(calls)\n")
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[40]\n"


def _powers_to(m: int, top: int) -> list[tuple[int, int]]:
    """(q, q^a) for the prime powers exactly dividing m with q <= top, by
    trial division: the partial factorisation the finders are promised."""
    out, q = [], 2
    while q * q <= m:
        b = 1
        while m % q == 0:
            m, b = m // q, b * q
        if b > 1:
            out.append((q, b))
        q += 1
    if m > 1:
        out.append((m, m))
    return [(q, b) for q, b in out if q <= top]


def _finder_zeros(ell: int, n: int) -> list[int]:
    powers = _powers_to(ell - 1, n + 2)
    finder = _split_zeros if ell % 7 in (1, 2, 4) else _inert_zeros
    return sorted(finder(ell, powers, n))


def _stream_zeros(ell: int, n: int) -> list[int]:
    elim, _ = _engine_python(n, [ell])
    return [k for k in range(1, n + 1) if elim[k]]


class TestPartialFactorisation:
    """The zero finders see only the prime powers of ell - 1 whose prime is
    at most n + 2, and still find every zero the stream finds."""

    @pytest.mark.parametrize("n", [50, 200, 2000])
    def test_every_small_prime(self, n):
        for ell in iter_primes(3000):
            if ell not in (2, 7):
                assert _finder_zeros(ell, n) == _stream_zeros(ell, n), ell

    # 1e6 < ell < 1e7 and ell - 1 has a prime factor above n = 1000: the
    # first nine split ones hit k <= n; the inert 1212847, 1256303 and
    # 2033839 have ord 2 = 57, 449 and 927, so their walks run but find no
    # zero; the last five have no zero either
    @pytest.mark.parametrize("ell", [
        1006891, 1012411, 1014029, 1016597, 1022837, 1027321, 9632267,
        9836107, 9894739, 1212847, 1256303, 2033839, 1000003, 1000039,
        1000099, 1000117, 1000121])
    def test_large_primes_with_a_factor_above_n(self, ell):
        n = 1000
        assert max(q for q, _ in _powers_to(ell - 1, ell)) > n
        assert _finder_zeros(ell, n) == _stream_zeros(ell, n)

    def test_a_root_of_small_order_has_a_progression_of_zeros(self):
        # 1033 splits, 1032 = 2^3 * 3 * 43, and one root of x^2 - x + 2 has
        # order 129 = 3 * 43 < n with -1/2 in its group: once 3 and 43 are
        # taken out, r^s = 1, and the zeros are every 129th k
        ell, n = 1033, 400
        half = (ell + 1) // 2
        root = _sqrt_mod(ell - 7, ell)
        r = next(r for r in ((1 + root) * half % ell, (1 - root) * half % ell)
                 if pow(r, 129, ell) == 1)
        assert [pow(r, 129 // q, ell) != 1 for q in (3, 43)] == [True, True]
        zeros = _root_zeros(r, ell - half, ell, _powers_to(ell - 1, n + 2), n,
                            {})
        brute = [k for k in range(1, n + 1) if pow(r, k, ell) == ell - half]
        assert list(zeros) == brute == [110, 239, 368]
        assert set(brute) <= set(_finder_zeros(ell, n))
        assert _finder_zeros(ell, n) == _stream_zeros(ell, n)

    def test_both_roots_hitting_one_k_count_once(self):
        ell, n = 340337, 10**5
        zeros = _finder_zeros(ell, n)
        assert len(zeros) == 1 and zeros == _stream_zeros(ell, n)


class TestFactorTable:
    """The period engine's least-factor table covers only the odd m, at
    index m >> 1, up to (L - 1) / 2: _prime_powers strips the power of two
    of the even ell - 1 before it reads the table."""

    @pytest.mark.parametrize("top", [0, 1, 2, 9, 10, 25, 10**5])
    def test_least_factors_match_trial_division(self, top):
        spf = _least_factors(top)
        assert len(spf) == (top + 1) // 2
        assert not any(spf[:1])  # m = 1
        for m in range(3, top + 1, 2):
            q = next((q for q in range(3, isqrt(m) + 1, 2) if m % q == 0), m)
            assert spf[m >> 1] == (q if q < m else 0), m

    def test_prime_powers_match_trial_division(self):
        primes = [p for p in iter_primes(2 * 10**4) if p != 2]
        spf = _least_factors((primes[-1] - 1) >> 1)
        # ell - 1 is a power of two for these
        assert {3, 5, 17, 257} <= set(primes)
        for ell in primes:
            factors = _powers_to(ell - 1, ell)
            # several n, and bounds right at and just below each factor
            tops = {n + 2 for n in (4, 50, 1000, 10**4)}
            tops |= {q + d for q, _ in factors for d in (-1, 0)}
            for top in tops:
                assert (_prime_powers(ell - 1, spf, top)
                        == _powers_to(ell - 1, top)), (ell, top)


class TestMemory:
    """The sieving primes live in a typed array, the factor table covers
    the odd m <= L / 2, and each lane returns its hits as typed arrays."""

    @pytest.mark.parametrize("two", [False, pytest.param(True,
                                                        marks=needs_a_lane)])
    def test_tracemalloc_peak_at_a_million(self, two, two_lane_calls,
                                           monkeypatch):
        # 4.1 MiB on one lane and 4.6 MiB on two, against 8.3 and 8.9 MiB
        # with the primes in a list, one table entry per integer up to L
        # and per_prime merged through a list of tuples
        if not two:
            monkeypatch.setattr(sieve, "_LANE_MIN_PRIMES", 10**9)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sieve_range(10**5, 10**6)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert two_lane_calls == ([10**5] if two else [])
        assert peak < 6 * 2**20

    @pytest.mark.slow
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing")
    def test_peak_rss_at_ten_million(self):
        # about 48 MiB, against 92 MiB before the typed arrays and the
        # half-range table; the report's digest is pinned in
        # TestDiscreteLogEngine.  On Linux a process's ru_maxrss keeps the
        # high-water mark of the process that forked it across exec, here
        # this test run's, so the sieve runs in a child forked from the
        # fresh interpreter, whose mark starts at that interpreter's RSS
        res = _python(
            "import os, resource, sys, traceback\n"
            "from cm7prime.sieve import sieve_range\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    try:\n"
            "        sieve_range(10**6, 10**7)\n"
            "        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "        print(rss if sys.platform == 'darwin' else rss * 1024,\n"
            "              flush=True)\n"
            "    except BaseException:\n"
            "        traceback.print_exc()\n"
            "        os._exit(1)\n"
            "    os._exit(0)\n"
            "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n")
        assert res.returncode == 0, res.stderr
        assert int(res.stdout) < 64 * 2**20


class TestBabyStepGiantStep:
    def test_least_j_when_the_order_is_below_the_bound(self):
        # 4 has order 5 mod 11, below the 7 baby steps, so the babies
        # repeat; 4^j = 1 at j = 0, 5, 10, ... and the least is wanted
        assert _bsgs(4, 1, 40, 11) == 0
        assert _bsgs(4, 4, 40, 11) == 1

    def test_matches_a_scan(self):
        for ell in (11, 101, 1009):
            for g in range(2, ell, max(1, ell // 40)):
                for y in range(1, ell, max(1, ell // 25)):
                    for bound in (1, 5, 16, 17, 40, ell + 3):
                        scan = next((j for j in range(bound)
                                     if pow(g, j, ell) == y), None)
                        assert _bsgs(g, y, bound, ell) == scan, (g, y, bound)


class TestSurvivorsHelper:
    def test_matches_mask(self):
        report = sieve_range(60, 100)
        got = survivors(report)
        assert got == sorted(got)
        assert set(got) == {k for k in range(1, 61) if report.survivor_mask[k]}
        assert report.survivor_mask[0] == 0
