"""End-to-end verdicts, run statistics, and the range search."""

import marshal
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cm7prime import lanes, prover
from cm7prime.certificate import build_certificate, verify_certificate
from cm7prime.jk_sequence import jk_closed
from cm7prime.mont_curve import XZPoint
from cm7prime.prover import VerdictKind, run_pipeline, search
from cm7prime.prover import test_jk as prove_jk

SRC = Path(__file__).resolve().parent.parent / "src"

TABLE_PRIMES_TO_100 = [2, 3, 4, 5, 7, 9, 10, 17, 18, 28, 38, 49, 53, 60, 63,
                       65, 77, 84, 87, 100]


_LANE_OBSTACLE = lanes.lane_obstacle()
needs_a_pool = pytest.mark.skipif(
    _LANE_OBSTACLE is not None,
    reason=f"search with workers=1 opens no pool here: {_LANE_OBSTACLE}")


def _cpu_mask() -> set[int] | None:
    """This process's CPU mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return None


def _strip(rows):
    """The worker-independent part of search rows (timings dropped)."""
    return [(k, v.kind, v.witness, s.mults_plus_squarings, s.additions,
             s.step_reached) for k, v, s in rows]


class TestVerdicts:
    def test_k2_prime(self):
        verdict, _ = prove_jk(2)
        assert verdict.is_prime
        assert verdict.label() == "Prime"

    def test_k8_forced(self):
        verdict, stats = prove_jk(8)
        assert verdict.kind is VerdictKind.FORCED_CONGRUENCE
        assert verdict.label() == "Composite:ForcedCongruence"
        assert stats.step_reached == 1

    def test_k11_no_square_root(self):
        verdict, stats = prove_jk(11)
        assert verdict.kind is VerdictKind.NO_SQRT_MINUS7
        assert stats.step_reached == 3
        assert jk_closed(11).value == 8327 == 11 * 757

    def test_k17_prime(self):
        verdict, _ = prove_jk(17)
        assert verdict.is_prime
        assert jk_closed(17).value == 524087

    def test_k30_forced_by_other_congruence(self):
        verdict, _ = prove_jk(30)
        assert verdict.kind is VerdictKind.FORCED_CONGRUENCE


class TestPreconditions:
    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_small_k_rejected(self, k):
        with pytest.raises(ValueError):
            prove_jk(k)

    def test_keep_at_range(self):
        with pytest.raises(ValueError):
            run_pipeline(17, keep_at=19)
        with pytest.raises(ValueError):
            run_pipeline(17, keep_at=-1)


class TestRunStats:
    @pytest.mark.parametrize("k, run_counts, verify_counts", [
        (17, (68, 53, 76, 4), (39, 24, 45, 4)),
        (18, (70, 56, 80, 4), (42, 26, 49, 4)),
    ])
    def test_whole_run_counts_are_pinned(self, k, run_counts, verify_counts):
        # (mults, squarings, additions, gcd_calls) of the whole run and of
        # verifying its certificate; any extra counted op anywhere shows
        counts = lambda st: (st.multiplications, st.squarings, st.additions,
                             st.gcd_calls)
        _, stats = prove_jk(k)
        assert counts(stats) == run_counts
        ok, vstats = verify_certificate(build_certificate(k))
        assert ok
        assert counts(vstats) == verify_counts

    def test_zero_before_last_iterate_is_early_exit(self, monkeypatch):
        # the 2-torsion start [0 : 1] doubles to z_1 = 0 on the real curve
        real = prover.montgomerize

        def two_torsion_start(*args):
            curve, _ = real(*args)
            return curve, XZPoint(0, 1)

        monkeypatch.setattr(prover, "montgomerize", two_torsion_start)
        verdict, stats = prove_jk(17)
        assert verdict.label() == "Composite:CurveTest"
        assert stats.step_reached == 7
        assert stats.early_exit is True

    def test_penultimate_sharing_a_factor_is_composite(self, monkeypatch):
        # J_11 = 8327 = 11 * 757: a penultimate z = 757 is nonzero mod J_11
        # but zero mod 757, so gcd(z_k, J_k) = 1 fails and step 8 must say
        # composite; z_k != 0 (mod J_k) alone would have said Prime
        monkeypatch.setattr(prover, "sqrt_minus7", lambda ctx: 1)
        monkeypatch.setattr(prover, "double_chain", lambda *args: (
            XZPoint(1, 0), XZPoint(1, 757), None))
        verdict, stats = prove_jk(11)
        assert verdict.label() == "Composite:CurveTest"
        assert stats.step_reached == 8
        assert stats.early_exit is False

    def test_forced_composite_does_no_arithmetic(self):
        _, stats = prove_jk(8)
        assert stats.mults_plus_squarings == 0
        assert stats.additions == 0

    def test_elapsed_and_step_timers_populated(self):
        _, stats = prove_jk(17)
        assert stats.elapsed > 0
        assert stats.step2_seconds > 0
        assert stats.step7_seconds > 0
        assert stats.elapsed >= stats.step2_seconds + stats.step7_seconds
        assert stats.step_reached == 8


class TestDeterminism:
    def test_identical_runs(self):
        a = run_pipeline(17, keep_at=8)
        b = run_pipeline(17, keep_at=8)
        assert a.verdict == b.verdict
        assert a.kept == b.kept
        timing_free = lambda st: (st.multiplications, st.squarings,
                                  st.additions, st.gcd_calls,
                                  st.step_reached, st.early_exit)
        assert timing_free(a.stats) == timing_free(b.stats)


class TestSearch:
    def test_two_to_hundred(self):
        rows = search(2, 100, 10**4)
        primes = [k for k, v, _ in rows if v.is_prime]
        assert primes == TABLE_PRIMES_TO_100

    def test_unsieved_range_gives_same_primes(self):
        rows = search(2, 30, 2)  # sieve disabled: every k tested
        assert [k for k, _, _ in rows] == list(range(2, 31))
        primes = [k for k, v, _ in rows if v.is_prime]
        assert primes == [k for k in TABLE_PRIMES_TO_100 if k <= 30]

    def test_sieved_and_unsieved_verdicts_agree(self):
        sieved = {k: v.kind for k, v, _ in search(2, 60, 10**4)}
        full = {k: v.kind for k, v, _ in search(2, 60, 2)}
        # sieving only removes k that are composite anyway
        for k, kind in sieved.items():
            assert full[k] is kind
        removed = set(full) - set(sieved)
        assert all(not full[k] is VerdictKind.PRIME for k in removed)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            search(5, 4, 100)
        with pytest.raises(ValueError):
            search(1, 10, 100)
        with pytest.raises(ValueError):
            search(2, 10, 100, workers=0)

    def test_workers_do_not_change_results(self):
        serial = search(2, 80, 1000, workers=1)
        parallel = search(2, 80, 1000, workers=2)
        assert _strip(serial) == _strip(parallel)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Replace search's pool by a serial map recording its workers,
        with nothing in the pool's way."""
        sizes = []

        def serial_pool(work, items, workers, chunk, rebuild):
            sizes.append(workers)
            return [rebuild(work(item)) for item in items]

        monkeypatch.setattr(prover, "pool", serial_pool)
        monkeypatch.setattr(prover, "usable_cpus", lambda: 4)
        monkeypatch.setattr(prover, "lane_obstacle", lambda: None)
        return sizes

    def test_workers_are_bounded_by_cpu_count(self, pool_sizes):
        rows = search(2, 80, 1000, workers=10**6)
        assert pool_sizes == [4]
        assert _strip(rows) == _strip(search(2, 80, 1000, workers=1))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="os.sched_setaffinity is missing")
    def test_a_process_pinned_to_one_cpu_searches_inline(self, pool_sizes,
                                                         monkeypatch):
        # the bound is the CPUs this process may use, not the CPU count
        monkeypatch.setattr(prover, "usable_cpus", lanes.usable_cpus)
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            search(2, 80, 1000, workers=2)
        finally:
            os.sched_setaffinity(0, mask)
        assert pool_sizes == []

    def test_workers_are_bounded_by_candidates(self, pool_sizes):
        rows = search(2, 4, 2, workers=10)  # no sieving: k = 2, 3, 4
        assert pool_sizes == [3]
        assert _strip(rows) == _strip(search(2, 4, 2, workers=1))

    def test_one_candidate_runs_inline(self, pool_sizes):
        search(5, 5, 2, workers=10)
        assert pool_sizes == []

    def test_range_below_four_is_sieved(self):
        rows = search(2, 3, 10**4)
        assert _strip(rows) == _strip(search(2, 3, 0))
        assert [k for k, v, _ in rows if v.is_prime] == [2, 3]

    def test_results_sorted_by_k(self):
        ks = [k for k, _, _ in search(2, 200, 10**4)]
        assert ks == sorted(ks)


def _run_fields(verdict, stats):
    """Everything of one test_jk run but its three timings."""
    return (verdict, stats.multiplications, stats.squarings,
            stats.additions, stats.gcd_calls, stats.step_reached,
            stats.early_exit, stats.step7_multiplications,
            stats.step7_squarings, stats.step7_additions)


class TestSearchPool:
    """With workers=1, from _POOL_MIN_WORK on, a pool of every usable CPU
    tests the survivors; the rows are test_jk's but for their timings."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Log the workers of each pool that search opens."""
        sizes = []

        def logged_pool(work, items, workers, *args):
            sizes.append(workers)
            return lanes.pool(work, items, workers, *args)

        monkeypatch.setattr(prover, "pool", logged_pool)
        return sizes

    @pytest.fixture
    def any_size_pools(self, pools, monkeypatch):
        """pools, with the gate forced down to any search."""
        monkeypatch.setattr(prover, "_POOL_MIN_WORK", 0)
        return pools

    @needs_a_pool
    @pytest.mark.parametrize("k_min, k_max", [(2, 200), (5, 5), (2, 3),
                                              (2, 4)])
    def test_pool_matches_test_jk(self, k_min, k_max, any_size_pools):
        # no sieving: (2, 200) has ForcedCongruence, NoSqrtMinus7 and
        # Prime rows; the others have 1, 2 and 3 survivors
        rows = search(k_min, k_max, 2)
        ks = list(range(k_min, k_max + 1))
        assert any_size_pools == ([min(len(ks), lanes.usable_cpus())]
                                  if len(ks) > 1 else [])
        assert [k for k, _, _ in rows] == ks
        assert [_run_fields(v, s) for _, v, s in rows] == \
            [_run_fields(*prove_jk(k)) for k in ks]
        if k_max == 200:
            assert {v.kind for _, v, _ in rows} == {
                VerdictKind.FORCED_CONGRUENCE, VerdictKind.NO_SQRT_MINUS7,
                VerdictKind.PRIME}

    @needs_a_pool
    def test_the_gate_is_the_survivors_work(self, pools, monkeypatch):
        ks = [k for k, _, _ in search(2, 80, 1000)]
        assert pools == []
        monkeypatch.setattr(prover, "_POOL_MIN_WORK",
                            prover._survivor_work(ks))
        search(2, 80, 1000)
        assert len(pools) == 1
        monkeypatch.setattr(prover, "_POOL_MIN_WORK",
                            prover._survivor_work(ks) + 1)
        search(2, 80, 1000)
        assert len(pools) == 1

    def test_small_searches_stay_inline(self, pools):
        ks = [k for k, _, _ in search(2, 400, 10**4)]
        assert prover._survivor_work(ks) < prover._POOL_MIN_WORK / 2
        assert pools == []

    @needs_a_pool
    def test_a_second_thread_keeps_the_pool_shut(self, any_size_pools):
        # a fork beside another thread could inherit a lock it holds,
        # whatever the worker count asks for
        import threading

        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            search(2, 80, 1000)
            search(2, 80, 1000, workers=2)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert any_size_pools == []

    @needs_a_pool
    @pytest.mark.parametrize("how", ["exit", "raise", "garbage", "missing",
                                     "kind"])
    def test_a_lost_worker_raises_and_leaves_no_child(self, how,
                                                      any_size_pools,
                                                      monkeypatch):
        parent = os.getpid()
        plain_run, dumps = prover._plain_run, marshal.dumps

        def worker_fails(k):
            if os.getpid() != parent:
                if how == "exit":
                    os._exit(3)
                if how == "raise":
                    raise RuntimeError("the worker fails")
                if how == "kind":  # a verdict kind that does not exist
                    return ("Maybe", *plain_run(k)[1:])
            return plain_run(k)

        def worker_dumps(value):
            if os.getpid() != parent:
                if how == "garbage":
                    return b"\xff" * 64
                if how == "missing":  # one value short of its chunk
                    return dumps(value[:-1])
            return dumps(value)

        monkeypatch.setattr(prover, "_plain_run", worker_fails)
        monkeypatch.setattr(marshal, "dumps", worker_dumps)
        mask = _cpu_mask()
        with pytest.raises(lanes.LaneLost):
            search(2, 40, 2)
        assert len(any_size_pools) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # reaped, none left
        assert _cpu_mask() == mask
        assert lanes.lane_obstacle() is None

    @needs_a_pool
    def test_the_pool_loads_no_process_pool_modules(self):
        # nor what they import: a pooled search stays as small as an
        # inline one
        code = ("import os, sys\n"
                "from cm7prime import prover\n"
                "fork, forks = os.fork, []\n"
                "os.fork = lambda: forks.append(1) or fork()\n"
                "prover._POOL_MIN_WORK = 0\n"
                "rows = prover.search(2, 200, 10**4)\n"
                "print(len(rows), len(forks) > 0, *(name for name in"
                " ('concurrent.futures', 'multiprocessing', 'pickle',"
                " 'socket', 'subprocess') if name in sys.modules))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert res.stdout == f"{len(search(2, 200, 10**4))} True\n"
