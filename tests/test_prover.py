"""End-to-end verdicts, run statistics, and the range search."""

import dataclasses

import pytest

from cm7prime import prover
from cm7prime.certificate import build_certificate, verify_certificate
from cm7prime.jk_sequence import forced_composite, jk_closed
from cm7prime.mont_curve import (ModulusCtx, XZPoint, double_chain, montgomerize,
                                 sqrt_minus7)
from cm7prime.prover import (Verdict, VerdictKind, bench_run, run_pipeline,
                             search)
from cm7prime.prover import test_jk as prove_jk
from cm7prime.refcheck import probable_prime, trial_division

TABLE_PRIMES_TO_100 = [2, 3, 4, 5, 7, 9, 10, 17, 18, 28, 38, 49, 53, 60, 63,
                       65, 77, 84, 87, 100]


def _oracle_is_prime(n: int) -> bool:
    return trial_division(n, 10**6) is None and probable_prime(n)


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


class TestOracleEquivalence:
    def test_agrees_with_reference_primality_to_400(self):
        for k in range(2, 401):
            verdict, _ = prove_jk(k)
            assert verdict.is_prime == _oracle_is_prime(jk_closed(k).value), k


class TestRunStats:
    def test_step7_cost_is_exact(self):
        for k in (2, 17, 28, 100):
            verdict, stats = prove_jk(k)
            assert not stats.early_exit
            assert stats.step7_multiplications + stats.step7_squarings \
                == 5 * (k + 1), k
            assert stats.step7_additions == 4 * (k + 1), k

    def test_totals_match_context_counters(self):
        result = run_pipeline(17)
        m, s, a, g = result.ctx.op_counts()
        assert (result.stats.multiplications, result.stats.squarings,
                result.stats.additions, result.stats.gcd_calls) == (m, s, a, g)

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

    def test_full_run_within_global_budget_at_large_k(self):
        # a full chain at k >= 2^12: real square-root step plus the k+1
        # doublings (synthetic curve constants when J_k is composite --
        # the cost per step does not depend on the residue values)
        k = 4099
        n = jk_closed(k).value
        ctx = ModulusCtx(n)
        d = sqrt_minus7(ctx)
        curve, start = montgomerize(-1, 1, d if d is not None else 3, ctx)
        double_chain(start, curve, ctx, k + 1)
        m, s, _, _ = ctx.op_counts()
        assert m + s <= 6.5 * k

    def test_elapsed_and_step_timers_populated(self):
        _, stats = prove_jk(17)
        assert stats.elapsed > 0
        assert stats.step2_seconds > 0
        assert stats.step7_seconds > 0
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
        """Replace the process pool by a serial map recording max_workers."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(prover, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(prover.os, "cpu_count", lambda: 4)
        return sizes

    def test_workers_are_bounded_by_cpu_count(self, pool_sizes):
        rows = search(2, 80, 1000, workers=10**6)
        assert pool_sizes == [4]
        assert _strip(rows) == _strip(search(2, 80, 1000, workers=1))

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


class TestBenchRun:
    def test_returns_positive_timings(self):
        s2, s7 = bench_run(64)
        assert s2 > 0 and s7 > 0

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            bench_run(1)
