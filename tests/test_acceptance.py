"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line (visible even
under capture) and enforces the stated tolerance and wall-clock budget.
"""

import contextlib
import dataclasses
import hashlib
import pathlib
import random
import statistics
import time

import pytest

from cm7prime.certificate import (Certificate, build_certificate, parse,
                                  serialize, verify_certificate)
from cm7prime.jk_sequence import jk_closed, jk_mod_stream, period_mod
from cm7prime.mont_curve import (ModulusCtx, double_chain, is_strongly_nonzero,
                                 is_zero_mod, montgomerize, sqrt_minus7,
                                 xz_double)
from cm7prime.prover import VerdictKind, search
from cm7prime.prover import test_jk as prove_jk
from cm7prime.refcheck import AffinePoint, probable_prime, trial_division, \
    weier_scalar_mult
from cm7prime.sieve import iter_primes, sieve_range
from cm7prime.twist_tables import select_twist

PRIME_INDICES = [2, 3, 4, 5, 7, 9, 10, 17, 18, 28, 38, 49, 53, 60, 63, 65,
                 77, 84, 87, 100, 109, 147, 170, 213, 235, 287, 319, 375,
                 467, 489, 494, 543, 643, 684, 725, 1129, 1428, 2259, 2734,
                 2828]


@contextlib.contextmanager
def criterion(capsys, idx, name):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        with capsys.disabled():
            print(f"\nACCEPTANCE {idx} {name}: {'PASS' if ok else 'FAIL'}")


def _seconds(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


@pytest.fixture(scope="session")
def searched():
    t0 = time.monotonic()
    rows = search(2, 3000, 10**5, workers=1)
    return rows, time.monotonic() - t0


@pytest.fixture(scope="session")
def certificates():
    t0 = time.monotonic()
    certs = {}
    for k in PRIME_INDICES:
        built = build_certificate(k)
        assert isinstance(built, Certificate), k
        certs[k] = built
    return certs, time.monotonic() - t0


def test_criterion_1_prime_index_search_to_3000(capsys, searched):
    with criterion(capsys, 1, "prime-index-search-to-3000"):
        rows, elapsed = searched
        primes = sorted(k for k, v, _ in rows if v.is_prime)
        assert primes == PRIME_INDICES
        for k, v, _ in rows:
            assert v.is_prime == (k in set(PRIME_INDICES)), k
        assert elapsed < 300, f"search took {elapsed:.1f}s"


def test_criterion_2_exact_sequence_values(capsys):
    with criterion(capsys, 2, "exact-sequence-values"):
        assert jk_closed(17).value == 524087
        assert jk_closed(18).value == 1046579
        assert jk_closed(1).value == 11
        assert jk_closed(2).value == 11
        assert jk_closed(3).value == 23
        assert jk_closed(4).value == 67


def test_criterion_3_oracle_equivalence_to_400(capsys):
    with criterion(capsys, 3, "oracle-equivalence-to-400"):
        t0 = time.monotonic()
        for k in range(2, 401):
            n = jk_closed(k).value
            oracle = trial_division(n, 10**6) is None and probable_prime(n)
            verdict, _ = prove_jk(k)
            assert verdict.is_prime == oracle, k
        elapsed = time.monotonic() - t0
        assert elapsed < 120, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_4_operation_count_contract(capsys, searched):
    with criterion(capsys, 4, "operation-count-contract"):
        rows, _ = searched
        completed = 0
        for k, _, stats in rows:
            if stats.step_reached == 8 and not stats.early_exit:
                assert stats.step7_multiplications + stats.step7_squarings \
                    == 5 * (k + 1), k
                assert stats.step7_additions == 4 * (k + 1), k
                completed += 1
        assert completed >= 40  # at least every prime index ran a full chain
        # global budget at k >= 2^12: full runs at two proven prime
        # indices, with the (mults, squarings, additions, gcd_calls) that
        # perfbench/reference.json freezes for them
        for k, counts in ((5537, (17052, 16615, 22156, 4)),
                          (7069, (22339, 21205, 28284, 4))):
            verdict, stats = prove_jk(k)
            assert verdict.is_prime, k
            assert stats.mults_plus_squarings <= 6.5 * k, \
                (k, stats.mults_plus_squarings)
            assert stats.additions == 4 * (k + 1) + 4, k  # chain, montgomerize
            assert (stats.multiplications, stats.squarings, stats.additions,
                    stats.gcd_calls) == counts, k
            assert (stats.step7_multiplications, stats.step7_squarings,
                    stats.step7_additions) == (3 * (k + 1), 2 * (k + 1),
                                               4 * (k + 1)), k
        # composite J_k of the same sizes stop at step 3, having paid only
        # for the step-2 ladder: k + 2 squarings and the window products
        for k, counts in ((4727, (366, 4729, 0, 0)),
                          (6052, (460, 6054, 0, 0))):
            verdict, stats = prove_jk(k)
            assert verdict.kind is VerdictKind.NO_SQRT_MINUS7, k
            assert stats.step_reached == 3, k
            assert stats.mults_plus_squarings <= 1.1 * k, \
                (k, stats.mults_plus_squarings)
            assert (stats.multiplications, stats.squarings, stats.additions,
                    stats.gcd_calls) == counts, k


def test_criterion_5_residue_periods(capsys):
    with criterion(capsys, 5, "residue-periods"):
        assert period_mod(3) == 8
        assert period_mod(5) == 24
        assert period_mod(7) == 3
        assert period_mod(17) == 144
        assert period_mod(37) == 36


def test_criterion_6_sieve_soundness(capsys):
    with criterion(capsys, 6, "sieve-soundness"):
        t0 = time.monotonic()
        n, limit = 1000, 10**4
        report = sieve_range(n, limit)
        divisible: dict[int, list[int]] = {k: [] for k in range(1, n + 1)}
        for ell in iter_primes(limit):
            if ell in (2, 7):
                continue
            for k, residue in enumerate(jk_mod_stream(ell, n), start=1):
                if residue == 0:
                    divisible[k].append(ell)
        for k in range(1, n + 1):
            if report.survivor_mask[k]:
                continue
            jk = jk_closed(k).value
            witnesses = [ell for ell in divisible[k] if jk > ell]
            assert witnesses and all(jk % ell == 0 for ell in witnesses), k
        for k in PRIME_INDICES:
            if k <= n:
                assert report.survivor_mask[k], k
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"soundness sweep took {elapsed:.1f}s"


def test_criterion_7_certificate_round_trip(capsys, certificates):
    with criterion(capsys, 7, "certificate-round-trip"):
        certs, build_elapsed = certificates
        t0 = time.monotonic()
        for k, cert in certs.items():
            again = parse(serialize(cert))
            assert again == cert, k
            ok, stats = verify_certificate(again)
            assert ok, (k, stats.reason)
            if k >= 100:
                assert stats.mults_plus_squarings <= 2.6 * k + 64, \
                    (k, stats.mults_plus_squarings)
        rng = random.Random(0xACC7)
        fields = ("k", "n", "a", "d", "r", "x", "y", "z")
        for _ in range(100):
            cert = certs[rng.choice(PRIME_INDICES)]
            field = rng.choice(fields)
            delta = rng.randrange(1, 1000)
            if field in ("x", "y", "z"):
                i = "xyz".index(field)
                q = list(cert.q)
                q[i] = (q[i] + delta) % cert.n
                bad = dataclasses.replace(cert, q=tuple(q))
            else:
                bad = dataclasses.replace(
                    cert, **{field: getattr(cert, field) + delta})
            ok, _ = verify_certificate(bad)
            assert not ok, (cert.k, field, delta)
        elapsed = build_elapsed + (time.monotonic() - t0)
        assert elapsed < 300, f"certificate work took {elapsed:.1f}s"


def test_prime_certificates_are_frozen(certificates):
    # the serialize texts of all 40 prime indices <= 3000, concatenated
    certs, _ = certificates
    text = "".join(serialize(certs[k]) for k in PRIME_INDICES)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "195cafdf73bfb2cba13d33238d6f61e9746a929018fc4c1c424d73457a96f905")


def test_criterion_8_group_law_equivalence(capsys):
    with criterion(capsys, 8, "group-law-equivalence"):
        for k in (2, 3, 4, 5, 7, 9, 10, 17, 18):
            n = jk_closed(k).value
            ctx = ModulusCtx(n)
            d = sqrt_minus7(ctx)
            assert d is not None
            twist = select_twist(k)
            curve, cur = montgomerize(twist.a, twist.point[0], d, ctx)
            start = AffinePoint(*twist.point)
            for i in range(1, k + 2):
                cur = xz_double(cur, curve, ctx)
                reference = weier_scalar_mult(2 ** i, start, twist.a, n)
                if i <= k:
                    assert reference is not None, (k, i)
                    assert is_strongly_nonzero(cur, ctx), (k, i)
                    lhs = cur.x % n
                    rhs = cur.z * curve.B % n * (reference.x - curve.r_shift) % n
                    assert lhs == rhs, (k, i)
                else:
                    assert reference is None, k
                    assert is_zero_mod(cur, ctx), k


@pytest.mark.slow
def test_criterion_9_scaling_and_invariants(capsys):
    with criterion(capsys, 9, "scaling-and-invariants"):
        # (a) soft scaling: step-7 time between k = 2^14+1 and 2^15+1, as
        # the median over interleaved pairs of equal-length chain slices on
        # a stand-in a = -1 curve, scaled by the step counts k + 1; a
        # step costs the same at every index, so this is step 7's ratio
        slices = []
        for k in (2**14 + 1, 2**15 + 1):
            ctx = ModulusCtx(jk_closed(k).value)
            curve, start = montgomerize(-1, 1, 3, ctx)
            slices.append((start, curve, ctx))
        ratios = []
        for _ in range(7):
            small, large = (_seconds(double_chain, *args, 1000)
                            for args in slices)
            ratios.append(large / small * (2**15 + 2) / (2**14 + 2))
        ratio = statistics.median(ratios)
        assert 3.5 <= ratio <= 7.0, sorted(ratios)
        # (b) the very long survivor-count reproduction is documented as a
        # non-gating batch run
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        assert "93,707" in text or "93707" in text
        assert "2**35" in text or "2^35" in text
