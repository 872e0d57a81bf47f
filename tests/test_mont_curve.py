"""Counted modular arithmetic and x-only doubling."""

import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm7prime import mont_curve
from cm7prime.jk_sequence import jk_closed
from cm7prime.mont_curve import (_FOLD_MIN_BITS, ModulusCtx, MontCurveCtx,
                                 NonInvertibleError, XZPoint, double_chain,
                                 is_strongly_nonzero, is_zero_mod,
                                 montgomerize, sqrt_minus7, xz_double)
from cm7prime.prover import run_pipeline, search
from cm7prime.sieve import iter_primes
from cm7prime.twist_tables import jacobi_symbol, select_twist

SRC = Path(__file__).resolve().parent.parent / "src"

ODD_MODULUS = st.integers(min_value=1, max_value=2**256).map(lambda h: 2 * h + 1)


@st.composite
def special_form(draw):
    """(N, e, c) with N = 2^e + c, c odd and |c| < 2^(e/2 + 2).

    N has e + 1 bits when c > 0 and e bits when c < 0, as J_k has k + 3
    or k + 2 bits with the sign of t_k.
    """
    e = draw(st.integers(min_value=8, max_value=1200))
    c = draw(st.integers(min_value=0, max_value=(1 << (e // 2 + 1)) - 1))
    c = (2 * c + 1) * draw(st.sampled_from((1, -1)))
    return (1 << e) + c, e, c


def _reference_chain(P, curve, ctx, count):
    """Every iterate of a loop of xz_double: [P, 2P, ..., 2^count P]."""
    points = [P]
    for _ in range(count):
        points.append(xz_double(points[-1], curve, ctx))
    return points


def _deltas(before, after):
    return tuple(b - a for a, b in zip(before, after))


class TestModulusCtx:
    @pytest.mark.parametrize("bad", [1, 2, 4, 100, -5, 0])
    def test_rejects_even_or_tiny_modulus(self, bad):
        with pytest.raises(ValueError):
            ModulusCtx(bad)

    @given(ODD_MODULUS, st.integers(), st.integers())
    @settings(max_examples=400)
    def test_mul_matches_builtin_modulo(self, n, a, b):
        ctx = ModulusCtx(n)
        assert ctx.mul(a, b) == a * b % n
        assert ctx.sqr(a) == a * a % n
        assert ctx.add(a, b) == (a + b) % n
        assert ctx.sub(a, b) == (a - b) % n

    def test_reduction_corner_cases(self):
        rng = random.Random(11)
        for bits in (2, 3, 8, 64, 256, 1024, 4096):
            n = rng.getrandbits(bits) | 1
            n = max(n, 3)
            ctx = ModulusCtx(n)
            for a, b in [(n - 1, n - 1), (0, n - 1), (1, n - 1),
                         (n // 2, n // 2 + 1), (n - 2, n - 2)]:
                assert ctx.mul(a, b) == a * b % n
                assert ctx.sqr(a) == a * a % n

    @given(special_form(), st.integers(min_value=0), st.integers(min_value=0),
           st.integers())
    @settings(max_examples=300)
    def test_special_form_folds_and_matches_builtin(self, form, a, b, t):
        n, e, c = form
        with mock.patch.object(mont_curve, "_FOLD_MIN_BITS", 0):
            ctx = ModulusCtx(n)  # the fold at every size
        h = e // 2
        assert ctx._fold == (e, (1 << e) - 1, c, e + h, (1 << (e + h)) - 1, h)
        a, b = a % n, b % n
        for x, y in ((a, b), (0, b), (1, b), (n - 1, b), (n - 1, n - 1)):
            assert ctx.mul(x, y) == x * y % n
            assert ctx.sqr(x) == x * x % n
        # the fold is exact for any int, negative or large ones included
        for u in (t, -t, t * n, 4 * n * n - 1, -4 * n * n + 1):
            assert ctx._reduce(u) == u % n

    @pytest.mark.parametrize(
        "ks", [[*range(2, 601), _FOLD_MIN_BITS - 3, _FOLD_MIN_BITS - 2],
               (3779, 16385, 32769)],
        ids=["2-600", "large"])
    def test_jk_moduli_fold_at_k_plus_2(self, ks):
        rng = random.Random(5)
        for k in ks:
            n = jk_closed(k).value
            ctx = ModulusCtx(n)
            if k + 2 >= _FOLD_MIN_BITS:
                assert ctx._fold[0] == k + 2, k
            else:  # below the crossover, J_2 = 2^3 + 3 and J_3 = 2^4 + 7 too
                assert ctx._fold is None, k
            pairs = [(0, 0), (0, n - 1), (1, n - 1), (n - 1, 1),
                     (n - 1, n - 1)]
            pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
            for a, b in pairs:
                assert ctx.mul(a, b) == a * b % n, k
                assert ctx.sqr(a) == a * a % n, k
            for u in (4 * n * n - 1, -4 * n * n + 1):
                assert ctx._reduce(u) == u % n, k

    def test_general_modulus_uses_plain_remainder(self):
        rng = random.Random(1024)
        n = rng.getrandbits(1024) | (1 << 1023) | 1
        ctx = ModulusCtx(n)
        assert ctx._fold is None
        pairs = [(0, 0), (1, n - 1), (n - 1, n - 1)]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(20)]
        for a, b in pairs:
            assert ctx.mul(a, b) == a * b % n
            assert ctx.sqr(a) == a * a % n

    def test_results_always_canonical(self):
        ctx = ModulusCtx(101)
        for a in range(-200, 200, 7):
            for b in range(-200, 200, 11):
                for got in (ctx.mul(a, b), ctx.add(a, b), ctx.sub(a, b)):
                    assert 0 <= got < 101

    def test_counters_count(self):
        ctx = ModulusCtx(97)
        assert ctx.op_counts() == (0, 0, 0, 0)
        ctx.mul(3, 4)
        ctx.sqr(5)
        ctx.add(1, 2)
        ctx.sub(2, 1)
        ctx.gcd(10)
        ctx.inv(3)
        assert ctx.op_counts() == (1, 1, 2, 2)

    def test_inverse(self):
        ctx = ModulusCtx(101)
        for a in range(1, 101):
            assert ctx.mul(ctx.inv(a), a) == 1
        assert ctx.inv(-3) == 67  # -3 * 67 = -201 = 1 (mod 101)
        assert ctx.inversions == 101

    def test_noninvertible_carries_witness(self):
        ctx = ModulusCtx(15)
        # the witness is gcd(a, N), and N itself for a = 0 (mod N)
        for a, witness in ((5, 5), (0, 15), (15, 15), (20, 5)):
            with pytest.raises(NonInvertibleError) as info:
                ctx.inv(a)
            assert info.value.witness == witness
            assert isinstance(info.value, ArithmeticError)
        assert ctx.inversions == 4

    def test_gcd(self):
        ctx = ModulusCtx(15)
        assert ctx.gcd(5) == 5
        assert ctx.gcd(4) == 1
        assert ctx.gcd(0) == 15

    @given(ODD_MODULUS, st.integers(min_value=0),
           st.integers(min_value=0, max_value=2**128))
    @settings(max_examples=300)
    def test_pow_mod_matches_builtin(self, n, base, exponent):
        assert ModulusCtx(n).pow_mod(base, exponent) == pow(base, exponent, n)

    def test_pow_mod_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            ModulusCtx(7).pow_mod(2, -1)

    def test_pow_mod_trivial_exponents(self):
        ctx = ModulusCtx(7)
        assert ctx.pow_mod(3, 0) == 1
        assert ctx.pow_mod(3, 1) == 3

    def test_pow_mod_cost_stays_near_exponent_bitlength(self):
        # the windowed ladder must realize bitlen + o(bitlen) operations,
        # which keeps the whole pipeline's square-root step within budget;
        # (M, S) are pinned, on both sides of the fold's crossover
        pinned = {500: (58, 501), 1000: (231, 997), 2000: (182, 2001),
                  4099: (324, 4100)}
        for k, counts in pinned.items():
            n = jk_closed(k).value
            ctx = ModulusCtx(n)
            exponent = (n + 1) // 4
            assert ctx.pow_mod(7, exponent) == pow(7, exponent, n), k
            m, s, _, _ = ctx.op_counts()
            assert (m, s) == counts, k
            assert m + s <= 1.3 * exponent.bit_length() + 64, k


class TestSqrtMinus7:
    def test_mod_23(self):
        ctx = ModulusCtx(23)
        assert sqrt_minus7(ctx) == 4
        assert 4 * 4 % 23 == (-7) % 23

    def test_mod_11(self):
        assert sqrt_minus7(ModulusCtx(11)) == 2
        assert 2 * 2 % 11 == (-7) % 11

    def test_composite_8327_fails(self):
        assert sqrt_minus7(ModulusCtx(8327)) is None
        # why it must fail: the candidate root reduced mod the factor 11
        # is 5, whose square is 3, not -7 = 4 (mod 11)
        d = pow(7, (8327 + 1) // 4, 8327)
        assert d % 11 == 5
        assert 5 * 5 % 11 == 3 != 4

    def test_requires_three_mod_four(self):
        with pytest.raises(ValueError):
            sqrt_minus7(ModulusCtx(13))

    def test_requires_coprime_to_seven(self):
        with pytest.raises(ValueError):
            sqrt_minus7(ModulusCtx(63))

    def test_succeeds_for_all_qualifying_primes_to_1e5(self):
        hits = 0
        for p in iter_primes(10**5):
            if p % 4 != 3 or p % 7 == 0 or jacobi_symbol(-7, p) != 1:
                continue
            d = sqrt_minus7(ModulusCtx(p))
            assert d is not None and d * d % p == p - 7, p
            hits += 1
        assert hits > 2000  # the property was not vacuous


class TestMontgomerize:
    def test_mod_23(self):
        ctx = ModulusCtx(23)
        curve, start = montgomerize(-1, 1, 4, ctx)
        # r = (-7+4)(-1)/2 = 3/2 = 3*12 = 36 = 13;  B = 19/(-56) = 19*16 = 5;
        # C = (1-12)/32 = -11*18 = 9 (all mod 23)
        assert curve.r_shift == 13
        assert curve.B == 5
        assert curve.C == 9
        assert (start.x, start.z) == (9, 1)
        assert curve.d == 4

    def test_mod_11(self):
        ctx = ModulusCtx(11)
        curve, start = montgomerize(-1, 1, 2, ctx)
        assert (curve.r_shift, curve.B, curve.C) == (8, 9, 5)
        assert (start.x, start.z) == (3, 1)

    def test_constants_satisfy_defining_relations(self):
        for k in (2, 3, 4, 5, 7, 9, 10, 17, 18):
            n = jk_closed(k).value
            ctx = ModulusCtx(n)
            d = sqrt_minus7(ctx)
            tw = select_twist(k)
            curve, start = montgomerize(tw.a, tw.point[0], d, ctx)
            assert 2 * curve.r_shift % n == (-7 + d) * tw.a % n
            assert curve.B * (56 * tw.a) % n == (7 + 3 * d) % n
            assert curve.C * 32 % n == (1 - 3 * d) % n
            assert start.x == curve.B * (tw.point[0] - curve.r_shift) % n
            assert start.z == 1

    def test_shared_factor_with_denominator(self):
        # gcd(56a, 21) = 7 makes the B denominator non-invertible
        ctx = ModulusCtx(21)
        with pytest.raises(NonInvertibleError) as info:
            montgomerize(-1, 1, 2, ctx)
        assert info.value.witness == 7


class TestXZDouble:
    def _ctx(self):
        ctx = ModulusCtx(151)
        d = sqrt_minus7(ctx)
        assert d is not None
        curve, _ = montgomerize(-1, 1, d, ctx)
        return ctx, curve

    def test_z_zero_is_absorbing(self):
        ctx, curve = self._ctx()
        doubled = xz_double(XZPoint(5, 0), curve, ctx)
        assert doubled == XZPoint(pow(5, 4, 151), 0)

    def test_x_equals_z_lands_on_two_torsion(self):
        ctx, curve = self._ctx()
        doubled = xz_double(XZPoint(1, 1), curve, ctx)
        assert doubled == XZPoint(0, 16 * curve.C % 151)

    def test_two_torsion_doubles_to_zero(self):
        ctx, curve = self._ctx()
        assert xz_double(XZPoint(0, 1), curve, ctx) == XZPoint(1, 0)

    def test_exact_op_cost(self):
        ctx, curve = self._ctx()
        before = ctx.op_counts()
        xz_double(XZPoint(3, 7), curve, ctx)
        after = ctx.op_counts()
        deltas = tuple(b - a for a, b in zip(before, after))
        assert deltas == (3, 2, 4, 0)

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=30)
    def test_chain_cost_is_linear_in_length(self, count):
        ctx, curve = self._ctx()
        before = ctx.op_counts()
        double_chain(XZPoint(3, 7), curve, ctx, count)
        after = ctx.op_counts()
        deltas = tuple(b - a for a, b in zip(before, after))
        assert deltas == (3 * count, 2 * count, 4 * count, 0)


class TestDoubleChain:
    def test_count_one_is_a_single_doubling(self):
        ctx = ModulusCtx(151)
        curve, start = montgomerize(-1, 1, sqrt_minus7(ctx), ctx)
        final, penultimate, _ = double_chain(start, curve, ctx, 1)
        assert penultimate == start
        assert final == xz_double(start, curve, ModulusCtx(151))

    def test_mod_23_order_sixteen(self):
        ctx = ModulusCtx(23)
        curve, start = montgomerize(-1, 1, 4, ctx)
        final, penultimate, _ = double_chain(start, curve, ctx, 4)
        assert is_strongly_nonzero(penultimate, ctx)
        assert is_zero_mod(final, ctx)

    def test_runs_on_any_odd_modulus(self):
        # no primality semantics: arithmetic plumbing must not care
        ctx = ModulusCtx(8191)
        curve, start = montgomerize(-1, 3, 11, ctx)
        final, penultimate, _ = double_chain(start, curve, ctx, 25)
        assert 0 <= final.x < 8191 and 0 <= final.z < 8191

    def test_keep_at_zero_returns_input(self):
        ctx = ModulusCtx(23)
        curve, start = montgomerize(-1, 1, 4, ctx)
        _, _, kept = double_chain(start, curve, ctx, 4, keep_at=0)
        assert kept == start

    def test_keep_at_matches_separate_run(self):
        # the fused chain against a loop of xz_double on its own context:
        # same final, penultimate and kept points, same counter deltas
        for k in (17, 18, 2828):
            n = jk_closed(k).value
            count = k + 1
            ref_ctx = ModulusCtx(n)
            tw = select_twist(k)
            curve, start = montgomerize(tw.a, tw.point[0],
                                        sqrt_minus7(ref_ctx), ref_ctx)
            before = ref_ctx.op_counts()
            points = _reference_chain(start, curve, ref_ctx, count)
            ref_deltas = _deltas(before, ref_ctx.op_counts())
            assert ref_deltas == (3 * count, 2 * count, 4 * count, 0)
            for keep_at in (None, 0, 1, count // 2, count):
                ctx = ModulusCtx(n)
                before = ctx.op_counts()
                got = double_chain(start, curve, ctx, count, keep_at)
                kept = None if keep_at is None else points[keep_at]
                assert got == (points[-1], points[-2], kept), (k, keep_at)
                assert _deltas(before, ctx.op_counts()) == ref_deltas

    @pytest.mark.parametrize("k", [17, 18, 2828])
    def test_unreduced_and_zero_starts_match_xz_double(self, k):
        n = jk_closed(k).value
        ctx = ModulusCtx(n)
        curve, start = montgomerize(-1, 1, sqrt_minus7(ctx), ctx)
        wide = MontCurveCtx(curve.d, curve.r_shift, curve.B, curve.C - 3 * n)
        for P, crv in ((XZPoint(start.x + 5 * n, -7 * n - 2), wide),
                       (XZPoint(start.x, 0), curve),
                       (XZPoint(-start.x, 3 * n), wide)):
            for count in (1, 2, k + 1):
                ref_ctx, fused_ctx = ModulusCtx(n), ModulusCtx(n)
                points = _reference_chain(P, crv, ref_ctx, count)
                got = double_chain(P, crv, fused_ctx, count, keep_at=0)
                assert got == (points[-1], points[-2], P)
                assert fused_ctx.op_counts() == ref_ctx.op_counts()
                if P.z % n == 0:  # z = 0 is absorbing
                    assert all(q.z == 0 for q in points[1:])

    def test_keep_at_final(self):
        ctx = ModulusCtx(23)
        curve, start = montgomerize(-1, 1, 4, ctx)
        final, _, kept = double_chain(start, curve, ctx, 4, keep_at=4)
        assert kept == final

    def test_rejects_bad_count_or_keep_at(self):
        ctx = ModulusCtx(23)
        curve, start = montgomerize(-1, 1, 4, ctx)
        with pytest.raises(ValueError):
            double_chain(start, curve, ctx, 0)
        with pytest.raises(ValueError):
            double_chain(start, curve, ctx, 4, keep_at=5)
        with pytest.raises(ValueError):
            double_chain(start, curve, ctx, 4, keep_at=-1)

    def test_zero_class_stays_zero(self):
        ctx = ModulusCtx(23)
        curve, start = montgomerize(-1, 1, 4, ctx)
        point = start
        seen_zero = False
        for _ in range(10):
            point = xz_double(point, curve, ctx)
            if seen_zero:
                assert is_zero_mod(point, ctx)
            seen_zero = seen_zero or is_zero_mod(point, ctx)
        assert seen_zero  # order 16 divides 2^10


class TestStronglyNonzero:
    def test_unit_z(self):
        ctx = ModulusCtx(15)
        assert is_strongly_nonzero(XZPoint(1, 1), ctx)

    def test_zero_z(self):
        ctx = ModulusCtx(15)
        assert not is_strongly_nonzero(XZPoint(1, 0), ctx)

    def test_stronger_than_nonzero(self):
        ctx = ModulusCtx(15)
        point = XZPoint(1, 5)
        assert not is_strongly_nonzero(point, ctx)  # shares factor 5
        assert point.z % 15 != 0  # yet nonzero mod 15 (and mod 3)
        assert point.z % 3 != 0

    def test_counts_as_gcd_call(self):
        ctx = ModulusCtx(15)
        before = ctx.op_counts()[3]
        is_strongly_nonzero(XZPoint(1, 7), ctx)
        assert ctx.op_counts()[3] == before + 1


class TestIsZeroMod:
    def test_cases(self):
        ctx = ModulusCtx(23)
        assert is_zero_mod(XZPoint(4, 0), ctx)
        assert is_zero_mod(XZPoint(4, 23), ctx)
        assert not is_zero_mod(XZPoint(4, 1), ctx)


_LANE_OBSTACLE = mont_curve._lane_obstacle()
needs_lanes = pytest.mark.skipif(
    _LANE_OBSTACLE is not None,
    reason=f"two doubling lanes cannot run here: {_LANE_OBSTACLE}")


def _python(code: str, **kwargs) -> subprocess.Popen:
    """A fresh interpreter running code, with the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **kwargs)


@pytest.fixture
def lane_calls(monkeypatch):
    """Force the lane crossovers down to any chain; count _two_lanes calls."""
    calls = []
    two_lanes = mont_curve._two_lanes

    def spy(*args):
        calls.append(args[3])  # count
        return two_lanes(*args)

    monkeypatch.setattr(mont_curve, "_LANE_MIN_BITS", 0)
    monkeypatch.setattr(mont_curve, "_LANE_MIN_COUNT", 1)
    monkeypatch.setattr(mont_curve, "_two_lanes", spy)
    return calls


class TestLanes:
    def test_crossovers_gate_the_lanes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mont_curve, "_two_lanes",
                            lambda *args: calls.append(args[3]))
        monkeypatch.setattr(mont_curve, "_lane_obstacle", lambda: None)
        low, count = mont_curve._LANE_MIN_BITS, mont_curve._LANE_MIN_COUNT
        curve = MontCurveCtx(0, 0, 1, 5)
        for bits, n_steps in ((low - 1, count), (low, count - 1),
                              (low, count)):
            ctx = ModulusCtx((1 << (bits - 1)) + 1)  # bits bits
            double_chain(XZPoint(3, 1), curve, ctx, n_steps)
        assert calls == [count]
        monkeypatch.setattr(mont_curve, "_lane_obstacle", lambda: "no")
        double_chain(XZPoint(3, 1), curve, ctx, count)
        assert calls == [count]

    def test_a_second_thread_keeps_the_lanes_shut(self, lane_calls):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            ctx = ModulusCtx(23)
            curve, start = montgomerize(-1, 1, 4, ctx)
            double_chain(start, curve, ctx, 10)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert lane_calls == []

    @needs_lanes
    @pytest.mark.parametrize("k", [17, 18, 1129, 2828])
    def test_two_lanes_match_xz_double_for_counts_to_300(self, k,
                                                         lane_calls):
        n = jk_closed(k).value
        ctx = ModulusCtx(n)
        tw = select_twist(k)
        curve, start = montgomerize(tw.a, tw.point[0], sqrt_minus7(ctx), ctx)
        points = _reference_chain(start, curve, ModulusCtx(n), 300)
        for count in range(1, 301):
            keep_at = (0, count // 2, count)[count % 3]
            ctx = ModulusCtx(n)
            got = double_chain(start, curve, ctx, count, keep_at)
            assert got == (points[count], points[count - 1],
                           points[keep_at]), (k, count, keep_at)
            assert ctx.op_counts() == (3 * count, 2 * count, 4 * count, 0)
        assert lane_calls == list(range(1, 301))

    @needs_lanes
    def test_two_lanes_follow_a_chain_into_zero(self, lane_calls):
        ctx = ModulusCtx(23)
        curve, start = montgomerize(-1, 1, 4, ctx)  # order 16
        points = _reference_chain(start, curve, ModulusCtx(23), 10)
        assert points[4].z == 0 and points[3].z != 0
        got = double_chain(start, curve, ModulusCtx(23), 10, keep_at=4)
        assert got == (points[10], points[9], points[4])
        assert lane_calls == [10]

    @needs_lanes
    def test_an_exception_mid_chain_leaves_no_child(self, lane_calls):
        class Stop(Exception):
            pass

        def stop(signum, frame):
            raise Stop

        ctx = ModulusCtx(jk_closed(3779).value)
        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        try:
            with pytest.raises(Stop):
                double_chain(XZPoint(3, 1), MontCurveCtx(0, 0, 1, 5), ctx,
                             10**6)  # about a minute on two lanes
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert lane_calls == [10**6]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # killed and reaped
        assert ctx.op_counts() == (0, 0, 0, 0)

    @needs_lanes
    def test_a_dead_lane_raises_instead_of_hanging(self, lane_calls):
        parent = os.getpid()

        class LaneDies(ModulusCtx):
            def _reduce(self, t):
                if os.getpid() != parent:
                    raise RuntimeError("lane B fails")
                return super()._reduce(t)

        ctx = LaneDies(jk_closed(1129).value)
        with pytest.raises(mont_curve._LaneLost):
            double_chain(XZPoint(3, 1), MontCurveCtx(0, 0, 1, 5), ctx, 50)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @needs_lanes
    def test_a_killed_parents_lane_exits_within_two_seconds(self):
        code = (
            "import os\n"
            "from cm7prime import mont_curve as mc\n"
            "from cm7prime.jk_sequence import jk_closed\n"
            "fork = os.fork\n"
            "def spy():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "os.fork = spy\n"
            "mc._LANE_MIN_BITS, mc._LANE_MIN_COUNT = 0, 1\n"
            "ctx = mc.ModulusCtx(jk_closed(3779).value)\n"
            "mc.double_chain(mc.XZPoint(3, 1), mc.MontCurveCtx(0, 0, 1, 5),"
            " ctx, 10**6)\n")
        with _python(code) as proc:
            try:
                lane = int(proc.stdout.readline())
                time.sleep(0.3)  # both lanes are mid-chain
                assert _running(lane)
            finally:
                proc.kill()
                proc.wait()
        deadline = time.monotonic() + 2.0
        while _running(lane) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(lane), "the orphaned lane kept running"

    @needs_lanes
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="os.sched_setaffinity is missing")
    def test_pinning_to_one_cpu_shuts_the_lanes(self):
        # the usable CPUs are read at each chain, not once per process
        code = (
            "import os\n"
            "from cm7prime import mont_curve as mc\n"
            "calls = []\n"
            "two_lanes = mc._two_lanes\n"
            "def spy(*args):\n"
            "    calls.append(args[3])\n"
            "    return two_lanes(*args)\n"
            "mc._two_lanes = spy\n"
            "mc._LANE_MIN_BITS, mc._LANE_MIN_COUNT = 0, 1\n"
            "def chain():\n"
            "    mc.double_chain(mc.XZPoint(3, 1), mc.MontCurveCtx(0, 0, 1, 5),"
            " mc.ModulusCtx(23), 4)\n"
            "chain()\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "chain()\n"
            "print(calls)\n")
        with _python(code) as proc:
            out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert out == "[4]\n"

    @pytest.fixture
    def lane_log(self, monkeypatch, tmp_path):
        """Force the lane crossovers down and log each lane's pid to a file.

        Forked pool workers inherit both, so the file logs their lanes too.
        """
        log = tmp_path / "lanes.txt"
        log.write_text("")
        two_lanes = mont_curve._two_lanes

        def spy(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return two_lanes(*args)

        monkeypatch.setattr(mont_curve, "_LANE_MIN_BITS", 0)
        monkeypatch.setattr(mont_curve, "_LANE_MIN_COUNT", 1)
        monkeypatch.setattr(mont_curve, "_two_lanes", spy)
        return log

    @needs_lanes
    def test_search_pool_workers_open_no_lane(self, lane_log):
        # the workers see that multiprocessing started them
        pooled = search(2, 400, 10**4, workers=2)
        assert lane_log.read_text() == ""
        serial = search(2, 400, 10**4, workers=1)  # the same chains, here
        assert set(lane_log.read_text().split()) == {str(os.getpid())}

        assert [(k, v, s.multiplications, s.squarings, s.additions,
                 s.gcd_calls) for k, v, s in pooled] == \
            [(k, v, s.multiplications, s.squarings, s.additions,
              s.gcd_calls) for k, v, s in serial]

    @needs_lanes
    def test_any_process_pool_worker_opens_no_lane(self, lane_log):
        # a pool search did not create; fork, so that the workers inherit
        # the forced crossovers and the spy
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        ks = [17, 18, 28, 38]  # each runs a chain
        with ProcessPoolExecutor(max_workers=2,
                                 mp_context=get_context("fork")) as pool:
            pooled = list(pool.map(run_pipeline, ks))
        assert lane_log.read_text() == ""
        serial = [run_pipeline(k) for k in ks]  # the same chains, here
        assert lane_log.read_text().split() == [str(os.getpid())] * len(ks)

        assert [(r.verdict, r.stats.multiplications, r.stats.squarings,
                 r.stats.additions, r.stats.gcd_calls) for r in pooled] == \
            [(r.verdict, r.stats.multiplications, r.stats.squarings,
              r.stats.additions, r.stats.gcd_calls) for r in serial]

    def test_import_loads_neither_mmap_nor_platform(self):
        # nor does a chain load multiprocessing, which _lanes_available
        # reads; on lanes, it loads mmap
        chain = ("from cm7prime import mont_curve as mc\n"
                 "mc._LANE_MIN_BITS, mc._LANE_MIN_COUNT = 0, 1\n"
                 "mc.double_chain(mc.XZPoint(3, 1),"
                 " mc.MontCurveCtx(0, 0, 1, 5), mc.ModulusCtx(23), 2)\n")
        for body, mmap_loaded in (("", False),
                                  (chain, _LANE_OBSTACLE is None)):
            code = ("import sys\n"
                    "import cm7prime\n"
                    f"{body}"
                    "print(*(name in sys.modules for name in"
                    " ('mmap', 'platform', 'multiprocessing')))\n")
            with _python(code) as proc:
                out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert out == f"{mmap_loaded} False False\n"


def _running(pid: int) -> bool:
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
