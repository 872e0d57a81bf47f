"""Certificates: construction, bounds, text format, and the verifier."""

import contextlib
import dataclasses
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time
from decimal import Decimal, getcontext
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cm7prime import certificate, mont_curve, prover
from cm7prime.certificate import (Certificate, CertificateFormatError,
                                  VerifyStats, _cm_sqrt_minus7,
                                  build_certificate, decimal_digits,
                                  exceeds_quarter_bound,
                                  minimal_doubling_exponent, parse, read_decimal,
                                  serialize, verify_certificate)
from cm7prime.jk_sequence import forced_composite, jk_closed
from cm7prime.mont_curve import (ModulusCtx, NonInvertibleError, montgomerize,
                                 montgomery_constants, projective_rhs,
                                 sqrt_minus7)
from cm7prime.prover import VerdictKind
from cm7prime.prover import test_jk as prove_jk
from cm7prime.refcheck import AffinePoint, sqrt_mod, weier_scalar_mult
from cm7prime.twist_tables import TWISTS, jacobi_symbol, select_twist
from quad_ring import jk_element


def _crt_sqrts(v: int, primes: tuple[int, ...]) -> list[int]:
    """Every square root of v modulo a product of distinct primes = 3 mod 4."""
    n = math.prod(primes)
    per_prime = []
    for p in primes:
        s = sqrt_mod(v, p)
        if s is None:
            return []
        per_prime.append({s, -s % p})
    return sorted(sum(s * (n // p) * pow(n // p, -1, p)
                      for s, p in zip(combo, primes)) % n
                  for combo in itertools.product(*per_prime))


@functools.lru_cache(maxsize=None)
def _certificate(k: int) -> Certificate:
    return build_certificate(k)


K2_TEXT = "JKCERT 1\nk=2\nN=11\na=-1\nd=2\nr=3\nx=3\ny=6\nz=1\n"
K3_TEXT = "JKCERT 1\nk=3\nN=23\na=-1\nd=4\nr=4\nx=9\ny=17\nz=1\n"


class TestQuarterBound:
    def test_examples(self):
        # (11^(1/4)+1)^2 = 7.96..: 8 exceeds it, 4 does not
        assert exceeds_quarter_bound(3, 11)
        assert not exceeds_quarter_bound(2, 11)
        # (524087^(1/4)+1)^2 = 778.4..: first power of two above is 2^10
        assert exceeds_quarter_bound(10, 524087)
        assert not exceeds_quarter_bound(9, 524087)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exceeds_quarter_bound(0, 11)
        with pytest.raises(ValueError):
            exceeds_quarter_bound(3, 0)

    def test_exact_boundary_for_even_r(self):
        # n = (2^(r/2) - 1)^4 makes the bound equal 2^r exactly: strict
        # inequality must fail there and pass one below
        for r in (4, 10, 40, 200):
            n = ((1 << (r // 2)) - 1) ** 4
            assert not exceeds_quarter_bound(r, n)
            assert exceeds_quarter_bound(r, n - 1)

    def test_against_decimal_arithmetic(self):
        getcontext().prec = 200
        rng = random.Random(0x9B0D)
        for _ in range(400):
            r = rng.randrange(1, 400)
            n = rng.randrange(1, 1 << rng.randrange(2, 400))
            bound = (Decimal(n).sqrt().sqrt() + 1) ** 2
            assert exceeds_quarter_bound(r, n) == (Decimal(2) ** r > bound), \
                (r, n)

    def test_minimal_exponent_examples(self):
        assert minimal_doubling_exponent(11) == 3
        assert minimal_doubling_exponent(23) == 4
        assert minimal_doubling_exponent(524087) == 10
        assert minimal_doubling_exponent(1046579) == 11

    def test_minimal_exponent_is_minimal(self):
        rng = random.Random(0x51EB)
        for _ in range(200):
            n = rng.randrange(1, 1 << rng.randrange(2, 600))
            r = minimal_doubling_exponent(n)
            assert exceeds_quarter_bound(r, n)
            assert r == 1 or not exceeds_quarter_bound(r - 1, n)


class TestBuild:
    @pytest.mark.parametrize("k,r,s,q", [
        (2, 3, 0, (3, 6, 1)),
        (3, 4, 0, (9, 17, 1)),
        (4, 4, 1, (39, 22, 13)),
        (5, 5, 1, (99, 49, 12)),
    ])
    def test_small_certificates(self, k, r, s, q):
        cert = build_certificate(k)
        assert isinstance(cert, Certificate)
        assert (cert.k, cert.r, cert.s, cert.q) == (k, r, s, q)
        assert cert.n == jk_closed(k).value

    def test_medium_certificates(self):
        c17 = build_certificate(17)
        assert (c17.r, c17.s, c17.n) == (10, 8, 524087)
        c18 = build_certificate(18)
        assert (c18.r, c18.s, c18.n) == (11, 8, 1046579)

    def test_composite_returns_none(self):
        assert forced_composite(8)
        assert build_certificate(8) is None
        # J_11 fails step 3, but the CM root exists and the chain runs
        assert prove_jk(11)[0].kind is VerdictKind.NO_SQRT_MINUS7
        assert build_certificate(11) is None

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            build_certificate(1)

    def test_point_matches_group_law_route(self):
        # the certified point must be 2^s times the start point, computed
        # here on the short Weierstrass model with generic affine addition
        for k in (4, 5, 17, 18):
            cert = build_certificate(k)
            n = cert.n
            ctx = ModulusCtx(n)
            d = sqrt_minus7(ctx)
            twist = select_twist(k)
            curve, _ = montgomerize(twist.a, twist.point[0], d, ctx)
            p_s = weier_scalar_mult(2 ** cert.s, AffinePoint(*twist.point),
                                    twist.a, n)
            assert p_s is not None
            xw, yw = p_s.x, p_s.y
            x, y, z = cert.q
            # x/z = B (x_w - shift) and y = +- z * B * y_w
            assert x % n == z * curve.B % n * (xw - curve.r_shift) % n
            assert y % n in (z * curve.B * yw % n, -z * curve.B * yw % n)


def _step_two_roots(ks):
    """(k, J_k, 7^((J_k+1)/4)) for each k in ks that passes step 3."""
    for k in ks:
        if not forced_composite(k):
            n = jk_closed(k).value
            d = sqrt_minus7(ModulusCtx(n))
            if d is not None:
                yield k, n, d


class TestCMRoot:
    """d = 2*alpha - 1 with alpha -> -u/v (mod J_k), signed by (d/J_k)."""

    def test_equals_step_two_wherever_step_three_passes(self):
        roots = list(_step_two_roots([*range(2, 1201), 3779]))
        for k, n, d in roots:
            assert _cm_sqrt_minus7(k, ModulusCtx(n)) == d, k
        assert len(roots) == 37  # 36 k <= 1200, then 3779

    def test_either_root_gives_the_same_verdict(self, monkeypatch):
        # steps 4-8 only use d^2 = -7, so -d must decide as d does
        for k, n, d in _step_two_roots(range(2, 700)):
            with monkeypatch.context() as m:
                m.setattr(prover, "sqrt_minus7", lambda ctx, d=d: ctx.N - d)
                negated, _ = prove_jk(k)
            assert negated == prove_jk(k)[0], k

    def test_squares_to_minus_seven_over_composite_jk(self):
        # the root needs no primality: only v invertible mod J_k
        for k in (11, 12, 13, 25):
            n = jk_closed(k).value
            assert sqrt_minus7(ModulusCtx(n)) is None
            d = _cm_sqrt_minus7(k, ModulusCtx(n))
            assert d * d % n == n - 7, k

    def test_matches_the_root_from_z_alpha_to_300(self):
        # the ladder's j_k against jk_element's binary power, composites
        # included: the same root, or the same non-invertible 2v
        raised = 0
        for k in range(1, 301):
            if forced_composite(k):
                continue
            n = jk_closed(k).value
            j = jk_element(k)
            try:
                alpha = -j.u * pow(j.v, -1, n) % n
            except ValueError:
                raised += 1
                with pytest.raises(NonInvertibleError):
                    _cm_sqrt_minus7(k, ModulusCtx(n))
                continue
            d = (2 * alpha - 1) % n
            want = 1 if n % 8 == 7 else -1
            assert _cm_sqrt_minus7(k, ModulusCtx(n)) == \
                (d if jacobi_symbol(d, n) == want else n - d), k
        assert raised == 2  # k = 70 and 238

    def test_certificate_exactly_when_test_jk_says_prime(self):
        for k in range(2, 401):
            built = build_certificate(k)
            verdict, _ = prove_jk(k)
            if verdict.is_prime:
                assert isinstance(built, Certificate), k
            else:
                assert built is None, k

    @staticmethod
    def _pow_mod_calls(monkeypatch):
        calls = []
        pow_mod = ModulusCtx.pow_mod

        def spy(self, base, exponent):
            calls.append(exponent)
            return pow_mod(self, base, exponent)

        monkeypatch.setattr(ModulusCtx, "pow_mod", spy)
        return calls

    @pytest.mark.parametrize("k", [17, 18, 28])
    def test_one_exponentiation_per_prime(self, k, monkeypatch):
        # only the y recovery may exponentiate; step 2's power is gone
        calls = self._pow_mod_calls(monkeypatch)
        cert = build_certificate(k)
        assert isinstance(cert, Certificate) and cert.s > 0
        assert calls == [(cert.n + 1) // 4]

    def test_no_exponentiation_for_a_composite(self, monkeypatch):
        # gcd(z_5, J_11) = 11, so the inverse of B z_5 stops the build
        # before the y recovery; no test_jk follows
        calls = self._pow_mod_calls(monkeypatch)
        assert build_certificate(11) is None
        assert calls == []

    def test_composite_past_the_inverse_exponentiates_once(self, monkeypatch):
        # J_14 = 65363 is composite, yet its chain reaches s = 6 with z_6
        # invertible: one y recovery, then the verifier says no.  Neither
        # step 2 nor the prover runs.
        calls = self._pow_mod_calls(monkeypatch)

        def forbidden(*args):
            raise AssertionError("build_certificate ran step 2 or the prover")

        monkeypatch.setattr(mont_curve, "sqrt_minus7", forbidden)
        monkeypatch.setattr(prover, "run_pipeline", forbidden)
        n = jk_closed(14).value
        assert build_certificate(14) is None
        assert calls == [(n + 1) // 4]

    def test_returns_only_what_the_verifier_accepts(self, monkeypatch):
        seen = []

        def reject(cert):
            seen.append(cert)
            return False, VerifyStats.from_ctx(None, "rejected")

        monkeypatch.setattr(certificate, "verify_certificate", reject)
        assert build_certificate(17) is None
        assert [c.k for c in seen] == [17]


class TestSerialization:
    def test_frozen_texts(self):
        assert serialize(build_certificate(2)) == K2_TEXT
        assert serialize(build_certificate(3)) == K3_TEXT

    def test_round_trip(self):
        for k in (2, 3, 4, 5, 17, 18, 28):
            cert = build_certificate(k)
            assert parse(serialize(cert)) == cert

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty"),
        (K2_TEXT.replace("\n", "\r\n"), "CR"),
        (K2_TEXT[:-1], "final newline"),
        ("JKCERT 2" + K2_TEXT[8:], "version"),
        (K2_TEXT + "w=1\n", "lines"),
        ("\n".join(K2_TEXT.split("\n")[:-2]) + "\n", "lines"),
        (K2_TEXT.replace("k=2\nN=11", "N=11\nk=2"), "expected k="),
        (K2_TEXT.replace("k=2", "k=02"), "non-canonical"),
        (K2_TEXT.replace("k=2", "k=+2"), "non-canonical"),
        (K2_TEXT.replace("x=3", "x=3 "), "non-canonical"),
        (K2_TEXT.replace("r=3", "r=three"), "non-decimal"),
        (K2_TEXT.replace("a=-1", "a=-2"), "twist"),
        (K2_TEXT.replace("N=11", "N=-11"), "positive"),
        (K2_TEXT.replace("r=3", "r=0"), "r must be positive"),
        (K2_TEXT.replace("k=2", "k=-5"), "k must be positive"),
        (K2_TEXT.replace("k=2", "k=0"), "k must be positive"),
        (K2_TEXT.replace("x=3", "x=11"), "out of range"),
        (K2_TEXT.replace("d=2", "d=-1"), "out of range"),
    ])
    def test_malformed_inputs(self, text, fragment):
        with pytest.raises(CertificateFormatError, match=fragment):
            parse(text)

    def test_k_one_parses_and_fails_verification(self):
        cert = parse(K2_TEXT.replace("k=2", "k=1"))
        assert verify_certificate(cert)[1].reason == "k-range"

    def test_unicode_digits_rejected(self):
        with pytest.raises(CertificateFormatError):
            parse(K2_TEXT.replace("k=2", "k=٢"))  # ARABIC-INDIC TWO


@contextlib.contextmanager
def unlimited_int_str():
    """Lift CPython's int<->str digit limit inside the block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestPastTheIntStrLimit:
    """J_k has more than 4300 digits (CPython's default limit) from k = 14283."""

    @staticmethod
    def _synthetic(k):
        n = jk_closed(k).value  # need not be prime: no proof is run
        return Certificate(k, n, -1, n - 7, minimal_doubling_exponent(n),
                           (n - 1, n // 3, 1))

    @pytest.mark.parametrize("k", [14283, 32769])
    def test_round_trip(self, k):
        cert = self._synthetic(k)
        text = serialize(cert)
        assert parse(text) == cert
        with unlimited_int_str():
            assert text == (f"JKCERT 1\nk={k}\nN={cert.n}\na=-1\nd={cert.d}\n"
                            f"r={cert.r}\nx={cert.q[0]}\ny={cert.q[1]}\nz=1\n")

    def test_over_long_n_is_rejected(self):
        text = serialize(self._synthetic(14283))
        n_line = text.split("\n")[2]
        most = decimal_digits((1 << (14283 + 3)) - 1)  # any (k+3)-bit N
        assert parse(text.replace(n_line, "N=" + "9" * most)).n == 10**most - 1
        with pytest.raises(CertificateFormatError, match="more digits"):
            parse(text.replace(n_line, "N=1" + "0" * most))
        with pytest.raises(CertificateFormatError, match="more digits"):
            parse(K2_TEXT.replace("N=11", "N=" + "1" * 5000))

    def test_digit_count_is_exact(self):
        with unlimited_int_str():
            for k in [*range(1, 2001), 14282, 14283]:
                n = jk_closed(k).value
                assert decimal_digits(n) == len(str(n)), k
            for n in (0, 1, 9, 10, 10**50 - 1, 10**50):
                assert decimal_digits(n) == len(str(n)), n
        assert decimal_digits(jk_closed(14282).value) == 4300
        assert decimal_digits(jk_closed(14283).value) == 4301

    # d = 1..1000, and the d up to 10^5 whose 10^d lies nearest a power of
    # two (numerators of the convergents of log10 2), where an estimate
    # of the digit count from the bit length has the least room
    @pytest.mark.parametrize("ds", [range(1, 1001), (
        4004, 8651, 12655, 21306, 76573, 97879, 10**5)], ids=["small", "tight"])
    def test_digit_count_at_powers_of_ten(self, ds):
        for d in ds:
            p = 10**d
            assert decimal_digits(p - 1) == d, d
            assert decimal_digits(p) == d + 1, d
            assert decimal_digits(p + 1) == d + 1, d

    @pytest.mark.parametrize("length", [1, 599, 600, 601, 1200, 1201, 4301])
    def test_decimal_round_trip(self, length):
        rng = random.Random(length)
        texts = ["9" * length, "1" + "0" * (length - 1),
                str(rng.randrange(1, 10)) + "".join(
                    rng.choice("0123456789") for _ in range(length - 1))]
        for text in texts + ["-" + t for t in texts]:
            value = read_decimal("x", text, 4 * length)
            with unlimited_int_str():
                assert value == int(text), text[:20]
                assert str(value) == text, text[:20]
            assert certificate._to_decimal(value) == text, text[:20]

    @pytest.mark.parametrize("limit", [None, "0"], ids=["default", "lifted"])
    def test_non_canonical_message_needs_no_int_conversion(self, limit):
        # the message comes from a pattern, not from int(), so neither it
        # nor its cost depends on the limit; int() of 400,000 digits is
        # refused by default and quadratic once the limit is lifted
        code = ("import time\n"
                "from cm7prime.certificate import read_decimal\n"
                "text = '+' + '7' * 400_000\n"
                "start = time.perf_counter()\n"
                "try:\n"
                "    read_decimal('x', text, 20)\n"
                "except ValueError as e:\n"
                "    print(f'{e}|{time.perf_counter() - start}')\n")
        env = dict(os.environ)
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        message, seconds = out.strip().split("|")
        assert message == "non-canonical decimal for x"
        assert float(seconds) < 0.5, seconds

    def test_short_fields_hold_exactly_4300_digits(self):
        # what the default limit took; test_cli shows it under other limits
        assert read_decimal("r", "9" * 4300) == 10**4300 - 1
        assert read_decimal("a", "-" + "9" * 4300) == 1 - 10**4300
        with pytest.raises(CertificateFormatError, match="more digits"):
            read_decimal("k", "1" + "0" * 4300)


class TestVerify:
    def test_valid_certificates(self):
        for k in (2, 3, 4, 5, 17, 18):
            ok, stats = verify_certificate(build_certificate(k))
            assert ok and stats.reason is None, k

    @pytest.mark.parametrize("mutate,reason", [
        (lambda c: dataclasses.replace(c, k=1), "k-range"),
        (lambda c: dataclasses.replace(c, a=3), "twist-unknown"),
        (lambda c: dataclasses.replace(c, r=0), "r-range"),
        (lambda c: dataclasses.replace(c, n=c.n + 1), "n-odd"),
        (lambda c: dataclasses.replace(c, d=c.n), "residue-range"),
        (lambda c: dataclasses.replace(c, q=(c.q[0], c.q[1], c.n)),
         "residue-range"),
        (lambda c: dataclasses.replace(c, n=c.n + 2), "n-mismatch"),
        (lambda c: dataclasses.replace(c, n=c.n * 4 + 1), "n-mismatch"),
        (lambda c: dataclasses.replace(c, k=c.k + 1), "n-mismatch"),
        (lambda c: dataclasses.replace(c, d=c.d + 1), "sqrt-minus7"),
        (lambda c: dataclasses.replace(c, r=c.r + 1), "r-bound"),
        (lambda c: dataclasses.replace(c, r=c.r - 1), "r-bound"),
        (lambda c: dataclasses.replace(c, q=(c.q[0], c.q[1] + 1, c.q[2])),
         "curve-equation"),
        (lambda c: dataclasses.replace(c, q=(c.q[0] + 1, c.q[1], c.q[2])),
         "curve-equation"),
        (lambda c: dataclasses.replace(c, a=-5), "curve-equation"),
        (lambda c: dataclasses.replace(c, q=(0, 0, 1)), "order-penultimate"),
    ])
    def test_tamper_reason(self, mutate, reason):
        cert = build_certificate(17)
        ok, stats = verify_certificate(mutate(cert))
        assert not ok
        assert stats.reason == reason

    @pytest.mark.parametrize("k", [17, 2828])
    @pytest.mark.parametrize("wrong_r", [
        lambda c: c.r - 1, lambda c: c.r + 1, lambda c: c.k + 2,
        lambda c: 10**30,
    ], ids=["r-1", "r+1", "k+2", "10^30"])
    def test_any_other_r_fails_the_bound_at_once(self, k, wrong_r):
        # r is compared with the exponent N fixes, never used as a shift
        # count, so 10^30 costs what r + 1 does: the gcd and d^2 checks
        cert = _certificate(k)
        ok, stats = verify_certificate(dataclasses.replace(cert, r=wrong_r(cert)))
        assert (ok, stats.reason) == (False, "r-bound")
        assert (stats.multiplications, stats.squarings, stats.additions,
                stats.gcd_calls) == (0, 1, 0, 1)

    def test_full_order_point_rejected(self):
        # the chain's start point has order 2^(k+1) > 2^r, so the final
        # doubling result is nonzero
        cert = build_certificate(17)
        n = cert.n
        ctx = ModulusCtx(n)
        twist = select_twist(17)
        curve, start = montgomerize(twist.a, twist.point[0], cert.d, ctx)
        y = curve.B * twist.point[1] % n
        bad = dataclasses.replace(cert, q=(start.x, y, start.z))
        ok, stats = verify_certificate(bad)
        assert not ok and stats.reason == "order-final"

    def test_shared_factor_with_twist_is_caught(self):
        # 963 = 9 * 107 shares the factor 3 with the twist constant -111
        cert = Certificate(8, 963, -111, 5, minimal_doubling_exponent(963),
                           (1, 1, 1))
        ok, stats = verify_certificate(cert)
        assert not ok and stats.reason == "gcd"

    def test_no_square_root_forgery(self):
        # 8327 = 11 * 757 has exactly four d with d^2 = -7; every other d
        # fails the sqrt-minus7 check
        n = 8327
        roots = [d for d in range(n) if d * d % n == n - 7]
        assert roots == [365, 1879, 6448, 7962]
        non_roots = sorted(set(range(n)) - set(roots))
        rng = random.Random(7)
        for _ in range(20):
            cert = Certificate(11, n, -1, rng.choice(non_roots),
                               minimal_doubling_exponent(n),
                               (rng.randrange(n), rng.randrange(n),
                                rng.randrange(n)))
            ok, stats = verify_certificate(cert)
            assert not ok and stats.reason == "sqrt-minus7"

    @pytest.mark.parametrize("k, n_roots, sqrts", [
        (11, 4, lambda v, n: [y for y in range(n) if y * y % n == v % n]),
        (25, 8, lambda v, n: _crt_sqrts(v, (23, 179, 32603))),
    ], ids=["brute-force", "crt"])
    def test_composite_n_dies_at_the_order_check(self, k, n_roots, sqrts):
        # a true d and a true point of the curve over a composite J_k pass
        # every check before the chain; only the order checks catch them
        n = jk_closed(k).value
        ctx = ModulusCtx(n)
        r = minimal_doubling_exponent(n)
        rng = random.Random(k)
        roots = sqrts(-7, n)
        assert len(roots) == n_roots
        for d in roots:
            for _ in range(10):
                a = rng.choice(TWISTS)
                b_coef, c_coef = montgomery_constants(a, d, ctx)
                ys = []
                while not ys:
                    x = rng.randrange(n)
                    ys = sqrts(projective_rhs(x, 1, c_coef, ctx)
                               * pow(b_coef, -1, n), n)
                cert = Certificate(k, n, a, d, r, (x, rng.choice(ys), 1))
                ok, stats = verify_certificate(cert)
                assert not ok
                assert stats.reason in ("order-penultimate", "order-final")

    def test_random_single_field_tampering(self):
        cert = build_certificate(18)
        rng = random.Random(0xCE27)
        fields = ("k", "n", "a", "d", "r", "x", "y", "z")
        rejected = 0
        for _ in range(100):
            field = rng.choice(fields)
            delta = rng.randrange(1, 1000)
            if field in ("x", "y", "z"):
                i = "xyz".index(field)
                q = list(cert.q)
                q[i] = (q[i] + delta) % cert.n
                if tuple(q) == cert.q:
                    continue
                bad = dataclasses.replace(cert, q=tuple(q))
            elif field == "a":
                bad = dataclasses.replace(cert, a=cert.a + delta)
            else:
                bad = dataclasses.replace(cert, **{field:
                                                   getattr(cert, field) + delta})
            ok, _ = verify_certificate(bad)
            assert not ok, (field, delta)
            rejected += 1
        assert rejected >= 95

    def test_forgeries_for_composite_indices(self):
        rng = random.Random(0xF0E6)
        prime_ks = {2, 3, 4, 5, 7, 9, 10, 17, 18, 28, 38, 49, 53, 60, 63, 65,
                    77, 84, 87, 100, 109, 147, 170}
        tried = 0
        for k in range(2, 180):
            if k in prime_ks:
                continue
            n = jk_closed(k).value
            cert = Certificate(k, n, -1, rng.randrange(n),
                               minimal_doubling_exponent(n),
                               (rng.randrange(n), rng.randrange(n),
                                rng.randrange(n)))
            ok, _ = verify_certificate(cert)
            assert not ok, k
            tried += 1
        assert tried >= 100


_PROPERTY_KS = (17, 18, 28, 38)
_FIELDS = ("k", "n", "a", "d", "r", "x", "y", "z")


def _with_field(cert: Certificate, field: str, value: int) -> Certificate:
    if field in ("x", "y", "z"):
        q = list(cert.q)
        q["xyz".index(field)] = value
        return dataclasses.replace(cert, q=tuple(q))
    return dataclasses.replace(cert, **{field: value})


def _field(cert: Certificate, field: str) -> int:
    if field in ("x", "y", "z"):
        return cert.q["xyz".index(field)]
    return getattr(cert, field)


class TestVerifyProperties:
    @given(st.sampled_from(_PROPERTY_KS), st.sampled_from(_FIELDS), st.data())
    @settings(max_examples=400, deadline=None)
    def test_every_single_field_mutation_is_rejected(self, k, field, data):
        cert = _certificate(k)
        old = _field(cert, field)
        value = data.draw(st.one_of(
            st.integers(0, cert.n - 1),  # an in-range residue
            st.integers(old - 64, old + 64),  # a near miss
            st.integers(),
            st.sampled_from(TWISTS)), label="value")
        # no mutation, or the negated point (valid, see below)
        assume(value != old and not (field == "y" and value == cert.n - old))
        ok, stats = verify_certificate(_with_field(cert, field, value))
        assert not ok and stats.reason is not None

    @pytest.mark.parametrize("k", _PROPERTY_KS)
    def test_negated_point_is_the_one_valid_y_change(self, k):
        # (x, -y, z) is -Q, whose order is Q's: a second valid certificate
        cert = _certificate(k)
        assert verify_certificate(_with_field(cert, "y", cert.n - cert.q[1]))[0]

    @given(st.sampled_from(_PROPERTY_KS), st.sampled_from(("d", "x", "y", "z", "r")),
           st.integers(0, 10**6), st.integers(0, 2**64))
    @settings(max_examples=200, deadline=None)
    def test_oversized_fields_are_rejected_in_bounded_time(self, k, field, bits,
                                                           low):
        cert = _certificate(k)
        value = (cert.n << bits) + low  # at least N, up to a million bits more
        start = time.perf_counter()
        ok, stats = verify_certificate(_with_field(cert, field, value))
        elapsed = time.perf_counter() - start
        want = "r-bound" if field == "r" else "residue-range"
        assert (ok, stats.reason) == (False, want)
        # the work does not grow with the field: at most the r-bound's
        # gcd and squaring, and a fixed wall-clock ceiling
        assert (stats.multiplications, stats.additions) == (0, 0)
        assert stats.squarings <= 1 and stats.gcd_calls <= 1
        assert elapsed < 0.5, (field, bits, elapsed)
