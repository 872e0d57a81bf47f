"""Certificates: construction, bounds, text format, and the verifier."""

import contextlib
import dataclasses
import functools
import random
import sys
from decimal import Decimal, getcontext

import pytest

from cm7prime.certificate import (Certificate, CertificateFormatError,
                                  build_certificate, decimal_digits,
                                  exceeds_quarter_bound,
                                  minimal_doubling_exponent, parse, serialize,
                                  verify_certificate)
from cm7prime.jk_sequence import jk_closed
from cm7prime.mont_curve import ModulusCtx, montgomerize, sqrt_minus7
from cm7prime.prover import VerdictKind
from cm7prime.refcheck import AffinePoint, weier_scalar_mult
from cm7prime.twist_tables import select_twist


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

    def test_composite_returns_verdict(self):
        v = build_certificate(8)
        assert not isinstance(v, Certificate)
        assert v.kind is VerdictKind.FORCED_CONGRUENCE
        v = build_certificate(11)
        assert v.kind is VerdictKind.NO_SQRT_MINUS7

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
        (K2_TEXT.replace("x=3", "x=11"), "out of range"),
        (K2_TEXT.replace("d=2", "d=-1"), "out of range"),
    ])
    def test_malformed_inputs(self, text, fragment):
        with pytest.raises(CertificateFormatError, match=fragment):
            parse(text)

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


class TestVerify:
    def test_valid_certificates(self):
        for k in (2, 3, 4, 5, 17, 18):
            ok, stats = verify_certificate(build_certificate(k))
            assert ok and stats.reason is None, k

    def test_cost_bound(self):
        for k in (100, 147):
            cert = build_certificate(k)
            ok, stats = verify_certificate(cert)
            assert ok
            assert stats.mults_plus_squarings <= 2.6 * k + 64, \
                (k, stats.mults_plus_squarings)

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

    def test_low_order_point_rejected(self):
        # [0:0:1] lies on every curve in this family (two-torsion), so it
        # passes the curve equation but dies at the order checks
        cert = build_certificate(17)
        bad = dataclasses.replace(cert, q=(0, 0, 1))
        ok, stats = verify_certificate(bad)
        assert not ok and stats.reason == "order-penultimate"

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
        # no d exists with d^2 = -7 mod 8327, so every candidate fails
        n = 8327
        rng = random.Random(7)
        for _ in range(20):
            cert = Certificate(11, n, -1, rng.randrange(n),
                               minimal_doubling_exponent(n),
                               (rng.randrange(n), rng.randrange(n),
                                rng.randrange(n)))
            ok, stats = verify_certificate(cert)
            assert not ok and stats.reason == "sqrt-minus7"

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
