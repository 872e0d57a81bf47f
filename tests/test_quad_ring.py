"""Exact arithmetic in Z[alpha], alpha^2 = alpha - 2."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quad_ring import (ALPHA, ONE, QuadInt, jk_element, qi_conj, qi_mul,
                       qi_norm, qi_pow)

COEFF = st.integers(min_value=-(2**64), max_value=2**64)
QUAD = st.builds(QuadInt, COEFF, COEFF)


class TestMul:
    def test_alpha_times_conjugate_is_two(self):
        assert qi_mul(QuadInt(0, 1), QuadInt(1, -1)) == QuadInt(2, 0)

    def test_alpha_squared_is_alpha_minus_two(self):
        assert qi_mul(ALPHA, ALPHA) == QuadInt(-2, 1)

    def test_one_is_identity(self):
        assert qi_mul(ONE, QuadInt(7, -4)) == QuadInt(7, -4)

    @given(QUAD, QUAD, QUAD)
    def test_associative(self, x, y, z):
        assert qi_mul(qi_mul(x, y), z) == qi_mul(x, qi_mul(y, z))

    @given(QUAD, QUAD)
    def test_commutative(self, x, y):
        assert qi_mul(x, y) == qi_mul(y, x)


class TestConj:
    def test_alpha_bar(self):
        assert qi_conj(ALPHA) == QuadInt(1, -1)

    def test_formula(self):
        assert qi_conj(QuadInt(3, 2)) == QuadInt(5, -2)

    def test_involution(self):
        assert qi_conj(qi_conj(QuadInt(7, -4))) == QuadInt(7, -4)

    @given(QUAD, QUAD)
    def test_ring_homomorphism(self, x, y):
        assert qi_conj(qi_mul(x, y)) == qi_mul(qi_conj(x), qi_conj(y))


class TestNorm:
    def test_norm_alpha_is_two(self):
        assert qi_norm(ALPHA) == 2

    def test_norm_one_plus_two_alpha_is_eleven(self):
        assert qi_norm(QuadInt(1, 2)) == 11

    def test_norm_of_unity(self):
        assert qi_norm(ONE) == 1

    def test_multiplicative_thousand_random_pairs(self):
        rng = random.Random(2026)
        bound = 2**64
        for _ in range(1000):
            x = QuadInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
            y = QuadInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
            assert qi_norm(qi_mul(x, y)) == qi_norm(x) * qi_norm(y)

    @given(QUAD, QUAD)
    def test_multiplicative(self, x, y):
        assert qi_norm(qi_mul(x, y)) == qi_norm(x) * qi_norm(y)

    @given(QUAD)
    def test_nonnegative_and_definite(self, x):
        n = qi_norm(x)
        assert n >= 0
        assert (n == 0) == (x == QuadInt(0, 0))

    @given(QUAD)
    def test_x_times_conj_is_norm(self, x):
        prod = qi_mul(x, qi_conj(x))
        assert prod.v == 0
        assert prod.u == qi_norm(x)


class TestPow:
    def test_square_of_alpha(self):
        assert qi_pow(ALPHA, 2) == QuadInt(-2, 1)

    def test_cube_of_alpha_and_trace(self):
        cube = qi_pow(ALPHA, 3)
        assert cube == QuadInt(-2, -1)
        # trace of alpha^3 is 2u + v; the trace recurrence gives t_3 = -5
        assert 2 * cube.u + cube.v == -5

    def test_zeroth_power_is_one(self):
        assert qi_pow(QuadInt(9, -3), 0) == ONE

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            qi_pow(ALPHA, -1)

    @given(QUAD, st.integers(min_value=0, max_value=40))
    @settings(max_examples=60)
    def test_matches_repeated_multiplication(self, x, e):
        expected = ONE
        for _ in range(e):
            expected = qi_mul(expected, x)
        assert qi_pow(x, e) == expected

    def test_trace_two_term_recurrence(self):
        # 2u+v of alpha^k follows t_{k+1} = t_k - 2 t_{k-1}, t_0=2, t_1=1
        traces = [2 * p.u + p.v
                  for p in (qi_pow(ALPHA, k) for k in range(200))]
        assert traces[0] == 2 and traces[1] == 1
        for k in range(1, 199):
            assert traces[k + 1] == traces[k] - 2 * traces[k - 1]


class TestJkElement:
    def test_k1(self):
        e = jk_element(1)
        assert e == QuadInt(1, 2)
        assert qi_norm(e) == 11

    def test_k3(self):
        e = jk_element(3)
        assert e == QuadInt(-3, -2)
        assert qi_norm(e) == 23

    def test_k4_norm(self):
        assert qi_norm(jk_element(4)) == 67

    @pytest.mark.parametrize("k", [0, -1, -100])
    def test_rejects_nonpositive(self, k):
        with pytest.raises(ValueError):
            jk_element(k)

    def test_is_one_plus_two_alpha_k(self):
        for k in range(1, 50):
            p = qi_pow(ALPHA, k)
            assert jk_element(k) == QuadInt(1 + 2 * p.u, 2 * p.v)
