"""The J_k sequence: closed form, recurrence, residues, periods."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm7prime.jk_sequence import (RECURRENCE, SEEDS, forced_composite,
                                  jk_closed, jk_mod_stream, jk_stream,
                                  period_mod, trace, trace_mod)
from cm7prime.refcheck import trial_division
from cm7prime.sieve import iter_primes
from cm7prime.twist_tables import jacobi_symbol
from quad_ring import ALPHA, jk_element, qi_norm, qi_pow


class TestClosedForm:
    @pytest.mark.parametrize("k,value", [
        (1, 11), (2, 11), (3, 23), (4, 67), (5, 151), (7, 487),
        (9, 2039), (10, 4211), (17, 524087), (18, 1046579),
    ])
    def test_known_values(self, k, value):
        jv = jk_closed(k)
        assert (jv.k, jv.value) == (k, value)

    def test_k6_factors(self):
        assert jk_closed(6).value == 275
        assert trial_division(275, 100) == 5
        assert 275 == 5 * 5 * 11

    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_nonpositive(self, k):
        with pytest.raises(ValueError):
            jk_closed(k)

    def test_agrees_with_quadratic_ring_norm(self):
        for k in [*range(1, 120), 3779, 2**14 + 1]:
            assert jk_closed(k).value == qi_norm(jk_element(k)), k

    def test_norm_from_the_ladder(self):
        # 1 + 2*alpha^k = (1 + t_k - v) + 2v*alpha with v = U_k, the
        # identity behind demo 01 and certificate._cm_sqrt_minus7
        for k in [*range(1, 301), 3779, 2**14 + 1]:
            t, t_next = trace_mod(k)
            assert (t - 2 * t_next) % 7 == 0, k
            v = (t - 2 * t_next) // 7
            u, w = 1 + t - v, 2 * v
            assert u * u + u * w + 2 * w * w == jk_closed(k).value, k

    def test_trace_plus_power_of_two_shape(self):
        for k in [*range(1, 80), 3779, 2**14 + 1]:
            p = qi_pow(ALPHA, k)
            t_k = 2 * p.u + p.v
            assert trace(k) == t_k, k
            assert jk_closed(k).value == 1 + 2 * t_k + (1 << (k + 2))

    def test_closed_form_matches_the_recurrence_to_2000(self):
        # trace is the Lucas ladder; the stream is the recurrence
        for jv in jk_stream(2000):
            assert jk_closed(jv.k).value == jv.value, jv.k

    @pytest.mark.parametrize("m", [None, 2, 3, 11, 340337, 2**61 - 1])
    def test_trace_mod_ladder_matches_trace(self, m):
        # the independent route: alpha^k = u + v*alpha in Z[alpha] gives
        # t_k = 2u + v
        traces = [2 * p.u + p.v for p in (qi_pow(ALPHA, k) for k in range(301))]
        if m is not None:
            traces = [t % m for t in traces]
        for k in range(300):
            assert trace_mod(k, m) == (traces[k], traces[k + 1]), k


class TestStream:
    def test_seeds(self):
        assert SEEDS == (11, 11, 23, 67)
        assert [jv.value for jv in jk_stream(4)] == [11, 11, 23, 67]
        assert [jv.value for jv in jk_stream(2)] == [11, 11]

    def test_fifth_element_from_recurrence(self):
        values = [jv.value for jv in jk_stream(5)]
        assert values[4] == 151
        assert values[4] == 4 * 67 - 7 * 23 + 8 * 11 - 4 * 11

    def test_recurrence_coefficients(self):
        assert RECURRENCE == (4, -7, 8, -4)

    def test_element_eleven(self):
        values = {jv.k: jv.value for jv in jk_stream(11)}
        assert values[11] == 8327
        assert values[11] == jk_closed(11).value
        assert trial_division(8327, 1000) == 11
        assert 8327 == 11 * 757

    def test_stream_equals_closed_form_to_64(self):
        for jv in jk_stream(64):
            assert jv.value == jk_closed(jv.k).value

    def test_indices_are_sequential(self):
        assert [jv.k for jv in jk_stream(20)] == list(range(1, 21))


class TestModStream:
    def test_mod_7_is_2_or_4(self):
        for k, residue in enumerate(jk_mod_stream(7, 200), start=1):
            assert residue == (2 if k % 3 == 0 else 4)

    def test_mod_3_vanishes_exactly_at_multiples_of_8(self):
        for k, residue in enumerate(jk_mod_stream(3, 200), start=1):
            assert (residue == 0) == (k % 8 == 0)

    def test_mod_11_zeros(self):
        zeros = [k for k, residue in enumerate(jk_mod_stream(11, 20), start=1)
                 if residue == 0]
        assert zeros == [1, 2, 6, 11, 12, 16]
        assert list(jk_mod_stream(11, 3)) == [0, 0, 1]  # shorter than the seeds
        # confirm against exact values: 11 | J_k exactly at these k <= 20
        for k in range(1, 21):
            assert (jk_closed(k).value % 11 == 0) == (k in zeros)

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            list(jk_mod_stream(2, 10))

    def test_matches_closed_form_all_small_primes(self):
        for ell in (p for p in iter_primes(100) if p != 2):
            residues = list(jk_mod_stream(ell, 1000))
            for k in range(1, 1001):
                assert residues[k - 1] == jk_closed(k).value % ell, (ell, k)


class TestPeriod:
    def test_rejects_two(self):
        with pytest.raises(ValueError):
            period_mod(2)

    def test_period_really_repeats(self):
        for p in (3, 5, 11, 13, 17, 23, 37):
            m = period_mod(p)
            residues = list(jk_mod_stream(p, 3 * m))
            assert residues[:m] == residues[m:2 * m] == residues[2 * m:]
            # and m is minimal: no shorter shift maps the sequence onto itself
            for candidate in range(1, m):
                repeated = (residues[:candidate] * (3 * m // candidate + 1))
                if repeated[:3 * m] == residues:
                    pytest.fail(f"period {candidate} < {m} for p={p}")

    def test_divides_p_squared_minus_one(self):
        for p in iter_primes(200):
            if p in (2, 7):
                continue
            m = period_mod(p)
            assert (p * p - 1) % m == 0, p
            if jacobi_symbol(-7, p) == 1:
                assert (p - 1) % m == 0, p


class TestWindowDeterminant:
    def test_four_by_four_hankel_determinant(self):
        j = {k: jk_closed(k).value for k in range(1, 8)}
        matrix = [[j[i + col - 1] for col in range(1, 5)]
                  for i in range(1, 5)]

        def det(m):
            if len(m) == 1:
                return m[0][0]
            total = 0
            for col in range(len(m)):
                minor = [row[:col] + row[col + 1:] for row in m[1:]]
                total += (-1) ** col * m[0][col] * det(minor)
            return total

        assert det(matrix) == -(2**12) * 7 == -28672


class TestResiduesMod8:
    def test_three_for_even_seven_for_odd(self):
        for k in range(2, 500):
            expected = 3 if k % 2 == 0 else 7
            assert jk_closed(k).value % 8 == expected


class TestForcedComposite:
    def test_k8(self):
        assert forced_composite(8)

    def test_k30(self):
        assert forced_composite(30)
        assert 30 % 24 == 6

    def test_k7(self):
        assert not forced_composite(7)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200)
    def test_congruence_definition(self, k):
        assert forced_composite(k) == (k % 8 == 0 or k % 24 == 6)

    def test_matches_actual_divisibility(self):
        # the flagged k are exactly those with 3 | J_k or 5 | J_k
        for k in range(1, 500):
            v = jk_closed(k).value
            assert forced_composite(k) == (v % 3 == 0 or v % 5 == 0)
