"""Twist/point selection and the derivation of its rows.

The package ships only select_twist and its rows (_ROWS).  The residue
tables of S_a and T_a, the characters they are read from, and the two
membership tests live here: they derive and check the rows, and no
production path calls them.
"""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cm7prime.jk_sequence import forced_composite, jk_closed
from cm7prime.refcheck import (AffinePoint, alpha_endomorphism,
                               enumerate_points, weier_scalar_mult)
from cm7prime.sieve import iter_primes
from cm7prime.twist_tables import TWISTS, jacobi_symbol, select_twist

# S_a membership by k mod m.
S_TABLE: dict[int, tuple[int, frozenset[int]]] = {
    -1: (3, frozenset({0, 2})),
    -5: (24, frozenset({0, 2, 4, 5, 7, 9, 12, 13, 16, 18, 21, 22, 23})),
    -6: (24, frozenset({3, 7, 9, 10, 11, 12, 13, 17, 20, 22})),
    -17: (144, frozenset({
        0, 1, 5, 7, 9, 10, 13, 14, 15, 18, 19, 20, 22, 23, 27, 30, 31, 33, 34,
        36, 42, 43, 44, 45, 49, 50, 53, 56, 61, 62, 63, 66, 67, 68, 70, 71,
        72, 73, 75, 76, 78, 79, 80, 81, 82, 83, 90, 91, 92, 93, 97, 99, 100,
        104, 106, 108, 110, 111, 112, 114, 117, 118, 121, 122, 123, 125,
        126, 128, 129, 133, 135, 136, 137, 138, 139, 141, 143,
    })),
    -111: (72, frozenset({
        2, 4, 6, 9, 14, 15, 18, 20, 22, 23, 25, 30, 33, 34, 35, 37, 38, 39, 41,
        42, 43, 47, 49, 50, 52, 53, 54, 55, 57, 58, 63, 65, 66, 67, 68, 70,
    })),
}

# T_a membership by k mod m; None means every k > 1 belongs.
T_TABLE: dict[int, tuple[int, frozenset[int]] | None] = {
    -1: None,
    -5: (24, frozenset({3, 4, 7, 8, 11, 13, 14, 15, 16, 17, 20, 22})),
    -6: (24, frozenset({1, 5, 10, 12, 15, 19, 20, 21, 22, 23})),
    -17: None,
    -111: (8, frozenset({1, 2, 3, 6})),
}


@dataclass(frozen=True)
class DeltaTag:
    """delta_a = rational * alpha^[alpha] * sqrt(-7)^[sqrt7], symbolically."""

    rational: int
    alpha: bool
    sqrt7: bool


DELTAS: dict[int, DeltaTag] = {
    -1: DeltaTag(1, True, False),
    -5: DeltaTag(-5, True, False),
    -6: DeltaTag(-3, False, True),
    -17: DeltaTag(1, True, False),
    -111: DeltaTag(-3, False, False),
}


def chi_sqrt_minus7(k: int) -> int:
    """Quadratic character of j_k modulo sqrt(-7), as +-1.

    alpha = 4 (mod sqrt(-7)), so j_k = 1 + 2^(2k+1) (mod 7) up to the
    identification of the residue field with Z/7.  The value only
    depends on k mod 3 (+1 iff k = 1 mod 3) because 2^3 = 1 (mod 7);
    both routes are evaluated and compared.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    val = jacobi_symbol((1 + pow(2, 2 * k + 1, 7)) % 7, 7)
    want = 1 if k % 3 == 1 else -1
    if val != want:
        raise RuntimeError(f"character table broken at k={k}: {val} vs {want}")
    return val


def _check(a: int, k: int) -> None:
    if a not in TWISTS:
        raise ValueError(f"a must be one of {TWISTS}")
    if k < 2:
        raise ValueError("k must be >= 2")


def s_membership(a: int, k: int) -> bool:
    """Whether k is in S_a, i.e. jacobi(a, J_k) * chi(k) = +1.

    A jacobi value of 0 (a shares a factor with J_k) means not a member.
    The character computation is cross-checked against the frozen
    residue table on every call.
    """
    _check(a, k)
    computed = jacobi_symbol(a, jk_closed(k).value) * chi_sqrt_minus7(k) == 1
    modulus, residues = S_TABLE[a]
    tabled = (k % modulus) in residues
    if computed != tabled:
        raise RuntimeError(f"S table disagrees with characters at a={a}, k={k}")
    return tabled


def t_membership(a: int, k: int) -> bool:
    """Whether k is in T_a, i.e. (delta_a / j_k) = -1.

    The symbol splits as jacobi(rational, J_k) times (alpha/j_k) = -1
    when delta_a carries an alpha factor.  delta_{-6} involves sqrt(-7),
    whose character is not computable this way, so for a = -6 the frozen
    table is authoritative on its own (test_minus6_against_point_order_oracle
    validates it by enumerating point orders on a small prime fibre).
    """
    _check(a, k)
    entry = T_TABLE[a]
    tabled = True if entry is None else (k % entry[0]) in entry[1]
    tag = DELTAS[a]
    if not tag.sqrt7:
        sym = jacobi_symbol(tag.rational, jk_closed(k).value)
        if tag.alpha:
            sym = -sym  # (alpha / j_k) = -1 for all k > 1
        computed = sym == -1
        if computed != tabled:
            raise RuntimeError(f"T table disagrees with characters at a={a}, k={k}")
    return tabled


class TestSelectTwist:
    def test_k2(self):
        choice = select_twist(2)
        assert (choice.a, choice.point) == (-1, (1, 8))

    def test_k49(self):
        choice = select_twist(49)
        assert (choice.a, choice.point) == (-17, (81, 440))

    @pytest.mark.parametrize("k,a,point", [
        (3, -1, (1, 8)),       # 3 = 0 mod 3
        (5, -1, (1, 8)),       # 5 = 2 mod 3
        (4, -5, (15, 50)),
        (7, -5, (15, 50)),
        (13, -5, (15, 50)),
        (22, -5, (15, 50)),
        (10, -6, (21, 63)),
        (34, -6, (21, 63)),    # 34 = 10 mod 24
        (19, -17, (81, 440)),
        (67, -17, (81, 440)),
        (73, -17, (81, 440)),  # 73 = 1 mod 72
        (25, -111, (-633, 12384)),
        (43, -111, (-633, 12384)),
        (115, -111, (-633, 12384)),
    ])
    def test_row_assignments(self, k, a, point):
        choice = select_twist(k)
        assert (choice.a, choice.point) == (a, point)

    @pytest.mark.parametrize("k", [8, 16, 24, 6, 30, 54])
    def test_excluded_k_rejected(self, k):
        with pytest.raises(ValueError):
            select_twist(k)

    @pytest.mark.parametrize("k", [1, 0, -5])
    def test_small_k_rejected(self, k):
        with pytest.raises(ValueError):
            select_twist(k)

    def test_partition_over_range(self):
        # every admissible k matches exactly one congruence row
        for k in range(2, 10**4 + 1):
            if forced_composite(k):
                with pytest.raises(ValueError):
                    select_twist(k)
            else:
                choice = select_twist(k)
                assert choice.a in TWISTS

    def test_points_satisfy_curve_equation_exactly(self):
        seen = set()
        for k in range(2, 200):
            if forced_composite(k):
                continue
            choice = select_twist(k)
            if choice.a in seen:
                continue
            seen.add(choice.a)
            (x0, y0), a = choice.point, choice.a
            assert y0 * y0 == x0**3 - 35 * a * a * x0 - 98 * a**3
        assert seen == set(TWISTS)


class TestJacobiSymbol:
    def test_minus_one_is_never_a_square_mod_jk(self):
        for k in range(2, 51):
            assert jacobi_symbol(-1, jk_closed(k).value) == -1

    def test_two_follows_parity_of_k(self):
        for k in range(3, 51):
            expected = 1 if k % 2 == 1 else -1
            assert jacobi_symbol(2, jk_closed(k).value) == expected

    def test_five_mod_eleven(self):
        assert jacobi_symbol(5, 11) == 1
        assert {x * x % 11 for x in range(1, 11)} == {1, 3, 4, 5, 9}

    @pytest.mark.parametrize("n", [0, -3, 4, 10])
    def test_rejects_even_or_nonpositive_modulus(self, n):
        with pytest.raises(ValueError):
            jacobi_symbol(3, n)

    def test_euler_criterion_on_odd_primes(self):
        # independent oracle: (m/p) = m^((p-1)/2) mod p for odd prime p
        for p in iter_primes(150):
            if p == 2:
                continue
            for m in range(-p, 2 * p + 1):
                e = pow(m % p, (p - 1) // 2, p)
                expected = {0: 0, 1: 1, p - 1: -1}[e]
                assert jacobi_symbol(m, p) == expected, (m, p)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_multiplicative_in_numerator(self, m1, m2, half):
        n = 2 * half + 1
        assert (jacobi_symbol(m1 * m2, n)
                == jacobi_symbol(m1, n) * jacobi_symbol(m2, n))

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    @settings(max_examples=300)
    def test_periodic_in_numerator(self, m, half):
        n = 2 * half + 1
        assert jacobi_symbol(m, n) == jacobi_symbol(m + n, n)

    def test_matches_one_bit_at_a_time_halving(self):
        # the reference strips factors of two one halving per loop; the
        # implementation strips them all with one shift
        def by_halving(m, n):
            m %= n
            result = 1
            while m:
                while m % 2 == 0:
                    m //= 2
                    if n % 8 in (3, 5):
                        result = -result
                m, n = n, m
                if m % 4 == 3 and n % 4 == 3:
                    result = -result
                m %= n
            return result if n == 1 else 0

        rng = random.Random(0x1AC0)
        for _ in range(20000):
            n = rng.randrange(1, 1 << rng.randrange(1, 300)) | 1
            m = rng.randrange(-(1 << 300), 1 << 300) << rng.randrange(0, 40)
            assert jacobi_symbol(m, n) == by_halving(m, n), (m, n)

    def test_zero_iff_common_factor(self):
        assert jacobi_symbol(6, 9) == 0
        assert jacobi_symbol(0, 7) == 0
        assert jacobi_symbol(0, 1) == 1  # empty product convention


class TestChiSqrtMinus7:
    @pytest.mark.parametrize("k,value", [(4, 1), (3, -1), (7, 1), (1, 1),
                                         (2, -1), (6, -1)])
    def test_examples(self, k, value):
        assert chi_sqrt_minus7(k) == value

    def test_closed_form_is_k_mod_3(self):
        for k in range(1, 300):
            assert chi_sqrt_minus7(k) == (1 if k % 3 == 1 else -1)

    def test_jacobi_route_agrees(self):
        # the character evaluates (1 + 2^(2k+1)) at the prime 7
        for k in range(1, 100):
            assert chi_sqrt_minus7(k) == jacobi_symbol(1 + 2**(2 * k + 1), 7)


class TestSMembership:
    def test_examples(self):
        assert s_membership(-1, 2) is True
        assert s_membership(-1, 4) is False
        assert s_membership(-5, 5) is True

    def test_recomputation_matches_static_tables(self):
        # dual route: Jacobi-symbol product vs the frozen residue tables
        for k in range(2, 2 * 144 + 1):
            jk = jk_closed(k).value
            for a in TWISTS:
                character = jacobi_symbol(a, jk) * chi_sqrt_minus7(k) == 1
                modulus, residues = S_TABLE[a]
                assert s_membership(a, k) == character == (k % modulus in residues), (a, k)

    def test_rejects_unknown_twist(self):
        with pytest.raises(ValueError):
            s_membership(-2, 5)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            s_membership(-1, 1)


class TestTMembership:
    def test_examples(self):
        assert t_membership(-1, 1000) is True
        assert t_membership(-111, 4) is False
        assert t_membership(-5, 3) is True

    def test_always_true_for_minus1_and_minus17(self):
        assert T_TABLE[-1] is None and T_TABLE[-17] is None
        for k in range(2, 300):
            assert t_membership(-1, k) and t_membership(-17, k)

    def test_minus5_character_recomputation(self):
        # delta for a=-5 is -5*alpha; with (alpha/j_k) = -1 the membership
        # condition (delta/j_k) = -1 becomes (-5/J_k) = +1
        modulus, residues = T_TABLE[-5]
        for k in range(2, 201):
            character = jacobi_symbol(-5, jk_closed(k).value) == 1
            assert t_membership(-5, k) == character == (k % modulus in residues), k

    def test_minus111_character_recomputation(self):
        # delta for a=-111 is the rational -3, so membership is simply
        # (-3/J_k) = -1; cross-checked against the frozen mod-8 residues
        modulus, residues = T_TABLE[-111]
        assert (modulus, residues) == (8, frozenset({1, 2, 3, 6}))
        for k in range(2, 201):
            character = jacobi_symbol(-3, jk_closed(k).value) == -1
            assert t_membership(-111, k) == character == (k % modulus in residues), k

    def test_minus6_table_lookup(self):
        modulus, residues = T_TABLE[-6]
        assert modulus == 24
        for k in range(2, 201):
            assert t_membership(-6, k) == (k % modulus in residues)

    def test_minus6_against_point_order_oracle(self):
        # k=10 (J=4211 prime, twist -6): membership promises the chosen
        # point avoids the image of the degree-2 CM endomorphism, which
        # together with the rest of the machinery forces maximal 2-power
        # order.  The two square roots of -7 mod p give the two conjugate
        # endomorphisms; a maximal-order point lies in the image of
        # exactly one of them, so the avoided image identifies the
        # intended conjugate.  Checked by exhausting the group.
        assert t_membership(-6, 10) is True
        p = 4211
        d = pow(7, (p + 1) // 4, p)
        assert d * d % p == p - 7
        P = AffinePoint(*select_twist(10).point)
        points = list(enumerate_points(-6, p))
        assert len(points) == 4096  # full group order 2^12
        image_d = {alpha_endomorphism(q, -6, d, p) for q in points}
        image_conj = {alpha_endomorphism(q, -6, (-d) % p, p) for q in points}
        assert len(image_d) == len(image_conj) == 2048  # index-2 subgroups
        assert P not in image_conj
        assert P in image_d  # exactly one conjugate image avoided
        # the promised consequence: order exactly 2^(k+1) = 2^11
        assert weier_scalar_mult(2**11, P, -6, p) is None
        assert weier_scalar_mult(2**10, P, -6, p) is not None


class TestDeltaTags:
    def test_shape(self):
        assert set(DELTAS) == set(TWISTS)
        assert DELTAS[-1].alpha and DELTAS[-1].rational == 1
        assert DELTAS[-5].alpha and DELTAS[-5].rational == -5
        assert DELTAS[-6].sqrt7 and DELTAS[-6].rational == -3
        assert DELTAS[-17].alpha and DELTAS[-17].rational == 1
        assert DELTAS[-111].rational == -3
        assert not DELTAS[-111].alpha and not DELTAS[-111].sqrt7


class TestSAndTConsistency:
    def test_selected_twist_lies_in_both_sets(self):
        # the selection table was assembled so that the chosen a has
        # k in S_a and k in T_a for every admissible k
        for k in range(2, 2001):
            if forced_composite(k):
                continue
            a = select_twist(k).a
            assert s_membership(a, k), k
            assert t_membership(a, k), k
