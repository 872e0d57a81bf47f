"""Twist selection and the quadratic character tables behind it.

Each admissible index k (k > 1, not forced composite) is assigned a
squarefree a in {-1, -5, -6, -17, -111} by the congruence class of
k mod 72, together with a fixed rational point P_a on

    E_a : y^2 = x^3 - 35 a^2 x - 98 a^3.

The choice is engineered so that two character conditions hold at once:

  * k in S_a: jacobi(a, J_k) * chi(k) = +1, where chi(k) is the quadratic
    character of j_k modulo sqrt(-7) (chi(k) = +1 iff k = 1 mod 3).  This
    pins the curve's Frobenius to j_k rather than -j_k when J_k is prime.
  * k in T_a: the point P_a avoids the image of the alpha-endomorphism,
    equivalently (delta_a / j_k) = -1 for a twist-specific element
    delta_a;  this forces P_a to have maximal 2-power order.

Membership in S_a and T_a is recomputed from the characters on every
call and checked against frozen residue tables; a mismatch means memory
corruption or a broken jacobi implementation, not a composite input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jk_sequence import forced_composite, jk_closed

TWISTS = (-1, -5, -6, -17, -111)


@dataclass(frozen=True)
class TwistChoice:
    a: int
    point: tuple[int, int]


# (modulus, residues of k, a, P_a);  rows partition the admissible k.
_ROWS = (
    (3, frozenset({0, 2}), -1, (1, 8)),
    (24, frozenset({4, 7, 13, 22}), -5, (15, 50)),
    (24, frozenset({10}), -6, (21, 63)),
    (72, frozenset({1, 19, 49, 67}), -17, (81, 440)),
    (72, frozenset({25, 43}), -111, (-633, 12384)),
)


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


def jacobi_symbol(m: int, n: int) -> int:
    """Jacobi symbol (m/n) for odd positive n; returns -1, 0 or 1."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be positive and odd")
    m %= n
    result = 1
    while m:
        z = (m & -m).bit_length() - 1  # the factors of two, in one shift
        m >>= z
        if z & 1 and n % 8 in (3, 5):
            result = -result
        m, n = n, m
        if m % 4 == 3 and n % 4 == 3:
            result = -result
        m %= n
    return result if n == 1 else 0


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
    table is authoritative on its own (it is validated independently in
    the test suite by enumerating point orders on a small prime fibre).
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


def select_twist(k: int) -> TwistChoice:
    """Pick the twist row for an admissible k.

    Raises ValueError for k < 2 and for forced-composite k (k = 0 mod 8
    or 6 mod 24): those indices never reach curve arithmetic, and no row
    covers them.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if forced_composite(k):
        raise ValueError(f"k={k} is forced composite; no twist is assigned")
    for modulus, residues, a, point in _ROWS:
        if k % modulus in residues:
            return TwistChoice(a, point)
    raise RuntimeError(f"twist rows failed to cover k={k}")  # unreachable
