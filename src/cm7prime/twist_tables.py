"""Twist selection: the twist a and its point P_a for an index k.

Each admissible index k (k > 1, not forced composite) is assigned a
squarefree a in {-1, -5, -6, -17, -111} by the congruence class of
k mod 72, together with a fixed rational point P_a on

    E_a : y^2 = x^3 - 35 a^2 x - 98 a^3.

The rows of _ROWS are chosen so that two character conditions hold at
once for the selected a:

  * k in S_a: jacobi(a, J_k) * chi(k) = +1, where chi(k) is the quadratic
    character of j_k modulo sqrt(-7) (chi(k) = +1 iff k = 1 mod 3).  This
    pins the curve's Frobenius to j_k rather than -j_k when J_k is prime.
  * k in T_a: the point P_a avoids the image of the alpha-endomorphism,
    equivalently (delta_a / j_k) = -1 for a twist-specific element
    delta_a;  this forces P_a to have maximal 2-power order.

Only the selection ships.  The S_a and T_a tables, the characters behind
them and the check that every row lies in both sets are in
tests/test_twist_tables.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jk_sequence import forced_composite

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
