"""The integer sequence J_k = N(1 + 2*alpha^k) and its congruence structure.

Writing t_k = alpha^k + conj(alpha)^k (the trace sequence, t_0 = 2, t_1 = 1,
t_{k+1} = t_k - 2*t_{k-1}), expanding the norm gives the closed form

    J_k = 1 + 2*t_k + 2^(k+2).

J_k satisfies the linear recurrence

    J_{k+4} = 4*J_{k+3} - 7*J_{k+2} + 8*J_{k+1} - 4*J_k

with seeds J_1..J_4 = 11, 11, 23, 67 (characteristic polynomial
(x - 1)(x - 2)(x^2 - x + 2)).  _recurrence is its one implementation: the
streams, the period finder and the streaming sieve engines take J_k mod ell
from it.  trace_mod is the one implementation of a single t_k, a Lucas
ladder, exact or mod m: jk_closed, the certificate's CM root and the
discrete-log sieve engine take t_k from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

RECURRENCE = (4, -7, 8, -4)  # J_{k+4} = 4 J_{k+3} - 7 J_{k+2} + 8 J_{k+1} - 4 J_k
SEEDS = (11, 11, 23, 67)  # J_1, J_2, J_3, J_4


@dataclass(frozen=True)
class JkValue:
    k: int
    value: int


def trace(k: int) -> int:
    """t_k = alpha^k + conj(alpha)^k, exactly, from trace_mod.  k >= 0."""
    return trace_mod(k)[0]


def trace_mod(k: int, m: int | None = None) -> tuple[int, int]:
    """(t_k, t_{k+1}) by a Lucas ladder in O(log k) steps, mod m if given.

    t is the Lucas V sequence with P = 1, Q = 2, so from (V_j, V_{j+1}, Q^j)
    a bit of k gives V_{2j} = V_j^2 - 2Q^j, V_{2j+1} = V_j V_{j+1} - Q^j and
    V_{2j+2} = V_{j+1}^2 - 2Q^{j+1}; Q^j is a power of two, cheap to
    multiply even unreduced.  Defined for k >= 0 and m >= 2.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    v, w, q = 2, 1, 1  # V_j, V_{j+1}, Q^j with j = 0
    for bit in bin(k)[2:]:
        if bit == "1":
            v, w, q = v * w - q, w * w - 4 * q, 2 * q * q
        else:
            v, w, q = v * v - 2 * q, v * w - q, q * q
        if m is not None:
            v, w, q = v % m, w % m, q % m
    return v, w


def jk_closed(k: int) -> JkValue:
    """J_k by the closed form 1 + 2*t_k + 2^(k+2).  k must be >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return JkValue(k, 1 + 2 * trace(k) + (1 << (k + 2)))


def _recurrence(k_max: int, m=None) -> Iterator:
    """Yield J_1, ..., J_{k_max}, reduced mod m when m is given.

    m may be an int or an array of moduli (the numpy sieve's int64 array).
    """
    c3, c2, c1, c0 = RECURRENCE
    a, b, c, d = SEEDS if m is None else (s % m for s in SEEDS)
    yield from (a, b, c, d)[:k_max]  # no name keeps the seeds alive
    for _ in range(k_max - 4):
        nxt = c3 * d + c2 * c + c1 * b + c0 * a
        if m is not None:
            nxt %= m
        a, b, c, d = b, c, d, nxt
        yield nxt


def jk_stream(k_max: int) -> Iterator[JkValue]:
    """Yield JkValue(1), ..., JkValue(k_max) via the four-term recurrence."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    for k, value in enumerate(_recurrence(k_max), start=1):
        yield JkValue(k, value)


def jk_mod_stream(ell: int, k_max: int) -> Iterator[int]:
    """Yield J_1, ..., J_{k_max} reduced mod ell, streaming the recurrence.

    ell must be odd and >= 3: mod 2 the recurrence degenerates (every J_k
    is odd anyway) and the callers only ever sieve by odd primes.
    """
    if ell < 3 or ell % 2 == 0:
        raise ValueError("ell must be odd and >= 3")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    yield from _recurrence(k_max, ell)


def period_mod(p: int) -> int:
    """Least m >= 1 with J_{k+m} = J_k (mod p) for all k, for odd prime p.

    The sequence mod p is purely periodic: the 4x4 window matrix of
    consecutive values has determinant -2^12 * 7, a unit mod p for every
    p other than 2 and 7, and for p = 7 the states still recur (period 3).
    The cap slightly above p^4 is defensive: the true period divides
    p^2 - 1 whenever p is an odd prime not 7.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be odd and >= 3")
    cap = p * p * p * p + 8
    seeds = tuple(s % p for s in SEEDS)
    window = ()  # the last four residues
    for k, residue in enumerate(_recurrence(cap, p), start=1):
        window = window[-3:] + (residue,)
        if window == seeds and k > 4:
            return k - 4
    raise RuntimeError(f"no period found mod {p} within {cap} steps")


def forced_composite(k: int) -> bool:
    """True when a fixed small prime forces J_k composite.

    3 | J_k exactly when k = 0 (mod 8), and 5 | J_k exactly when
    k = 6 (mod 24).  Every member of both families exceeds its small
    divisor (the smallest are J_6 = 275 = 25 * 11 and J_8 = 963 = 9 * 107),
    so these k can be rejected before any modular arithmetic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return k % 8 == 0 or k % 24 == 6
