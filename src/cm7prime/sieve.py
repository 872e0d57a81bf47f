"""Eliminate k in [1, n] whose J_k has a small prime factor.

Every odd prime ell <= L other than 7 is a sieving prime (2 and 7 never
divide J_k).  The engines mark and count every zero of J_k mod ell;
sieve_range alone applies the guard J_k > ell, discounting the zero at
J_k = ell (ell | J_k <= ell forces it), so a prime J_k is never sieved
out by itself.  Indices with J_k <= L are reported separately so a
caller can test them directly.

Three engines find bit-identical zeros and counts:

  * "python": streams J_k mod ell from jk_sequence's recurrence, one
    prime at a time (the reference), O(n) per prime;
  * "period": discrete logarithms.  ell | J_k = N(1 + 2 alpha^k) exactly
    when alpha^k = -1/2 in a component of Z[alpha]/ell, so each prime's
    zeros form at most two progressions, found by Pohlig-Hellman and one
    baby-step giant-step search over [1, n] (split ell) or by a walk over
    the k with 2^(k+2) = 1 (inert ell): polylog(ell) plus O(sqrt n) or
    O(n / ord_ell 2) per prime;
  * "numpy": the recurrence stream with an array of all primes as the
    modulus, O(n) vector steps.

The default is "period" at every size.  "numpy", the package's one import
of numpy, runs only when named: the benchmark's engine tour still times
it, and it goes with that tour (ROADMAP item 3).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import Iterator

from .jk_sequence import _recurrence, jk_mod_stream, jk_stream, trace_mod


@dataclass(frozen=True)
class SieveReport:
    n: int
    limit: int
    survivor_mask: bytes  # indexed by k, entry 1 = survivor; index 0 unused
    per_prime: dict[int, int]  # raw hit counts; primes with zero hits omitted
    small_j_list: tuple[int, ...]  # k with J_k <= limit


def iter_primes(limit: int) -> Iterator[int]:
    """All primes <= limit by a segmented sieve over the odd numbers.

    The odd sieving primes up to sqrt(limit) come from the same sieve one
    level down.  A segment holds max(sqrt(limit), 2^16) odd numbers, so
    memory stays O(sqrt(limit)).
    """
    if limit < 2:
        return
    yield 2
    root = isqrt(limit)
    base = list(iter_primes(root))[1:]
    span = max(root, 1 << 16)
    for lo in range(3, limit + 1, 2 * span):
        odds = range(lo, min(lo + 2 * span - 1, limit + 1), 2)
        flags = bytearray([1]) * len(odds)  # flags[i] stands for odds[i]
        for p in base:
            # the first odd multiple of p that is >= lo and >= p^2
            j = (max(p * p, (-(-lo // p) | 1) * p) - lo) // 2
            flags[j::p] = bytes(len(range(j, len(odds), p)))
        yield from compress(odds, flags)


def _small_j(n: int, limit: int) -> dict[int, int]:
    """{k: J_k for J_k <= limit}, in k order.  J_k is non-decreasing."""
    small: dict[int, int] = {}
    for jv in jk_stream(n):
        if jv.value > limit:
            break
        small[jv.k] = jv.value
    return small


def _engine_python(n: int, primes: list[int]) -> tuple[bytearray, dict[int, int]]:
    elim = bytearray(n + 1)
    per_prime: dict[int, int] = {}
    for ell in primes:
        hits = 0
        for k, residue in enumerate(jk_mod_stream(ell, n), start=1):
            if residue == 0:
                hits += 1
                elim[k] = 1
        if hits:
            per_prime[ell] = hits
    return elim, per_prime


def _least_factors(top: int) -> array:
    """spf[m] = the least prime factor of m for m <= top when that factor is
    <= sqrt(top), else 0 (m is 1 or a prime)."""
    root = isqrt(top)
    spf = array("H" if root < 1 << 16 else "I", [0]) * (top + 1)
    for p in reversed(list(iter_primes(root))):  # smaller p overwrite larger
        count = len(range(p * p, top + 1, p))
        spf[p * p::p] = array(spf.typecode, [p]) * count
    return spf


def _factors(m: int, spf: array) -> list[int]:
    """The prime factors of m, ascending, with multiplicity."""
    out = []
    while m > 1:
        p = spf[m] or m
        out.append(p)
        m //= p
    return out


def _order(g: int, ell: int, factors: list[int],
           cap: int | None = None) -> int | None:
    """The multiplicative order of g mod ell, or None once it exceeds cap.

    factors are those of ell - 1 with multiplicity.  Taken largest first,
    each either leaves o or joins found, a divisor of the order, so a
    small cap stops after the large factors.
    """
    o, found = ell - 1, 1
    for q in reversed(factors):
        if pow(g, o // q, ell) == 1:
            o //= q
        else:
            found *= q
            if cap is not None and found > cap:
                return None
    return o


def _bsgs(g: int, y: int, bound: int, ell: int) -> int | None:
    """The least j in [0, bound) with g^j = y mod ell, or None.

    Baby-step giant-step, or a plain scan for small bounds; g's order
    must be at least bound.
    """
    if bound <= 16:
        e = 1
        for j in range(bound):
            if e == y:
                return j
            e = e * g % ell
        return None
    m = isqrt(bound - 1) + 1
    baby = {}
    e = 1
    for i in range(m):
        baby[e] = i
        e = e * g % ell
    giant = pow(g, -m, ell)
    for t in range(0, bound, m):
        i = baby.get(y)
        if i is not None:
            return t + i if t + i < bound else None
        y = y * giant % ell
    return None


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a mod the odd prime p
    (Tonelli-Shanks)."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    e = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2^e, q odd
    q = (p - 1) >> e
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:  # the least non-residue
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, u = 0, t
        while u != 1:
            u, i = u * u % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        r, c, t, e = r * b % p, b * b % p, t * b * b % p, i
    return r


def _split_zeros(r: int, h: int, ell: int, factors: list[int],
                 n: int) -> range:
    """The k in [1, n] with r^k = h mod ell: k0, k0 + o, ... with o the
    order of r, or none.

    Pohlig-Hellman: with k0 = x + s*j, g = r^s of order m = o/s and
    y = h*r^-x = g^j, each prime q | m in ascending order fixes j mod b,
    b the power of q in m, and moves b from m to s.  Once q exceeds the
    j that still give k0 <= n, one baby-step giant-step search over those
    j finishes.
    """
    o = _order(r, ell, factors)
    if o < ell - 1 and pow(h, o, ell) != 1:  # h is outside <r>
        return range(0)
    x, s, g, y, m = 0, 1, r, h, o
    for q in factors:
        if m % q:
            continue
        if q > (n - x) // s:
            break
        b = q  # the whole power of q in m, found in one search
        while m % (b * q) == 0:
            b *= q
        m //= b
        d = _bsgs(pow(g, m, ell), pow(y, m, ell), b, ell)
        x, s = x + s * d, s * b
        y = y * pow(g, -d, ell) % ell
        g = pow(g, b, ell)
    j = _bsgs(g, y, min(m, (n - x) // s + 1), ell)
    return range(0) if j is None else range(x + s * j, n + 1, o)


def _inert_zeros(ell: int, factors: list[int], n: int) -> list[int]:
    """The k in [1, n] with ell | J_k, for ell inert in Z[alpha].

    In F_{ell^2}, ell | J_k exactly when alpha^k = -1/2, which needs
    2^k = N(alpha^k) = 1/4, so 2^(k+2) = 1; given that, J_k = 2 + 2t_k.
    So walk k = -2 (mod o), o = ord_ell(2), by t_{k+o} = t_o t_k - t_{k-o}
    (2^o = 1), from t_{-2} = -3/4, and keep the k with t_k = -1.
    """
    o = _order(2, ell, factors, n + 2)
    if o is None:
        return []
    k = o - 2
    t, t_next = trace_mod(k, ell)
    v = (t_next - 2 * t) % ell  # t_o = t_{k+2}
    prev = -3 * pow(4, -1, ell) % ell
    zeros = []
    while k <= n:
        if t == ell - 1 and k:
            zeros.append(k)
        t, prev = (v * t - prev) % ell, t
        k += o
    return zeros


def _engine_period(n: int, primes: list[int]) -> tuple[bytearray, dict[int, int]]:
    """Zeros of J_k mod ell by discrete logarithms in Z[alpha]/ell.

    ell | J_k = N(1 + 2 alpha^k) exactly when alpha^k = -1/2 in one
    component of Z[alpha]/ell.  For split ell (ell mod 7 in {1, 2, 4})
    alpha maps to the roots (1 +- sqrt(-7))/2 in F_ell, and each gives at
    most one progression k0 + j*o; their union is counted, since both can
    hit one k (then ell^2 | J_k).  For inert ell, _inert_zeros walks the
    candidates.  Every zero counts, J_k = ell included; sieve_range
    discounts those.
    """
    elim = bytearray(n + 1)
    per_prime: dict[int, int] = {}
    if not primes:
        return elim, per_prime
    spf = _least_factors(primes[-1])
    for ell in primes:
        factors = _factors(ell - 1, spf)
        if ell % 7 in (1, 2, 4):
            half = (ell + 1) // 2  # 1/2 mod ell
            root = _sqrt_mod(ell - 7, ell)
            zeros = set().union(*(
                _split_zeros((1 + sign * root) * half % ell, ell - half, ell,
                             factors, n) for sign in (1, -1)))
        else:
            zeros = _inert_zeros(ell, factors, n)
        for k in zeros:
            elim[k] = 1
        if zeros:
            per_prime[ell] = len(zeros)
    return elim, per_prime


def _engine_numpy(n: int, primes: list[int]) -> tuple[bytearray, dict[int, int]]:
    import numpy as np

    elim = bytearray(n + 1)
    P = np.array(primes, dtype=np.int64)
    counts = np.zeros(len(P), dtype=np.int64)
    for k, residues in enumerate(_recurrence(n, P), start=1):
        hit = residues == 0
        if hit.any():
            elim[k] = 1
            counts += hit
    per_prime = {int(p): int(c) for p, c in zip(primes, counts) if c}
    return elim, per_prime


_ENGINES = {
    "python": _engine_python,
    "period": _engine_period,
    "numpy": _engine_numpy,
}


def sieve_range(n: int, L: int, engine: str = "period") -> SieveReport:
    """Sieve [1, n] by all odd primes ell <= L other than 7.

    n must be >= 4.  L = 2 is allowed and eliminates nothing.  The guard
    J_k > ell keeps any k whose J_k equals the sieving prime; k with
    J_k <= L land in small_j_list for the caller to test directly.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    if L < 2:
        raise ValueError("L must be >= 2")
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    primes = [p for p in iter_primes(L) if p not in (2, 7)]
    small = _small_j(n, L)
    elim, per_prime = _ENGINES[engine](n, primes)
    # the guard J_k > ell: J_k is in per_prime exactly when it is itself a
    # sieving prime, and its zero at k is then J_k, not a proper factor
    for k, jk in small.items():
        if jk in per_prime:
            elim[k] = 0
            per_prime[jk] -= 1
            if not per_prime[jk]:
                del per_prime[jk]
    mask = bytes(1) + elim[1:].translate(bytes.maketrans(b"\0\1", b"\1\0"))
    return SieveReport(n, L, mask, per_prime, tuple(small))


def survivors(report: SieveReport) -> list[int]:
    """The k in [1, n] not eliminated, ascending."""
    return [k for k in range(1, report.n + 1) if report.survivor_mask[k]]
