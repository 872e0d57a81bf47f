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

The "period" engine never computes the order of a root, and it reads only
the prime powers q^a of ell - 1 with q <= n + 2, so a partial
factorisation of ell - 1 is enough.  For split ell, Pohlig-Hellman fixes
k mod each q's part of the root's order, for q in ascending order while
q <= (n - x) // s, where k = x (mod s) is what is fixed so far.  Past
that point every prime of the order of g = r^s exceeds (n - x) // s, so
at most one k = x + s*j <= n is a zero, and one baby-step giant-step
search over j finds it.  Since (n - x) // s <= n, no q > n is ever read.
For inert ell a zero needs ord_ell(2) <= n + 2, and such an order has no
prime factor above n + 2.

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


def _prime_powers(m: int, spf: array, top: int) -> list[tuple[int, int]]:
    """(q, q^a) for each prime power q^a exactly dividing m with q <= top,
    ascending in q.  The factors of m above top are never looked at."""
    out = []
    while m > 1:
        q = spf[m] or m
        if q > top:
            break
        b = q
        m //= q
        while m % q == 0:
            m //= q
            b *= q
        out.append((q, b))
    return out


def _bsgs(g: int, y: int, bound: int, ell: int) -> int | None:
    """The least j in [0, bound) with g^j = y mod ell, or None.

    Baby-step giant-step, or a plain scan for small bounds.  The babies
    are y g^i for i < m and the giants g^(m t) for t >= 1, so a match is
    j = m t - i.  Every j >= 1 is m t - i for one such t and i, so the
    first t that matches holds the least j >= 1, given by the largest i
    with that baby value: the one a dict keeps, even when g's order is
    below m and babies repeat.
    """
    if bound <= 16:
        e = 1
        for j in range(bound):
            if e == y:
                return j
            e = e * g % ell
        return None
    if y == 1:
        return 0
    m = isqrt(bound - 1) + 1
    baby = {}
    e = y
    for i in range(m):
        baby[e] = i
        e = e * g % ell
    step = pow(g, m, ell)
    e = 1
    for t in range(m, bound + m - 1, m):
        e = e * step % ell
        i = baby.get(e)
        if i is not None:
            return t - i if t - i < bound else None
    return None


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a mod the odd prime p: one
    pow if p = 3 (mod 4) or p = 5 (mod 8) (Atkin), else Tonelli-Shanks."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    if p % 8 == 5:
        v = pow(2 * a, (p - 5) // 8, p)
        return a * v * (2 * a * v * v - 1) % p
    e = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2^e, q odd
    q = (p - 1) >> e
    z = 3  # 2 is a square when p = 1 (mod 8)
    while pow(z, (p - 1) // 2, p) == 1:  # the least non-residue
        z += 1
    c, x = pow(z, q, p), pow(a, q // 2, p)
    r, t = a * x % p, a * x * x % p  # a^((q+1)/2), a^q
    while t != 1:
        i, u = 0, t
        while u != 1:
            u, i = u * u % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        r, c, t, e = r * b % p, b * b % p, t * b * b % p, i
    return r


def _root_zeros(r: int, h: int, ell: int, powers: list[tuple[int, int]],
                n: int, proj: dict[int, tuple]) -> range:
    """The k in [1, n] with r^k = h mod ell, for r a root of x^2 - x + 2
    and h = -1/2.

    Pohlig-Hellman without the order of r.  powers are the (q, q^a) with
    q^a exactly dividing ell - 1, for every q <= n + 2 at least.  Take
    them in ascending q while q <= (n - x) // s, from x, s = 0, 1: project
    onto the q-part of F_ell^*, g_q = r^e and y_q = h^e with
    e = (ell - 1) / q^a.  If g_q = 1, y_q must be 1 too.  Else k mod
    o = ord(g_q) (q, unless a >= 2) is the least d < o with g_q^d = y_q,
    if any, and CRT joins it into k = x (mod s).

    proj keeps, by q^a, y_q and the g_q of the root that got there first.
    The other root r' = 2/r = -1/(h r) then needs no pow: its g_q is 1/B
    with B = (-1)^e y_q g_q, so it solves B^d = y_q and takes k = -d.

    Then with g = r^s and y = h r^-x the zeros are the k = x + s*j with
    g^j = y.  If g = 1, r has order s, and they are x, x + s, ... <= n
    exactly when y = 1.  Else every prime factor of ord(g) exceeds
    (n - x) // s: each smaller one was taken out above or never divided
    ord(r), and one never read, above n + 2, exceeds it anyway.  So
    ord(g) > (n - x) // s, at most one j in [0, (n - x) // s] has
    g^j = y, and one baby-step giant-step search finds it.
    """
    x, s = 0, 1
    for q, b in powers:
        if q > (n - x) // s:
            break
        e = (ell - 1) // b
        y, first = proj.get(b, (None, None))
        if y is None:
            y = pow(h, e, ell)
        if first is None:
            g, sign = pow(r, e, ell), 1
            proj[b] = y, g
        else:  # B = (-1)^e y_q g_q, and e is odd only for q = 2
            g, sign = (-first * y if q == 2 else first * y) % ell, -1
        if g == 1:
            if y != 1:
                return range(0)
            continue
        o = q  # the order of g, a power of q
        if b > q:
            u = pow(g, q, ell)
            while u != 1:
                o, u = o * q, pow(u, q, ell)
        d = _bsgs(g, y, o, ell)
        if d is None:
            return range(0)
        x, s = x + s * ((sign * d - x) * pow(s, -1, o) % o), s * o
    g = pow(r, s, ell)
    y = h * pow((r - 1) * h % ell, x, ell) % ell  # r^-1 = (1 - r)/2
    if g == 1:
        return range(x, n + 1, s) if y == 1 else range(0)
    j = _bsgs(g, y, (n - x) // s + 1, ell)
    return range(0) if j is None else range(x + s * j, x + s * j + 1)


def _split_zeros(ell: int, powers: list[tuple[int, int]], n: int) -> set[int]:
    """The k in [1, n] with ell | J_k, for ell split in Z[alpha].

    alpha maps to the roots r = (1 +- sqrt(-7))/2 of F_ell, and ell | J_k
    exactly when r^k = h = -1/2 for one of them (h = 1, which would make
    k = 0 a zero, only at ell = 3, which is inert).  Both roots can hit
    one k, and then ell^2 | J_k, so the zeros are the union of
    _root_zeros for each.  powers are as there: only q <= n + 2 is ever
    read.
    """
    half = (ell + 1) // 2  # 1/2 mod ell
    h = ell - half
    root = _sqrt_mod(ell - 7, ell)
    # y_2 = h^((ell-1)/2) = (-2|ell) when 4 does not divide ell - 1
    proj = {2: (1 if ell % 8 == 3 else ell - 1, None)}
    return {*_root_zeros((1 + root) * half % ell, h, ell, powers, n, proj),
            *_root_zeros((1 - root) * half % ell, h, ell, powers, n, proj)}


def _inert_zeros(ell: int, powers: list[tuple[int, int]], n: int) -> list[int]:
    """The k in [1, n] with ell | J_k, for ell inert in Z[alpha].

    In F_{ell^2}, ell | J_k exactly when alpha^k = -1/2, which needs
    2^k = N(alpha^k) = 1/4, so 2^(k+2) = 1; given that, J_k = 2 + 2t_k.
    So walk k = -2 (mod o), o = ord_ell(2), by t_{k+o} = t_o t_k - t_{k-o}
    (2^o = 1), from t_{-2} = -3/4, and keep the k with t_k = -1.

    Only o <= n + 2 gives a k in [1, n], and every prime factor of such an
    o is at most n + 2.  So o divides S, the product of powers' q^a (all
    q <= n + 2 of ell - 1): one pow rejects 2^S != 1 (Fermat's 2^S = 1
    when S = ell - 1), and else the order comes from S's factors alone,
    largest first, so a large part stops it early.
    """
    o = 1
    for _, b in powers:
        o *= b
    if o < ell - 1 and pow(2, o, ell) != 1:
        return []
    found = 1  # the order's part from the primes done so far
    for q, b in reversed(powers):
        while b > 1 and pow(2, o // q, ell) == 1:  # b: q's part in o
            o, b = o // q, b // q
        found *= b
        if found > n + 2:
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
    component of Z[alpha]/ell.  Split ell (ell mod 7 in {1, 2, 4}) go to
    _split_zeros, which counts the union of both roots' zeros, since both
    can hit one k (then ell^2 | J_k); inert ell go to _inert_zeros.  Both
    read only the prime powers of ell - 1 whose prime is at most n + 2.
    Every zero counts, J_k = ell included; sieve_range discounts those.
    """
    elim = bytearray(n + 1)
    per_prime: dict[int, int] = {}
    if not primes:
        return elim, per_prime
    spf = _least_factors(primes[-1])
    for ell in primes:
        powers = _prime_powers(ell - 1, spf, n + 2)
        split = ell % 7 in (1, 2, 4)
        zeros = (_split_zeros if split else _inert_zeros)(ell, powers, n)
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
