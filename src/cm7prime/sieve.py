"""Eliminate k in [1, n] whose J_k has a small prime factor.

For each odd prime ell <= L (2 and 7 never divide J_k), stream
J_k mod ell from jk_sequence's recurrence.  The engines mark and count
every zero; sieve_range alone applies the guard J_k > ell, discounting
the zero at J_k = ell (ell | J_k <= ell forces it), so a prime J_k is
never sieved out by itself.  Indices with J_k <= L are reported
separately so a caller can test them directly.

Three engines find bit-identical zeros and counts:

  * "python": the literal jk_mod_stream per prime (reference),
  * "period": replicates the zero pattern once the residue sequence's
    period is detected (it divides ell^2 - 1 for primes other than 7),
  * "numpy": the same stream with an array of all primes as the modulus.

"auto" picks numpy when installed, else python.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import Iterator

from .jk_sequence import _first_return, _recurrence, jk_mod_stream, jk_stream


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


def _engine_period(n: int, primes: list[int]) -> tuple[bytearray, dict[int, int]]:
    """Direct stream until the initial 4-window recurs, then replicate.

    If no period shows up within [1, n] the stream already covered the
    whole range, and period = n places each zero once.  Every zero
    counts, J_k = ell included; sieve_range discounts those.
    """
    elim = bytearray(n + 1)
    per_prime: dict[int, int] = {}
    for ell in primes:
        period, zeros = _first_return(ell, n)
        period = period or n
        hits = [len(range(z, n + 1, period)) for z in zeros]
        for z, count in zip(zeros, hits):
            elim[z::period] = b"\x01" * count
        if hits:
            per_prime[ell] = sum(hits)
    return elim, per_prime


def _engine_numpy(n: int, primes: list[int]) -> tuple[bytearray, dict[int, int]]:
    import numpy as np

    elim = bytearray(n + 1)
    if not primes:
        return elim, {}
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


def sieve_range(n: int, L: int, engine: str = "auto") -> SieveReport:
    """Sieve [1, n] by all odd primes ell <= L other than 7.

    n must be >= 4.  L = 2 is allowed and eliminates nothing.  The guard
    J_k > ell keeps any k whose J_k equals the sieving prime; k with
    J_k <= L land in small_j_list for the caller to test directly.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    if L < 2:
        raise ValueError("L must be >= 2")
    if engine == "auto":
        try:
            import numpy  # noqa: F401
            engine = "numpy"
        except ImportError:
            engine = "python"
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
