"""Exact arithmetic in Z[alpha], alpha = (1 + sqrt(-7))/2.

alpha satisfies alpha^2 = alpha - 2, so Z[alpha] is the ring of integers
of Q(sqrt(-7)) and every element is u + v*alpha with integer u, v.  The
element 2 splits as alpha * conj(alpha), which is what makes the norm
sequence built here grow like a power of two.  These are the tests'
independent route to t_k and j_k; the package takes both from
jk_sequence.trace_mod's Lucas ladder.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QuadInt:
    """u + v*alpha with u, v plain integers."""

    u: int
    v: int


ALPHA = QuadInt(0, 1)
ONE = QuadInt(1, 0)


def qi_mul(x: QuadInt, y: QuadInt) -> QuadInt:
    # (u1 + v1 a)(u2 + v2 a) with a^2 = a - 2, in three products; for
    # x * x two of them are squarings
    u1, v1, u2, v2 = x.u, x.v, y.u, y.v
    uu, vv = u1 * u2, v1 * v2
    return QuadInt(uu - 2 * vv, (u1 + v1) * (u2 + v2) - uu)


def qi_conj(x: QuadInt) -> QuadInt:
    """Complex conjugate; conj(alpha) = 1 - alpha."""
    return QuadInt(x.u + x.v, -x.v)


def qi_norm(x: QuadInt) -> int:
    """x * conj(x) = u^2 + u*v + 2*v^2, always >= 0."""
    return x.u * x.u + x.u * x.v + 2 * x.v * x.v


def qi_pow(x: QuadInt, e: int) -> QuadInt:
    """x**e by binary powering.  e must be >= 0."""
    if e < 0:
        raise ValueError("negative exponent has no integral meaning here")
    acc = ONE
    base = x
    while e:
        if e & 1:
            acc = qi_mul(acc, base)
        e >>= 1
        if e:  # the square after the top bit would be thrown away
            base = qi_mul(base, base)
    return acc


def jk_element(k: int) -> QuadInt:
    """The element j_k = 1 + 2*alpha^k whose norm is J_k.  k must be >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = qi_pow(ALPHA, k)
    return QuadInt(1 + 2 * p.u, 2 * p.v)
