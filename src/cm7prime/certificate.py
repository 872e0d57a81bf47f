"""Succinct primality certificates: a point of provably large 2-power order.

A run that proves J_k prime passes through an intermediate iterate
Q = [x_s, y_s, z_s] with s = k + 1 - r, where r is minimal with
2^r > (N^(1/4) + 1)^2.  Q has order 2^r, and that alone certifies
primality: were N composite, it would have a prime factor p <= sqrt(N),
and the curve over F_p cannot hold a point of order exceeding
(p^(1/2) + 1)^2 <= (N^(1/4) + 1)^2 < 2^r.  So a verifier only needs
r = k/2 + O(1) doublings (about 2.5k multiplications), half the cost
of the full run, plus O(1) consistency checks.

The y-coordinate is recovered from the projective Montgomery equation

    B y^2 z = x^3 + A x^2 z + x z^2  (mod N)

as y = (y^2)^((N+1)/4), which works because N = 3 (mod 4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .jk_sequence import jk_closed
from .mont_curve import (ModulusCtx, MontCurveCtx, NonInvertibleError, OpCounts,
                         XZPoint, double_chain, is_strongly_nonzero, is_zero_mod,
                         montgomery_constants, projective_rhs)
from .prover import Verdict, run_pipeline
from .twist_tables import TWISTS

_VERSION_LINE = "JKCERT 1"
_FIELDS = ("k", "N", "a", "d", "r", "x", "y", "z")
_CANONICAL = re.compile(r"0|-?[1-9][0-9]*")  # no +, leading zeros or -0; ASCII
# digits per int<->str step: CPython refuses conversions longer than
# sys.get_int_max_str_digits() (4300 by default, never below 640)
_CHUNK = 600
_BASE = 10 ** _CHUNK


class CertificateFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    k: int
    n: int  # J_k, serialized as N
    a: int
    d: int  # sqrt(-7) mod N
    r: int  # doublings the verifier must perform; 2^r = order of q
    q: tuple[int, int, int]  # [x_s, y_s, z_s], unnormalized

    @property
    def s(self) -> int:
        return self.k + 1 - self.r


def exceeds_quarter_bound(r: int, n: int) -> bool:
    """Exact integer test for 2^r > (n^(1/4) + 1)^2, no floating point.

    Rearranged as n^(1/4) < 2^(r/2) - 1 and raised to the fourth power.
    For odd r the fourth power still contains one sqrt(2^r) term, so the
    comparison is squared once more, guarded by positivity.
    """
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    if r % 2 == 0:
        return ((1 << (r // 2)) - 1) ** 4 > n
    # (2^(r/2)-1)^4 = 2^2r + 6*2^r + 1 - 4*sqrt(2^r)*(2^r + 1)
    lhs = (1 << (2 * r)) + 6 * (1 << r) + 1 - n
    return lhs > 0 and lhs * lhs > ((1 << r) + 1) ** 2 << (r + 4)


def minimal_doubling_exponent(n: int) -> int:
    """Least r with 2^r > (n^(1/4) + 1)^2."""
    r = max(1, n.bit_length() // 2 - 2)
    while not exceeds_quarter_bound(r, n):
        r += 1
    while r > 1 and exceeds_quarter_bound(r - 1, n):
        r -= 1
    return r


def _on_curve_projective(x: int, y: int, z: int, b_coef: int, c_coef: int,
                         ctx: ModulusCtx) -> bool:
    lhs = ctx.mul(ctx.mul(b_coef, ctx.sqr(y)), z)
    return lhs == projective_rhs(x, z, c_coef, ctx)


def build_certificate(k: int) -> Certificate | Verdict:
    """Certificate for J_k, or the composite Verdict when J_k is not prime."""
    if k < 2:
        raise ValueError("k must be >= 2")
    n = jk_closed(k).value
    r = minimal_doubling_exponent(n)
    s = k + 1 - r
    res = run_pipeline(k, keep_at=s)
    if not res.verdict.is_prime:
        return res.verdict
    ctx, curve, q = res.ctx, res.curve, res.kept
    assert ctx is not None and curve is not None and q is not None
    if s == 0:
        # Q is the transformed start point (B(x0 - r), B y0)
        y = ctx.mul(curve.B, res.twist.point[1] % n)
    else:
        y_sq = ctx.mul(projective_rhs(q.x, q.z, curve.C, ctx),
                       ctx.inv(ctx.mul(curve.B, q.z)))
        y = ctx.pow_mod(y_sq, (n + 1) // 4)
        if ctx.sqr(y) != y_sq:
            # impossible once the prover said Prime
            raise ArithmeticError(f"y recovery failed at k={k}")
    if not _on_curve_projective(q.x, y, q.z, curve.B, curve.C, ctx):
        raise ArithmeticError(f"certificate point off the curve at k={k}")
    return Certificate(k, n, res.twist.a, curve.d, r, (q.x, y, q.z))


@dataclass(frozen=True)
class VerifyStats(OpCounts):
    reason: str | None  # None on success


def verify_certificate(c: Certificate) -> tuple[bool, VerifyStats]:
    """Re-derive everything checkable and run the r doublings.

    Returns (ok, stats); stats.reason carries the first failed check.
    The verifier only accepts N equal to the recomputed J_k: the r-bound
    plus the order conditions then prove primality outright.
    """
    def fail(reason: str, ctx: ModulusCtx | None = None):
        return False, VerifyStats.from_ctx(ctx, reason)

    if c.k < 2:
        return fail("k-range")
    if c.a not in TWISTS:
        return fail("twist-unknown")
    if c.r < 1:
        return fail("r-range")
    if c.n < 3 or c.n % 2 == 0:
        return fail("n-odd")
    if not all(0 <= t < c.n for t in (c.d, *c.q)):
        return fail("residue-range")
    # J_k has k+2 or k+3 bits; checked first so absurd k cannot force a
    # gigantic closed-form evaluation
    if not c.k + 2 <= c.n.bit_length() <= c.k + 3:
        return fail("n-mismatch")
    if jk_closed(c.k).value != c.n:
        return fail("n-mismatch")
    n = c.n
    ctx = ModulusCtx(n)
    if ctx.gcd(14 * c.a) != 1:
        return fail("gcd", ctx)
    if ctx.sqr(c.d) != n - 7:
        return fail("sqrt-minus7", ctx)
    # r must be the least valid exponent, which N alone fixes: the file's r
    # is only compared, so an absurd r costs nothing
    if c.r != minimal_doubling_exponent(n):
        return fail("r-bound", ctx)
    try:
        b_coef, c_coef = montgomery_constants(c.a, c.d, ctx)
    except NonInvertibleError:
        return fail("gcd", ctx)
    x, y, z = c.q
    if not _on_curve_projective(x, y, z, b_coef, c_coef, ctx):
        return fail("curve-equation", ctx)
    curve = MontCurveCtx(c.d, 0, b_coef, c_coef)  # r_shift unused here
    final, penultimate, _ = double_chain(XZPoint(x, z), curve, ctx, c.r)
    if not is_strongly_nonzero(penultimate, ctx):
        return fail("order-penultimate", ctx)
    if not is_zero_mod(final, ctx):
        return fail("order-final", ctx)
    return True, VerifyStats.from_ctx(ctx, None)


def decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 0, past the interpreter's int<->str limit too."""
    return len(_to_decimal(n))


def _to_decimal(n: int) -> str:
    """str(n), converted _CHUNK digits at a time (n below _BASE is direct)."""
    parts = []
    while n >= _BASE:
        n, low = divmod(n, _BASE)
        parts.append(f"{low:0{_CHUNK}d}")
    parts.append(str(n))
    return "".join(reversed(parts))


def _decimal(name: str, text: str, max_bits: int | None = None) -> int:
    """The value of a canonical decimal field; anything else raises.

    Without max_bits the interpreter's int<->str limit bounds the work.
    With it, a field longer than any max_bits-bit number is refused before
    it is converted, in chunks, so the work is bounded by max_bits.
    """
    canonical = _CANONICAL.fullmatch(text)
    if canonical and max_bits is not None:
        digits = text.lstrip("-")
        e = len(digits) - 1  # the value is at least 10^e
        if e >= max_bits or (10 ** e).bit_length() > max_bits:
            raise CertificateFormatError(f"{name} has more digits than "
                                         f"{max_bits} bits allow")
        value = 0
        for i in range(0, len(digits), _CHUNK):
            piece = digits[i:i + _CHUNK]
            value = value * 10 ** len(piece) + int(piece)
        return -value if text[0] == "-" else value
    try:
        value = int(text)
    except ValueError:
        raise CertificateFormatError(f"non-decimal value for {name}") from None
    if not canonical:  # int() also takes +, leading zeros, -0, unicode digits
        raise CertificateFormatError(f"non-canonical decimal for {name}")
    return value


def serialize(c: Certificate) -> str:
    """The bit-exact text form: LF endings, no padding, trailing newline."""
    values = (c.k, c.n, c.a, c.d, c.r, *c.q)
    return _VERSION_LINE + "\n" + "".join(
        f"{name}={_to_decimal(v)}\n" for name, v in zip(_FIELDS, values))


def parse(text: str) -> Certificate:
    """Inverse of serialize; anything non-canonical or too long raises."""
    if not text:
        raise CertificateFormatError("empty input")
    if "\r" in text:
        raise CertificateFormatError("CR line endings are not accepted")
    if not text.endswith("\n"):
        raise CertificateFormatError("missing final newline")
    lines = text[:-1].split("\n")
    if len(lines) != 1 + len(_FIELDS):
        raise CertificateFormatError(f"expected {1 + len(_FIELDS)} lines, "
                                     f"got {len(lines)}")
    if lines[0] != _VERSION_LINE:
        raise CertificateFormatError(f"unknown version line {lines[0]!r}")
    values: dict[str, int] = {}
    for line, name in zip(lines[1:], _FIELDS):
        prefix = name + "="
        if not line.startswith(prefix):
            raise CertificateFormatError(f"expected {prefix}..., got {line!r}")
        max_bits = None if name in ("k", "a", "r") else values["k"] + 3
        values[name] = _decimal(name, line[len(prefix):], max_bits)
    if values["a"] not in TWISTS:
        raise CertificateFormatError(f"a={values['a']} is not a known twist")
    if values["k"] < 1 or values["N"] < 1 or values["r"] < 1:
        raise CertificateFormatError("k, N, r must be positive")
    for name in ("d", "x", "y", "z"):
        if not 0 <= values[name] < values["N"]:
            raise CertificateFormatError(f"{name} out of range [0, N-1]")
    return Certificate(values["k"], values["N"], values["a"], values["d"],
                       values["r"], (values["x"], values["y"], values["z"]))
