"""Succinct primality certificates: a point of provably large 2-power order.

A run that proves J_k prime passes through an intermediate iterate
Q = [x_s, y_s, z_s] with s = k + 1 - r, where r is minimal with
2^r > (N^(1/4) + 1)^2.  Q has order 2^r, and that alone certifies
primality: were N composite, it would have a prime factor p <= sqrt(N),
and the curve over F_p cannot hold a point of order exceeding
(p^(1/2) + 1)^2 <= (N^(1/4) + 1)^2 < 2^r.  So a verifier only needs
r = k/2 + O(1) doublings (about 2.5k multiplications), half the cost
of the full run, plus O(1) consistency checks.

The verifier is the one judge of a certificate.  build_certificate runs
the first s doublings of test_jk's chain, recovers y, and returns the
result only if verify_certificate, running the last r doublings,
accepts it.  So a prime costs test_jk's k + 1 doublings plus one
exponentiation, the y recovery, and nothing decides validity twice.  A
composite J_k has no such point, and its build returns None at the
first step that fails: an inverse that shares a factor with J_k, or a
verifier check, usually the curve equation, which comes before the
verifier's r doublings.

Acceptance does not depend on how d was found.  The verifier checks
d^2 = -7 (mod N); that makes the curve constants well defined, and the
Hasse bound above holds for every curve over every F_p, so nothing else
about d is needed.  The builder takes d from the CM structure, not from
step 2's exponentiation: with j_k = u + v*alpha, alpha -> -u/v (mod N)
and d = 2*alpha - 1, signed so that the Legendre symbol (d/N) equals
(-1)^((N+1)/4).  For prime N that is exactly 7^((N+1)/4), the d of
test_jk, so a certificate is the same byte for byte either way.

The y-coordinate is recovered from the projective Montgomery equation

    B y^2 z = x^3 + A x^2 z + x z^2  (mod N)

as y = (y^2)^((N+1)/4), which works because N = 3 (mod 4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .jk_sequence import forced_composite, jk_closed, trace_mod
from .mont_curve import (ModulusCtx, MontCurveCtx, NonInvertibleError, OpCounts,
                         XZPoint, double_chain, is_strongly_nonzero, is_zero_mod,
                         montgomerize, montgomery_constants, projective_rhs)
from .twist_tables import TWISTS, jacobi_symbol, select_twist

_VERSION_LINE = "JKCERT 1"
_FIELDS = ("k", "N", "a", "d", "r", "x", "y", "z")
_CANONICAL = re.compile(r"0|-?[1-9][0-9]*")  # no +, leading zeros or -0; ASCII
# what int() also takes: spaces, +, leading zeros, -0, _ and unicode digits
_INT_LIKE = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")
# digits per int<->str step: CPython refuses conversions longer than
# sys.get_int_max_str_digits() (4300 by default, never below 640)
_CHUNK = 600
_BASE = 10 ** _CHUNK
_LOG10_2_Q64 = 0x4D104D427DE7FBCC  # floor(log10(2) * 2^64)
# k, a and r: under the digit test of read_decimal, exactly the values of
# at most 4300 digits, what CPython's default int<->str limit admits
_SHORT_BITS = 14284


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


def _cm_sqrt_minus7(k: int, ctx: ModulusCtx) -> int:
    """A square root of -7 mod J_k = ctx.N from the CM structure.

    j_k = 1 + 2*alpha^k has norm J_k.  Write alpha^k = u + v*alpha: the
    Lucas sequences with P = 1, Q = 2 give t_k = V_k = 2u + v and
    v = U_k = (V_k - 2*V_{k+1})/7, an exact division, so trace_mod's
    (t_k, t_{k+1}) give j_k = (1 + t_k - v) + 2v*alpha with no power in
    Z[alpha].  alpha -> -(1 + 2u)/(2v) (mod J_k) respects
    alpha^2 = alpha - 2 and d = 2*alpha - 1 squares to -7, for any J_k
    where 2v is invertible; one counted inverse replaces the k-bit power
    of step 2.  The sign is the one with Jacobi symbol
    (d/J_k) = (-1)^((J_k+1)/4): for prime J_k that is exactly
    7^((J_k+1)/4), because (7/J_k) = -1 and (-1/J_k) = -1.  Raises
    NonInvertibleError when 2v shares a factor with J_k (J_k composite).
    """
    n = ctx.N
    t, t_next = trace_mod(k)
    v = (t - 2 * t_next) // 7  # U_k
    alpha = ctx.mul(-(1 + t - v) % n, ctx.inv(2 * v))
    d = ctx.sub(ctx.add(alpha, alpha), 1)
    want = 1 if n % 8 == 7 else -1  # (-1)^((n+1)/4), n = 3 (mod 4)
    return d if jacobi_symbol(d, n) == want else n - d


def build_certificate(k: int) -> Certificate | None:
    """Certificate for J_k, or None when J_k is composite.

    d comes from the CM structure (_cm_sqrt_minus7), not from step 2's
    exponentiation.  Then the twist's start point is doubled s = k + 1 - r
    times, y is recovered, and the result is returned only if
    verify_certificate, which doubles the last r times, accepts it.  A
    prime costs k + 1 doublings plus one exponentiation, the y recovery.
    A composite gets None, at no more cost: at a forced congruence, at an
    inverse (of v, of 56a or of B z) that shares a factor with J_k, or at
    the verifier's first failing check.  test_jk says why it is
    composite.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if forced_composite(k):
        return None
    n = jk_closed(k).value
    r = minimal_doubling_exponent(n)
    s = k + 1 - r
    ctx = ModulusCtx(n)
    twist = select_twist(k)
    try:
        d = _cm_sqrt_minus7(k, ctx)
        curve, q = montgomerize(twist.a, twist.point[0], d, ctx)
        if s == 0:
            # Q is the transformed start point (B(x0 - r), B y0)
            y = ctx.mul(curve.B, twist.point[1] % n)
        else:
            q, _, _ = double_chain(q, curve, ctx, s)
            y_sq = ctx.mul(projective_rhs(q.x, q.z, curve.C, ctx),
                           ctx.inv(ctx.mul(curve.B, q.z)))
            y = ctx.pow_mod(y_sq, (n + 1) // 4)
    except NonInvertibleError:
        return None
    cert = Certificate(k, n, twist.a, curve.d, r, (q.x, y, q.z))
    return cert if verify_certificate(cert)[0] else None


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
    # N is odd and gcd(14a, N) = 1, so 56a and 32 are units: this cannot raise
    b_coef, c_coef = montgomery_constants(c.a, c.d, ctx)
    x, y, z = c.q
    lhs = ctx.mul(ctx.mul(b_coef, ctx.sqr(y)), z)
    if lhs != projective_rhs(x, z, c_coef, ctx):
        return fail("curve-equation", ctx)
    curve = MontCurveCtx(c.d, 0, b_coef, c_coef)  # r_shift unused here
    final, penultimate, _ = double_chain(XZPoint(x, z), curve, ctx, c.r)
    if not is_strongly_nonzero(penultimate, ctx):
        return fail("order-penultimate", ctx)
    if not is_zero_mod(final, ctx):
        return fail("order-final", ctx)
    return True, VerifyStats.from_ctx(ctx, None)


def decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 0, from n's bit length and one power of ten.

    With b = n.bit_length(), d = floor((b - 1) * _LOG10_2_Q64 / 2^64)
    satisfies b log10(2) - 2 < d <= (b - 1) log10(2), so 10^d <= n <
    10^(d + 2): n has d + 1 digits, or d + 2 when n >= 10^(d + 1).
    """
    if n < 10:
        return 1
    d = (n.bit_length() - 1) * _LOG10_2_Q64 >> 64
    return d + 1 + (n >= 10 ** (d + 1))


def _to_decimal(n: int) -> str:
    """str(n), converted _CHUNK digits at a time (|n| below _BASE is direct)."""
    if n < 0:
        return "-" + _to_decimal(-n)
    parts = []
    while n >= _BASE:
        n, low = divmod(n, _BASE)
        parts.append(f"{low:0{_CHUNK}d}")
    parts.append(str(n))
    return "".join(reversed(parts))


def read_decimal(name: str, text: str, max_bits: int = _SHORT_BITS) -> int:
    """The value of a canonical decimal named name; anything else raises.

    The one reader of integers from outside the program: certificate
    fields and command-line arguments.  A text longer than any
    max_bits-bit number is refused before it is converted, by halving, so
    the work is bounded by max_bits and no result depends on the
    interpreter's int<->str limit.
    """
    if not _CANONICAL.fullmatch(text):
        if _INT_LIKE.fullmatch(text):
            raise CertificateFormatError(f"non-canonical decimal for {name}")
        raise CertificateFormatError(f"non-decimal value for {name}")
    digits = text.lstrip("-")
    e = len(digits) - 1  # the value is at least 10^e
    if e >= max_bits or (10 ** e).bit_length() > max_bits:
        raise CertificateFormatError(f"{name} has more digits than "
                                     f"{max_bits} bits allow")
    value = _from_decimal(digits)
    return -value if text[0] == "-" else value


def _from_decimal(digits: str) -> int:
    """int(digits) for ASCII digits, by halving, with products only.

    The value is hi * 10^m + lo, where lo is the last m = _CHUNK * 2^j
    digits for the largest such m below the length; leaves of at most
    _CHUNK digits go through int().  Each power 10^(_CHUNK * 2^j) is the
    square of the one before, so the cost is that of Karatsuba products:
    CPython 3.11's int() of a long string, and its divmod, are quadratic.
    """
    powers = [_BASE]  # powers[j] = 10^(_CHUNK * 2^j)
    while _CHUNK << len(powers) < len(digits):
        powers.append(powers[-1] * powers[-1])

    def convert(lo: int, hi: int) -> int:  # the value of digits[lo:hi]
        if hi - lo <= _CHUNK:
            return int(digits[lo:hi])
        j = ((hi - lo - 1) // _CHUNK).bit_length() - 1
        mid = hi - (_CHUNK << j)
        return convert(lo, mid) * powers[j] + convert(mid, hi)

    return convert(0, len(digits))


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
        max_bits = _SHORT_BITS if name in ("k", "a", "r") else values["k"] + 3
        values[name] = read_decimal(name, line[len(prefix):], max_bits)
        if name in ("k", "N", "r") and values[name] < 1:  # before k bounds
            raise CertificateFormatError(f"{name} must be positive")
    if values["a"] not in TWISTS:
        raise CertificateFormatError(
            f"a={_to_decimal(values['a'])} is not a known twist")
    for name in ("d", "x", "y", "z"):
        if not 0 <= values[name] < values["N"]:
            raise CertificateFormatError(f"{name} out of range [0, N-1]")
    return Certificate(values["k"], values["N"], values["a"], values["d"],
                       values["r"], (values["x"], values["y"], values["z"]))
