"""x-only Montgomery doubling mod a candidate N, with exact op accounting.

Over Z/NZ with d^2 = -7, the short Weierstrass curve
y^2 = x^3 - 35 a^2 x - 98 a^3 maps to Montgomery form B y^2 = x^3 + A x^2 + x
by x -> B (x - r) with

    r = (-7 + d) a / 2,   B = (7 + 3d) / (56 a),   A = (-15 - 3d) / 8,

and doubling needs only C = (A + 2) / 4 = (1 - 3d) / 32:

    [x : z]  ->  [ s t : f (t + C f) ],   s = (x+z)^2,  t = (x-z)^2,  f = s - t.

f = 4xz, so this is the classical Montgomery doubling; it costs exactly
2 squarings, 3 multiplications and 4 additions, which the ModulusCtx
counters record.  Every verdict-affecting cost claim in this package is
an assertion over those counters, so every operation here is counted.
xz_double counts each one as it goes.  double_chain, the hot loop, does
the same arithmetic on local ints and adds count * (2, 3, 4) in one go:
that is exact because a step's operation sequence is straight-line and
never depends on the values (z = 0 included), and a test pins its
points and counter deltas to a loop of xz_double.

Every product is reduced by ModulusCtx._reduce.  J_k = 2^e + c with
e = k + 2 and |c| about 2^(e/2), and 2^e = -c (mod N), so a product t
reduces with two half-size products by c:

    t = L - Pl 2^h - (H0 - Ph) c   (mod N),   h = e // 2,

where t = H 2^e + L, H = H1 2^h + H0 and H1 c = Ph 2^(e-h) + Pl, and
then one % N with a quotient of a few bits.  Below _FOLD_MIN_BITS bits
(e = 850, measured) one builtin % is faster than the fold's Python-level
steps and is used instead; it is also the reference for any other
modulus.  Which path reduces never changes a value or a count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# Below 2^850 one builtin % reduces faster than the fold, whose eight
# further big-int steps each cost an interpreter dispatch; the measured
# crossover lies at e = 820-860 (README, Performance notes).
_FOLD_MIN_BITS = 850


class NonInvertibleError(ArithmeticError):
    """A denominator shared a factor with N.

    For pipeline inputs N = J_k this is a proof of compositeness, so the
    exception carries the gcd as a witness for the caller to report.
    """

    def __init__(self, witness: int):
        super().__init__(f"shared factor with modulus: gcd = {witness}")
        self.witness = witness


class ModulusCtx:
    """All arithmetic mod N flows through here so that op counts are exact.

    Residues are always reduced to [0, N-1]; no lazy reduction. A context
    must not be shared between concurrent workers (counters are plain ints).

    Every J_k is N = 2^e + c with e = k + 2 and |c| < 2^(e/2 + 2).  The
    constructor looks for that form, taking e = bitlen(N) - 1 or bitlen(N),
    whichever gives the smaller |c| (J_k has k + 2 or k + 3 bits with the
    sign of c).  For such N with e >= _FOLD_MIN_BITS a product is reduced
    by the split fold of _reduce, since 2^e = -c (mod N); any other N, and
    every N below that size, is reduced by plain %, the reference.
    """

    __slots__ = ("N", "multiplications", "squarings", "additions", "inversions",
                 "_fold")

    def __init__(self, N: int):
        if N < 3 or N % 2 == 0:
            raise ValueError("modulus must be odd and >= 3")
        self.N = N
        e = N.bit_length()
        if N - (1 << (e - 1)) < (1 << e) - N:
            e -= 1
        c = N - (1 << e)
        eh = e + e // 2
        # (e, 2^e - 1, c, e + h, 2^(e+h) - 1, h) with h = e // 2 when
        # |c| < 2^(e/2 + 2) and e >= _FOLD_MIN_BITS, else None
        self._fold = ((e, (1 << e) - 1, c, eh, (1 << eh) - 1, e // 2)
                      if e >= _FOLD_MIN_BITS and c * c < 1 << (e + 4)
                      else None)
        self.multiplications = 0
        self.squarings = 0
        self.additions = 0
        self.inversions = 0

    def _reduce(self, t: int) -> int:
        """t mod N in [0, N-1] for any int t; fast for 0 <= t < 4N^2.

        Write t = H1 2^(e+h) + H0 2^e + L with h = e // 2, L < 2^e and
        H0 < 2^h, and H1 c = Ph 2^(e-h) + Pl with Pl < 2^(e-h).  Since
        2^e = -c (mod N),

            t = L - Pl 2^h - (H0 - Ph) c   (mod N):

        two half-size products, H1 c and (H0 - Ph) c, where two folds at
        2^e cost three (the first is e by e/2 bits).  The code forms the
        same products in fewer Python steps: 2^(e+h) = -c 2^h folds
        H1 = t >> (e+h) into t1 = (t mod 2^(e+h)) - H1 c 2^h
        = L - Pl 2^h + (H0 - Ph) 2^e, and one fold at 2^e then
        multiplies t1 >> e (H0 - Ph, or one less after a borrow) by c.
        Floor >> and & split negative ints exactly too, so every t is
        reduced exactly.

        Size, for 0 <= t < 4N^2 and e >= 16: 4N^2 < 2^(2e+2) (1 + 2^(2-e/2))^2
        gives H1 < 1.04 * 2^(e-h+2), so |t1| < 2^(e+h) + H1 |c| 2^h, which
        is below 18 * 2^(3e/2) for |c| < 2^(e/2+2) and below 10 * 2^(3e/2)
        for J_k, where |c| = |2 t_k + 1| <= 2^(e/2+1) + 1.  Then
        |t1 >> e| <= 18 * 2^(e/2) (10 for J_k), and the second fold leaves
        |t| < 2^e + 18 * 2^(e/2) |c| < 2^(e+7) (2^(e+5) for J_k), so the
        closing % N has a quotient of a few bits.
        """
        fold = self._fold
        if fold is None:
            return t % self.N
        e, mask, c, eh, eh_mask, h = fold
        t = (t & eh_mask) - ((t >> eh) * c << h)
        return ((t & mask) - (t >> e) * c) % self.N

    def mul(self, a: int, b: int) -> int:
        self.multiplications += 1
        return self._reduce(a * b)

    def sqr(self, a: int) -> int:
        self.squarings += 1
        return self._reduce(a * a)

    def add(self, a: int, b: int) -> int:
        self.additions += 1
        return (a + b) % self.N

    def sub(self, a: int, b: int) -> int:
        self.additions += 1
        return (a - b) % self.N

    def gcd(self, a: int) -> int:
        self.inversions += 1
        return math.gcd(a, self.N)

    def inv(self, a: int) -> int:
        """Inverse mod N; raises NonInvertibleError(gcd(a, N)) if none."""
        self.inversions += 1
        a %= self.N
        try:
            return pow(a, -1, self.N)
        except ValueError:
            raise NonInvertibleError(math.gcd(a, self.N)) from None

    def pow_mod(self, base: int, exponent: int) -> int:
        """base**exponent mod N by left-to-right sliding windows.

        Window width is max(2, floor(log2(bitlen(exponent)) / 2)).  For the
        pipeline exponent (N+1)/4 with N = J_k this costs k + o(k) counted
        multiplications plus squarings: about bitlen squarings and
        bitlen/(width+1) + 2^(width-1) multiplications.  Hand-rolled on
        purpose: the builtin pow cannot report counts.  Like double_chain,
        one loop over local ints reads the exponent's bits from bin(),
        reduces each product by _reduce (the fold from _FOLD_MIN_BITS bits
        on, plain % below) and adds its squarings and multiplications to
        the counters at the end; the counts are those of the same ladder
        done with sqr and mul.
        """
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        n = self.N
        base %= n
        if exponent == 0:
            return 1 % n
        red = self._reduce
        bits = bin(exponent)[2:]  # top bit first; bits[0] == "1"
        n_bits = len(bits)
        width = max(2, (n_bits.bit_length() - 1) // 2)
        # odd powers base, base^3, ..., base^(2^width - 1)
        base_sq = red(base * base)
        odd_pows = [base]
        for _ in range((1 << (width - 1)) - 1):
            odd_pows.append(red(odd_pows[-1] * base_sq))
        squarings, mults = 1, len(odd_pows) - 1
        i = 0
        while i < n_bits:
            if bits[i] == "0":
                acc = red(acc * acc)  # acc is set: the top bit is 1
                squarings += 1
                i += 1
                continue
            j = min(i + width, n_bits)  # the window is bits[i:j], odd
            while bits[j - 1] == "0":
                j -= 1
            odd = odd_pows[int(bits[i:j], 2) >> 1]
            if i == 0:
                acc = odd
            else:
                for _ in range(j - i):
                    acc = red(acc * acc)
                squarings += j - i
                acc = red(acc * odd)
                mults += 1
            i = j
        self.squarings += squarings
        self.multiplications += mults
        return acc

    def op_counts(self) -> tuple[int, int, int, int]:
        """(multiplications, squarings, additions, inversions) snapshot."""
        return (self.multiplications, self.squarings, self.additions,
                self.inversions)


@dataclass(frozen=True)
class OpCounts:
    """The four ModulusCtx counters; the base of every run's stats record."""

    multiplications: int
    squarings: int
    additions: int
    gcd_calls: int  # the inversions counter: every gcd and inverse

    @property
    def mults_plus_squarings(self) -> int:
        return self.multiplications + self.squarings

    @classmethod
    def from_ctx(cls, ctx: ModulusCtx | None, *rest):
        """ctx's counters (zeros without a context), then a subclass's fields."""
        return cls(*(ctx.op_counts() if ctx else (0, 0, 0, 0)), *rest)


@dataclass(frozen=True)
class MontCurveCtx:
    d: int  # square root of -7 mod N
    r_shift: int  # the x-translation r = (-7+d)a/2
    B: int
    C: int  # (A+2)/4; the only curve constant doubling needs


@dataclass(frozen=True)
class XZPoint:
    x: int
    z: int


def sqrt_minus7(ctx: ModulusCtx) -> int | None:
    """d = 7^((N+1)/4) mod N, or None when d^2 != -7 (proving N composite).

    Requires N = 3 (mod 4) and gcd(N, 7) = 1.  When N is an odd prime with
    (-7/N) = 1 (every prime J_k, k > 1: -7 is a square since J_k is a norm
    from Z[alpha], and 7 itself is a non-residue as J_k = 2, 4 mod 7 while
    N = 3 mod 4 makes -1 a non-residue), the power is forced to be a
    square root of -7, so failure here is a compositeness proof.
    """
    if ctx.N % 4 != 3:
        raise ValueError("N must be 3 mod 4")
    if ctx.N % 7 == 0:
        raise ValueError("N must be coprime to 7")
    d = ctx.pow_mod(7, (ctx.N + 1) // 4)
    if ctx.sqr(d) != (-7) % ctx.N:
        return None
    return d


def montgomerize(a: int, x0: int, d: int,
                 ctx: ModulusCtx) -> tuple[MontCurveCtx, XZPoint]:
    """Build the Montgomery context and the start point [B(x0 - r) : 1].

    Raises NonInvertibleError (carrying the gcd witness) when one of the
    fixed denominators 2, 56a, 32 shares a factor with N; for pipeline
    inputs that never happens on admissible k unless N is composite.
    """
    n = ctx.N
    d %= n
    r = ctx.mul(ctx.mul(ctx.sub(d, 7 % n), a % n), ctx.inv(2 % n))
    b_coef, c_coef = montgomery_constants(a, d, ctx)
    x1 = ctx.mul(b_coef, ctx.sub(x0 % n, r))
    return MontCurveCtx(d, r, b_coef, c_coef), XZPoint(x1, 1 % n)


def montgomery_constants(a: int, d: int, ctx: ModulusCtx) -> tuple[int, int]:
    """(B, C) = ((7 + 3d) / (56a), (1 - 3d) / 32) mod N.

    Raises NonInvertibleError when 56a shares a factor with N.
    """
    n = ctx.N
    three_d = ctx.mul(3 % n, d)
    b_coef = ctx.mul(ctx.add(7 % n, three_d), ctx.inv(56 * a % n))
    c_coef = ctx.mul(ctx.sub(1 % n, three_d), ctx.inv(32 % n))
    return b_coef, c_coef


def projective_rhs(x: int, z: int, c_coef: int, ctx: ModulusCtx) -> int:
    """x (x^2 + A x z + z^2): the right side of B y^2 z = x^3 + A x^2 z + x z^2.

    A = 4C - 2 is derived here, the one place it is needed.
    """
    a_coef = ctx.sub(ctx.mul(4 % ctx.N, c_coef), 2 % ctx.N)
    inner = ctx.add(ctx.add(ctx.sqr(x), ctx.mul(a_coef, ctx.mul(x, z))),
                    ctx.sqr(z))
    return ctx.mul(x, inner)


def xz_double(P: XZPoint, curve: MontCurveCtx, ctx: ModulusCtx) -> XZPoint:
    """One doubling: exactly 2 squarings, 3 multiplications, 4 additions."""
    s = ctx.sqr(ctx.add(P.x, P.z))
    t = ctx.sqr(ctx.sub(P.x, P.z))
    f = ctx.sub(s, t)  # 4xz
    return XZPoint(ctx.mul(s, t), ctx.mul(f, ctx.add(t, ctx.mul(curve.C, f))))


def double_chain(P: XZPoint, curve: MontCurveCtx, ctx: ModulusCtx,
                 count: int, keep_at: int | None = None,
                 ) -> tuple[XZPoint, XZPoint, XZPoint | None]:
    """Apply xz_double count times; return (final, penultimate, kept).

    keep_at = s retains the s-th iterate (s = 0 is the input point) for
    certificate extraction.  count must be >= 1.  The chain never stops
    early: z = 0 is absorbing under xz_double, so callers read "some
    iterate before the last is zero" as penultimate.z == 0.

    One loop over local ints does xz_double's arithmetic step for step
    and adds its 2 squarings, 3 multiplications and 4 additions per step
    to ctx's counters when the chain ends; xz_double is the reference.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if keep_at is not None and not 0 <= keep_at <= count:
        raise ValueError("keep_at out of range")
    n = ctx.N
    red = ctx._reduce
    c_coef = curve.C % n
    x, z = P.x % n, P.z % n
    kept = P if keep_at == 0 else None
    for i in range(1, count + 1):
        px, pz = x, z
        u = x + z
        if u >= n:
            u -= n
        s = red(u * u)
        u = x - z  # squared at once, so its sign needs no fix
        t = red(u * u)
        f = s - t  # 4xz
        if f < 0:
            f += n
        u = t + red(c_coef * f)
        if u >= n:
            u -= n
        x, z = red(s * t), red(f * u)
        if i == keep_at:
            kept = XZPoint(x, z)
    ctx.squarings += 2 * count
    ctx.multiplications += 3 * count
    ctx.additions += 4 * count
    prev = P if count == 1 else XZPoint(px, pz)
    return XZPoint(x, z), prev, kept


def is_strongly_nonzero(P: XZPoint, ctx: ModulusCtx) -> bool:
    """gcd(z, N) = 1; stronger than z != 0 when N is composite."""
    return ctx.gcd(P.z) == 1


def is_zero_mod(P: XZPoint, ctx: ModulusCtx) -> bool:
    return P.z % ctx.N == 0
