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
xz_double counts each one as it goes, and is the reference.

double_chain, the hot loop, runs large chains on two lanes, one per CPU
core.  Of a step's five products only three depend on each other (s and
t, then s t and C f, then f (t + C f)), so lane A, the caller, computes
s and x' = s t while lane B, a child process forked for the chain,
computes t, f, C f and z' = f (t + C f), and a step costs about one
squaring and two multiplications of wall time against 2S + 3M.  The
lanes swap values through a shared anonymous mmap (_two_lanes).  The
arithmetic is xz_double's, and the chain adds count * (2, 3, 4) to the
counters in one go: that is exact because a step's operation sequence
is straight-line and never depends on the values (z = 0 included), and
tests pin the lanes' points and counter deltas to a loop of xz_double.
double_chain names the gates that open the lanes; behind any closed
one it loops over xz_double itself.

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
import os
import sys
import threading
from dataclasses import dataclass


# Below 2^850 one builtin % reduces faster than the fold, whose eight
# further big-int steps each cost an interpreter dispatch; the measured
# crossover lies at e = 820-860 (README, Performance notes).
_FOLD_MIN_BITS = 850

# double_chain's lanes pay a fork and two value swaps per step and lane,
# so they run only on moduli of at least _LANE_MIN_BITS bits and chains
# of at least _LANE_MIN_COUNT doublings, with a margin above the measured
# crossovers (README, Performance notes).
_LANE_MIN_BITS = 1200
_LANE_MIN_COUNT = 512
_SPINS_PER_CHECK = 4096  # sequence-word reads between liveness checks


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
        purpose: the builtin pow cannot report counts.  One loop over
        local ints reads the exponent's bits from bin(), reduces each
        product by _reduce (the fold from _FOLD_MIN_BITS bits on, plain %
        below) and adds its squarings and multiplications to the counters
        at the end; the counts are those of the same ladder done with sqr
        and mul.
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

    The chain runs on two lanes (_two_lanes) only when every gate is
    open: N has at least _LANE_MIN_BITS bits, the chain has at least
    _LANE_MIN_COUNT doublings, _lane_obstacle finds os.fork, x86-64 and
    two usable CPUs (read anew for each chain), and _lanes_available
    finds one thread in a process that multiprocessing did not start.
    Otherwise the chain is a loop of xz_double, the reference.  Either
    way ctx's counters grow by 2 squarings, 3 multiplications and 4
    additions per step.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if keep_at is not None and not 0 <= keep_at <= count:
        raise ValueError("keep_at out of range")
    if (count >= _LANE_MIN_COUNT and ctx.N.bit_length() >= _LANE_MIN_BITS
            and _lanes_available()):
        return _two_lanes(P, curve.C, ctx, count, keep_at)
    kept = P if keep_at == 0 else None
    prev = cur = P
    for i in range(1, count + 1):
        prev, cur = cur, xz_double(cur, curve, ctx)
        if i == keep_at:
            kept = cur
    return cur, prev, kept


def _lane_obstacle() -> str | None:
    """Why this process cannot run two lanes now, or None; read per chain."""
    if not hasattr(os, "fork"):
        return "os.fork is missing"
    if os.uname().machine.lower() not in ("x86_64", "amd64"):
        return f"not x86-64 (machine {os.uname().machine!r})"
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        return "only one usable CPU"
    return None


def _lanes_available() -> bool:
    """Whether double_chain may fork a lane now.

    A process with a second thread forks no lane, since the child could
    inherit a lock that thread holds, hang on it, and leave the caller
    spinning.  Nor does a process that multiprocessing started, such as
    a pool worker: its siblings hold the other cores.  multiprocessing is
    looked up, never imported, since a process that has not loaded it
    was not started by it.
    """
    mp = sys.modules.get("multiprocessing")
    return (_lane_obstacle() is None and threading.active_count() == 1
            and (mp is None or mp.parent_process() is None))


class _LaneLost(RuntimeError):
    """The other lane of a doubling chain ended before the chain did."""


def _await(words, at: int, want: int, gone) -> None:
    """Spin until words[at] >= want.

    Every _SPINS_PER_CHECK reads, gone() says whether the other lane has
    ended; if it has and the word is still short, raise _LaneLost.
    """
    spins = 0
    while words[at] < want:
        spins += 1
        if spins == _SPINS_PER_CHECK:
            spins = 0
            if gone():
                if words[at] >= want:  # it published, then ended
                    return
                raise _LaneLost("the other doubling lane ended mid-chain")


def _two_lanes(P: XZPoint, c_coef: int, ctx: ModulusCtx, count: int,
               keep_at: int | None) -> tuple[XZPoint, XZPoint, XZPoint | None]:
    """double_chain on two lanes: this process (A) and a forked child (B).

    Step i: A computes s = (x+z)^2 and publishes it, takes t, computes
    x' = s t and publishes it, then takes z'.  B computes t = (x-z)^2
    and publishes it, takes s, computes f = s - t, C f and
    z' = f (t + C f) and publishes it, then takes x' for step i + 1.

    Shared memory: two sequence words, A's at words[0] and B's at
    words[8] (a cache line apart), then one slot per value: s, x', t, z'.
    A lane writes a value into its slot and then sets its word to 2i - 1
    (s or t of step i) or 2i (x' or z'); the reader waits until the word
    is >= that number and then reads the slot.  Words only grow, and a
    lane can be one value ahead, so the test is >=, not ==.  No slot is
    rewritten before it is read: A writes s of step i + 1 only after it
    has taken z' of step i, which B publishes after taking s of step i;
    A writes x' of step i + 1 only after taking t of step i + 1, which
    B publishes after taking x' of step i; and symmetrically for t and
    z'.  With one slot per lane, x' would overwrite s before B read it.

    Reading a slot once its word says so relies on the other core seeing
    the slot's bytes before the word, that is, on stores becoming visible
    in program order (x86-64's TSO); an aligned 8-byte word is read and
    written whole.  _lane_obstacle refuses other machines.

    B leaves only through os._exit, so it never flushes stdio buffers it
    inherited, and it exits once this process is gone (its parent pid
    changes).  A raises _LaneLost if B dies mid-chain, and kills and
    reaps B on every way out.
    """
    import mmap  # not at module level, to keep import cm7prime small
    import signal

    n, red = ctx.N, ctx._reduce
    c_coef %= n
    x, z = P.x % n, P.z % n
    size = (n.bit_length() + 7) // 8  # bytes per residue
    span = -(-size // 64) * 64  # slots start on cache lines
    s_at, x_at, t_at, z_at = (128 + j * span for j in range(4))
    parent, pid, reaped = os.getpid(), 0, False

    def gone() -> bool:
        nonlocal reaped
        reaped = os.waitpid(pid, os.WNOHANG)[0] != 0
        return reaped

    # an anonymous mmap is shared with the forked child
    with (mmap.mmap(-1, 128 + 4 * span) as mem, memoryview(mem) as raw,
          raw.cast("Q") as words):
        try:
            pid = os.fork()
            if pid == 0:  # lane B
                status = 1
                try:
                    _lane_b(mem, words, red, n, c_coef, x, z, count, size,
                            (s_at, x_at, t_at, z_at),
                            lambda: os.getppid() != parent)
                    status = 0
                finally:
                    os._exit(status)
            kept = P if keep_at == 0 else None
            for i in range(1, count + 1):
                px, pz = x, z
                u = x + z
                if u >= n:
                    u -= n
                s = red(u * u)
                mem[s_at:s_at + size] = s.to_bytes(size, "little")
                words[0] = 2 * i - 1
                _await(words, 8, 2 * i - 1, gone)
                x = red(s * int.from_bytes(mem[t_at:t_at + size], "little"))
                mem[x_at:x_at + size] = x.to_bytes(size, "little")
                words[0] = 2 * i
                _await(words, 8, 2 * i, gone)
                z = int.from_bytes(mem[z_at:z_at + size], "little")
                if i == keep_at:
                    kept = XZPoint(x, z)
        finally:
            if pid and not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    ctx.squarings += 2 * count
    ctx.multiplications += 3 * count
    ctx.additions += 4 * count
    prev = P if count == 1 else XZPoint(px, pz)
    return XZPoint(x, z), prev, kept


def _lane_b(mem, words, red, n: int, c_coef: int, x: int, z: int,
            count: int, size: int, slots: tuple[int, int, int, int],
            gone) -> None:
    """Lane B of _two_lanes: t, C f and z' of every step."""
    s_at, x_at, t_at, z_at = slots
    for i in range(1, count + 1):
        if i > 1:
            _await(words, 0, 2 * i - 2, gone)
            x = int.from_bytes(mem[x_at:x_at + size], "little")
        u = x - z  # squared at once, so its sign needs no fix
        t = red(u * u)
        mem[t_at:t_at + size] = t.to_bytes(size, "little")
        words[8] = 2 * i - 1
        _await(words, 0, 2 * i - 1, gone)
        f = int.from_bytes(mem[s_at:s_at + size], "little") - t  # 4xz
        if f < 0:
            f += n
        u = t + red(c_coef * f)
        if u >= n:
            u -= n
        z = red(f * u)
        mem[z_at:z_at + size] = z.to_bytes(size, "little")
        words[8] = 2 * i


def is_strongly_nonzero(P: XZPoint, ctx: ModulusCtx) -> bool:
    """gcd(z, N) = 1; stronger than z != 0 when N is composite."""
    return ctx.gcd(P.z) == 1


def is_zero_mod(P: XZPoint, ctx: ModulusCtx) -> bool:
    return P.z % ctx.N == 0
