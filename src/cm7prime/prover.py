"""The deterministic primality test for J_k, end to end.

For k > 1 with k != 0 (mod 8) and k != 6 (mod 24), J_k is prime if and
only if the twist point P_a (chosen by twist_tables) has order 2^(k+1)
on E_a mod J_k, which the x-only chain certifies as: the k-th doubling
iterate is strongly nonzero (gcd(z_k, J_k) = 1) and the (k+1)-st is zero
(J_k | z_{k+1}).  That is the only rule step 8 applies.  It is a gcd, not
z_k != 0 (mod J_k): for composite J_k a z_k can be nonzero mod J_k and
still vanish mod one prime factor q, and the order argument needs P_a to
have order exactly 2^(k+1) mod every prime factor.  Steps:

  1. congruence filter (3 | J_k or 5 | J_k),
  2. d = 7^((J_k+1)/4) mod J_k,
  3. composite unless d^2 = -7,
  4. twist selection by k mod 72,
  5. Montgomery constants r, B, C,
  6. start point [B(x0 - r) : 1],
  7. k+1 doublings, on two CPU cores when it can (double_chain),
  8. the order-2^(k+1) check.

Every verdict is deterministic; all modular work flows through one
counted ModulusCtx so RunStats can assert the cost model (step 7 is
exactly 5(k+1) multiplications-plus-squarings and 4(k+1) additions,
the whole run at most 6.5k multiplications-plus-squarings for large k).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from enum import Enum

from .jk_sequence import forced_composite, jk_closed
from .mont_curve import (ModulusCtx, NonInvertibleError, OpCounts, XZPoint,
                         double_chain, is_strongly_nonzero, is_zero_mod,
                         montgomerize, sqrt_minus7)
from .sieve import sieve_range, survivors
from .twist_tables import select_twist


class VerdictKind(Enum):
    PRIME = "Prime"
    FORCED_CONGRUENCE = "ForcedCongruence"
    NO_SQRT_MINUS7 = "NoSqrtMinus7"
    GCD_WITNESS = "GcdWitness"
    CURVE_TEST = "CurveTest"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    witness: int | None = None  # a nontrivial divisor, for GCD_WITNESS

    @property
    def is_prime(self) -> bool:
        return self.kind is VerdictKind.PRIME

    def label(self) -> str:
        if self.is_prime:
            return "Prime"
        return f"Composite:{self.kind.value}"


@dataclass(frozen=True)
class RunStats(OpCounts):
    elapsed: float  # seconds
    step_reached: int  # 1..8
    early_exit: bool = False  # an iterate <= k was zero; chain still ran k+1
    step2_seconds: float = 0.0
    step7_seconds: float = 0.0
    step7_multiplications: int = 0
    step7_squarings: int = 0
    step7_additions: int = 0


@dataclass(frozen=True)
class PipelineResult:
    """test_jk's innards, for tests and the benchmark."""

    verdict: Verdict
    stats: RunStats
    kept: XZPoint | None = None


def _stats(ctx: ModulusCtx | None, t0: float, step: int, *, early: bool = False,
           s2: float = 0.0, s7: float = 0.0,
           s7ops: tuple[int, int, int] = (0, 0, 0)) -> RunStats:
    return RunStats.from_ctx(ctx, time.perf_counter() - t0, step, early,
                             s2, s7, *s7ops)


def _timed(fn, *args):
    """fn(*args) and the seconds it took."""
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def run_pipeline(k: int, keep_at: int | None = None) -> PipelineResult:
    """All eight steps, exposing the intermediates test_jk hides.

    A Prime verdict does not depend on which square root d is: the
    order-2^(k+1) argument only uses d^2 = -7.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if keep_at is not None and not 0 <= keep_at <= k + 1:
        raise ValueError("keep_at out of range")
    t0 = time.perf_counter()
    if forced_composite(k):  # step 1
        v = Verdict(VerdictKind.FORCED_CONGRUENCE)
        return PipelineResult(v, _stats(None, t0, 1))

    ctx = ModulusCtx(jk_closed(k).value)
    d, s2 = _timed(sqrt_minus7, ctx)  # steps 2-3
    if d is None:
        v = Verdict(VerdictKind.NO_SQRT_MINUS7)
        return PipelineResult(v, _stats(ctx, t0, 3, s2=s2))

    twist = select_twist(k)  # step 4
    try:
        curve, start = montgomerize(twist.a, twist.point[0], d, ctx)  # 5-6
    except NonInvertibleError as e:
        v = Verdict(VerdictKind.GCD_WITNESS, witness=e.witness)
        return PipelineResult(v, _stats(ctx, t0, 5, s2=s2))

    before = ctx.op_counts()  # step 7
    (cur, prev, kept), s7 = _timed(double_chain, start, curve, ctx, k + 1,
                                   keep_at)
    s7ops = tuple(b - a for a, b in zip(before, ctx.op_counts()[:3]))

    early = prev.z == 0  # zero is absorbing: some iterate <= k was zero
    ok = (not early and is_strongly_nonzero(prev, ctx)
          and is_zero_mod(cur, ctx))  # step 8
    v = Verdict(VerdictKind.PRIME if ok else VerdictKind.CURVE_TEST)
    stats = _stats(ctx, t0, 7 if early else 8, early=early, s2=s2, s7=s7,
                   s7ops=s7ops)
    return PipelineResult(v, stats, kept)


def test_jk(k: int) -> tuple[Verdict, RunStats]:
    """Deterministic verdict for J_k, k >= 2.  Prime iff J_k is prime.

    Step 8 says Prime only if gcd(z_k, J_k) = 1 and J_k | z_{k+1}.  The
    gcd is what makes the order argument hold modulo every prime factor
    of J_k at once; z_k != 0 (mod J_k) would leave z_k free to vanish
    modulo one of them.
    """
    result = run_pipeline(k)
    return result.verdict, result.stats


def search(k_min: int, k_max: int, sieve_limit: int,
           workers: int = 1) -> list[tuple[int, Verdict, RunStats]]:
    """Sieve [k_min, k_max] by the primes <= sieve_limit, then test every
    survivor.  Ordered by k.

    A sieve_limit below 3 sieves by no prime, so every k is tested.
    Results are identical for any worker count; workers > 1 spreads
    candidates over at most min(workers, candidates, os.cpu_count())
    processes, each of which already holds a core, so their chains run
    on one lane.
    """
    if not 2 <= k_min <= k_max:
        raise ValueError("need 2 <= k_min <= k_max")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # the sieve needs n >= 4 and L >= 2; no J_k is <= 2
    report = sieve_range(max(k_max, 4), max(sieve_limit, 2))
    ks = [k for k in survivors(report) if k_min <= k <= k_max]
    workers = min(workers, len(ks), os.cpu_count() or 1)
    if workers <= 1:
        runs = map(test_jk, ks)
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(test_jk, ks, chunksize=8))
    return [(k, verdict, stats) for k, (verdict, stats) in zip(ks, runs)]
