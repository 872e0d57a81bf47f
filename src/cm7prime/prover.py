"""The deterministic primality test for J_k, end to end.

For k > 1 with k != 0 (mod 8) and k != 6 (mod 24), J_k is prime if and
only if the twist point P_a (chosen by twist_tables) has order 2^(k+1)
on E_a mod J_k, which the x-only chain certifies as: the k-th doubling
iterate is strongly nonzero (gcd(z_k, J_k) = 1) and the (k+1)-st is zero
(J_k | z_{k+1}).  Steps:

  1. congruence filter (3 | J_k or 5 | J_k),
  2. d = 7^((J_k+1)/4) mod J_k,
  3. composite unless d^2 = -7,
  4. twist selection by k mod 72,
  5. Montgomery constants r, B, C,
  6. start point [B(x0 - r) : 1],
  7. k+1 doublings,
  8. the order-2^(k+1) check.

Every verdict is deterministic; all modular work flows through one
counted ModulusCtx so RunStats can assert the cost model (step 7 is
exactly 5(k+1) multiplications-plus-squarings and 4(k+1) additions,
the whole run at most 6.5k multiplications-plus-squarings for large k).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

from .jk_sequence import forced_composite, jk_closed
from .mont_curve import (ModulusCtx, MontCurveCtx, NonInvertibleError, OpCounts,
                         XZPoint, double_chain, is_strongly_nonzero,
                         is_zero_mod, montgomerize, sqrt_minus7)
from .sieve import sieve_range, survivors
from .twist_tables import TwistChoice, select_twist

MODE_STRONG = "strong"  # gcd(z_k, N) = 1, unconditional
MODE_SIMPLE = "simple"  # z_k != 0 suffices for k >= 6


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
    """test_jk's innards, for the certificate builder and tests."""

    verdict: Verdict
    stats: RunStats
    n: int
    twist: TwistChoice | None = None
    curve: MontCurveCtx | None = None
    start: XZPoint | None = None
    kept: XZPoint | None = None
    ctx: ModulusCtx | None = None


def _stats(ctx: ModulusCtx | None, t0: float, step: int, *, early: bool = False,
           s2: float = 0.0, s7: float = 0.0,
           s7ops: tuple[int, int, int] = (0, 0, 0)) -> RunStats:
    return RunStats.from_ctx(ctx, time.perf_counter() - t0, step, early,
                             s2, s7, *s7ops)


def run_pipeline(k: int, mode: str = MODE_STRONG, jk: int | None = None,
                 keep_at: int | None = None) -> PipelineResult:
    """All eight steps, exposing the intermediates test_jk hides."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if mode not in (MODE_STRONG, MODE_SIMPLE):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_SIMPLE and k < 6:
        raise ValueError("simple mode is only valid for k >= 6")
    if keep_at is not None and not 0 <= keep_at <= k + 1:
        raise ValueError("keep_at out of range")
    t0 = time.perf_counter()
    n = jk_closed(k).value
    if jk is not None and jk != n:
        raise ValueError(f"supplied value is not J_{k}")

    if forced_composite(k):  # step 1
        v = Verdict(VerdictKind.FORCED_CONGRUENCE)
        return PipelineResult(v, _stats(None, t0, 1), n)

    ctx = ModulusCtx(n)
    t2 = time.perf_counter()
    d = sqrt_minus7(ctx)  # steps 2-3
    s2 = time.perf_counter() - t2
    if d is None:
        v = Verdict(VerdictKind.NO_SQRT_MINUS7)
        return PipelineResult(v, _stats(ctx, t0, 3, s2=s2), n, ctx=ctx)

    twist = select_twist(k)  # step 4
    try:
        curve, start = montgomerize(twist.a, twist.point[0], d, ctx)  # 5-6
    except NonInvertibleError as e:
        v = Verdict(VerdictKind.GCD_WITNESS, witness=e.witness)
        return PipelineResult(v, _stats(ctx, t0, 5, s2=s2), n, twist, ctx=ctx)

    before = ctx.op_counts()
    t7 = time.perf_counter()
    cur, prev, kept = double_chain(start, curve, ctx, k + 1, keep_at)  # step 7
    s7 = time.perf_counter() - t7
    after = ctx.op_counts()
    s7ops = (after[0] - before[0], after[1] - before[1], after[2] - before[2])

    if prev.z == 0:  # zero is absorbing: some iterate <= k was zero
        v = Verdict(VerdictKind.CURVE_TEST)  # order < 2^(k+1): composite
        stats = _stats(ctx, t0, 7, early=True, s2=s2, s7=s7, s7ops=s7ops)
        return PipelineResult(v, stats, n, twist, curve, start, kept, ctx)

    # step 8
    if mode == MODE_STRONG:
        pen_ok = is_strongly_nonzero(prev, ctx)
    else:
        pen_ok = prev.z % n != 0
    ok = pen_ok and is_zero_mod(cur, ctx)
    v = Verdict(VerdictKind.PRIME if ok else VerdictKind.CURVE_TEST)
    stats = _stats(ctx, t0, 8, s2=s2, s7=s7, s7ops=s7ops)
    return PipelineResult(v, stats, n, twist, curve, start, kept, ctx)


def test_jk(k: int, mode: str = MODE_STRONG,
            jk: int | None = None) -> tuple[Verdict, RunStats]:
    """Deterministic verdict for J_k.  Prime iff J_k is prime.

    An externally supplied jk is only accepted when it equals the
    recomputed J_k; the criterion is about the pair (k, J_k), so a
    mismatch is a caller bug, not a composite.
    """
    result = run_pipeline(k, mode, jk)
    return result.verdict, result.stats


def _search_worker(args: tuple[int, str]) -> tuple[int, Verdict, RunStats]:
    k, mode = args
    verdict, stats = test_jk(k, mode)
    return k, verdict, stats


def search(k_min: int, k_max: int, sieve_limit: int, workers: int = 1,
           mode: str = MODE_STRONG) -> list[tuple[int, Verdict, RunStats]]:
    """Sieve [k_min, k_max], then test every survivor.  Ordered by k.

    sieve_limit < 3 disables sieving (every k is tested).  Results are
    identical for any worker count; workers > 1 spreads candidates over
    at most min(workers, candidates, os.cpu_count()) processes.
    """
    if not 2 <= k_min <= k_max:
        raise ValueError("need 2 <= k_min <= k_max")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if sieve_limit < 3:
        ks = list(range(k_min, k_max + 1))
    else:
        report = sieve_range(max(k_max, 4), sieve_limit)  # sieve needs n >= 4
        ks = [k for k in survivors(report) if k_min <= k <= k_max]
    jobs = [(k, mode) for k in ks]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_search_worker(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_search_worker, jobs, chunksize=8))


def bench_run(k: int) -> tuple[float, float]:
    """(step-2 seconds, step-7 seconds) for J_k, timing harness only.

    Runs the real exponentiation, then a k+1 doubling chain with the
    same operand sizes even when d^2 != -7 (composite J_k would exit at
    step 3 and leave nothing to time).  No verdict semantics.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    n = jk_closed(k).value
    ctx = ModulusCtx(n)
    t = time.perf_counter()
    d = sqrt_minus7(ctx)
    step2 = time.perf_counter() - t
    curve = MontCurveCtx(d or 0, 0, 1 % n, (d if d is not None else 3) % n)
    t = time.perf_counter()
    double_chain(XZPoint(5 % n, 1 % n), curve, ctx, k + 1)
    step7 = time.perf_counter() - t
    return step2, step7
