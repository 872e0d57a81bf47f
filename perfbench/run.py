#!/usr/bin/env python3
"""The cm7prime benchmark: prove-large, search-3000 and sieve-deep.

Run from the repository root:

    python3 perfbench/run.py --workload prove-large --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload search-3000 --smoke --trace 1

One process, one caller, workers=1: each workload is a closed loop that
starts the next call only when the last one has returned.  The package
is imported from this checkout's src/ directory and from nowhere else.

--trace 0 times the workload and prints the end-to-end metrics.
--trace 1 runs one untraced pass, one traced pass and a fixed tour of
small probes, and prints the per-layer metrics (see README.md).
Either way every output is checked against reference.json, the human
readable lines come first, a record goes to perfbench/out/, and the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
SETUP_REPEATS = 3


@dataclasses.dataclass(frozen=True)
class Sizes:
    pool: tuple[int, ...]  # prove-large prime indices, one per size band
    search: tuple[int, int, int]  # search(k_min, k_max, sieve_limit)
    sieve: tuple[int, int]  # sieve_range(n, L)
    small_k: int  # warm-up and tour: a prime index
    small_search: tuple[int, int, int]
    small_sieve: tuple[int, int]  # also the slice every sieve engine runs
    probe_iters: int


FULL = Sizes(pool=(3779, 5537, 7069), search=(2, 3000, 10**5),
             sieve=(20000, 3 * 10**5), small_k=1129,
             small_search=(2, 400, 10**4), small_sieve=(1000, 10**4),
             probe_iters=400)
SMOKE = Sizes(pool=(17, 18), search=(2, 100, 1000), sieve=(200, 500),
              small_k=17, small_search=(2, 100, 1000), small_sieve=(200, 500),
              probe_iters=20)


class SetupError(RuntimeError):
    """The run cannot produce a comparable result; nothing is printed."""


def load_package():
    """Import cm7prime afresh from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "cm7prime" / "__init__.py").is_file():
        raise SetupError(f"no cm7prime sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == "cm7prime" or n.startswith("cm7prime.")]:
        del sys.modules[name]
    cm = importlib.import_module("cm7prime")
    if Path(cm.__file__).resolve().parent != (src / "cm7prime").resolve():
        raise SetupError(f"imported cm7prime from {cm.__file__}, not {src}")
    return cm


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except OSError as e:
        raise SetupError(f"cannot read {REFERENCE}: {e}") from None


def sieve_digest(report) -> str:
    """sha256 over a SieveReport's mask, per_prime counts and small_j_list."""
    h = hashlib.sha256(report.survivor_mask)
    h.update(json.dumps([report.n, report.limit,
                         sorted(report.per_prime.items()),
                         list(report.small_j_list)]).encode())
    return h.hexdigest()


def op_counts(stats) -> list[int]:
    """[mults, squarings, additions, gcd/inversions] of RunStats/VerifyStats."""
    return [stats.multiplications, stats.squarings, stats.additions,
            stats.gcd_calls]


def search_key(args) -> str:
    return "search " + " ".join(map(str, args))


def sieve_key(args) -> str:
    return "sieve " + " ".join(map(str, args))


class Checks:
    """Every correctness check the run makes; failures feed failed_ratio."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def tally_ops(tally: Counter, stats) -> None:
    for name, n in zip(("mults", "squarings", "additions", "inversions"),
                       op_counts(stats)):
        tally["mont_curve." + name] += n


def tally_run(tally: Counter, verdict, stats) -> None:
    tally_ops(tally, stats)
    tally["prover.candidates"] += 1
    tally["prover.step3_rejects"] += stats.step_reached == 3
    tally["prover.primes"] += verdict.is_prime


def check_chain(k: int, stats, checks: Checks) -> None:
    """A full chain costs exactly 5(k+1) mults+squarings and 4(k+1) adds."""
    if stats.step_reached == 8 and not stats.early_exit:
        checks.check(stats.step7_multiplications + stats.step7_squarings
                     == 5 * (k + 1) and stats.step7_additions == 4 * (k + 1),
                     f"chain counts at k={k} break the 5(k+1)/4(k+1) contract")


class _Barrett:
    """Barrett reduction mod a fixed n: bigint_kernel's arithmetic."""

    def __init__(self, n: int) -> None:
        s = n.bit_length()
        self.n, self.mu, self.pre, self.post = n, (1 << 2 * s) // n, s - 1, s + 1

    def reduce(self, t: int) -> int:
        r = t - (((t >> self.pre) * self.mu) >> self.post) * self.n
        while r >= self.n:
            r -= self.n
        return r

    def mul(self, a: int, b: int) -> int:
        return self.reduce(a * b)

    def sqr(self, a: int) -> int:
        return self.reduce(a * a)


_CAL = _Barrett((1 << 5001) + 0x1D5A3)
_CAL_C = pow(5, 777, _CAL.n)
CAL_PERIOD = 0.2  # seconds between speed samples during an operation


def bigint_kernel(steps: int = 20) -> float:
    """Seconds per step of a fixed kernel in the prover's style: x-only
    doublings mod a 5002-bit n with Python-level Barrett reduction."""
    c, n = _CAL, _CAL.n
    t = time.perf_counter()
    x, z = 9, 1
    for _ in range(steps):
        s = c.sqr((x + z) % n)
        d = c.sqr((x - z) % n)
        f = (s - d) % n
        x, z = c.mul(s, d), c.mul(f, (d + c.mul(_CAL_C, f)) % n)
    return (time.perf_counter() - t) / steps


@functools.cache
def _numpy_kernel_arrays():
    import numpy as np
    moduli = np.arange(3, 3 + 2 * 26000, 2, dtype=np.int64)
    return moduli, [np.full_like(moduli, v) % moduli for v in (11, 11, 23, 67)]


def numpy_kernel(steps: int = 10) -> float:
    """Seconds per step of a fixed kernel in the numpy sieve's style: one
    four-term recurrence step mod 26000 moduli at once."""
    moduli, (w0, w1, w2, w3) = _numpy_kernel_arrays()
    t = time.perf_counter()
    for _ in range(steps):
        nxt = (4 * w3 - 7 * w2 + 8 * w1 - 4 * w0) % moduli
        w0, w1, w2, w3 = w1, w2, w3, nxt
        (nxt == 0).any()
    return (time.perf_counter() - t) / steps


# Seconds per step of each kernel on a quiet core of the machine this
# benchmark was built on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4):
# the fastest of about 600 samples.  Both kernels are written here, not
# imported, so that no change to cm7prime can change them.
REFERENCE_STEP_S = {bigint_kernel: 2.1e-4, numpy_kernel: 3.2e-4}


def probed(run, kernel) -> tuple[object, float, float]:
    """(output, wall seconds, seconds at reference speed) of run().

    On a shared host the speed of a core drifts by up to two times, in
    bursts from a tenth of a second to many seconds.  So while run()
    works, a timer signal every CAL_PERIOD seconds takes a speed sample
    with kernel(), and one more is taken just before and just after.
    The call's seconds, less the time the samples took, over the mean
    sample, is its cost in kernel steps at the speed the core actually
    had meanwhile; times REFERENCE_STEP_S it is seconds again.
    """
    costs = [kernel()]
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        t = time.perf_counter()
        costs.append(kernel())
        spent += time.perf_counter() - t

    previous = signal.signal(signal.SIGALRM, tick)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD, CAL_PERIOD)
    try:
        out = run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0 - spent
        signal.signal(signal.SIGALRM, previous)
    costs.append(kernel())
    return out, seconds, (seconds / statistics.mean(costs)
                          * REFERENCE_STEP_S[kernel])


# A Task is (stage, key, run, check): run() is timed, check(out, checks,
# tally) is not.
class Workload:
    name = ""
    stages: tuple[str, ...] = ()
    kernel = staticmethod(bigint_kernel)  # speed probe that resembles the work

    def __init__(self, cm, ref: dict, sizes: Sizes, seed: int) -> None:
        self.cm, self.ref, self.sizes, self.seed = cm, ref, sizes, seed
        self.known_primes = ref["prime_indices"]
        self.tracer: Tracer | None = None
        self.checks: Checks | None = None  # for checks made inside run()

    def tasks(self) -> list:
        raise NotImplementedError

    @classmethod
    def small(cls, cm, ref: dict, sizes: Sizes, seed: int) -> "Workload":
        """The same workload at warm-up and tour size."""
        raise NotImplementedError

    def warm_up(self) -> None:
        small = self.small(self.cm, self.ref, self.sizes, self.seed)
        for _, _, run, check in small.tasks():
            check(run(), Checks(), Counter())

    def traced(self, tracer: Tracer, checks: Checks) -> "Workload":
        """From now on, tasks record spans and replay each test_jk inline."""
        self.tracer, self.checks = tracer, checks
        return self

    def span(self, name: str, op: str | None = None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, op)

    def replay(self, k: int, out) -> None:
        if self.tracer is not None:
            replay(self.cm, k, *out, self.tracer, self.checks)

    def after_pass(self) -> None:
        """Spans the traced run takes outside the workload's own calls."""


class ProveLarge(Workload):
    """test_jk, then build -> serialize -> parse -> verify, per pool index."""

    name = "prove-large"
    stages = ("prove_s", "certify_s", "verify_s")

    def __init__(self, cm, ref, sizes, seed, pool=None):
        super().__init__(cm, ref, sizes, seed)
        self.pool = list(pool or sizes.pool)
        for k in self.pool:
            if str(k) not in ref["prove"]:
                raise SetupError(f"k={k} is not a proven index in reference.json")
        self.rng = random.Random(seed)
        self.rng.shuffle(self.pool)
        self.texts: dict[int, str | None] = {}

    @classmethod
    def small(cls, cm, ref, sizes, seed):
        return cls(cm, ref, sizes, seed, pool=(sizes.small_k,))

    def tasks(self):
        out = []
        for k in self.pool:
            out += [("prove_s", k, partial(self._prove, k),
                     partial(self._check_prove, k)),
                    ("certify_s", k, partial(self._certify, k),
                     partial(self._check_certify, k)),
                    ("verify_s", k, partial(self._verify, k),
                     partial(self._check_verify, k))]
        return out

    def _prove(self, k):
        with self.span("prove", f"k{k}"):
            with self.span("prover.test_jk"):
                out = self.cm.test_jk(k)
            self.replay(k, out)
        return out

    def _certify(self, k):
        with self.span("certify", f"k{k}"):
            with self.span("certificate.build_certificate"):
                cert = self.cm.build_certificate(k)
            if self.tracer is not None:
                self._build_extra(k)
            if not isinstance(cert, self.cm.Certificate):
                return None
            with self.span("certificate.serialize"):
                return self.cm.serialize(cert)

    def _build_extra(self, k):
        """run_pipeline(k, keep_at=s) alone, right after the build holding it."""
        with self.span("build_extra"):
            n = self.cm.jk_closed(k).value
            s = k + 1 - self.cm.minimal_doubling_exponent(n)
            with self.span("certificate.run_pipeline"):
                self.cm.run_pipeline(k, keep_at=s)

    def _verify(self, k):
        if self.texts[k] is None:
            return None
        with self.span("verify", f"k{k}"):
            with self.span("certificate.parse"):
                cert = self.cm.parse(self.texts[k])
            with self.span("certificate.verify_certificate"):
                return (cert, *self.cm.verify_certificate(cert))

    def _check_prove(self, k, out, checks, tally):
        verdict, stats = out
        checks.check(verdict.is_prime, f"test_jk({k}) said {verdict.label()}")
        frozen = self.ref["prove"][str(k)]["test"]
        checks.check(op_counts(stats) == frozen,
                     f"test_jk({k}) counts {op_counts(stats)} != {frozen}")
        check_chain(k, stats, checks)
        tally_run(tally, verdict, stats)

    def _check_certify(self, k, text, checks, tally):
        self.texts[k] = text
        checks.check(text is not None, f"no certificate for prime index {k}")

    def _check_verify(self, k, out, checks, tally):
        if out is None:
            checks.check(False, f"nothing to verify for k={k}")
            return
        cert, ok, vstats = out
        checks.check(ok, f"certificate for k={k} rejected: {vstats.reason}")
        frozen = self.ref["prove"][str(k)]["verify"]
        checks.check(op_counts(vstats) == frozen,
                     f"verify({k}) counts {op_counts(vstats)} != {frozen}")
        checks.check(vstats.mults_plus_squarings <= 2.6 * k + 64,
                     f"verify({k}) used {vstats.mults_plus_squarings} mults")
        field = self.rng.choice(("k", "n", "a", "d", "r", "x", "y", "z"))
        bad_ok, _ = self.cm.verify_certificate(self._mutate(cert, field))
        checks.check(not bad_ok, f"k={k}: certificate with {field} mutated "
                                 "was accepted")
        tally_ops(tally, vstats)
        tally["certificate.verify_mults"] += vstats.mults_plus_squarings

    def _mutate(self, cert, field):
        n = cert.n
        if field == "a":
            others = sorted(set(self.cm.twist_tables.TWISTS) - {cert.a})
            return dataclasses.replace(cert, a=self.rng.choice(others))
        if field in ("x", "y", "z"):
            q = list(cert.q)
            i = "xyz".index(field)
            q[i] = (q[i] + 1) % n
            return dataclasses.replace(cert, q=tuple(q))
        bump = {"k": 1, "n": 2, "d": 1, "r": 1}[field]
        value = getattr(cert, field) + bump
        return dataclasses.replace(cert, **{field: value % n if field == "d"
                                            else value})


class Search3000(Workload):
    """search(2, 3000, 10**5, workers=1): no random choice, seed unused."""

    name = "search-3000"
    stages = ("search_s",)

    def __init__(self, cm, ref, sizes, seed, args=None):
        super().__init__(cm, ref, sizes, seed)
        self.args = tuple(args or sizes.search)
        self.key = search_key(self.args)
        if self.key not in ref["search"]:
            raise SetupError(f"no frozen verdicts for {self.key}")

    @classmethod
    def small(cls, cm, ref, sizes, seed):
        return cls(cm, ref, sizes, seed, args=sizes.small_search)

    def tasks(self):
        return [("search_s", self.key, self._search, self._check)]

    def _search(self):
        k_min, k_max, limit = self.args
        if self.tracer is None:
            return self.cm.search(k_min, k_max, limit, workers=1)
        # search() with workers=1, spelled out through the public calls
        rows = []
        with self.span("search", "search"):
            with self.span("sieve.sieve_range"):
                report = self.cm.sieve_range(k_max, limit)
            with self.span("sieve.survivors"):
                ks = [k for k in self.cm.survivors(report) if k >= k_min]
            for k in ks:
                with self.span("prover.test_jk", f"k{k}"):
                    out = self.cm.test_jk(k)
                self.replay(k, out)
                rows.append((k, *out))
        return rows

    def after_pass(self):
        with self.span("sieve.iter_primes", "search"):
            list(self.cm.iter_primes(self.args[2]))

    def _check(self, rows, checks, tally):
        frozen = self.ref["search"][self.key]
        checks.check(len(rows) == len(frozen),
                     f"{self.key}: {len(rows)} survivors, expected {len(frozen)}")
        for (k, verdict, stats), want in zip(rows, frozen):
            got = [k, verdict.label(), *op_counts(stats)]
            checks.check(got == want, f"{self.key}: got {got}, expected {want}")
            check_chain(k, stats, checks)
            tally_run(tally, verdict, stats)
        tested = {k for k, _, _ in rows}
        k_min, k_max, _ = self.args
        for p in self.known_primes:
            if k_min <= p <= k_max:
                checks.check(p in tested, f"{self.key}: prime index {p} sieved out")
        tally["sieve.survivors"] += len(rows)
        tally["sieve.indices"] += k_max - k_min + 1


class SieveDeep(Workload):
    """sieve_range(20000, 3*10**5) with the auto engine: seed unused."""

    name = "sieve-deep"
    stages = ("sieve_s",)
    kernel = staticmethod(numpy_kernel)

    def __init__(self, cm, ref, sizes, seed, args=None):
        super().__init__(cm, ref, sizes, seed)
        self.args = tuple(args or sizes.sieve)
        self.key = sieve_key(self.args)
        if self.key not in ref["sieve"]:
            raise SetupError(f"no frozen digest for {self.key}")

    @classmethod
    def small(cls, cm, ref, sizes, seed):
        return cls(cm, ref, sizes, seed, args=sizes.small_sieve)

    def tasks(self):
        return [("sieve_s", self.key, self._sieve, self._check)]

    def _sieve(self):
        with self.span("sieve", "sieve"), self.span("sieve.sieve_range"):
            return self.cm.sieve_range(*self.args)

    def after_pass(self):
        with self.span("sieve.iter_primes", "sieve"):
            list(self.cm.iter_primes(self.args[1]))

    def _check(self, report, checks, tally):
        frozen = self.ref["sieve"][self.key]["sha256"]
        checks.check(sieve_digest(report) == frozen,
                     f"{self.key}: report differs from the python reference")
        n = self.args[0]
        for p in self.known_primes:
            if p <= n:
                checks.check(report.survivor_mask[p] == 1,
                             f"{self.key}: prime index {p} eliminated")
        tally["sieve.survivors"] += sum(report.survivor_mask[1:])
        tally["sieve.indices"] += n


WORKLOADS = {w.name: w for w in (ProveLarge, Search3000, SieveDeep)}


def measure(tasks: list, seconds: float, checks: Checks, tally: Counter,
            kernel=None):
    """Closed loop over rounds of tasks until the time budget is spent.

    At least one full round always runs.  After that a task starts only
    if its last duration, halved, still fits in the budget, so a run
    overshoots by at most half a task.  Returns two {stage: {key: [...]}}
    maps: the wall seconds of each sample and, given a speed kernel, its
    seconds at reference speed (see probed()).  The budget is wall time.
    """
    samples: dict = {}
    at_ref: dict = {}
    t0 = time.perf_counter()
    first_round = True
    while True:
        for stage, key, run, check in tasks:
            per_key = samples.setdefault(stage, {}).setdefault(key, [])
            if not first_round and (time.perf_counter() - t0
                                    + per_key[-1] / 2 > seconds):
                return samples, at_ref
            if kernel:
                out, dt, ref_s = probed(run, kernel)
                at_ref.setdefault(stage, {}).setdefault(key, []).append(ref_s)
            else:
                t = time.perf_counter()
                out = run()
                dt = time.perf_counter() - t
            per_key.append(dt)
            check(out, checks, tally)
        first_round = False
        tally = Counter()  # counts describe one pass


def stage_total(samples: dict, stat=min) -> dict[str, float]:
    """Per stage: the sum over keys of stat(that key's samples).

    The default is the fastest sample: contention only ever slows a
    sample, in bursts, and with one to four samples per input a median
    is close to their mean and keeps the bursts.
    """
    return {stage: sum(stat(v) for v in per_key.values())
            for stage, per_key in samples.items()}


MONT_STEPS = ("mont_curve.sqrt_minus7", "mont_curve.montgomerize",
              "mont_curve.double_chain", "mont_curve.order_check")
STEPS = ("jk_sequence.jk_closed", "twist_tables.select_twist") + MONT_STEPS
STAGE_SPANS = ("prove", "certify", "verify", "search", "sieve")
ASIDE_SPANS = ("replay", "build_extra")  # traced-run extras inside a stage


def replay(cm, k: int, verdict, stats, tracer: Tracer, checks: Checks) -> None:
    """Re-run test_jk(k)'s steps through the public functions, in spans.

    The replay must reach the same verdict and, for every chain that ran
    to the end, the same op counts as the test_jk call just made.
    """
    span = tracer.span
    with span("replay", f"k{k}"):
        with span("jk_sequence.jk_closed"):
            n = cm.jk_closed(k).value
            forced = cm.forced_composite(k)
        ctx = cm.ModulusCtx(n)
        label = "Composite:ForcedCongruence"
        if not forced:
            with span("mont_curve.sqrt_minus7"):
                d = cm.sqrt_minus7(ctx)
            label = "Composite:NoSqrtMinus7"
        if not forced and d is not None:
            with span("twist_tables.select_twist"):
                twist = cm.select_twist(k)
            try:
                with span("mont_curve.montgomerize"):
                    curve, start = cm.montgomerize(twist.a, twist.point[0], d, ctx)
            except cm.NonInvertibleError:
                label = "Composite:GcdWitness"
            else:
                with span("mont_curve.double_chain"):
                    final, pen, _ = cm.double_chain(start, curve, ctx, k + 1)
                with span("mont_curve.order_check"):
                    ok = (cm.is_strongly_nonzero(pen, ctx)
                          and cm.is_zero_mod(final, ctx))
                label = "Prime" if ok else "Composite:CurveTest"
    checks.check(label == verdict.label(),
                 f"replay of k={k} said {label}, test_jk {verdict.label()}")
    if not stats.early_exit:
        checks.check(list(ctx.op_counts()) == op_counts(stats),
                     f"replay of k={k} counts {ctx.op_counts()} "
                     f"!= test_jk {op_counts(stats)}")
    m, s, _, _ = ctx.op_counts()
    tracer.tally["replay.mults_plus_squarings"] += m + s


def probes(cm, tracer: Tracer, probe_k: int, iters: int, seed: int) -> None:
    """The fixed-size layer rows: multiply, square and double mod J_k."""
    rng = random.Random(seed)
    tracer.tally["probe.iters"] = iters
    for suffix, k in (("", probe_k), (".k16385", 16385), (".k32769", 32769)):
        ctx = cm.ModulusCtx(cm.jk_closed(k).value)  # J_k need not be prime
        a, b = rng.randrange(ctx.N), rng.randrange(ctx.N)
        with tracer.span("mont_curve.mul" + suffix, f"k{k}"):
            for _ in range(iters):
                a = ctx.mul(a, b)
        if suffix:
            continue
        with tracer.span("mont_curve.sqr", f"k{k}"):
            for _ in range(iters):
                a = ctx.sqr(a)
        curve = cm.MontCurveCtx(0, 0, 1, rng.randrange(ctx.N))
        point = cm.XZPoint(rng.randrange(ctx.N), 1)
        with tracer.span("mont_curve.double", f"k{k}"):
            cm.double_chain(point, curve, ctx, iters)


def sieve_engines(cm, ref, args, tracer: Tracer, checks: Checks) -> None:
    """Every sieve engine on one shared slice; all must match the reference."""
    frozen = ref["sieve"][sieve_key(args)]["sha256"]
    for engine in ("python", "period", "numpy"):
        with tracer.span("sieve.engine." + engine, "slice"):
            report = cm.sieve_range(*args, engine=engine)
        checks.check(sieve_digest(report) == frozen,
                     f"{engine} engine differs from reference on {args}")


def traced_pass(wl: Workload, checks: Checks, tracer: Tracer) -> float:
    """One traced round of wl into tracer; returns the traced pass seconds.

    The pass time is the stage spans less the replay and build_extra
    spans nested in them, so it covers the same calls as the untraced pass.
    """
    measure(wl.traced(tracer, checks).tasks(), 0, checks, tracer.tally)
    wl.after_pass()
    asides = sum(tracer.total(a, parent=s)
                 for a in ASIDE_SPANS for s in STAGE_SPANS)
    return sum(tracer.total(s) for s in STAGE_SPANS) - asides


def tour(wl: Workload, checks: Checks) -> Tracer:
    """Small fixed runs of every layer, for metrics the workload lacks."""
    cm, ref, sizes, seed = wl.cm, wl.ref, wl.sizes, wl.seed
    tracer = Tracer()
    for cls in (ProveLarge, Search3000):
        small = cls.small(cm, ref, sizes, seed)
        small.warm_up()  # the first sieve call also imports numpy
        traced_pass(small, checks, tracer)
    sieve_engines(cm, ref, sizes.small_sieve, tracer, checks)
    probe_k = max(wl.pool) if isinstance(wl, ProveLarge) else max(sizes.pool)
    probes(cm, tracer, probe_k, sizes.probe_iters, seed)
    return tracer


def _ratio(a: float, b: float) -> float | None:
    return a / b if b else None


def _probe(t: Tracer, name: str) -> float | None:
    return t.total(name) / t.tally["probe.iters"] if t.has(name) else None


def _busy(t: Tracer, name: str) -> float | None:
    return t.total(name) if t.has(name) else None


def _count(t: Tracer, name: str) -> int | None:
    return t.tally[name] if name in t.tally else None


def _less(t: Tracer, outer: str, inner: tuple[str, ...]) -> float | None:
    """Time in spans called outer minus time in the inner spans it replays."""
    if not t.has(inner[-1]):
        return None
    return t.total(outer) - sum(t.total(n) for n in inner)


# name -> (unit, value from a Tracer, or None where that tracer lacks it)
PER_LAYER = {
    "mont_curve.mul_s": ("s", lambda t: _probe(t, "mont_curve.mul")),
    "mont_curve.sqr_s": ("s", lambda t: _probe(t, "mont_curve.sqr")),
    "mont_curve.mul_s.k16385": ("s", lambda t: _probe(t, "mont_curve.mul.k16385")),
    "mont_curve.mul_s.k32769": ("s", lambda t: _probe(t, "mont_curve.mul.k32769")),
    "mont_curve.double_s": ("s", lambda t: _probe(t, "mont_curve.double")),
    "mont_curve.chain_s": ("s", lambda t: _busy(t, "mont_curve.double_chain")),
    "mont_curve.sqrt_minus7_s": ("s", lambda t: _busy(t, "mont_curve.sqrt_minus7")),
    "mont_curve.montgomerize_s": ("s", lambda t: _busy(t, "mont_curve.montgomerize")),
    "mont_curve.mults": ("count", lambda t: _count(t, "mont_curve.mults")),
    "mont_curve.squarings": ("count", lambda t: _count(t, "mont_curve.squarings")),
    "mont_curve.additions": ("count", lambda t: _count(t, "mont_curve.additions")),
    "mont_curve.inversions": ("count", lambda t: _count(t, "mont_curve.inversions")),
    "mont_curve.s_per_op": ("s", lambda t: _ratio(
        sum(t.total(n) for n in MONT_STEPS), t.tally["replay.mults_plus_squarings"])),
    "prover.overhead_s": ("s", lambda t: _less(t, "prover.test_jk", STEPS)),
    "prover.candidates": ("count", lambda t: _count(t, "prover.candidates")),
    "prover.step3_reject_ratio": ("ratio", lambda t: _ratio(
        t.tally["prover.step3_rejects"], t.tally["prover.candidates"])),
    "prover.prime_yield": ("ratio", lambda t: _ratio(
        t.tally["prover.primes"], t.tally["prover.candidates"])),
    "certificate.build_extra_s": ("s", lambda t: _less(
        t, "certificate.build_certificate", ("certificate.run_pipeline",))),
    "certificate.verify_mults": ("count", lambda t: _count(t, "certificate.verify_mults")),
    "sieve.range_s": ("s", lambda t: _busy(t, "sieve.sieve_range")),
    "sieve.iter_primes_s": ("s", lambda t: _busy(t, "sieve.iter_primes")),
    "sieve.python_s": ("s", lambda t: _busy(t, "sieve.engine.python")),
    "sieve.period_s": ("s", lambda t: _busy(t, "sieve.engine.period")),
    "sieve.numpy_s": ("s", lambda t: _busy(t, "sieve.engine.numpy")),
    "sieve.survivor_ratio": ("ratio", lambda t: _ratio(
        t.tally["sieve.survivors"], t.tally["sieve.indices"])),
    "sieve.share_of_search": ("ratio", lambda t: _ratio(
        t.total("sieve.sieve_range", parent="search"),
        t.total("search") - t.total("replay", parent="search"))),
    "jk_sequence.jk_closed_s": ("s", lambda t: _busy(t, "jk_sequence.jk_closed")),
    "twist_tables.select_twist_s": ("s", lambda t: _busy(t, "twist_tables.select_twist")),
}
TRACE_METRICS = {"trace.overhead_s": "s", "trace.overhead_ratio": "ratio"}
COUNT_KEYS = ("mont_curve.mults", "mont_curve.squarings", "mont_curve.additions",
              "mont_curve.inversions", "prover.candidates", "prover.primes",
              "certificate.verify_mults", "sieve.survivors", "sieve.indices")


def run_traced(wl: Workload, checks: Checks, record: dict) -> dict:
    """Untraced pass, traced pass, tour; returns the per-layer metrics."""
    tally = Counter()
    plain = sum(stage_total(measure(wl.tasks(), 0, checks, tally)[0]).values())
    tracer = Tracer()
    traced = traced_pass(wl, checks, tracer)
    checks.check(all(tally[c] == tracer.tally[c] for c in COUNT_KEYS),
                 "traced counts differ from the untraced pass")
    extra = tour(wl, checks)
    metrics, sources = {}, {}
    for name, (unit, fn) in PER_LAYER.items():
        for source, t in (("workload", tracer), ("tour", extra)):
            value = fn(t)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
                sources[name] = source
                break
        else:
            raise RuntimeError(f"no span or count yields {name}")
    metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced / plain - 1, "unit": "ratio"}
    sources.update(dict.fromkeys(TRACE_METRICS, "workload"))
    print(f"untraced pass {plain:.4f} s, traced pass {traced:.4f} s")
    print("self time by span (workload):")
    for name, s in sorted(tracer.self_times().items(), key=lambda x: -x[1]):
        print(f"  {name:34s} {s:.6f} s")
    for name, m in metrics.items():
        print(f"{name:30s} {m['value']:.6g} {m['unit']}  [{sources[name]}]")
    record.update(sources=sources, spans={"workload": tracer.export(),
                                          "tour": extra.export()})
    return metrics


def run_timed(wl: Workload, seconds: float, checks: Checks, record: dict) -> float:
    """Prints each stage; returns one pass in seconds at reference speed."""
    samples, at_ref = measure(wl.tasks(), seconds, checks, Counter(),
                              wl.kernel)
    wall = stage_total(samples)
    medians = stage_total(samples, statistics.median)
    ref = stage_total(at_ref)
    for stage in wl.stages:
        n = [len(v) for v in samples[stage].values()]
        print(f"{stage:12s} {ref[stage]:.4f} s at reference speed; wall "
              f"{wall[stage]:.4f} s (sum over {len(n)} input(s) of the "
              f"fastest of {min(n)}-{max(n)} sample(s); with medians "
              f"{medians[stage]:.4f} s)")
    record.update(samples=samples, at_reference_speed=at_ref)
    return sum(ref.values())


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(args) -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version,
            "sieve_auto_engine": "numpy" if numpy_version else "python",
            "commit": git_commit(), "seed": args.seed,
            "seed_used": args.workload == "prove-large" or bool(args.trace),
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def set_up(args, sizes: Sizes) -> Workload:
    """Import from source, load the reference, build inputs, warm up."""
    cm = load_package()
    wl = WORKLOADS[args.workload](cm, load_reference(), sizes, args.seed)
    wl.warm_up()
    return wl


def run(args) -> dict:
    sizes = SMOKE if args.smoke else FULL
    facts = machine_facts(args)
    if facts["numpy"] is None and (args.trace or args.workload != "prove-large"):
        raise SetupError("numpy is missing: the auto sieve engine would be the "
                         "python one, so this run is not comparable")
    kernel = WORKLOADS[args.workload].kernel
    setups = [probed(partial(set_up, args, sizes), kernel)
              for _ in range(SETUP_REPEATS)]
    wl = setups[-1][0]
    print(f"# cm7prime benchmark: {json.dumps(facts)}")
    checks = Checks()
    record = {"facts": facts}
    if args.trace:
        metrics = run_traced(wl, checks, record)
    else:
        pass_s = run_timed(wl, args.seconds, checks, record)
        setup_s = statistics.median(r for _, _, r in setups)
        print(f"setup wall   {statistics.median(w for _, w, _ in setups):.4f} s "
              f"(median of {SETUP_REPEATS})")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "pass_s": {"value": pass_s, "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
        for name, m in metrics.items():
            print(f"{name:12s} {m['value']:.4f} {m['unit']}")
    failed = len(checks.failures)
    print(f"failed_ratio {failed / checks.attempted:.4g} "
          f"({failed} of {checks.attempted} checks failed)")
    for what in checks.failures[:20]:
        print(f"  FAILED: {what}")
    result = {"correct": failed == 0, "attempted": checks.attempted,
              "failed": failed, "metrics": metrics}
    record.update(result=result, failures=checks.failures,
                  setup_samples=[s[1:] for s in setups])
    OUT.mkdir(exist_ok=True)
    name = (f"{args.workload}{'-smoke' if args.smoke else ''}"
            f"-seed{args.seed}-trace{args.trace}.json")
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: every workload and the traced run in seconds")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
