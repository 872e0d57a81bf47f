"""Command line front end.

Exit codes: 0 = answer produced (a composite verdict is an answer),
2 = usage error, 3 = I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certificate as cert_mod
from . import jk_sequence, mont_curve, prover, quad_ring, refcheck, sieve
from . import twist_tables as twists

_DEFAULT_BENCH = "1025,2049,4097,8193"  # 2^m + 1 for m = 10..13
_MAX_SIEVE_LIMIT = 10**8  # the sieve keeps every prime <= L and L + 1 factors


def _decimal(text: str) -> int:
    """An integer argument, held to the certificate fields' canonical rule."""
    if not cert_mod._CANONICAL.fullmatch(text):
        raise ValueError(f"not a canonical decimal: {text!r}")
    return int(text)


def _positive_k(text: str) -> int:
    k = _decimal(text)
    if k < 2:
        raise argparse.ArgumentTypeError("k must be >= 2")
    return k


def _sieve_limit(text: str) -> int:
    limit = _decimal(text)
    if limit > _MAX_SIEVE_LIMIT:
        raise argparse.ArgumentTypeError(f"must be <= {_MAX_SIEVE_LIMIT}")
    return limit


def _emit(text: str, out: str | None) -> int:
    """Write text to the --out file, or to stdout without one."""
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: cannot write {out}: {e}", file=sys.stderr)
        return 3
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    verdict, stats = prover.test_jk(args.k)
    digits = cert_mod.decimal_digits(jk_sequence.jk_closed(args.k).value)
    ms = stats.elapsed * 1000.0
    if args.json:
        print(json.dumps({"k": args.k, "verdict": verdict.label(),
                          "digits": digits,
                          "mults": stats.mults_plus_squarings,
                          "ms": round(ms, 3)}))
    else:
        print(f"k={args.k} verdict={verdict.label()} digits={digits} "
              f"mults={stats.mults_plus_squarings} ms={ms:.2f}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    results = prover.search(args.kmin, args.kmax, args.sieve_limit, args.jobs)
    lines = [f"{k},{v.label()},{s.mults_plus_squarings},{s.elapsed * 1000.0:.2f}"
             for k, v, s in results]
    primes = sum(1 for _, v, _ in results if v.is_prime)
    lines.append(f"# survivors={len(results)} primes={primes}")
    return _emit("\n".join(lines) + "\n", args.out)


def cmd_certify(args: argparse.Namespace) -> int:
    built = cert_mod.build_certificate(args.k)
    if isinstance(built, prover.Verdict):
        print("no certificate: composite")
        return 0
    return _emit(cert_mod.serialize(built), args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "r", encoding="utf-8", newline="") as fh:
            cert = cert_mod.parse(fh.read())
    except OSError as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return 3
    except (UnicodeDecodeError, cert_mod.CertificateFormatError) as e:
        print(f"error: malformed certificate: {e}", file=sys.stderr)
        return 3
    ok, stats = cert_mod.verify_certificate(cert)
    print("VALID" if ok else f"INVALID:{stats.reason}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    entries = [t.strip() for t in args.kset.split(",")]
    if not any(entries):
        raise ValueError("--kset must name at least one k")
    try:
        kset = [_decimal(t) for t in entries]
    except ValueError:
        raise ValueError("--kset must be a comma-separated list of "
                         "integers") from None
    if any(k < 2 for k in kset):
        raise ValueError("--kset entries must be >= 2")
    print(f"{'k':>8}  {'step2_s':>10}  {'step7_s':>10}")
    timings: dict[int, float] = {}
    for k in kset:
        stats = prover.bench_run(k)
        timings[k] = s7 = stats.step7_seconds
        print(f"{k:>8}  {stats.step2_seconds:>10.3f}  {s7:>10.3f}")
    for k in kset:
        half = (k - 1) // 2 + 1
        if (k - 1) % 2 == 0 and half in timings and half != k:
            print(f"ratio step7({k})/step7({half}) = {timings[k] / timings[half]:.2f}")
    return 0


def _selftest_quad_ring() -> None:
    from random import Random
    rng = Random(7)
    for _ in range(50):
        x = quad_ring.QuadInt(rng.randrange(-99, 99), rng.randrange(-99, 99))
        y = quad_ring.QuadInt(rng.randrange(-99, 99), rng.randrange(-99, 99))
        assert quad_ring.qi_norm(quad_ring.qi_mul(x, y)) == \
            quad_ring.qi_norm(x) * quad_ring.qi_norm(y)
        assert quad_ring.qi_conj(quad_ring.qi_conj(x)) == x
    for k in range(1, 40):
        assert quad_ring.qi_norm(quad_ring.jk_element(k)) == \
            jk_sequence.jk_closed(k).value


def _selftest_jk_sequence() -> None:
    stream = {jv.k: jv.value for jv in jk_sequence.jk_stream(200)}
    for k in (1, 2, 3, 4, 50, 137, 200):
        assert stream[k] == jk_sequence.jk_closed(k).value
    for ell in (3, 5, 11, 13):
        residues = list(jk_sequence.jk_mod_stream(ell, 100))
        for k in (1, 17, 60, 100):
            assert residues[k - 1] == jk_sequence.jk_closed(k).value % ell
    assert jk_sequence.period_mod(3) == 8
    assert jk_sequence.period_mod(5) == 24
    assert jk_sequence.period_mod(7) == 3
    for k in range(1, 201):
        v = jk_sequence.jk_closed(k).value
        assert jk_sequence.forced_composite(k) == (v % 3 == 0 or v % 5 == 0)


def _selftest_twist_tables() -> None:
    for k in range(2, 2001):
        if not jk_sequence.forced_composite(k):
            choice = twists.select_twist(k)
            assert choice.a in twists.TWISTS
    for k in range(2, 260):
        if jk_sequence.forced_composite(k):
            continue
        choice = twists.select_twist(k)
        assert twists.s_membership(choice.a, k)  # also cross-checks tables
        assert twists.t_membership(choice.a, k)
    for _, _, a, (x0, y0) in twists._ROWS:
        assert y0 * y0 == x0 ** 3 - 35 * a * a * x0 - 98 * a ** 3


def _selftest_mont_curve() -> None:
    ctx = mont_curve.ModulusCtx(23)
    assert mont_curve.sqrt_minus7(ctx) == 4
    curve, start = mont_curve.montgomerize(-1, 1, 4, ctx)
    assert (curve.C, start.x, start.z) == (9, 9, 1)
    final, penultimate, _ = mont_curve.double_chain(start, curve, ctx, 4)
    assert mont_curve.is_strongly_nonzero(penultimate, ctx)
    assert mont_curve.is_zero_mod(final, ctx)
    before = ctx.op_counts()
    mont_curve.double_chain(start, curve, ctx, 10)
    after = ctx.op_counts()
    assert (after[0] - before[0], after[1] - before[1],
            after[2] - before[2]) == (30, 20, 40)


def _selftest_prover() -> None:
    for k, kind in ((2, prover.VerdictKind.PRIME),
                    (8, prover.VerdictKind.FORCED_CONGRUENCE),
                    (11, prover.VerdictKind.NO_SQRT_MINUS7),
                    (17, prover.VerdictKind.PRIME)):
        verdict, _ = prover.test_jk(k)
        assert verdict.kind is kind, k
    for k in range(2, 60):
        verdict, _ = prover.test_jk(k)
        assert verdict.is_prime == refcheck.probable_prime(
            jk_sequence.jk_closed(k).value), k


def _selftest_certificate() -> None:
    for k in (2, 17, 18):
        built = cert_mod.build_certificate(k)
        assert isinstance(built, cert_mod.Certificate)
        assert cert_mod.parse(cert_mod.serialize(built)) == built
        ok, stats = cert_mod.verify_certificate(built)
        assert ok, stats.reason
        x, y, z = built.q
        bad = cert_mod.Certificate(built.k, built.n, built.a, built.d,
                                   built.r, (x, (y + 1) % built.n, z))
        ok, stats = cert_mod.verify_certificate(bad)
        assert not ok and stats.reason == "curve-equation"


def _selftest_sieve() -> None:
    report = sieve.sieve_range(30, 5)
    expected = [k for k in range(1, 31) if k not in {8, 16, 24, 6, 30}]
    assert sieve.survivors(report) == expected
    a = sieve.sieve_range(200, 500, engine="python")
    b = sieve.sieve_range(200, 500, engine="period")
    assert a == b


def _selftest_refcheck() -> None:
    assert refcheck.trial_division(8327, 100) == 11
    assert refcheck.trial_division(275, 100) == 5
    assert refcheck.trial_division(524087, 1000) is None
    assert refcheck.probable_prime(524087)
    assert not refcheck.probable_prime(8327)
    point = refcheck.AffinePoint(1, 8)
    assert refcheck.weier_scalar_mult(16, point, -1, 23) is None
    assert refcheck.weier_scalar_mult(8, point, -1, 23) is not None
    d = 4  # sqrt(-7) mod 23
    twice = refcheck.alpha_endomorphism(
        refcheck.alpha_endomorphism(point, -1, d, 23), -1, -d % 23, 23)
    assert twice == refcheck.weier_scalar_mult(2, point, -1, 23)


_SELFTESTS = (
    ("quad_ring", _selftest_quad_ring),
    ("jk_sequence", _selftest_jk_sequence),
    ("twist_tables", _selftest_twist_tables),
    ("mont_curve", _selftest_mont_curve),
    ("prover", _selftest_prover),
    ("certificate", _selftest_certificate),
    ("sieve", _selftest_sieve),
    ("refcheck", _selftest_refcheck),
)


def cmd_selftest(args: argparse.Namespace) -> int:
    failed = 0
    for name, check in _SELFTESTS:
        try:
            check()
        except Exception as e:  # noqa: BLE001 - report, do not crash
            failed += 1
            print(f"{name}: FAIL ({type(e).__name__}: {e})")
        else:
            print(f"{name}: PASS")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cm7prime",
        description="Deterministic primality testing for the sequence "
                    "J_k = N(1 + 2*alpha^k), alpha = (1+sqrt(-7))/2.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="test a single J_k")
    p.add_argument("k", type=_positive_k)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("search", help="sieve and test a range of k")
    p.add_argument("kmin", type=_positive_k)
    p.add_argument("kmax", type=_positive_k)
    p.add_argument("--sieve-limit", type=_sieve_limit, default=10000)
    p.add_argument("--jobs", type=_decimal, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("certify", help="emit a primality certificate")
    p.add_argument("k", type=_positive_k)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="check a certificate file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="run per-module invariant checks")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("bench", help="per-step timings, no verdicts")
    p.add_argument("--kset", default=_DEFAULT_BENCH,
                   help="comma-separated k values (default %(default)s)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        parser.exit(2, f"error: {e}\n")


if __name__ == "__main__":
    sys.exit(main())
