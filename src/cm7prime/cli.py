"""Command line front end.

Exit codes: 0 = answer produced (a composite verdict is an answer),
2 = usage error, 3 = I/O or parse error.  Every integer argument is
read by certificate.read_decimal and every bound is checked by the
parser, so anything else that raises is a fault of the program and
exits 1 with a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import certificate as cert_mod
from . import jk_sequence, mont_curve, prover, quad_ring, refcheck, sieve
from . import twist_tables as twists

_MAX_SIEVE_LIMIT = 10**8  # the sieve keeps every prime <= L and L + 1 factors
_MAX_K = 2**24  # jk_closed squares alpha^(2^i) up to k's top bit


def _int_arg(text: str, low: float, high: float, subject: str = "") -> int:
    """A canonical decimal in [low, high]; subject opens the bound's message."""
    value = cert_mod.read_decimal("argument", text)
    if value < low:
        raise argparse.ArgumentTypeError(f"{subject}must be >= {low}")
    if value > high:
        raise argparse.ArgumentTypeError(f"{subject}must be <= {high}")
    return value


def _positive_k(text: str) -> int:
    return _int_arg(text, 2, _MAX_K, "k ")


def _sieve_limit(text: str) -> int:
    return _int_arg(text, -math.inf, _MAX_SIEVE_LIMIT)


def _jobs(text: str) -> int:
    return _int_arg(text, 1, math.inf)


def _max_certificate_chars() -> int:
    """Length of the longest JKCERT 1 text with k <= _MAX_K.

    N, d, x, y and z have at most k + 3 bits, so ceil((k+3) log10 2)
    digits each; 64 more characters hold the version line, the k, a and
    r lines and the five field names.
    """
    return 5 * math.ceil((_MAX_K + 3) * math.log10(2)) + 64


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
                          "ms": round(ms, 3),
                          "schema": 1,
                          "step_reached": stats.step_reached,
                          "early_exit": stats.early_exit,
                          "step2_s": round(stats.step2_seconds, 6),
                          "step7_s": round(stats.step7_seconds, 6),
                          "multiplications": stats.multiplications,
                          "squarings": stats.squarings,
                          "additions": stats.additions,
                          "gcd_calls": stats.gcd_calls}))
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
    if built is None:
        print("no certificate: composite")
        return 0
    return _emit(cert_mod.serialize(built), args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    limit = _max_certificate_chars()
    try:
        with open(args.file, "r", encoding="utf-8", newline="") as fh:
            text = fh.read(limit + 1)  # the file is untrusted: bound it
        if len(text) > limit:
            raise cert_mod.CertificateFormatError(
                f"longer than {limit} characters, the most a certificate "
                f"with k <= {_MAX_K} takes")
        cert = cert_mod.parse(text)
    except OSError as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return 3
    except (UnicodeDecodeError, cert_mod.CertificateFormatError) as e:
        print(f"error: malformed certificate: {e}", file=sys.stderr)
        return 3
    ok, stats = cert_mod.verify_certificate(cert)
    print("VALID" if ok else f"INVALID:{stats.reason}")
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
    for k in range(2, 2001):  # every twist row is met by k = 72
        if not jk_sequence.forced_composite(k):
            choice = twists.select_twist(k)
            a, (x0, y0) = choice.a, choice.point
            assert a in twists.TWISTS
            assert y0 * y0 == x0 ** 3 - 35 * a * a * x0 - 98 * a ** 3
    for k in range(2, 260):
        if jk_sequence.forced_composite(k):
            continue
        choice = twists.select_twist(k)
        assert twists.s_membership(choice.a, k)  # also cross-checks tables
        assert twists.t_membership(choice.a, k)


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
    p.add_argument("--jobs", type=_jobs, default=1)
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

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "search" and args.kmin > args.kmax:
        parser.error("kmin must be <= kmax")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
