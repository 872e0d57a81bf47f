"""Command line front end.

Exit codes: 0 = answer produced (a composite verdict is an answer),
2 = usage error, 3 = I/O or parse error, 1 = a fault of the program.
Every integer argument is read by certificate.read_decimal and every
bound is checked by the parser, so exit 1 comes only from an uncaught
exception, with its traceback; no command exits 1 on purpose.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import certificate as cert_mod
from . import jk_sequence, prover

_MAX_SIEVE_LIMIT = 10**8  # the sieve keeps every prime <= L and L + 1 factors
_MAX_K = 2**24  # jk_closed runs one exact Lucas ladder step per bit of k


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


def _check_k_line(text: str) -> None:
    """Refuse a k above _MAX_K before parse converts N and the point.

    parse bounds those fields by k + 3 bits, so a huge k would let them
    fill the file; the k= line is read here, by the same reader.
    """
    start = text.find("\n") + 1
    end = text.find("\n", start)
    if start and end > start and text.startswith("k=", start):
        k = cert_mod.read_decimal("k", text[start + 2:end])
        if k > _MAX_K:
            raise cert_mod.CertificateFormatError(
                f"k must be <= {_MAX_K}, the largest k this program accepts")


def cmd_verify(args: argparse.Namespace) -> int:
    limit = _max_certificate_chars()
    try:
        with open(args.file, "r", encoding="utf-8", newline="") as fh:
            text = fh.read(limit + 1)  # the file is untrusted: bound it
        if len(text) > limit:
            raise cert_mod.CertificateFormatError(
                f"longer than {limit} characters, the most a certificate "
                f"with k <= {_MAX_K} takes")
        _check_k_line(text)
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

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "search" and args.kmin > args.kmax:
        parser.error("kmin must be <= kmax")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
