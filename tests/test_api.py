"""The public surface: the package's exported names and the CLI's commands.

Both are promised not to drift; a name added, renamed or dropped fails
here first.
"""

import argparse

import cm7prime
from cm7prime import cli

PUBLIC_NAMES = [
    "ALPHA", "Certificate", "CertificateFormatError", "JkValue", "ModulusCtx",
    "MontCurveCtx", "NonInvertibleError", "QuadInt", "RunStats", "SieveReport",
    "TwistChoice", "Verdict", "VerdictKind", "VerifyStats", "XZPoint",
    "bench_run", "build_certificate", "chi_sqrt_minus7", "double_chain",
    "forced_composite", "is_strongly_nonzero", "is_zero_mod", "iter_primes",
    "jacobi_symbol", "jk_closed", "jk_element", "jk_mod_stream", "jk_stream",
    "minimal_doubling_exponent", "montgomerize", "parse", "period_mod",
    "qi_conj", "qi_mul", "qi_norm", "qi_pow", "run_pipeline", "s_membership",
    "search", "select_twist", "serialize", "sieve_range", "sqrt_minus7",
    "survivors", "t_membership", "test_jk", "trace", "verify_certificate",
    "xz_double",
]

# subcommand -> its option strings, positionals by name
CLI_COMMANDS = {
    "test": {"k", "--json", "-h", "--help"},
    "search": {"kmin", "kmax", "--sieve-limit", "--jobs", "--out", "-h",
               "--help"},
    "certify": {"k", "--out", "-h", "--help"},
    "verify": {"file", "-h", "--help"},
    "selftest": {"-h", "--help"},
    "bench": {"--kset", "-h", "--help"},
}


def test_all_is_pinned():
    assert cm7prime.__all__ == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in cm7prime.__all__:
        assert getattr(cm7prime, name) is not None, name


def test_cli_subcommands_are_pinned():
    parser = cli._build_parser()
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    commands = {name: {s for a in p._actions
                       for s in (a.option_strings or [a.dest])}
                for name, p in sub.choices.items()}
    assert commands == CLI_COMMANDS
