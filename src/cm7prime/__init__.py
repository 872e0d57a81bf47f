"""Deterministic primality proving for J_k = N(1 + 2*alpha^k), alpha = (1+sqrt(-7))/2.

J_k is an integer near 2^(k+2); the k-th member is prime exactly when a
fixed rational point on an associated CM elliptic curve reaches order
2^(k+1) modulo J_k, which a chain of k+1 x-only doublings decides with
about 6k modular multiplications, no randomness, and no factoring.
"""

from .certificate import (Certificate, CertificateFormatError, VerifyStats,
                          build_certificate, minimal_doubling_exponent, parse,
                          serialize, verify_certificate)
from .jk_sequence import (JkValue, forced_composite, jk_closed, jk_mod_stream,
                          jk_stream, period_mod, trace)
from .mont_curve import (ModulusCtx, MontCurveCtx, NonInvertibleError, XZPoint,
                         double_chain, is_strongly_nonzero, is_zero_mod,
                         montgomerize, sqrt_minus7, xz_double)
from .prover import (RunStats, Verdict, VerdictKind, run_pipeline, search,
                     test_jk)
from .sieve import SieveReport, iter_primes, sieve_range, survivors
from .twist_tables import TwistChoice, jacobi_symbol, select_twist

__version__ = "0.1.0"

__all__ = [
    "Certificate", "CertificateFormatError", "JkValue", "ModulusCtx",
    "MontCurveCtx", "NonInvertibleError", "RunStats", "SieveReport",
    "TwistChoice", "Verdict", "VerdictKind", "VerifyStats", "XZPoint",
    "build_certificate", "double_chain", "forced_composite",
    "is_strongly_nonzero", "is_zero_mod", "iter_primes", "jacobi_symbol",
    "jk_closed", "jk_mod_stream", "jk_stream", "minimal_doubling_exponent",
    "montgomerize", "parse", "period_mod", "run_pipeline", "search",
    "select_twist", "serialize", "sieve_range", "sqrt_minus7", "survivors",
    "test_jk", "trace", "verify_certificate", "xz_double",
]
