"""Primality certificates a verifier can check at half the prover's cost.

build_certificate runs the first s = k+1-r doublings of the chain and
records that iterate, which has exact order 2^r, where r is minimal with
2^r > (J_k^(1/4) + 1)^2 -- about k/2.  No composite N admits a point of
that order, so verify_certificate's last r doublings prove primality.
"""

import dataclasses

from cm7prime.certificate import (build_certificate, parse, serialize,
                                  verify_certificate)
from cm7prime.prover import test_jk

cert = build_certificate(17)
text = serialize(cert)
print("certificate for J_17 = 524087:")
print(text)
print(f"r = {cert.r} doublings for the verifier vs k+1 = 18 for the prover;")
print(f"the certified point is iterate number s = k+1-r = {cert.s}")
print()

ok, stats = verify_certificate(parse(text))
print(f"verify: {'VALID' if ok else 'INVALID:' + stats.reason}"
      f"  ({stats.mults_plus_squarings} mults+squares,"
      f" bound 2.6k+64 = {2.6 * cert.k + 64:.0f})")
print()

print("tampering any field is caught, each by the first check it breaks:")
x, y, z = cert.q
for label, bad in [
    ("y+1 (point off curve)",
     dataclasses.replace(cert, q=(x, (y + 1) % cert.n, z))),
    ("r-1 (order bound too weak)", dataclasses.replace(cert, r=cert.r - 1)),
    ("N+2 (not a sequence value)", dataclasses.replace(cert, n=cert.n + 2)),
    ("d+1 (not sqrt(-7))", dataclasses.replace(cert, d=cert.d + 1)),
    ("q=[0:0:1] (two-torsion smuggled in)",
     dataclasses.replace(cert, q=(0, 0, 1))),
]:
    ok, stats = verify_certificate(bad)
    print(f"  {label:<38} -> INVALID:{stats.reason}")

print()
print(f"build_certificate(8) -> {build_certificate(8)}, no certificate;"
      f" test_jk(8) says {test_jk(8)[0].label()} (J_8 = 963 = 9*107)")
