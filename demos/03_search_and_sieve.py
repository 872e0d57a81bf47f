"""Search a range of k, discarding cheap composites before any curve work.

Two filters run before the doubling chain: the congruence classes that
force a factor of 3 or 5, and divisibility of J_k by any other small
prime ell.  ell | J_k = N(1 + 2 alpha^k) exactly when alpha^k = -1/2 in
Z[alpha]/ell, so the sieve finds each prime's zeros by discrete
logarithms, without streaming J_k mod ell for every k.
"""

from cm7prime.prover import search
from cm7prime.sieve import sieve_range, survivors

report = sieve_range(60, 1000)
alive = survivors(report)
print(f"sieve [1, 60] by primes <= 1000: {len(alive)} survivors")
print("  eliminated:", [k for k in range(1, 61) if k not in alive])
print("  most lethal primes:", sorted(report.per_prime.items(),
                                      key=lambda kv: -kv[1])[:5])
print("  indices with J_k <= 1000 (test directly):", report.small_j_list)
print()

rows = search(2, 300, 10**4)
primes = [k for k, v, _ in rows if v.is_prime]
print(f"search 2 <= k <= 300 (sieve limit 10^4): {len(rows)} candidates"
      f" ran the curve test, {len(primes)} primes:")
print(" ", primes)
print()
costliest = max(rows, key=lambda row: row[2].mults_plus_squarings)
print(f"costliest candidate: k={costliest[0]}"
      f" ({costliest[2].mults_plus_squarings} mults+squares,"
      f" verdict {costliest[1].label()})")
