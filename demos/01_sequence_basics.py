"""The integer sequence under test, three ways.

J_k = Norm(1 + 2*alpha^k) with alpha = (1+sqrt(-7))/2, which unfolds to
1 + 2*t_k + 2^(k+2) for a two-term integer recurrence t_k, and to a
four-term linear recurrence on the J_k themselves.
"""

from cm7prime.jk_sequence import (RECURRENCE, SEEDS, jk_closed, jk_mod_stream,
                                  jk_stream, period_mod, trace_mod)


def alpha_power(k):
    """(u, v) with alpha^k = u + v*alpha, from trace_mod's (t_k, t_{k+1}).

    t_k = 2u + v, and v = (t_k - 2*t_{k+1})/7 divides exactly.
    """
    t, t_next = trace_mod(k)
    v = (t - 2 * t_next) // 7
    return (t - v) // 2, v


def norm(u, w):
    """N(u + w*alpha) = u^2 + u*w + 2*w^2."""
    return u * u + u * w + 2 * w * w


def show(u, w):
    return f"{u} {'+' if w >= 0 else '-'} {abs(w)}*alpha"


print("alpha =", show(*alpha_power(1)), "  alpha^2 =", show(*alpha_power(2)),
      "  norm(alpha) =", norm(*alpha_power(1)))
print()

print(" k   1 + 2*alpha^k        J_k = norm")
for k in range(1, 11):
    u, v = alpha_power(k)
    elem = (1 + 2 * u, 2 * v)  # = (1 + t_k - v) + 2v*alpha
    print(f"{k:>2}   {show(*elem):<18}   {norm(*elem)}")
print()

print("closed form matches the streamed recurrence",
      f"J(k+4) = {RECURRENCE[0]}J(k+3) {RECURRENCE[1]:+}J(k+2)",
      f"{RECURRENCE[2]:+}J(k+1) {RECURRENCE[3]:+}J(k), seeds {SEEDS}:")
stream = {jv.k: jv.value for jv in jk_stream(20)}
for k in (1, 5, 12, 20):
    print(f"  J_{k} = {jk_closed(k).value} = {stream[k]}")
print()

print("residues repeat: J_k mod 3 has period", period_mod(3),
      "| mod 5:", period_mod(5), "| mod 7:", period_mod(7))
print("  J_k mod 3 :", list(jk_mod_stream(3, 16)))
print("  J_k mod 7 :", list(jk_mod_stream(7, 16)), "(never 0: 7 | disc)")
print()
print("zeros mod 3 sit at k = 0 (mod 8) and zeros mod 5 at k = 6 (mod 24):")
print("  those k are composite for free, no curve arithmetic needed.")
