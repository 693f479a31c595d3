#!/usr/bin/env python3
"""Detecting the level of an open subgroup from one congruence-kernel check,
minimizing it one prime at a time, composing per-prime levels, and
rebuilding the exponent-bound table from the valuation inequality."""

from x1points import (
    BoundInput,
    borel_group,
    classification_table,
    closure,
    compose_level,
    crt_product,
    detect_ladic_level,
    full_preimage,
    gl2_group,
    level_bound,
    minimize_level,
    sl2_group,
)

# The full preimage mod 32 of SL2(Z/8) has level 8.  One full kernel
# (2^4 cosets) between stages certifies the level bound; minimization, one
# prime at a time, then finds the exact level.
base = sl2_group(8)
G = full_preimage(base, 32)
det = detect_ladic_level(G, 3)
print(
    f"preimage of SL2(Z/8) mod 32: kernel {det.kernel_order} of {det.full_kernel} "
    f"at stage {det.stage} -> level | {det.level_bound}; minimal level {minimize_level(G)}"
)

# Stage 1 is enough for odd primes: the preimage mod 25 of the Borel mod 5.
G25 = full_preimage(closure(borel_group(5).generators), 25)
print("Borel preimage mod 25: certified:", detect_ladic_level(G25, 1).certified,
      "minimal level:", minimize_level(G25))

# Composing per-prime data on a mixed modulus: the preimage mod 100 of
# Borel(5) x GL2(Z/4) has 10 as a certified level and 5 as the minimum.
G100 = full_preimage(crt_product(borel_group(5), gl2_group(4)), 100)
cert = compose_level(G100, {2: 1, 5: 1})
print("\nmod 100 composition: certified level", cert.level,
      "-> minimized to", minimize_level(G100))
for ev in cert.evidence:
    if ev.prime:
        print(f"  prime {ev.prime}: kernel {ev.kernel_order} = {ev.full_kernel} "
              f"from mod {ev.checked_modulus} to mod {ev.target_modulus}")

# The valuation bound v_ell(level) <= max(v_ell(M1), v_ell(2 ell)) + tau
# rebuilds the whole exponent table for levels of shape 2^a 3^b p^c.
B = BoundInput.build({2, 3})
print("\nbound for ell=2, S={2,3}:", level_bound(B, 2))
print("bound for ell=3, S={2,3}:", level_bound(B, 3))
print("\nfull table (p, a_p, b_p, p^c cap):")
for row in classification_table():
    print(f"  {row.p:>2}  {row.a_p:>2}  {row.b_p}  {row.p_power_cap}")
