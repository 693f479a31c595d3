#!/usr/bin/env python3
"""Walk through the finite group engine: exact matrices mod n, closure from
generators, projections and their kernels, and Goursat data for subgroups of
direct products."""

from x1points import (
    closure,
    contains_sl2,
    gl2_group,
    gl2_order,
    goursat_product,
    kernel_of_projection,
    project,
    sl2_order,
)
from x1points.modarith import crt_scalar, inv_raw, mul_raw

# The arithmetic runs on raw row-major 4-tuples (a, b, c, d), always reduced mod n.
A = (1, 1, 0, 1)
B = (1, 0, 1, 1)
print("A =", A, "mod 5")
print("A*B =", mul_raw(A, B, 5))
print("A^-1 =", inv_raw(A, 5))
print("A * A^-1 =", mul_raw(A, inv_raw(A, 5), 5))

# CRT joins a mod-5 and a mod-7 matrix, entry by entry, into one mod 35;
# reducing it mod 5 and mod 7 gives the parts back.
J = tuple(crt_scalar((x, y), (5, 7)) for x, y in zip((1, 0, 0, 1), (2, 0, 0, 1)))
print("\njoined mod 35:", J)
print("mod 5:", tuple(e % 5 for e in J), " mod 7:", tuple(e % 7 for e in J))

# Closure materializes the subgroup generated by a few matrices.
sl2_5 = closure([(1, 1, 0, 1), (1, 0, 1, 1)], 5)
print("\n|<unipotents mod 5>| =", sl2_5.order, "= #SL2(Z/5) =", sl2_order(5))

G = gl2_group(35)
print("#GL2(Z/35) =", G.order, "=", gl2_order(35))
print("projection to 7 has order", project(G, 7).order)
K = kernel_of_projection(gl2_group(15), 3)
print("kernel of GL2(Z/15) -> GL2(Z/3) has order", K.order, "= #GL2(Z/5)")

print("\ncontains_sl2(GL2 mod 7):", contains_sl2(gl2_group(7)))

# Goursat: the diagonal subgroup of GL2(Z/5) x GL2(Z/5) is the graph of the
# identity isomorphism, so both kernels are trivial and the common quotient
# is the whole group.
data = goursat_product([(g, g) for g in gl2_group(5).raw_generators], 5, 5)
print("\ndiagonal subgroup of GL2(5) x GL2(5):")
print("  common quotient order:", data.common_quotient_order)
print("  kernels:", data.left_kernel.order, data.right_kernel.order)
