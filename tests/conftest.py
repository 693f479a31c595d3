"""Shared constructions: fiber products, split Cartans, brute-force oracles."""

from __future__ import annotations

from math import gcd

import pytest

from x1points.errors import DEFAULT_CAP
from x1points.matgroup import MatGroup, crt_product, gl2_group, is_full_preimage, project, sl2_group
from x1points.modarith import (
    apply_raw,
    crt_scalar,
    divisors,
    modulus,
    mul_raw,
    unit_group_generators,
)
from x1points.orbits import degree_spectrum, max_growth_check


def join2(n1, n2, g1, g2):
    """CRT-join two raw 4-tuples into one mod n1*n2."""
    return tuple(crt_scalar((a, b), (n1, n2)) for a, b in zip(g1, g2))


def sl2_gens(n):
    return [(1, 1, 0, 1), (1, 0, 1, 1)]


# Square/non-square data for the determinant characters used below.
SQUARE_UNIT_GEN = {5: 4, 7: 2}
NONSQUARE_UNIT = {5: 2, 7: 3}

# GL2(F2) ~ S3 acting on the three nonzero vectors: even part is generated by
# the 3-cycle, and the swap is a transposition.
GL2_F2_THREE_CYCLE = (0, 1, 1, 1)
GL2_F2_SWAP = (0, 1, 1, 0)

# Kernel generators of the order-2 determinant character of the second factor
# (trivial-character kernel), plus one element of character -1.  The mod-6
# character is the mod-3 determinant sign, so its kernel contains the whole
# mod-2 factor.
CHAR_KERNEL = {
    2: ([GL2_F2_THREE_CYCLE], GL2_F2_SWAP),
    3: (sl2_gens(3), (2, 0, 0, 1)),
    4: (sl2_gens(4), (3, 0, 0, 1)),
    6: (
        [join2(2, 3, g, (1, 0, 0, 1)) for g in [(1, 1, 0, 1), (1, 0, 1, 1)]]
        + [join2(2, 3, (1, 0, 0, 1), g) for g in sl2_gens(3)],
        join2(2, 3, (1, 0, 0, 1), (2, 0, 0, 1)),
    ),
}


def fiber_product_group(ell: int, m: int) -> MatGroup:
    """Index-2 fiber product of GL2(Z/ell) (ell in {5,7}) with GL2(Z/m) over C2.

    The first factor maps by the Legendre symbol of the determinant, the
    second by its own order-2 character; the mod-ell projection is all of
    GL2(Z/ell) and the kernel of projection to m is the index-2 subgroup
    of square determinant.  Every generator pairs a nontrivial element of
    each factor (characters matched), so neither factor's SL2 generators
    appear lifted in the generating set.
    """
    assert gcd(ell, m) == 1
    k2, odd2 = CHAR_KERNEL[m]
    s, t = sl2_gens(ell)
    n = ell * m
    gens = [join2(ell, m, s, k2[0]), join2(ell, m, t, k2[-1])]
    gens += [join2(ell, m, s if i % 2 else t, k) for i, k in enumerate(k2)]
    gens.append(join2(ell, m, (SQUARE_UNIT_GEN[ell], 0, 0, 1), k2[0]))
    gens.append(join2(ell, m, (NONSQUARE_UNIT[ell], 0, 0, 1), odd2))
    return MatGroup(modulus(n), gens)


@pytest.fixture(scope="session")
def large_image_samples():
    """The five sample groups of the desk-scale kernel criterion, keyed by
    (modulus, ell, coprime part)."""
    return {
        (10, 5, 2): fiber_product_group(5, 2),
        (15, 5, 3): fiber_product_group(5, 3),
        (20, 5, 4): fiber_product_group(5, 4),
        (14, 7, 2): crt_product(sl2_group(7), gl2_group(2)),
        (21, 7, 3): fiber_product_group(7, 3),
    }


@pytest.fixture(scope="session")
def large_image_sample_mod30():
    """The coprime-part-6 sample: full GL2 mod 5 fibered against GL2(Z/6)."""
    return fiber_product_group(5, 6)


def split_cartan_group(n: int) -> MatGroup:
    gens = []
    for u in unit_group_generators(n):
        gens.append((u, 0, 0, 1))
        gens.append((1, 0, 0, u))
    return MatGroup(modulus(n), gens)


def unipotent_group(n: int) -> MatGroup:
    return MatGroup(modulus(n), [(1, 1, 0, 1)])


# -- independent oracles -------------------------------------------------------


def matmul_oracle(x, y, n):
    """Generic row-by-column product on 2x2 nested lists."""
    A = [[x[0], x[1]], [x[2], x[3]]]
    B = [[y[0], y[1]], [y[2], y[3]]]
    C = [[0, 0], [0, 0]]
    for i in range(2):
        for j in range(2):
            C[i][j] = sum(A[i][k] * B[k][j] for k in range(2)) % n
    return (C[0][0], C[0][1], C[1][0], C[1][1])


def gl2_count_oracle(n):
    """#GL2(Z/nZ) by exhaustive determinant test."""
    count = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if gcd((a * d - b * c) % n, n) == 1:
                        count += 1
    return count


def level_oracle(G: MatGroup) -> int:
    """The level of G by scanning every divisor m of n in ascending order for
    the first with G the full preimage of G mod m."""
    for m in divisors(G.modulus.n):
        if is_full_preimage(G, m):
            return m
    raise AssertionError("unreachable: m = n always passes")


def orbit_partition_oracle(G: MatGroup, vectors):
    """Orbits computed by applying every group element, not generator closure."""
    n = G.modulus.n
    els = G.elements()
    remaining = {v.entries for v in vectors}
    parts = []
    while remaining:
        v = min(remaining)
        orbit = frozenset(apply_raw(g, v, n) for g in els)
        assert orbit <= remaining
        remaining -= orbit
        parts.append(orbit)
    return sorted(parts, key=min)


def spectrum_partition(G: MatGroup, vectors):
    """The exact-order-n `vectors` grouped by the record that
    `degree_spectrum(G).record_of` gives each, in the oracle's layout."""
    spec = degree_spectrum(G)
    parts = {}
    for v in vectors:
        parts.setdefault(spec.record_of(v).representative.entries, set()).add(v.entries)
    return sorted(map(frozenset, parts.values()), key=min)


def growth_oracle(G: MatGroup, b: int, field_degree: int = 1) -> list[tuple[int, int]]:
    """The (size, degree) downstairs of each record of `degree_spectrum(G)`
    along X_1(n) -> X_1(a), a = n/b, from a spectrum of G mod a of its own:
    the record of P mod a for each representative P."""
    down = degree_spectrum(project(G, G.modulus.n // b), field_degree)
    return [
        (drec.size, drec.degree)
        for drec in (
            down.record_of(rec.representative.entries)
            for rec in degree_spectrum(G, field_degree).records
        )
    ]


def growth_downstairs(G: MatGroup, b: int, field_degree: int = 1) -> list[tuple[int, int]]:
    """The (downstairs_size, downstairs_degree) of each report of
    `max_growth_check`, in the layout of `growth_oracle`."""
    return [
        (r.downstairs_size, r.downstairs_degree) for r in max_growth_check(G, b, field_degree)
    ]


def vectors_by_order_oracle(n: int) -> dict:
    """Every vector of (Z/nZ)^2 in ascending order, bucketed by its order,
    taken as the lcm of the additive orders of its coordinates."""
    out = {}
    for x in range(n):
        for y in range(n):
            ox, oy = n // gcd(n, x), n // gcd(n, y)
            out.setdefault(ox * oy // gcd(ox, oy), []).append((x, y))
    return out


def fiber_count_oracle(P, b: int) -> int:
    """#{Q : bQ = bP, Q of exact order n} for P mod n, by enumerating every Q."""
    n = P.modulus.n
    bP = ((b * P.x) % n, (b * P.y) % n)
    return sum(
        1
        for x in range(n)
        for y in range(n)
        if ((b * x) % n, (b * y) % n) == bP and n // gcd(n, gcd(x, y)) == n
    )


def reduced_form_class_number(D: int) -> int:
    """Class number of the order of discriminant D by counting reduced
    primitive positive definite binary quadratic forms."""
    assert D < 0 and D % 4 in (0, 1)
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


def pair_closure_oracle(n1, n2, gen_pairs, limit):
    """The pairs generated by `gen_pairs` in GL2(Z/n1) x GL2(Z/n2), by
    breadth-first search; None past `limit` pairs."""
    ident = ((1 % n1, 0, 0, 1 % n1), (1 % n2, 0, 0, 1 % n2))
    seen, queue = {ident}, [ident]
    for x, y in queue:
        for gx, gy in gen_pairs:
            z = (mul_raw(x, gx, n1), mul_raw(y, gy, n2))
            if z not in seen:
                if len(seen) >= limit:
                    return None
                seen.add(z)
                queue.append(z)
    return frozenset(seen)


def closure_oracle(n, gens):
    """The subgroup of GL2(Z/n) generated by `gens`, by breadth-first search:
    the left entries of the pairs that the (g, I) generate in
    GL2(Z/n) x GL2(Z/1)."""
    pairs = pair_closure_oracle(n, 1, [(g, (0, 0, 0, 0)) for g in gens], DEFAULT_CAP)
    return frozenset(x for x, _ in pairs)


def goursat_oracle(n1, n2, pairs):
    """Goursat data of the subgroup H of GL2(Z/n1) x GL2(Z/n2) whose element
    set is `pairs`, by brute force: the images G and G', the kernels
    N' = {x : (x, 1) in H} and N = {y : (1, y) in H}, and the pairing of
    least coset elements, read off every pair of H (sorted)."""
    i1, i2 = (1 % n1, 0, 0, 1 % n1), (1 % n2, 0, 0, 1 % n2)
    images = (frozenset(x for x, _ in pairs), frozenset(y for _, y in pairs))
    kernels = (
        frozenset(x for x, y in pairs if y == i2),
        frozenset(y for x, y in pairs if x == i1),
    )
    least = []
    for image, kernel, n in zip(images, kernels, (n1, n2)):
        label = {}
        for x in image:
            if x not in label:
                coset = {mul_raw(x, k, n) for k in kernel}
                label.update(dict.fromkeys(coset, min(coset)))
        least.append(label)
    graph = sorted({(least[0][x], least[1][y]) for x, y in pairs})
    return images, kernels, graph
