"""Hypothesis properties: the stabilizer chain against breadth-first closure,
the orbit kernel and Goursat data against the brute-force oracles, and the
consistency of the modules with one another over random subgroups."""

import itertools
from math import gcd, prod

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
import pytest

from conftest import (
    closure_oracle,
    fiber_count_oracle,
    goursat_oracle,
    growth_downstairs,
    growth_oracle,
    level_oracle,
    matmul_oracle,
    orbit_partition_oracle,
    pair_closure_oracle,
    sl2_gens,
    split_cartan_group,
    unipotent_group,
    vectors_by_order_oracle,
)

from x1points import orbits
from x1points.errors import HypothesisFailed
from x1points.levels import (
    LadicDetection,
    compose_level,
    detect_ladic_level,
    minimal_stage,
    minimize_level,
)
from x1points.matgroup import (
    MatGroup,
    borel_group,
    closure,
    congruence_kernel_generators,
    crt_product,
    full_preimage,
    gl2_group,
    goursat,
    goursat_product,
    is_full_preimage,
    kernel_level,
    kernel_of_projection,
    kernel_order,
    project,
    sl2_group,
)
from x1points.modarith import (
    apply_raw,
    divisors,
    factorize,
    gl2_order,
    inv_raw,
    modulus,
    sl2_order,
    tables,
    valuation,
)
from x1points.orbits import (
    closed_point_degrees,
    degree_spectrum,
    exact_order_vector_count,
    exact_order_vectors,
    fiber_count,
    max_growth_check,
)


# -- stabilizer chain against breadth-first closure ----------------------------

PROPERTY_SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# (m, n) with Supp(m) = Supp(n), so full_preimage applies
PREIMAGE_PAIRS = [
    (2, 4), (2, 8), (2, 16), (3, 9), (3, 27), (4, 8), (4, 16), (5, 25),
    (6, 12), (6, 18), (6, 36), (7, 49), (10, 20), (12, 24), (12, 36),
]

# above this many elements a preimage is checked by its order formula only
BFS_CHECK_LIMIT = 100_000


def invertible(n):
    """Invertible matrices mod n, built rather than filtered by determinant:
    diag(u, 1) E12(r) E21(s) E12(t) E21(w) reaches all of GL2(Z/nZ), since
    over each local factor four alternating elementary matrices reach all of
    SL2, and a draw never fails however many primes divide n."""
    units = [u for u in range(n) if gcd(u, n) == 1]

    def build(u, r, s, t, w):
        g = (u, 0, 0, 1)
        for e in ((1, r, 0, 1), (1, 0, s, 1), (1, t, 0, 1), (1, 0, w, 1)):
            g = matmul_oracle(g, e, n)
        return g

    return st.builds(build, st.sampled_from(units), *[st.integers(0, n - 1)] * 4)


@st.composite
def subgroup_gens(draw, moduli=st.integers(1, 30)):
    n = draw(moduli)
    return n, draw(st.lists(invertible(n), min_size=1, max_size=3))


@st.composite
def preimage_cases(draw):
    m, n = draw(st.sampled_from(PREIMAGE_PAIRS))
    return m, n, draw(st.lists(invertible(m), min_size=0, max_size=2))


@PROPERTY_SETTINGS
@given(subgroup_gens())
@example((1, []))
def test_chain_order_matches_bfs(case):
    n, gens = case
    G = MatGroup(modulus(n), gens)
    assume(G.order <= BFS_CHECK_LIMIT)
    members = closure_oracle(n, gens)
    assert G.order == len(members)
    assert G.elements() == members


def test_chain_order_matches_bfs_gl2_30():
    # past BFS_CHECK_LIMIT, so the property above skips it
    gens = [(1, 1, 0, 1), (1, 0, 1, 1), (7, 0, 0, 1), (11, 0, 0, 1)]
    G = MatGroup(modulus(30), gens)
    members = closure_oracle(30, gens)
    assert G.order == len(members) == gl2_order(30) == 138_240
    assert G.elements() == members


@PROPERTY_SETTINGS
@given(subgroup_gens(), st.lists(st.tuples(*[st.integers(0, 10**6)] * 4), max_size=50))
def test_chain_contains_matches_set_membership(case, others):
    n, gens = case
    G = MatGroup(modulus(n), gens)
    assume(G.order <= BFS_CHECK_LIMIT)
    members = closure_oracle(n, gens)
    assert all(G.contains(x) for x in members)
    for x in others:
        x = tuple(e % n for e in x)
        assert G.contains(x) == (x in members), x


@PROPERTY_SETTINGS
@given(preimage_cases())
@example((2, 8, [(1, 1, 0, 1)]))
@example((2, 16, [(0, 1, 1, 1), (0, 1, 1, 0)]))
@example((6, 18, [(5, 0, 0, 1)]))
def test_full_preimage_order(case):
    m, n, gens = case
    base = MatGroup(modulus(m), gens)
    pre = full_preimage(base, n)
    expected = base.order * (n // m) ** 4
    assert pre.order == expected
    if expected <= BFS_CHECK_LIMIT:
        assert len(closure_oracle(n, pre.raw_generators)) == expected


@PROPERTY_SETTINGS
@given(subgroup_gens())
def test_kernel_order_matches_materialized_kernel(case):
    n, gens = case
    G = MatGroup(modulus(n), gens)
    assume(G.order <= BFS_CHECK_LIMIT)
    members = closure_oracle(n, gens)
    for m in divisors(n):
        ident = (1 % m, 0, 0, 1 % m)
        in_kernel = frozenset(x for x in members if tuple(e % m for e in x) == ident)
        K = kernel_of_projection(G, m)
        assert kernel_order(G, m) == K.order == len(in_kernel), m
        assert K.elements() == in_kernel, m
        assert all(tuple(e % m for e in g) == ident for g in K.raw_generators), m


def congruence_matrices(n, m):
    """Every invertible I + m*X mod n, by brute force."""
    one, steps = 1 % n, range(0, n, m)
    for x, y, z, w in itertools.product(steps, repeat=4):
        g = ((one + x) % n, y, z, (one + w) % n)
        if gcd(g[0] * g[3] - g[1] * g[2], n) == 1:
            yield g


@PROPERTY_SETTINGS
@given(subgroup_gens())
@example((12, [(1, 1, 0, 1), (1, 0, 1, 1), (5, 0, 0, 1)]))  # level 4
def test_is_full_preimage_matches_kernel_order(case):
    # membership of the kernel generators against the quotient of two chain
    # orders, and against the closure when G is small enough to build
    n, gens = case
    G = MatGroup(modulus(n), gens)
    members = closure_oracle(n, gens) if G.order <= BFS_CHECK_LIMIT else None
    for m in divisors(n):
        full = is_full_preimage(G, m)
        assert full == (kernel_order(G, m) == gl2_order(n) // gl2_order(m)), m
        if members is not None:
            assert full == all(g in members for g in congruence_matrices(n, m)), m


@st.composite
def level_cases(draw, moduli=st.integers(1, 60)):
    """Up to two random invertible matrices mod n and a random part of the
    generators of the congruence kernel down to a random m | n, so that
    levels strictly between 1 and n are common."""
    n = draw(moduli)
    kernel = list(congruence_kernel_generators(n, draw(st.sampled_from(divisors(n)))))
    part = st.lists(st.sampled_from(kernel), max_size=len(kernel), unique=True)
    return n, draw(st.lists(invertible(n), max_size=2)) + draw(part)


@PROPERTY_SETTINGS
@given(level_cases())
@example((16, [(1, 1, 0, 1), (1, 0, 1, 1), (5, 0, 0, 1)]))  # level 4
@example((72, list(congruence_kernel_generators(72, 6)) + [(1, 1, 0, 1)]))  # level 6
@example((60, [(1, 1, 0, 1), (1, 0, 1, 1)]))  # SL2: level 60
@example((1, []))
def test_minimize_level_matches_divisor_scan(case):
    # the per-prime search against the scan of every divisor, and the divisors
    # that pass are exactly the multiples of the level
    n, gens = case
    G = MatGroup(modulus(n), gens)
    level = minimize_level(G)
    assert level == level_oracle(G)
    for m in divisors(n):
        assert is_full_preimage(G, m) == (m % level == 0), m


# moduli up to 150 at which every prime's exponent is at least 2, so every
# prime can take a stage t with G known mod l^(t+1)
SQUAREFUL = [n for n in range(4, 151) if all(e >= 2 for _, e in factorize(n))]


@st.composite
def compose_cases(draw):
    n, gens = draw(level_cases(st.sampled_from(SQUAREFUL)))
    return n, gens, {ell: draw(st.integers(1, e - 1)) for ell, e in factorize(n)}


@PROPERTY_SETTINGS
@given(compose_cases())
@example((36, [], {2: 1, 3: 1}))
@example((36, [(1, 3, 0, 1)] + list(congruence_kernel_generators(36, 9)), {2: 1, 3: 1}))
def test_compose_level_certifies_or_names_the_least_failing_prime(case):
    # a certificate's level M makes G mod prod l^(t_l+1) the full preimage of
    # its reduction mod M, which compose_level does not check itself; a
    # failure names the least prime whose mixed-modulus check fails, which is
    # the least l with v_l(level) > t_l, and never prime 0
    n, gens, stages = case
    check_mod = 1
    for ell, t in stages.items():
        check_mod *= ell ** (t + 1)
    G = project(MatGroup(modulus(n), gens), check_mod)
    failing = [ell for ell in sorted(stages) if not is_full_preimage(G, check_mod // ell)]
    level = minimize_level(G)
    assert failing == [ell for ell in sorted(stages) if valuation(level, ell) > stages[ell]]
    try:
        cert = compose_level(G, stages)
    except HypothesisFailed as exc:
        assert failing and exc.prime == failing[0] != 0
    else:
        assert not failing
        assert is_full_preimage(G, cert.level)
        assert cert.level % level == 0
        assert (cert.evidence[-1].prime, cert.evidence[-1].target_modulus) == (0, cert.level)


@PROPERTY_SETTINGS
@given(subgroup_gens(), st.lists(st.tuples(*[st.integers(0, 10**6)] * 4), max_size=20))
def test_projection_matches_fresh_group(case, others):
    n, gens = case
    G = MatGroup(modulus(n), gens)
    for m in divisors(n):
        fresh = MatGroup(modulus(m), [tuple(e % m for e in g) for g in gens])
        P = project(G, m)
        assert P.order == fresh.order, m
        for x in [*fresh.raw_generators, *others]:
            assert P.contains(x) == fresh.contains(x), (m, x)


def assert_goursat_matches_oracle(data, n1, n2, pairs):
    """Every field of `data` but the image generators against the oracle."""
    images, kernels, graph = goursat_oracle(n1, n2, pairs)
    assert list(data.graph_pairs) == graph
    assert data.common_quotient_order == len(graph)
    for image, els in zip((data.left_image, data.right_image), images):
        # generated inside the oracle's image, and as large: the same group
        assert set(image.raw_generators) <= els
        assert image.order == len(els)
    for kernel, els in zip((data.left_kernel, data.right_kernel), kernels):
        assert kernel.elements() == els
        assert kernel.order == len(els)


@PROPERTY_SETTINGS
@given(subgroup_gens())
@example((30, [(1, 1, 0, 1), (1, 0, 1, 1), (7, 0, 0, 1)]))
@example((1, [(0, 0, 0, 0)]))
def test_goursat_matches_oracle(case):
    n, gens = case
    G = MatGroup(modulus(n), gens)
    assume(G.order <= BFS_CHECK_LIMIT)
    members = closure_oracle(n, gens)
    for a in divisors(n):
        b = n // a
        if gcd(a, b) == 1:
            pairs = frozenset(
                ((x % a, y % a, z % a, w % a), (x % b, y % b, z % b, w % b))
                for x, y, z, w in members
            )
            assert_goursat_matches_oracle(goursat(G, a, b), a, b, pairs)


@st.composite
def product_pairs(draw):
    n1 = draw(st.integers(1, 10))
    n2 = draw(st.sampled_from([n1, draw(st.integers(1, 10))]))
    return n1, n2, draw(st.lists(st.tuples(invertible(n1), invertible(n2)), min_size=1, max_size=3))


@PROPERTY_SETTINGS
@given(product_pairs())
@example((5, 5, [((1, 1, 0, 1), (1, 1, 0, 1)), ((1, 0, 1, 1), (1, 0, 1, 1))]))
@example((1, 4, [((0, 0, 0, 0), (1, 1, 0, 1))]))
def test_goursat_product_matches_oracle(case):
    n1, n2, gen_pairs = case
    pairs = pair_closure_oracle(n1, n2, gen_pairs, BFS_CHECK_LIMIT)
    assume(pairs is not None)
    data = goursat_product(gen_pairs, n1, n2)
    assert_goursat_matches_oracle(data, n1, n2, pairs)


@st.composite
def coprime_factors(draw):
    n1 = draw(st.integers(1, 30))
    n2 = draw(st.sampled_from([m for m in range(1, 31) if gcd(m, n1) == 1]))
    left, right = (draw(st.lists(invertible(n), max_size=3)) for n in (n1, n2))
    return n1, n2, left, right


@PROPERTY_SETTINGS
@given(coprime_factors())
@example((1, 1, [], []))
@example((7, 1, [(3, 0, 0, 1)], [(0, 0, 0, 0)]))
@example((1, 1, [(0, 0, 0, 0)], [(0, 0, 0, 0)]))
def test_crt_product_pads_each_generator_with_the_identity(case):
    # each generator of L x R reduces to (g, I) for the generators g of L,
    # then to (I, h) for those h of R, a pair that repeats mod n1 n2 kept
    # once as in every MatGroup, and the order is |L| |R|
    n1, n2, left, right = case
    L, R = MatGroup(modulus(n1), left), MatGroup(modulus(n2), right)
    P = crt_product(L, R)

    def mod(x, m):
        return tuple(e % m for e in x)

    one = (1, 0, 0, 1)
    pairs = [(g, one) for g in L.raw_generators] + [(one, h) for h in R.raw_generators]
    assert [(mod(x, n1), mod(x, n2)) for x in P.raw_generators] == list(
        dict.fromkeys((mod(g, n1), mod(h, n2)) for g, h in pairs)
    )
    assert P.order == L.order * R.order


@st.composite
def triangular_conjugates(draw, moduli=st.integers(1, 60)):
    """Generators of c T c^-1, for T generated by upper-triangular matrices
    (some with a = 1 or a = d = 1) and c the identity, upper triangular or
    any invertible matrix.  With c upper triangular the group fixes the line
    <e1>, so A, D and the translations of the chain carry all of its order."""
    n = draw(moduli)
    units = st.sampled_from([u for u in range(n) if gcd(u, n) == 1])
    entries = st.integers(0, n - 1)
    upper = st.builds(lambda a, b, d: (a, b, 0, d), units, entries, units)
    triangular = st.one_of(
        upper,
        st.builds(lambda b, d: (1 % n, b, 0, d), entries, units),
        st.builds(lambda b: (1 % n, b, 0, 1 % n), entries),
    )
    c = draw(st.one_of(st.just((1 % n, 0, 0, 1 % n)), upper, invertible(n)))
    ci = inv_raw(c, n)
    gens = draw(st.lists(triangular, min_size=1, max_size=4))
    return n, [matmul_oracle(matmul_oracle(c, t, n), ci, n) for t in gens]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(triangular_conjugates(), st.lists(st.tuples(*[st.integers(0, 10**6)] * 4), max_size=30))
@example((7, [(1, 5, 0, 5), (6, 2, 0, 1)]), [])
@example((30, [(19, 5, 0, 11), (1, 2, 0, 13), (23, 16, 0, 19)]), [])
@example((36, [(1, 6, 0, 1), (1, 0, 0, 5), (7, 0, 0, 1)]), [])
def test_chain_on_triangular_conjugates_matches_bfs(case, others):
    n, gens = case
    G = MatGroup(modulus(n), gens)
    members = closure_oracle(n, gens)
    assert G.order == len(members)
    assert all(G.contains(x) for x in members)
    for x in others:
        x = tuple(e % n for e in x)
        assert G.contains(x) == (x in members), x


@PROPERTY_SETTINGS
@given(st.integers(1, 60))
@example(1)
@example(60)
@example(120)
@example(128)
def test_line_key_names_the_points_of_p1(n):
    key = tables(n).key
    psi = n
    for p, _ in factorize(n):
        psi = psi // p * (p + 1)
    units = [u for u in range(n) if gcd(u, n) == 1]
    keys = set()
    for v in exact_order_vectors(n):
        x, y = v.entries
        k = key(x, y)
        keys.add(k)
        assert all(key(u * x % n, u * y % n) == k for u in units), (x, y)
    assert len(keys) == psi


# -- orbit kernel against the brute-force oracles -------------------------------

# above this order a group is too costly for the element-by-element oracle
ORACLE_ORDER_LIMIT = 20_000


# moduli at which SL2 is small enough for the element-by-element oracle
SL2_ORACLE_MODULI = [n for n in range(1, 61) if sl2_order(n) <= ORACLE_ORDER_LIMIT]


# moduli at which a Borel group (order n phi(n)^2) is small enough for the
# element-by-element oracle
BOREL_ORACLE_MODULI = [
    n for n in range(2, 61) if n * sum(gcd(u, n) == 1 for u in range(n)) ** 2 <= ORACLE_ORDER_LIMIT
]


@st.composite
def spectrum_cases(draw):
    """A random subgroup, or one whose only scalars are +-1: SL2, or the
    unipotent group, whose multiplier groups are all trivial.  Or, for the
    walk's shortcuts, the trivial group, or c G c^-1 for c invertible and G
    a Borel group, which holds the scalars, so every multiplier group S is
    all of (Z/nZ)^* and columns whose orbits are all claimed are skipped, or
    a Borel group whose diagonal is restricted to diag(<a>, <d>), where some
    S stays a proper subgroup."""
    kind = draw(st.sampled_from(["random", "sl2", "unipotent", "trivial", "borel", "restricted"]))
    if kind == "random":
        return draw(subgroup_gens(st.integers(1, 60)))
    if kind == "sl2":
        n = draw(st.sampled_from(SL2_ORACLE_MODULI))
        return n, sl2_gens(n)
    if kind == "unipotent":
        n = draw(st.integers(1, 60))
        return n, list(unipotent_group(n).raw_generators)
    if kind == "trivial":
        return draw(st.integers(1, 60)), []
    n = draw(st.sampled_from(BOREL_ORACLE_MODULI))
    if kind == "borel":
        gens = list(borel_group(n).raw_generators)
    else:
        units = st.sampled_from([u for u in range(n) if gcd(u, n) == 1])
        gens = [(1, 1, 0, 1), (draw(units), 0, 0, 1), (1, 0, 0, draw(units))]
    c = draw(invertible(n))
    ci = inv_raw(c, n)
    return n, [matmul_oracle(matmul_oracle(c, g, n), ci, n) for g in gens]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(spectrum_cases(), st.integers(1, 3))
@example((1, []), 2)
@example((2, []), 1)
@example((2, [(0, 1, 1, 1), (0, 1, 1, 0)]), 1)
@example((60, [(1, 1, 0, 1), (7, 0, 0, 1)]), 1)
@example((36, [(1, 0, 0, 5), (1, 6, 0, 1)]), 3)
# lower-triangular groups: one orbit per gcd class, found in its first column
@example((12, [(1, 0, 1, 1), (1, 0, 0, 7), (7, 0, 0, 1), (1, 0, 0, 5), (5, 0, 0, 1)]), 1)
@example((36, [(1, 0, 1, 1), (1, 0, 0, 19), (19, 0, 0, 1), (1, 0, 0, 29), (29, 0, 0, 1)]), 1)
@example((60, [(1, 0, 1, 1), (1, 0, 0, 31), (31, 0, 0, 1), (1, 0, 0, 41), (41, 0, 0, 1),
               (1, 0, 0, 37), (37, 0, 0, 1)]), 1)
@example((60, [(1, 1, 0, 1), (49, 0, 0, 1), (1, 0, 0, 11)]), 1)
@example((36, []), 1)
def test_degree_spectrum_matches_oracle(case, field_degree):
    n, gens = case
    G = MatGroup(modulus(n), gens)
    assume(G.order <= ORACLE_ORDER_LIMIT)
    parts = orbit_partition_oracle(G, exact_order_vectors(n))
    expected = []
    for part in parts:
        rep = min(part)
        minus = ((-rep[0]) % n, (-rep[1]) % n) in part
        half = minus and n > 2
        degree = (len(part) // 2 if half else len(part)) * field_degree
        expected.append((rep, len(part), n, minus, degree))
    spec = degree_spectrum(G, field_degree)
    got = [
        (r.representative.entries, r.size, r.point_order, r.minus_closed, r.degree)
        for r in spec.records
    ]
    assert got == expected
    for part, rec in zip(parts, spec.records):
        assert all(spec.record_of(v) is rec for v in part)
    # a closed point of X_1(n) is a vector up to -1: an orbit merged with its
    # negation, whose vectors pair up under -1 once n > 2
    points = {part | {((-x) % n, (-y) % n) for x, y in part} for part in parts}
    half = 2 if n > 2 else 1
    assert closed_point_degrees(spec) == sorted(len(p) // half * field_degree for p in points)


@st.composite
def scalar_laden_gens(draw):
    """Random generators mod n <= 40 with three kinds injected, shuffled:
    scalars zI, inverse pairs (g, g^-1), and pairs c diag(u, 1) c^-1,
    c diag(1, u) c^-1, whose product is uI."""
    n = draw(st.integers(1, 40))
    units = [u for u in range(n) if gcd(u, n) == 1]
    gens = draw(st.lists(invertible(n), max_size=2))
    gens += [(z, 0, 0, z) for z in draw(st.lists(st.sampled_from(units), max_size=2))]
    for g in draw(st.lists(invertible(n), max_size=1)):
        gens += [g, inv_raw(g, n)]
    for c, u in draw(st.lists(st.tuples(invertible(n), st.sampled_from(units)), max_size=2)):
        ci = inv_raw(c, n)
        gens += [matmul_oracle(matmul_oracle(c, d, n), ci, n) for d in ((u, 0, 0, 1), (1, 0, 0, u))]
    return n, draw(st.permutations(gens))


@PROPERTY_SETTINGS
@given(scalar_laden_gens(), st.lists(st.tuples(*[st.integers(0, 10**6)] * 4), max_size=20))
@example((12, [(5, 0, 0, 1), (1, 1, 0, 1), (1, 0, 0, 5)]), [(5, 0, 0, 5), (1, 0, 0, 5)])
@example((7, [(3, 0, 0, 3)]), [(1, 0, 0, 1), (3, 0, 0, 3), (2, 0, 0, 2)])
def test_scalar_generators_keep_chain_spectrum_and_growth(case, others):
    # scalars, and generators whose product with a kept one is scalar, are
    # not walked; the chain, the spectrum and the growth check must still
    # match the breadth-first closure and the oracles built on it
    n, gens = case
    G = MatGroup(modulus(n), gens)
    assume(G.order <= ORACLE_ORDER_LIMIT)
    members = closure_oracle(n, gens)
    assert G.order == len(members)
    assert all(G.contains(x) for x in members)
    for x in others:
        x = tuple(e % n for e in x)
        assert G.contains(x) == (x in members), x
    remaining, expected = {v.entries for v in exact_order_vectors(n)}, []
    while remaining:
        rep = min(remaining)
        part = {apply_raw(g, rep, n) for g in members}
        remaining -= part
        minus = ((-rep[0]) % n, (-rep[1]) % n) in part
        expected.append((rep, len(part), n, minus, len(part) // 2 if minus and n > 2 else len(part)))
    got = [
        (r.representative.entries, r.size, r.point_order, r.minus_closed, r.degree)
        for r in degree_spectrum(G).records
    ]
    assert got == expected
    for b in divisors(n):
        assert growth_downstairs(G, b) == growth_oracle(G, b), b


def test_exact_order_entries_match_brute_force():
    for n in range(1, 101):
        by_order = vectors_by_order_oracle(n)
        assert set(by_order) <= set(divisors(n))
        for d in divisors(n):
            got = [v.entries for v in exact_order_vectors(n, d)]
            assert got == by_order.get(d, [])
            assert len(got) == exact_order_vector_count(n, d)


@PROPERTY_SETTINGS
@given(st.integers(1, 60), st.data())
@example(35, None)
def test_fiber_count_matches_enumeration(n, data):
    b = data.draw(st.sampled_from(divisors(n))) if data else 7
    vectors = exact_order_vectors(n)
    for P in vectors[:: max(1, len(vectors) // 4)]:
        assert fiber_count(P, b) == fiber_count_oracle(P, b)


# -- cross-module consistency over random subgroups -----------------------------

# the moduli of the consistency properties: composite, with divisors and
# coprime splits to check, and GL2 small enough to build
SWEEP_MODULI = st.sampled_from([4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20])


@PROPERTY_SETTINGS
@given(subgroup_gens(SWEEP_MODULI))
def test_random_subgroup_orders_kernels_and_level(case):
    n, gens = case
    G = closure(gens, n=n)
    assert gl2_order(n) % G.order == 0
    for m in divisors(n):
        assert G.order == kernel_of_projection(G, m).order * project(G, m).order, m
    level = minimize_level(G)
    assert is_full_preimage(G, level)
    for m in divisors(n):
        if m < level:
            assert not is_full_preimage(G, m), m


@PROPERTY_SETTINGS
@given(subgroup_gens(SWEEP_MODULI))
def test_random_subgroup_spectrum_and_growth(case):
    n, gens = case
    G = closure(gens, n=n)
    spec = degree_spectrum(G)
    assert sum(r.size for r in spec.records) == exact_order_vector_count(n, n)
    for r in spec.records:
        assert G.order % r.size == 0
        if r.minus_closed and n > 2:
            assert 2 * r.degree == r.size
        else:
            assert r.degree == r.size
    for m in divisors(n):
        if m in (1, n):
            continue
        for rep in max_growth_check(G, n // m):
            assert rep.upstairs_degree <= rep.map_degree * rep.downstairs_degree, m


@PROPERTY_SETTINGS
@given(subgroup_gens(SWEEP_MODULI), st.integers(1, 2))
@example((16, [(1, 1, 0, 1)]), 1)
def test_growth_downstairs_matches_a_spectrum_mod_a(case, field_degree):
    # max_growth_check reads the orbits mod a off the line index mod n; the
    # oracle builds G mod a and its own spectrum.  In the example S is
    # trivial, and S' mod 8 and mod 4 gains the units that relate the lines
    # of a fibre
    n, gens = case
    G = MatGroup(modulus(n), gens)
    for b in divisors(n):
        assert growth_downstairs(G, b, field_degree) == growth_oracle(G, b, field_degree), b


# -- spectra lifted from the level the generators prove ------------------------


# moduli whose proper divisors sharing their primes cover p = 2 at f = 1 and
# e = 2, 3, 4, odd p at e <= 2f and e > 2f, and two primes at once
SOUNDNESS_MODULI = [4, 8, 9, 12, 16, 18, 20, 24, 25, 27, 36, 45, 49, 50, 72, 81, 100]


def family_generators(kind, n):
    """The generators of GL2, SL2, Borel, split Cartan or its normalizer mod n."""
    if kind in ("cartan", "normalizer"):
        cartan = split_cartan_group(n).raw_generators
        return [*cartan, (0, 1, 1, 0)] if kind == "normalizer" else list(cartan)
    return list({"gl2": gl2_group, "sl2": sl2_group, "borel": borel_group}[kind](n).raw_generators)


@st.composite
def few_generator_gens(draw, families=("gl2", "sl2", "borel", "cartan", "normalizer")):
    """A group mod n in SOUNDNESS_MODULI on few generators, none of them I
    mod rad(n) as a rule: the generators of one of `families`, or 1..4
    random matrices, each conjugated by one random matrix."""
    n = draw(st.sampled_from(SOUNDNESS_MODULI))
    kind = draw(st.sampled_from([*families, "random"]))
    if kind == "random":
        gens = draw(st.lists(invertible(n), min_size=1, max_size=4))
    else:
        gens = family_generators(kind, n)
    h = draw(invertible(n))
    h_inv = inv_raw(h, n)
    return n, [matmul_oracle(matmul_oracle(h, g, n), h_inv, n) for g in gens]


@st.composite
def lifted_cases(draw):
    """Half of the time a full preimage at n = m k <= 400 of a random base
    mod m <= 12, k a product of primes of m, with every generator conjugated
    by one random matrix half of the time; else a conjugated GL2 or random
    group on few generators (`few_generator_gens`).  A field degree 1..3."""
    if draw(st.booleans()):
        n, gens = draw(few_generator_gens(("gl2",)))
        return n, gens, draw(st.integers(1, 3))
    m = draw(st.integers(2, 12))
    n = m
    for p in draw(st.lists(st.sampled_from([p for p, _ in factorize(m)]), min_size=1, max_size=4)):
        if n * p <= 400:
            n *= p
    base = MatGroup(modulus(m), draw(st.lists(invertible(m), max_size=3)))
    gens = full_preimage(base, n).raw_generators
    if draw(st.booleans()):
        h = draw(invertible(n))
        h_inv = inv_raw(h, n)
        gens = [matmul_oracle(matmul_oracle(h, g, n), h_inv, n) for g in gens]
    return n, gens, draw(st.integers(1, 3))


def spectrum_and_growth(G, field_degree, vectors):
    """The records, closed-point degrees, records of `vectors` and growth
    reports at every b | n of G's spectrum."""
    spec = degree_spectrum(G, field_degree)
    return (
        spec.records,
        closed_point_degrees(spec),
        [spec.record_of(v) for v in vectors],
        [max_growth_check(G, b, field_degree) for b in divisors(G.modulus.n)],
    )


@PROPERTY_SETTINGS
@given(lifted_cases(), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=20))
@example((36, full_preimage(borel_group(6), 36).raw_generators, 2), [(7, 30)])
@example((16, full_preimage(borel_group(4), 16).raw_generators, 1), [(3, 4)])
@example((72, gl2_group(72).raw_generators, 3), [(5, 6)])
def test_lifted_spectrum_matches_the_walk_at_n(case, vectors):
    # a group whose generators prove its level d < n is walked mod d and its
    # records lifted; forced to walk mod n it must report the same records,
    # points, record_of answers and growth reports at every b | n
    n, gens, field_degree = case
    G = MatGroup(modulus(n), gens)
    assume(kernel_level(G) < n)
    vectors = [v for v in vectors if gcd(gcd(*v), n) == 1]
    lifted = spectrum_and_growth(G, field_degree, vectors)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbits, "kernel_level", lambda G: G.modulus.n)
        walked = spectrum_and_growth(G, field_degree, vectors)
    assert lifted == walked


@st.composite
def kernel_heavy_gens(draw):
    """Random generators mod n plus 0..5 random I + d X for one random d | n,
    d < n sharing the primes of n (so each is invertible)."""
    n = draw(st.sampled_from(SOUNDNESS_MODULI))
    radical = prod(p for p, _ in factorize(n))
    d = draw(st.sampled_from([d for d in divisors(n) if d % radical == 0 and d < n]))
    gens = draw(st.lists(invertible(n), max_size=3))
    for a, b, c, e in draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 4), max_size=5)):
        gens.append(((1 + d * a) % n, d * b % n, d * c % n, (1 + d * e) % n))
    return n, gens


@PROPERTY_SETTINGS
@given(st.one_of(kernel_heavy_gens(), few_generator_gens()))
@example((27, [(4, 0, 0, 1), (1, 3, 0, 1), (1, 0, 3, 1), (1, 0, 0, 4)]))
@example((36, [(1, 1, 0, 1), (7, 0, 0, 1), (1, 6, 0, 1), (1, 0, 6, 1), (1, 0, 0, 7)]))
@example((8, [(3, 0, 0, 1), (1, 2, 0, 1), (1, 0, 2, 1), (1, 0, 0, 3)]))
@example((72, [(25, 69, 26, 23), (7, 32, 2, 45)]))
@example((12, [(11, 0, 0, 1), (5, 6, 0, 1), (5, 0, 6, 1), (5, 0, 0, 7)]))
def test_kernel_level_is_sound(case):
    # whatever d < n the generators prove, from generators I mod rad(n) or
    # from isolated powers of any, G is the full preimage of G mod d.  In the
    # third example I + 2X spans the layer mod 2 but generates 2^7 of the 2^8
    # elements of ker(GL2(Z/8) -> GL2(Z/2)): squares miss the layer mod 4, so
    # nothing is proved at p = 2, f = 1 < e - 1.  In the last, each generator
    # is I + 2X mod 4 but diag(-1, 1) mod 3, of order 2: its cube is no
    # element I mod 3, and its layer no evidence until squared away
    n, gens = case
    G = MatGroup(modulus(n), gens)
    d = kernel_level(G)
    assert n % d == 0
    if d < n:
        assert is_full_preimage(G, d)


def chain_and_spectrum(n, gens, b, field_degree, probes):
    """What a fresh group on `gens` reports: records, growth reports, order
    and membership of each probe."""
    G = MatGroup(modulus(n), gens)
    return (
        repr(degree_spectrum(G, field_degree).records),
        repr(max_growth_check(G, b, field_degree)),
        G.order,
        [G.contains(m) for m in probes],
    )


@PROPERTY_SETTINGS
@given(subgroup_gens(st.integers(1, 120)), st.integers(1, 3), st.data())
@example((120, [(1, 1, 0, 1)]), 2, None)
def test_shared_tables_give_what_cold_tables_give(case, field_degree, data):
    # the line-key table, the units, the column classes and the cosets
    # depend on n alone and are shared by every chain and spectrum mod n;
    # a group mod n that warmed them leaves every result of another as it
    # is on cold tables, and the key table stays within [0, n)
    n, gens = case
    if data is None:
        b, warm, probes = 4, [(1, 0, 1, 1), (7, 0, 0, 1)], [(1, 0, 1, 1), (1, 1, 0, 1)]
    else:
        b = data.draw(st.sampled_from(divisors(n)))
        warm = data.draw(st.lists(invertible(n), min_size=1, max_size=3))
        probes = data.draw(st.lists(invertible(n), max_size=4))
    probes = [*gens, *warm, *probes]
    cold = []
    for group in (gens, warm):
        tables.cache_clear()
        assert len(tables(n).key) == 0
        cold.append(chain_and_spectrum(n, group, b, field_degree, probes))
    # the tables are warm from `warm` when `gens` runs, and from both after
    assert [chain_and_spectrum(n, group, b, field_degree, probes) for group in (gens, warm)] == cold
    key = tables(n).key
    assert key is tables(n).key
    assert 0 < len(key) <= n
    assert all(0 <= x < n for x in key)


@PROPERTY_SETTINGS
@given(subgroup_gens(SWEEP_MODULI))
def test_random_subgroup_goursat_orders(case):
    n, gens = case
    G = closure(gens, n=n)
    for a in divisors(n):
        b = n // a
        if a > 1 and b > 1 and gcd(a, b) == 1:
            data = goursat(G, a, b)
            assert G.order == (
                data.common_quotient_order * data.left_kernel.order * data.right_kernel.order
            ), a
            assert (
                data.left_image.order * data.right_kernel.order
                == data.right_image.order * data.left_kernel.order
            ), a


@PROPERTY_SETTINGS
@given(subgroup_gens(st.integers(1, 36)))
@example((1, [(0, 0, 0, 0)]))
@example((12, [(1, 1, 0, 1), (1, 0, 1, 1), (5, 0, 0, 1)]))
@example((9, [(1, 1, 0, 1), (2, 0, 0, 1), (1, 0, 0, 2), (1, 3, 0, 1), (1, 0, 3, 1), (4, 0, 0, 1), (1, 0, 0, 4)]))
def test_spectrum_walks_the_chain_line_orbit(case):
    # the chain and the spectrum both grow lines with matgroup.walk_lines:
    # the spectrum's line orbit through <e1> is the chain's first level, and
    # its multiplier group S is the chain's A.  A spectrum lifted from the
    # level d its generators prove walks G mod d, so it meets the chain mod d
    n, gens = case
    G = MatGroup(modulus(n), gens)
    spec = degree_spectrum(G)
    d = kernel_level(G)
    chain = project(G, d)._get_chain()
    orbit = spec._lines[tables(d).key(1 % d, 0)][5]
    assert orbit.count == len(chain.lines)
    assert orbit.scalars == set(chain.a_level)
    lifts = exact_order_vector_count(n, n) // exact_order_vector_count(d, d)
    assert spec.record_of((1, 0)).size == len(chain.lines) * len(chain.a_level) * lifts


# -- groups containing SL2, whose chain stops sifting once H is complete --------

# a group of at most this many elements is checked against its BFS closure
SL2_BFS_LIMIT = 5000


def unit_span_oracle(n, values):
    """The subgroup of (Z/nZ)^* generated by `values`, by breadth-first search."""
    one = 1 % n
    span, queue = {one}, [one]
    for u in queue:
        for v in values:
            w = u * v % n
            if w not in span:
                span.add(w)
                queue.append(w)
    return span


def level_from_elements(n, members):
    """The least m | n with |G| = |G mod m| |ker(GL2(Z/n) -> GL2(Z/m))|, that
    is with G the full preimage of its reduction mod m, from G's elements."""
    for m in divisors(n):
        image = {tuple(e % m for e in x) for x in members}
        if len(members) == len(image) * (gl2_order(n) // gl2_order(m)):
            return m
    raise AssertionError("unreachable: m = n always passes")


@st.composite
def sl2_containing_cases(draw):
    """(n, generators, whether they contain SL2) for n <= 40: GL2, SL2 or
    {g : det g in <u>} from the SL2 pair and diag(u, 1), each conjugated by
    a random matrix, or a random generator set."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["gl2", "sl2", "det", "random"]))
    if kind == "random":
        return n, draw(st.lists(invertible(n), min_size=1, max_size=3)), False
    if kind == "det":
        u = draw(st.sampled_from([u for u in range(n) if gcd(u, n) == 1]))
        gens = [*sl2_group(n).raw_generators, (u, 0, 0, 1)]
    else:
        gens = list((gl2_group if kind == "gl2" else sl2_group)(n).raw_generators)
    c = draw(invertible(n))
    c_inv = inv_raw(c, n)
    return n, [matmul_oracle(matmul_oracle(c, g, n), c_inv, n) for g in gens], True


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sl2_containing_cases(), st.lists(st.tuples(*[st.integers(-(10**6), 10**6)] * 4), max_size=20))
@example((40, list(gl2_group(40).raw_generators), True), [])
@example((36, list(sl2_group(36).raw_generators), True), [(1, 1, 0, 1), (2, 0, 0, 1)])
@example((12, [(1, 1, 0, 1), (1, 0, 1, 1), (5, 0, 0, 1)], True), [(7, 0, 0, 1)])
@example((1, [(0, 0, 0, 0)], True), [])
def test_sl2_containing_chain_matches_its_oracles(case, others):
    # the chain stops sifting once |A| = phi(n), g = 1 and D holds every
    # generator's determinant; order, membership, elements and level must
    # still be the group's.  A group of at most SL2_BFS_LIMIT elements is
    # checked against its BFS closure; a group G containing SL2 also against
    # its determinants: G = {g : det g in Delta}, Delta spanned by the
    # generators' determinants, so |G| = |SL2(Z/n)| |Delta|, and G is the
    # full preimage of G mod m iff every unit u = 1 mod m lies in Delta
    n, gens, has_sl2 = case
    G = MatGroup(modulus(n), gens)
    products = [matmul_oracle(g, h, n) for g in gens for h in gens]
    probes = [*products, *(tuple(e % n for e in x) for x in others)]
    assert all(G.contains(x) for x in products)
    if has_sl2:
        delta = unit_span_oracle(n, [(a * d - b * c) % n for a, b, c, d in gens])
        units = [u for u in range(n) if gcd(u, n) == 1]
        assert G.order == sl2_order(n) * len(delta)
        for x in probes:
            det = (x[0] * x[3] - x[1] * x[2]) % n
            assert G.contains(x) == (gcd(det, n) == 1 and det in delta), x
        level = next(m for m in divisors(n) if all(u in delta for u in units if u % m == 1 % m))
        assert minimize_level(G) == level
    pairs = pair_closure_oracle(n, 1, [(g, (0, 0, 0, 0)) for g in gens], SL2_BFS_LIMIT)
    if pairs is None:
        assert G.order > SL2_BFS_LIMIT
        return
    members = frozenset(x for x, _ in pairs)
    assert G.order == len(members)
    assert G.elements() == members
    for x in probes:
        assert G.contains(x) == (x in members), x
    assert minimize_level(G) == level_from_elements(n, members)


@st.composite
def ladic_cases(draw):
    """(n, generators, s) for n = 2^5, 3^4 or 5^3 and a stage s with s + 1
    <= e: a random generator set, or the full preimage of a random group at
    a lower power of the prime."""
    n = draw(st.sampled_from([2**5, 3**4, 5**3]))
    (ell, e), = factorize(n)
    if draw(st.booleans()):
        m = ell ** draw(st.integers(1, e))
        base = MatGroup(modulus(m), draw(st.lists(invertible(m), max_size=2)))
        gens = list(full_preimage(base, n).raw_generators)
    else:
        gens = draw(st.lists(invertible(n), min_size=1, max_size=3))
    return n, gens, draw(st.integers(minimal_stage(ell), e - 1))


@PROPERTY_SETTINGS
@given(ladic_cases())
@example((81, list(full_preimage(borel_group(3), 81).raw_generators), 3))
@example((81, list(full_preimage(borel_group(3), 81).raw_generators), 1))
@example((32, [(1, 1, 0, 1), (1, 0, 1, 1)], 2))
@example((125, [(1, 1, 0, 1)], 2))
def test_detection_reads_the_records_of_the_two_chain_route(case):
    # a detection certifies by membership; its records must be those of the
    # kernel order |G mod l^(s+1)| / |G mod l^s| read off two chains
    n, gens, s = case
    G = MatGroup(modulus(n), gens)
    ell = G.modulus.primes[0]
    kernel = kernel_order(project(G, ell ** (s + 1)), ell**s)
    assert detect_ladic_level(G, s) == LadicDetection(ell, s, kernel, ell**4, kernel == ell**4)


@PROPERTY_SETTINGS
@given(st.integers(1, 200), st.data())
@example(1, None)
@example(200, None)
def test_cosets_number_unit_cosets_by_their_least_units(n, data):
    units = [u for u in range(n) if gcd(u, n) == 1]
    picks = [] if data is None else data.draw(st.lists(st.sampled_from(units), max_size=3))
    S = unit_span_oracle(n, picks)
    coset = tables(n).cosets(frozenset(S))
    least = sorted({min(u * t % n for t in S) for u in units})
    # the coset of u is numbered by the rank of its least unit
    assert coset == {u: least.index(min(u * t % n for t in S)) for u in units}


@PROPERTY_SETTINGS
@given(subgroup_gens(st.integers(1, 40)), st.data())
@example((12, [(1, 1, 0, 1), (1, 0, 1, 1), (5, 0, 0, 1)]), None)
def test_project_reduces_generators_of_any_sign_or_size(case, data):
    # MatGroup reduces each generator mod its modulus, so project hands it
    # G's generators as they are
    n, gens = case
    entries = st.tuples(*[st.integers(-(10**12), 10**12)] * 4)
    if data is None:
        shifts, others = [(-3, 5, -(10**12), 7)] * len(gens), [(-1, 10**12, 13, -7)]
    else:
        shifts = data.draw(st.lists(entries, min_size=len(gens), max_size=len(gens)))
        others = data.draw(st.lists(entries, max_size=10))
    G = MatGroup(modulus(n), [tuple(e + n * t for e, t in zip(g, ts)) for g, ts in zip(gens, shifts)])
    for m in divisors(n):
        reduced = tuple(dict.fromkeys(tuple(e % m for e in g) for g in gens))
        P, fresh = project(G, m), MatGroup(modulus(m), reduced)
        assert P.raw_generators == reduced, m
        assert P.order == fresh.order, m
        for x in [*reduced, *others]:
            assert P.contains(x) == fresh.contains(x), (m, x)
