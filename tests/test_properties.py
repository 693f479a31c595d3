"""Cross-module consistency over random subgroups: a seeded sweep, and
hypothesis properties of the stabilizer chain against breadth-first closure
and of the orbit kernel against the brute-force oracles."""

import random
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    fiber_count_oracle,
    matmul_oracle,
    orbit_partition_oracle,
    sl2_gens,
    unipotent_group,
    vectors_by_order_oracle,
)

from x1points.levels import minimize_level
from x1points.matgroup import (
    DEFAULT_CAP,
    MatGroup,
    _bfs_closure,
    closure,
    full_preimage,
    goursat,
    is_full_preimage,
    kernel_of_projection,
    kernel_order,
    project,
)
from x1points.modarith import divisors, gl2_order, modulus, sl2_order, vec2
from x1points.orbits import (
    _exact_order_entries,
    degree_spectrum,
    exact_order_vector_count,
    exact_order_vectors,
    fiber_count,
    vector_orbits,
)
from x1points.sporadic import pushforward_degree_check


def random_subgroup(rng, n):
    gens = []
    while len(gens) < rng.randint(1, 3):
        cand = tuple(rng.randrange(n) for _ in range(4))
        det = (cand[0] * cand[3] - cand[1] * cand[2]) % n
        if gcd(det, n) == 1:
            gens.append(cand)
    return closure(gens, n=n)


def test_random_subgroup_consistency_sweep():
    rng = random.Random(424242)
    for _ in range(12):
        n = rng.choice([4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20])
        G = random_subgroup(rng, n)
        assert gl2_order(n) % G.order == 0

        for m in divisors(n):
            assert G.order == kernel_of_projection(G, m).order * project(G, m).order

        level = minimize_level(G)
        assert is_full_preimage(G, level)
        for m in divisors(n):
            if m < level:
                assert not is_full_preimage(G, m)

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
            down = degree_spectrum(project(G, m))
            for rep in pushforward_degree_check(spec, down):
                assert rep.upstairs_degree <= rep.map_degree * rep.downstairs_degree

        for a in divisors(n):
            b = n // a
            if a > 1 and b > 1 and gcd(a, b) == 1:
                data = goursat(G, a, b)
                assert G.order == (
                    data.common_quotient_order
                    * data.left_kernel.order
                    * data.right_kernel.order
                )
                assert (
                    data.left_image.order * data.right_kernel.order
                    == data.right_image.order * data.left_kernel.order
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
@example((30, [(1, 1, 0, 1), (1, 0, 1, 1), (7, 0, 0, 1), (11, 0, 0, 1)]))
def test_chain_order_matches_bfs(case):
    n, gens = case
    assert MatGroup(modulus(n), gens).order == len(_bfs_closure(n, gens, DEFAULT_CAP))


@PROPERTY_SETTINGS
@given(subgroup_gens(), st.lists(st.tuples(*[st.integers(0, 10**6)] * 4), max_size=50))
def test_chain_contains_matches_set_membership(case, others):
    n, gens = case
    G = MatGroup(modulus(n), gens)
    members = _bfs_closure(n, gens, DEFAULT_CAP)
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
        assert len(_bfs_closure(n, list(pre.raw_generators), DEFAULT_CAP)) == expected


@PROPERTY_SETTINGS
@given(subgroup_gens(st.integers(1, 12)))
def test_from_elements_keeps_greedy_generators(case):
    n, gens = case
    els = _bfs_closure(n, gens, DEFAULT_CAP)
    expected, span = [], {(1 % n, 0, 0, 1 % n)}
    for x in sorted(els):
        if x not in span:
            expected.append(x)
            span = _bfs_closure(n, expected, DEFAULT_CAP)
    G = MatGroup.from_elements(n, els)
    assert list(G.raw_generators) == expected
    assert G.order == len(els)
    if len(els) > 2:  # |G| - 1 elements never form a subgroup then
        with pytest.raises(ValueError):
            MatGroup.from_elements(n, els - {max(els - {(1 % n, 0, 0, 1 % n)})})


@PROPERTY_SETTINGS
@given(subgroup_gens())
def test_kernel_order_matches_materialized_kernel(case):
    n, gens = case
    G = MatGroup(modulus(n), gens)
    assume(G.order <= BFS_CHECK_LIMIT)
    members = _bfs_closure(n, gens, DEFAULT_CAP)
    for m in divisors(n):
        ident = (1 % m, 0, 0, 1 % m)
        in_kernel = sum(1 for x in members if tuple(e % m for e in x) == ident)
        assert kernel_order(G, m) == kernel_of_projection(G, m).order == in_kernel, m


# -- orbit kernel against the brute-force oracles -------------------------------

# above this order a group is too costly for the element-by-element oracle
ORACLE_ORDER_LIMIT = 20_000


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(subgroup_gens(st.integers(1, 60)), st.data())
@example((60, [(1, 1, 0, 1)]), None)
@example((49, [(1, 0, 0, 3), (1, 7, 0, 1)]), None)
def test_vector_orbits_match_oracle_on_shuffled_input(case, data):
    n, gens = case
    G = MatGroup(modulus(n), gens)
    assume(G.order <= ORACLE_ORDER_LIMIT)
    d = data.draw(st.sampled_from(divisors(n))) if data else n
    vectors = exact_order_vectors(n, d)
    expected = orbit_partition_oracle(G, vectors)
    if data:
        data.draw(st.randoms(use_true_random=False)).shuffle(vectors)
    else:
        vectors.reverse()
    assert vector_orbits(G, vectors) == expected
    assert vector_orbits(G, [v.entries for v in vectors]) == expected


@PROPERTY_SETTINGS
@given(subgroup_gens(st.integers(1, 100)), st.randoms(use_true_random=False))
def test_vector_orbits_ordered_by_minimum(case, rng):
    n, gens = case
    G = MatGroup(modulus(n), gens)
    vectors = [v for part in vectors_by_order_oracle(n).values() for v in part]
    rng.shuffle(vectors)
    parts = vector_orbits(G, vectors)
    mins = [min(o) for o in parts]
    assert mins == sorted(mins) and len(set(mins)) == len(mins)
    assert sum(len(o) for o in parts) == n * n
    reps = [r.representative.entries for r in degree_spectrum(G).records]
    assert reps == sorted(reps)


# moduli at which SL2 is small enough for the element-by-element oracle
SL2_ORACLE_MODULI = [n for n in range(1, 61) if sl2_order(n) <= ORACLE_ORDER_LIMIT]


@st.composite
def spectrum_cases(draw):
    """A random subgroup, or one whose only scalars are +-1: SL2, or the
    unipotent group, whose multiplier groups are all trivial."""
    kind = draw(st.sampled_from(["random", "sl2", "unipotent"]))
    if kind == "random":
        return draw(subgroup_gens(st.integers(1, 60)))
    if kind == "sl2":
        n = draw(st.sampled_from(SL2_ORACLE_MODULI))
        return n, sl2_gens(n)
    n = draw(st.integers(1, 60))
    return n, list(unipotent_group(n).raw_generators)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(spectrum_cases(), st.integers(1, 3))
@example((1, []), 2)
@example((2, []), 1)
@example((2, [(0, 1, 1, 1), (0, 1, 1, 0)]), 1)
@example((60, [(1, 1, 0, 1), (7, 0, 0, 1)]), 1)
@example((36, [(1, 0, 0, 5), (1, 6, 0, 1)]), 3)
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


def test_exact_order_entries_match_brute_force():
    for n in range(1, 101):
        by_order = vectors_by_order_oracle(n)
        assert set(by_order) <= set(divisors(n))
        for d in divisors(n):
            got = _exact_order_entries(n, d)
            assert got == by_order.get(d, [])
            assert len(got) == exact_order_vector_count(n, d)


@PROPERTY_SETTINGS
@given(st.integers(1, 60), st.data())
@example(35, None)
def test_fiber_count_matches_enumeration(n, data):
    b = data.draw(st.sampled_from(divisors(n))) if data else 7
    entries = _exact_order_entries(n, n)
    for x, y in entries[:: max(1, len(entries) // 4)]:
        P = vec2(n, x, y)
        assert fiber_count(P, b) == fiber_count_oracle(P, b)
