import re

import pytest

from conftest import (
    fiber_product_group,
    orbit_partition_oracle,
    spectrum_partition,
    split_cartan_group,
    unipotent_group,
)
from x1points.curveinv import map_degree, psl2_index
from x1points.errors import CapExceeded, ModulusMismatch, OrderMismatch
from x1points.matgroup import (
    DEFAULT_CAP,
    MatGroup,
    borel_group,
    closure,
    full_preimage,
    gl2_group,
    sl2_group,
)
from x1points.modarith import divisors, factorize, inv_raw, modulus, mul_raw, vec2
from x1points.orbits import (
    _Lines,
    closed_point_degrees,
    degree_spectrum,
    exact_order_vector_count,
    exact_order_vectors,
    fiber_count,
    max_growth_check,
)


def brute_exact_order_vectors(n, d):
    from math import gcd

    out = []
    for x in range(n):
        for y in range(n):
            if n // gcd(n, gcd(x, y)) == d:
                out.append((x, y))
    return out


def test_exact_order_vectors_counts():
    assert len(exact_order_vectors(5, 5)) == 24
    assert len(exact_order_vectors(4, 4)) == 12
    assert [v.entries for v in exact_order_vectors(1, 1)] == [(0, 0)]


def test_exact_order_vectors_brute_force():
    for n in (1, 2, 3, 4, 6, 8, 9, 12, 18, 20, 30):
        for d in range(1, n + 1):
            if n % d:
                continue
            got = [v.entries for v in exact_order_vectors(n, d)]
            assert got == brute_exact_order_vectors(n, d)
            assert len(got) == exact_order_vector_count(n, d)


def test_degree_spectrum_gl2_5():
    spec = degree_spectrum(gl2_group(5))
    assert len(spec.records) == 1
    rec = spec.records[0]
    assert rec.size == 24 and rec.minus_closed and rec.degree == 12
    assert rec.degree == psl2_index(5)


def test_degree_spectrum_borel_7():
    spec = degree_spectrum(borel_group(7))
    assert sorted(r.size for r in spec.records) == [6, 42]
    assert sorted(r.degree for r in spec.records) == [3, 21]


def test_degree_spectrum_trivial_group_mod_3():
    spec = degree_spectrum(closure([(1, 0, 0, 1)], 3))
    assert len(spec.records) == 8
    assert all(r.size == 1 and r.degree == 1 and not r.minus_closed for r in spec.records)


def test_degree_spectrum_field_degree_scales():
    spec = degree_spectrum(gl2_group(7), field_degree=3)
    assert [r.degree for r in spec.records] == [3 * psl2_index(7)]


def test_field_degree_below_one_rejected():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="field degree must be >= 1"):
            degree_spectrum(gl2_group(5), bad)
        with pytest.raises(ValueError, match="field degree must be >= 1"):
            max_growth_check(gl2_group(35), 7, bad)


def test_spectrum_sums_to_index_for_full_gl2():
    for n in range(3, 41):
        spec = degree_spectrum(gl2_group(n))
        assert sum(r.degree for r in spec.records) == psl2_index(n), n


def test_orbits_match_full_element_oracle():
    cases = [
        gl2_group(5),
        borel_group(7),
        closure([(1, 0, 0, 1)], 3),
        split_cartan_group(8),
        fiber_product_group(5, 2),
        sl2_group(9),
        gl2_group(12),
    ]
    for G in cases:
        G = closure(G.raw_generators, G.modulus.n)
        vectors = exact_order_vectors(G.modulus.n)
        assert spectrum_partition(G, vectors) == orbit_partition_oracle(G, vectors)


def test_spectrum_invariant_under_conjugation():
    m = (1, 1, 1, 2)  # det 1: always invertible
    for n in (5, 7, 9, 12, 16, 21):
        m_inv = inv_raw(m, n)
        for G in (borel_group(n), split_cartan_group(n), unipotent_group(n)):
            conj = [mul_raw(mul_raw(m, g, n), m_inv, n) for g in G.raw_generators]
            a = degree_spectrum(G)
            b = degree_spectrum(MatGroup(modulus(n), conj))
            assert sorted((r.size, r.minus_closed, r.degree) for r in a.records) == sorted(
                (r.size, r.minus_closed, r.degree) for r in b.records
            )


def test_closed_point_degrees_invariant_under_adjoining_minus_one():
    for n in (5, 7, 9, 12, 16, 21):
        for G in (unipotent_group(n), split_cartan_group(n), sl2_group(n)):
            with_minus = MatGroup(
                modulus(n), list(G.raw_generators) + [(n - 1, 0, 0, n - 1)]
            )
            assert closed_point_degrees(degree_spectrum(G)) == closed_point_degrees(
                degree_spectrum(with_minus)
            ), (n, G)


def test_fiber_count_35():
    for P in (vec2(35, 1, 0), vec2(35, 3, 7), vec2(35, 1, 1)):
        assert fiber_count(P, 7) == 48
    assert map_degree(5, 7).degree == 48


def test_fiber_count_trivial_b():
    assert fiber_count(vec2(35, 1, 0), 1) == 1


def test_fiber_count_half_level_factor_two():
    # order 4, a = b = 2: count 4 = 2 * deg(X_1(4) -> X_1(2))
    assert fiber_count(vec2(4, 1, 0), 2) == 4 == 2 * map_degree(2, 2).degree


def test_fiber_count_rejects_wrong_order():
    with pytest.raises(OrderMismatch):
        fiber_count(vec2(35, 5, 0), 7)  # order 7, not 35
    with pytest.raises(OrderMismatch):
        fiber_count(vec2(35, 1, 0), 4)


def test_max_growth_gl2_35():
    reports = max_growth_check(gl2_group(35), 7)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.field_ratio == rep.fiber == 48
    assert rep.max_growth and rep.product_equal


def test_max_growth_identity_map():
    reports = max_growth_check(gl2_group(12), 1)
    assert reports
    assert all(r.max_growth and r.product_equal and r.map_degree == 1 for r in reports)


def test_max_growth_full_preimage_mod_25():
    base = closure(borel_group(5).raw_generators, 5)
    G = full_preimage(base, 25)
    reports = max_growth_check(G, 5)
    assert reports and all(r.max_growth and r.product_equal for r in reports)


def test_max_growth_split_cartan_25_reports_only():
    # no equality claim; the report must be internally consistent
    reports = max_growth_check(split_cartan_group(25), 5)
    assert reports
    for r in reports:
        assert r.upstairs_size == r.field_ratio * r.downstairs_size
        assert r.fiber >= r.field_ratio


def test_max_growth_under_large_image_hypothesis(large_image_samples, large_image_sample_mod30):
    # mod-5 part full GL2 (resp. mod-7 part containing SL2) forces equality
    # on every orbit of the covering X_1(n) -> X_1(n/ell)
    cases = dict(large_image_samples)
    cases[(30, 5, 6)] = large_image_sample_mod30
    for (n, ell, m), G in cases.items():
        reports = max_growth_check(G, ell)
        assert reports
        assert all(r.max_growth for r in reports), (n, ell)
        assert all(r.product_equal for r in reports), (n, ell)


def test_max_growth_composite_b_full_gl2():
    reports = max_growth_check(gl2_group(36), 6)
    assert all(r.max_growth and r.product_equal for r in reports)


def test_max_growth_detects_non_maximal_cases():
    # small groups whose stabilizers are too large: the check must fail,
    # not hold vacuously
    unipotent = MatGroup(modulus(25), [(1, 1, 0, 1)])
    reports = max_growth_check(unipotent, 5)
    assert any(not r.max_growth for r in reports)
    assert any(not r.product_equal for r in reports)
    scalars = MatGroup(modulus(25), [(2, 0, 0, 2)])
    reports = max_growth_check(scalars, 5)
    assert any(not r.max_growth for r in reports)


def test_record_sizes_partition_exact_order_vectors(large_image_samples):
    for (n, ell, m), G in large_image_samples.items():
        spec = degree_spectrum(G)
        assert sum(r.size for r in spec.records) == exact_order_vector_count(n, n)


def test_orbit_sizes_divide_group_order(large_image_samples):
    for (n, ell, m), G in large_image_samples.items():
        order = closure(G.raw_generators, n).order
        for rec in degree_spectrum(G).records:
            assert order % rec.size == 0


def test_exact_order_vector_count_rejects_order_not_dividing_modulus():
    # (Z/4Z)^2 has no vector of order 3, though (Z/3Z)^2 has 8
    with pytest.raises(OrderMismatch, match="3 does not divide 4"):
        exact_order_vector_count(4, 3)
    assert exact_order_vector_count(4, 2) == 3


def test_degree_spectrum_cap_counts_vectors_before_enumerating():
    G = sl2_group(1_000_003)
    with pytest.raises(CapExceeded, match="vectors") as info:
        degree_spectrum(G)
    assert info.value.partial_count == 1_000_003**2 - 1
    # 4099^2 - 1 vectors are just above the default cap; a smaller cap
    # bounds the group engine only, so the vector limit stays the default
    for cap in (DEFAULT_CAP, 10):
        with pytest.raises(CapExceeded) as info:
            degree_spectrum(MatGroup(modulus(4099), [(1, 1, 0, 1)], cap))
        assert info.value.cap == DEFAULT_CAP
        assert info.value.partial_count == 4099**2 - 1


def test_degree_spectrum_full_preimage_borel_5_at_625():
    # closed form: the order-625 vectors over the Borel line mod 5 and the
    # rest, each one orbit of the kernel-full group, each closed under -1
    spec = degree_spectrum(full_preimage(borel_group(5), 625))
    assert [(r.representative.entries, r.size) for r in spec.records] == [
        ((0, 1), 312500),
        ((1, 0), 62500),
    ]
    assert all(r.minus_closed and r.degree == r.size // 2 for r in spec.records)


def test_degree_spectrum_full_preimage_borel_3_at_3_to_the_7():
    # 2 of the 8 order-3 vectors lie on the Borel line, and each has
    # 3^12 = 531441 lifts of order 3^7; both orbits are closed under -1
    spec = degree_spectrum(full_preimage(borel_group(3), 3**7))
    assert [r.degree for r in spec.records] == [1594323, 531441]


def test_walk_claims_only_the_first_column_of_each_gcd_class(monkeypatch):
    # the lower-triangular group mod n has one orbit per class g = gcd(n, x),
    # all of whose columns are one orbit: once the first column x = g is
    # walked, the class's later columns are skipped
    n = 120
    G = MatGroup(modulus(n), [(d, c, b, a) for a, b, c, d in borel_group(n).raw_generators])
    columns = []
    claim = _Lines.claim

    def counted(self, x, y):
        columns.append(x)
        return claim(self, x, y)

    monkeypatch.setattr(_Lines, "claim", counted)
    spec = degree_spectrum(G)
    assert [r.representative.x for r in spec.records] == sorted(g % n for g in divisors(n))
    assert set(columns) == {g % n for g in divisors(n)}
    assert len(columns) < exact_order_vector_count(n, n)


@pytest.mark.parametrize("n", [12, 49, 64, 169])
def test_line_index_of_a_full_image_holds_psi_entries(n):
    # one index entry per line of P^1(Z/nZ), none per vector: GL2 has one
    # line orbit, and every entry names it
    psi = n
    for p, _ in factorize(n):
        psi = psi // p * (p + 1)
    lines = degree_spectrum(gl2_group(n))._lines.lines
    assert len(lines) == psi
    assert len({entry[5] for entry in lines.values()}) == 1
    assert next(iter(lines.values()))[5].count == psi


def test_record_of_rejects_vector_not_of_exact_order():
    spec = degree_spectrum(gl2_group(5))
    for v in [(0, 0), (5, 10), vec2(5, 0, 0)]:
        with pytest.raises(OrderMismatch, match=r"vector \(0,0\) does not have exact order 5"):
            spec.record_of(v)
    spec = degree_spectrum(borel_group(10))
    with pytest.raises(OrderMismatch, match=r"vector \(2,4\) does not have exact order 10"):
        spec.record_of((2, 4))
    assert spec.record_of((12, -1)) is spec.record_of((2, 9))


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_order_vector_count(4, 0),
        lambda: exact_order_vectors(4, 0),
        lambda: fiber_count(vec2(4, 1, 0), 0),
        lambda: max_growth_check(gl2_group(4), 0),
    ],
    ids=["exact_order_vector_count", "exact_order_vectors", "fiber_count", "max_growth_check"],
)
def test_zero_order_rejected_as_order_mismatch(call):
    with pytest.raises(OrderMismatch, match="0 does not divide 4"):
        call()


def test_record_of_rejects_vector_of_another_modulus():
    spec = degree_spectrum(borel_group(5))
    with pytest.raises(ModulusMismatch, match="35 != spectrum modulus 5"):
        spec.record_of(vec2(35, 12, 3))
    # a tuple is reduced mod the spectrum's modulus
    assert spec.record_of((12, 3)) == spec.record_of(vec2(5, 2, 3))


@pytest.mark.parametrize("v", [(1, 2, 3), (1,), ()])
def test_record_of_rejects_tuple_not_of_length_2(v):
    spec = degree_spectrum(gl2_group(4))
    with pytest.raises(ValueError, match=rf"vector {re.escape(str(v))} needs 2 entries, got {len(v)}"):
        spec.record_of(v)
