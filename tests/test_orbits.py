import gc
import re
import tracemalloc
from math import gcd
from pathlib import Path

import pytest

from conftest import (
    fiber_product_group,
    growth_downstairs,
    growth_oracle,
    orbit_partition_oracle,
    spectrum_partition,
    split_cartan_group,
    unipotent_group,
)
from x1points import matgroup, orbits
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
from x1points.modarith import (
    divisors,
    euler_phi,
    factorize,
    gl2_order,
    inv_raw,
    modulus,
    mul_raw,
    tables,
    unit_group_generators,
    vec2,
)
from x1points.orbits import (
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


# groups whose orbits mod a differ from those mod n in their line counts,
# their multiplier groups, or both
def growth_groups(n):
    u = next(u for u in range(2, n) if gcd(u, n) == 1)
    return [
        gl2_group(n),
        borel_group(n),
        split_cartan_group(n),
        unipotent_group(n),
        MatGroup(modulus(n), [(1, 1, 0, 1), (1, 0, 0, u)]),
        MatGroup(modulus(n), []),
    ]


@pytest.mark.parametrize("n", [12, 25, 35])
def test_growth_to_level_one(n):
    # a = 1: one vector mod 1, of degree [k:Q]
    for G in growth_groups(n):
        assert growth_downstairs(G, n, 2) == growth_oracle(G, n, 2)
        assert all(r.downstairs_size == 1 and r.downstairs_degree == 2 for r in max_growth_check(G, n, 2))


@pytest.mark.parametrize("n", [12, 20, 50])
def test_growth_to_level_two_never_halves(n):
    # a = 2: -1 = 1 lies in every S', but a point of order 2 is its own
    # negative, so the degree is the size
    for G in growth_groups(n):
        assert growth_downstairs(G, n // 2) == growth_oracle(G, n // 2)
        assert all(r.downstairs_degree == r.downstairs_size for r in max_growth_check(G, n // 2))


def test_growth_with_b_prime_to_a():
    # n = 35, b = 7: the fibres over a line mod 5 are whole lines mod 7
    for G in growth_groups(35):
        assert growth_downstairs(G, 7) == growth_oracle(G, 7)
        assert growth_downstairs(G, 5) == growth_oracle(G, 5)


def test_growth_field_degree_three():
    for G in growth_groups(25):
        assert growth_downstairs(G, 5, 3) == growth_oracle(G, 5, 3)
        assert all(r.downstairs_degree % 3 == 0 for r in max_growth_check(G, 5, 3))


@pytest.mark.parametrize("G", [gl2_group(120), borel_group(120)], ids=["gl2", "borel"])
def test_growth_check_walks_the_lines_once(G, monkeypatch):
    # the orbits mod 60 come from the line index mod 120: psi(120) = 288
    # lines are walked in all, and G mod 60 is never built
    walked = []
    walk = orbits.walk_lines

    def counted(*args):
        walked.append(walk(*args))
        return walked[-1]

    def refuse(*args):
        raise AssertionError("project called")

    monkeypatch.setattr(orbits, "walk_lines", counted)
    monkeypatch.setattr(matgroup, "project", refuse)
    assert not hasattr(orbits, "project")
    assert max_growth_check(G, 2)
    assert sum(walked) == 288


@pytest.mark.parametrize("n", [300, 3**7, 16])
def test_scalar_pairs_leave_the_walk(n, monkeypatch):
    # borel_group(n) lists diag(u, 1) and diag(1, u) for each of its r unit
    # generators u; their product is uI, so the chain and the spectrum walk
    # 1 + r edges and take each u as a scalar.  GL2's generators have no
    # scalar product, so all of them are walked
    r = len(unit_group_generators(n))
    walks = []
    walk = matgroup.walk_lines

    def counted(n, key, lines, start, edges, *rest):
        walks.append(len(edges))
        return walk(n, key, lines, start, edges, *rest)

    monkeypatch.setattr(matgroup, "walk_lines", counted)
    monkeypatch.setattr(orbits, "walk_lines", counted)
    B = borel_group(n)
    assert len(B.raw_generators) == 1 + 2 * r
    assert B.order == n * euler_phi(n) ** 2
    # the lines (x : 1) form one orbit, and diag(1, d) fixes (0, 1) up to d
    assert degree_spectrum(B).record_of((0, 1)).size == n * euler_phi(n)
    assert walks and set(walks) == {1 + r}
    walks.clear()
    G = gl2_group(n)
    assert G.order == gl2_order(n) and degree_spectrum(G).records
    assert walks and set(walks) == {len(G.raw_generators)}


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
    # bounds them at that cap
    for cap in (DEFAULT_CAP, 10):
        with pytest.raises(CapExceeded) as info:
            degree_spectrum(MatGroup(modulus(4099), [(1, 1, 0, 1)], cap))
        assert info.value.cap == cap
        assert info.value.partial_count == 4099**2 - 1


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"

# groups whose spectrum runs at a cap of exactly J_2(n), the golden `orbits`
# and `degrees` inputs among them
SPECTRUM_CAP_GROUPS = [
    ("gl2_5.json", lambda cap: matgroup.load_group(str(GOLDEN_INPUTS / "gl2_5.json"), cap)),
    ("borel_7.json", lambda cap: matgroup.load_group(str(GOLDEN_INPUTS / "borel_7.json"), cap)),
    ("sl2_8.json", lambda cap: matgroup.load_group(str(GOLDEN_INPUTS / "sl2_8.json"), cap)),
    ("unipotent_5.json", lambda cap: matgroup.load_group(str(GOLDEN_INPUTS / "unipotent_5.json"), cap)),
    ("trivial mod 12", lambda cap: MatGroup(modulus(12), [], cap)),
    ("borel_group(300)", lambda cap: borel_group(300, cap=cap)),
    ("full_preimage(borel_group(5), 125)", lambda cap: full_preimage(borel_group(5), 125, cap=cap)),
]


@pytest.mark.parametrize("make", [c[1] for c in SPECTRUM_CAP_GROUPS], ids=[c[0] for c in SPECTRUM_CAP_GROUPS])
def test_degree_spectrum_fits_exactly_a_cap_of_its_vectors(make):
    # the cap bounds the exact-order vectors themselves, with no floor
    G = make(DEFAULT_CAP)
    n = G.modulus.n
    count = exact_order_vector_count(n, n)
    assert degree_spectrum(make(count), 2).records == degree_spectrum(G, 2).records
    with pytest.raises(CapExceeded) as info:
        degree_spectrum(make(count - 1))
    assert (info.value.cap, info.value.partial_count) == (count - 1, count)
    assert str(info.value) == f"vector enumeration exceeded cap of {count - 1} vectors ({count} found)"


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
    exact_order_columns = orbits._exact_order_columns

    def read(x, ys):
        for y in ys:
            columns.append(x)
            yield y

    def counted(n, d):
        for x, g, ys in exact_order_columns(n, d):
            yield x, g, read(x, ys)

    monkeypatch.setattr(orbits, "_exact_order_columns", counted)
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
    lines = degree_spectrum(gl2_group(n))._lines
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


def test_spectra_over_many_moduli_keep_bounded_tables():
    # a loop over 200 levels keeps the per-modulus tables of the last 32
    # only; with every table kept, this loop holds about 9 MB
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(100, 300):
            degree_spectrum(borel_group(n))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tables.cache_info().currsize <= 32
    assert held <= 3 * 2**20, held
