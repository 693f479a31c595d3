import json
import re

import pytest

from conftest import closure_oracle, fiber_product_group, join2, split_cartan_group
from x1points.errors import CapExceeded, ModulusMismatch, NonCoprimeModuli, NotInvertible
from x1points.matgroup import (
    MatGroup,
    borel_group,
    closure,
    congruence_kernel_generators,
    contains_sl2,
    crt_product,
    full_preimage,
    gl2_group,
    goursat,
    goursat_product,
    group_from_dict,
    group_to_dict,
    is_full_preimage,
    kernel_of_projection,
    kernel_order,
    project,
    sl2_group,
)
from x1points.modarith import (
    divisors,
    euler_phi,
    gl2_order,
    modulus,
    sl2_order,
    tables,
)


def test_closure_trivial():
    G = closure([(1, 0, 0, 1)], 5)
    assert G.order == 1


def test_repr_shows_the_order_once_it_is_known():
    G = gl2_group(5)
    assert repr(G) == "MatGroup(mod 5, 3 gens, order ?)"
    assert G.order == 480
    assert repr(G) == "MatGroup(mod 5, 3 gens, order 480)"


def test_closure_sl2_mod_5():
    G = closure([(1, 1, 0, 1), (1, 0, 1, 1)], 5)
    assert G.order == sl2_order(5) == 120


def test_closure_gl2_mod_8():
    G = closure(gl2_group(8).raw_generators, 8)
    assert G.order == gl2_order(8) == 1536


def test_standard_generator_orders_match_closure():
    # the preset orders of gl2_group / sl2_group against actual closure
    for n in (2, 3, 4, 5, 8, 9, 12, 15):
        assert closure(gl2_group(n).raw_generators, n).order == gl2_order(n) == gl2_group(n).order
        assert closure(sl2_group(n).raw_generators, n).order == sl2_order(n) == sl2_group(n).order


def test_standard_group_orders_from_the_chain():
    # a fresh group on the same generators, so the order comes from the chain
    for n in (1, 2, 3, 4, 5, 8, 9, 12, 15, 36):
        for make, expected in ((gl2_group, gl2_order(n)), (sl2_group, sl2_order(n))):
            G = make(n)
            assert MatGroup(modulus(n), list(G.raw_generators)).order == expected
            assert G.order == expected and not G.is_materialized
        assert borel_group(n).order == euler_phi(n) ** 2 * n
        assert contains_sl2(gl2_group(n)) and contains_sl2(sl2_group(n))


def test_closure_rejects_singular_generator():
    with pytest.raises(NotInvertible):
        closure([(2, 0, 0, 1)], 4)


def test_closure_cap_exceeded():
    with pytest.raises(CapExceeded) as info:
        closure(gl2_group(8).raw_generators, 8, cap=100)
    # the chain fits the cap, and the count is the true order
    assert info.value.partial_count == gl2_order(8)


def test_cap_exceeded_from_chain_reports_true_count():
    # every (point, generator) pair the chain visits counts against the cap
    with pytest.raises(CapExceeded) as info:
        gl2_group(8, cap=10).contains((1, 1, 0, 1))  # 12 lines, 4 generators
    assert info.value.partial_count == 11
    with pytest.raises(CapExceeded) as info:
        gl2_group(125, cap=100).order  # 150 lines
    assert info.value.partial_count > 100
    with pytest.raises(CapExceeded) as info:
        full_preimage(borel_group(3), 3**7, cap=1000).order  # 729 lines, 7 generators
    assert info.value.partial_count > 1000
    assert "(0 found)" not in str(info.value)
    assert str(info.value).startswith("stabilizer chain exceeded cap of 1000")


def test_refused_chain_leaves_no_key_entries():
    # the walk fills the key table of 1009, shared by every chain and
    # spectrum mod 1009, before its cap stops it; refused, it empties it
    with pytest.raises(CapExceeded):
        sl2_group(1009, cap=500).order
    assert len(tables(1009).key) == 0
    assert sl2_group(1009).order == sl2_order(1009)
    assert 0 < len(tables(1009).key) <= 1009


# the least cap at which each chain fits: the (point, generator) pairs on
# its lines, A and D
LEAST_CHAIN_CAPS = [
    ("gl2_group(8)", lambda cap: gl2_group(8, cap=cap), 72),
    ("gl2_group(125)", lambda cap: gl2_group(125, cap=cap), 750),
    ("sl2_group(1296)", lambda cap: sl2_group(1296, cap=cap), 6_480),
    ("borel_group(300)", lambda cap: borel_group(300, cap=cap), 724),
    ("full_preimage(borel_group(3), 3**7)", lambda cap: full_preimage(borel_group(3), 3**7, cap=cap), 8_019),
    ("gl2_group(3**7)", lambda cap: gl2_group(3**7, cap=cap), 13_122),
]


@pytest.mark.parametrize("make, least", [c[1:] for c in LEAST_CHAIN_CAPS], ids=[c[0] for c in LEAST_CHAIN_CAPS])
def test_chain_fits_exactly_its_least_cap(make, least):
    # an off-by-one in the per-line or per-point pair count moves the boundary
    assert make(least).order > 0
    with pytest.raises(CapExceeded) as info:
        make(least - 1).order
    assert info.value.partial_count == least


def test_chain_stops_sifting_once_its_stabilizer_is_complete(monkeypatch):
    # H = Stab(<e1>) lies in {(a, b, d) : ad in det G}, of n phi(n) |det G|
    # elements; once |A| = phi(n), g = 1 and D holds every generator's
    # determinant, the chain holds all of it and no residue is sifted again.
    # Before that rule, building gl2_group(40) sifted 403 times.  A split
    # Cartan group has no translations, so its g never reaches 1 and it
    # sifts as often as it did without the rule.
    import x1points.matgroup

    sifts = []
    real = x1points.matgroup.Chain.sift

    def spy(self, a, b, d):
        sifts.append((a, b, d))
        return real(self, a, b, d)

    monkeypatch.setattr(x1points.matgroup.Chain, "sift", spy)
    G = gl2_group(40)
    assert G.order == gl2_order(40)
    chain = G._chain
    assert (len(chain.lines), len(chain.a_level), len(chain.d_level), chain.g) == (72, 16, 16, 1)
    assert len(sifts) <= 403 // 3
    sifts.clear()
    C = split_cartan_group(36)
    assert C.order == euler_phi(36) ** 2 and C._chain.g == 36
    assert len(sifts) == 54


def test_gl2_order_at_3_to_the_7_within_a_linear_cap():
    # psi(3^7) = 2916 lines and phi(3^7) = 1458 points each in A and D; each
    # meets at most the three generators of GL2, so the pairs stay below
    # 3 (psi + 2 phi), while the orbit of e1 alone has 4,251,528 vectors
    n, psi, phi = 3**7, 2916, 1458
    G = gl2_group(n, cap=3 * (psi + 2 * phi))
    assert len(G.raw_generators) == 3
    assert G.order == gl2_order(n)
    chain = G._chain
    assert (len(chain.lines), len(chain.a_level), len(chain.d_level), chain.g) == (psi, phi, phi, 1)


def test_elements_past_the_cap_fail_before_any_is_built():
    # the chain has one line and the translations Z/nZ, so |G| = n is known
    # at once, far past the cap, and no element is built
    n = 2**61 - 1
    with pytest.raises(CapExceeded) as info:
        closure([(1, 1, 0, 1)], n=n, cap=10**6)
    assert info.value.partial_count == n
    assert str(info.value) == f"element set exceeded cap of {10**6} elements ({n} found)"


def test_unipotent_group_at_a_61_bit_prime():
    # one line, A = D = 1 and the translations Z/nZ: the chain stores three
    # entries and g, and the line key inverts only the units it reads
    n = 2**61 - 1
    G = MatGroup(modulus(n), [(1, 1, 0, 1)])
    assert G.order == n
    assert G.contains((1, 12345, 0, 1)) and not G.contains((1, 0, 1, 1))


def test_contains_reads_a_tuple_mod_n():
    assert sl2_group(8).contains((3, 0, 0, 3))


@pytest.mark.parametrize("matrix", [(1, 0, 0), (1, 1, 0, 1, 3), ()])
def test_matrix_needs_four_entries(matrix):
    message = re.escape(f"matrix {matrix} needs 4 entries, got {len(matrix)}")
    with pytest.raises(ValueError, match=message):
        gl2_group(5).contains(matrix)
    with pytest.raises(ValueError, match=message):
        MatGroup(modulus(5), [(1, 1, 0, 1), matrix])
    with pytest.raises(ValueError, match=message):
        group_from_dict({"modulus": 5, "generators": [list(matrix)]})
    with pytest.raises(ValueError, match=message):
        goursat_product([((1, 1, 0, 1), matrix)], 5, 7)


def test_goursat_product_of_no_pairs_is_trivial():
    data = goursat_product([], 5, 7)
    assert data.common_quotient_order == 1
    assert data.graph_pairs == (((1, 0, 0, 1), (1, 0, 0, 1)),)


def test_lagrange_for_materialized_subgroups():
    for G in (borel_group(7), sl2_group(9), split_cartan_group(8), fiber_product_group(5, 3)):
        n = G.modulus.n
        order = closure(G.raw_generators, n).order
        assert gl2_order(n) % order == 0


def test_project_gl2_35_to_7():
    G = gl2_group(35)
    P = project(G, 7)
    assert P.modulus.n == 7
    assert closure(P.raw_generators, 7).order == gl2_order(7) == 2016


def test_project_identity():
    G = gl2_group(12)
    assert project(G, 12) is G


def test_projection_of_a_projection_is_the_projection():
    G = gl2_group(36)
    Q, P = project(project(G, 12), 6), project(G, 6)
    assert Q.raw_generators == P.raw_generators
    assert Q.order == P.order == gl2_order(6)


def test_project_sl2_25_to_5():
    P = project(sl2_group(25), 5)
    assert closure(P.raw_generators, 5).order == sl2_order(5)


def test_project_requires_divisor():
    with pytest.raises(ModulusMismatch):
        project(gl2_group(12), 5)


def test_project_of_materialized_matches_closure_of_reduced_generators():
    G = closure(borel_group(15).raw_generators, 15)
    P = project(G, 5)
    assert P.elements() == closure(borel_group(5).raw_generators, 5).elements()


def test_kernel_of_projection_gl2_15_to_3():
    G = closure(gl2_group(15).raw_generators, 15)
    K = kernel_of_projection(G, 3)
    assert K.order == gl2_order(15) // gl2_order(3) == 480
    assert K.order == gl2_order(5)


def test_kernel_of_projection_walks_the_image_not_the_group():
    # GL2(Z/3^7) has about 1.4e13 elements; the walk visits the 48 of GL2(3)
    G = gl2_group(3**7)
    K = kernel_of_projection(G, 3)
    assert K.order == gl2_order(3**7) // gl2_order(3)
    assert not G.is_materialized and not K.is_materialized


def test_kernel_walk_past_cap_names_the_walk():
    # a first relation mod 3^6 needs a word of length about 3^6: the walk
    # runs through 10^5 image elements without reaching the kernel's order
    with pytest.raises(CapExceeded, match="kernel walk exceeded cap of 100000 image elements"):
        kernel_of_projection(gl2_group(3**7, cap=10**5), 3**6)


def test_kernel_of_projection_trivial():
    G = closure(gl2_group(6).raw_generators, 6)
    K = kernel_of_projection(G, 6)
    assert K.order == 1


def test_kernel_contains_coprime_sl2_factor():
    G = closure(crt_product(sl2_group(5), sl2_group(7)).raw_generators, 35)
    K = kernel_of_projection(G, 7)
    for g in ((1, 1, 0, 1), (1, 0, 1, 1)):
        lifted = join2(5, 7, g, (1, 0, 0, 1))
        assert K.contains(lifted)


def test_order_product_identity_kernel_times_image():
    for G in (
        closure(gl2_group(15).raw_generators, 15),
        closure(borel_group(12).raw_generators, 12),
    ):
        for m in (3, 1, G.modulus.n):
            if G.modulus.n % m:
                continue
            assert G.order == kernel_of_projection(G, m).order * project(G, m).order


def test_contains_sl2():
    assert contains_sl2(gl2_group(7))
    assert contains_sl2(sl2_group(9))
    assert not contains_sl2(borel_group(7))
    # Borel order is below sl2_order(7), so containment is impossible anyway
    assert closure(borel_group(7).raw_generators, 7).order == 252 < sl2_order(7)


def test_is_full_preimage_cases():
    assert is_full_preimage(gl2_group(8), 2)
    assert not is_full_preimage(sl2_group(4), 2)
    pre = full_preimage(closure(borel_group(3).raw_generators, 3), 9)
    assert is_full_preimage(pre, 3)
    assert not is_full_preimage(pre, 1)


def test_congruence_kernel_generators_span_the_kernel():
    # every n <= 128 and every m | n: the generators span all of
    # ker(GL2(Z/n) -> GL2(Z/m)), whose order is |GL2(n)| / |GL2(m)|
    for n in range(1, 129):
        for m in divisors(n):
            K = MatGroup(modulus(n), list(congruence_kernel_generators(n, m)))
            assert K.order == gl2_order(n) // gl2_order(m), (n, m)


def test_congruence_kernel_generators_are_lazy(monkeypatch):
    # the unit generators are computed only once both elementary matrices
    # have been asked for
    import x1points.matgroup

    calls = []
    real = x1points.matgroup.unit_group_generators
    monkeypatch.setattr(
        x1points.matgroup, "unit_group_generators", lambda n, m: calls.append(m) or real(n, m)
    )
    gens = congruence_kernel_generators(36, 6)
    assert [next(gens), next(gens)] == [(1, 6, 0, 1), (1, 0, 6, 1)] and not calls
    assert next(gens) == (real(36, 6)[0], 0, 0, 1) and calls == [6]


def test_full_preimage_order_and_elements_agree():
    base = closure(borel_group(3).raw_generators, 3)
    pre = full_preimage(base, 9)
    assert pre.order == base.order * (9 // 3) ** 4
    assert len(pre.elements()) == pre.order
    # breadth-first search from the stored generators reaches the same set
    assert closure_oracle(9, pre.raw_generators) == pre.elements()


def test_full_preimage_requires_same_support():
    with pytest.raises(ValueError):
        full_preimage(closure(borel_group(3).raw_generators, 3), 18)


def test_crt_product_order_and_projections():
    G = crt_product(sl2_group(5), gl2_group(4))
    assert G.order == sl2_order(5) * gl2_order(4)
    assert project(G, 5).order == sl2_order(5)
    assert project(G, 4).order == gl2_order(4)
    assert len(closure_oracle(20, G.raw_generators)) == G.order


def test_crt_product_rejects_common_factor():
    with pytest.raises(NonCoprimeModuli):
        crt_product(sl2_group(4), gl2_group(6))


# -- Goursat ------------------------------------------------------------------


def test_goursat_full_product_mod_6():
    H = closure(gl2_group(6).raw_generators, 6)
    data = goursat(H, 2, 3)
    assert data.common_quotient_order == 1
    assert data.left_kernel.order == gl2_order(2)
    assert data.right_kernel.order == gl2_order(3)
    assert len(data.graph_pairs) == 1


def test_goursat_diagonal_mod_5():
    gens = [(g, g) for g in gl2_group(5).raw_generators]
    data = goursat_product(gens, 5, 5)
    assert data.common_quotient_order == gl2_order(5) == 480
    assert data.left_kernel.order == 1
    assert data.right_kernel.order == 1
    assert len(data.graph_pairs) == 480


def test_goursat_index_two_fiber_product():
    # pulled back from the sign character of GL2(F2) and the determinant
    # character of GL2(F3); brute-force construction, then verified orders
    H = fiber_product_group(5, 3)  # same recipe, but check the 2x3 case directly
    from conftest import GL2_F2_THREE_CYCLE

    g2 = closure(gl2_group(2).raw_generators, 2).elements()
    g3 = closure(gl2_group(3).raw_generators, 3).elements()

    def sign2(g):
        even = closure([GL2_F2_THREE_CYCLE], 2).elements()
        return 1 if g in even else -1

    def det3(g):
        d = (g[0] * g[3] - g[1] * g[2]) % 3
        return 1 if d == 1 else -1

    elements = [
        join2(2, 3, x, y) for x in g2 for y in g3 if sign2(x) == det3(y)
    ]
    assert len(elements) == 6 * 48 // 2
    H6 = closure(elements, n=6)
    data = goursat(H6, 2, 3)
    assert data.common_quotient_order == 2
    assert data.left_image.order == 6
    assert data.right_image.order == 48
    assert data.left_kernel.order == 3
    assert data.right_kernel.order == 24
    # |H| = q * |N| * |N'|
    assert H6.order == 2 * data.right_kernel.order * data.left_kernel.order


def test_goursat_invariant_on_samples(large_image_samples):
    for (n, ell, m), G in large_image_samples.items():
        H = closure(G.raw_generators, n)
        data = goursat(H, ell, m)
        assert H.order == (
            data.common_quotient_order * data.left_kernel.order * data.right_kernel.order
        )
        assert data.left_image.order // data.left_kernel.order == data.common_quotient_order
        assert data.right_image.order // data.right_kernel.order == data.common_quotient_order


def test_goursat_leaves_h_unmaterialized():
    # read from the projections mod 5 and mod 7 and from H's chain
    H = gl2_group(35)
    data = goursat(H, 5, 7)
    assert data.common_quotient_order == 1
    assert (data.left_kernel.order, data.right_kernel.order) == (480, 2016)
    assert data.left_image.raw_generators == project(H, 5).raw_generators
    assert not H.is_materialized


def test_goursat_product_full_product_5_7():
    # the walk of GL2(7) finds N' = GL2(5); then |H| is known, so N stops early
    data = goursat_product(
        [(g, (1, 0, 0, 1)) for g in gl2_group(5).raw_generators]
        + [((1, 0, 0, 1), g) for g in gl2_group(7).raw_generators],
        5,
        7,
    )
    assert data.common_quotient_order == 1
    assert (data.left_kernel.order, data.right_kernel.order) == (480, 2016)


def test_goursat_rejects_noncoprime():
    H = closure(sl2_group(12).raw_generators, 12)
    with pytest.raises(NonCoprimeModuli):
        goursat(H, 2, 6)


# -- the kernel criterion at desk scale ----------------------------------------


def test_large_image_samples_have_large_projection(large_image_samples):
    for (n, ell, m), G in large_image_samples.items():
        Gl = project(G, ell)
        if ell == 5:
            assert closure(Gl.raw_generators, ell).order == gl2_order(5)
        else:
            assert contains_sl2(closure(Gl.raw_generators, ell))


def test_kernel_of_large_image_contains_sl2_generators(large_image_samples):
    for (n, ell, m), G in large_image_samples.items():
        H = closure(G.raw_generators, n)
        K = kernel_of_projection(H, m)
        for g in ((1, 1, 0, 1), (1, 0, 1, 1)):
            lifted = join2(ell, m, g, (1, 0, 0, 1))
            assert K.contains(lifted), (n, ell, m, g)


def test_kernel_criterion_mod_30(large_image_sample_mod30):
    # coprime part 6: the mod-5 projection is full GL2 and the kernel of
    # projection to 6 still contains the SL2 generators
    H = closure(large_image_sample_mod30.raw_generators, 30)
    assert H.order == gl2_order(5) * gl2_order(6) // 2
    assert closure(project(H, 5).raw_generators, 5).order == gl2_order(5)
    K = kernel_of_projection(H, 6)
    for g in ((1, 1, 0, 1), (1, 0, 1, 1)):
        assert K.contains(join2(5, 6, g, (1, 0, 0, 1)))


def test_fiber_product_kernels_are_proper():
    # the index-2 fiber products have kernels strictly between SL2 and GL2
    G = closure(fiber_product_group(5, 3).raw_generators, 15)
    K = kernel_of_projection(G, 3)
    assert K.order == gl2_order(5) // 2


def test_fiber_product_orders():
    expected = {
        (5, 2): gl2_order(5) * gl2_order(2) // 2,
        (5, 3): gl2_order(5) * gl2_order(3) // 2,
        (5, 4): gl2_order(5) * gl2_order(4) // 2,
        (7, 3): gl2_order(7) * gl2_order(3) // 2,
    }
    for (ell, m), order in expected.items():
        assert closure(fiber_product_group(ell, m).raw_generators, ell * m).order == order


# -- group files ----------------------------------------------------------------


def test_group_file_round_trip(tmp_path):
    G = gl2_group(8)
    data = group_to_dict(G)
    assert data["modulus"] == 8
    H = group_from_dict(json.loads(json.dumps(data)))
    assert closure(H.raw_generators, 8).order == gl2_order(8)


def test_group_file_rejects_non_integers():
    bad = (
        ({"modulus": 5, "generators": [[1.7, 1, 0, 1]]}, r"generators\[0\]\[0\]"),
        ({"modulus": 5, "generators": [[1, 1, 0, 5.0]]}, r"generators\[0\]\[3\]"),
        ({"modulus": 5, "generators": [[1, True, 0, 1]]}, r"generators\[0\]\[1\]"),
        ({"modulus": 5.9, "generators": []}, "modulus"),
        ({"modulus": True, "generators": []}, "modulus"),
        ({"modulus": "5", "generators": []}, "modulus"),
    )
    for data, key in bad:
        with pytest.raises(ValueError, match=key + " must be a JSON integer"):
            group_from_dict(data)


@pytest.mark.parametrize(
    "generators, message",
    [
        (["1101"], 'generators[0] must be a JSON array, got "1101"'),
        ([[1, 1, 0, 1], {"a": 1, "b": 2, "c": 3, "d": 4}], "generators[1] must be a JSON array"),
        ("1101", 'generators must be a JSON array, got "1101"'),
        ({"0": [1, 1, 0, 1]}, "generators must be a JSON array"),
    ],
)
def test_group_file_rejects_non_arrays(generators, message):
    # a string is not read by its characters, nor an object by its keys
    with pytest.raises(ValueError, match=re.escape(message)):
        group_from_dict({"modulus": 5, "generators": generators})


def test_group_file_rejects_malformed():
    with pytest.raises(ValueError):
        group_from_dict({"modulus": 5})
    with pytest.raises(ValueError):
        group_from_dict({"modulus": 5, "generators": [[1, 0, 0]]})
    with pytest.raises(ValueError):
        group_from_dict({"modulus": 0, "generators": []})


def test_kernel_order_borel_9():
    # upper-triangular mod 9: 6 * 9 * 6 elements over 2 * 3 * 2 mod 3
    assert kernel_order(borel_group(9), 3) == 27
    assert kernel_order(gl2_group(36), 6) == gl2_order(36) // gl2_order(6) == 6**4


@pytest.mark.parametrize("call", [project, is_full_preimage, kernel_of_projection, kernel_order])
def test_zero_divisor_rejected_as_modulus_mismatch(call):
    with pytest.raises(ModulusMismatch, match="0 does not divide 6"):
        call(gl2_group(6), 0)


def test_full_preimage_at_a_non_multiple_or_the_same_modulus():
    base = borel_group(3)
    with pytest.raises(ModulusMismatch, match="^3 does not divide 10$"):
        full_preimage(base, 10)
    assert full_preimage(base, 3) is base


def test_goursat_refuses_a_split_whose_product_is_not_n():
    with pytest.raises(NonCoprimeModuli, match=r"^2\*5 != 6$"):
        goursat(gl2_group(6), 2, 5)
