import json

import pytest

from conftest import fiber_product_group, join2, split_cartan_group
from x1points.errors import CapExceeded, ModulusMismatch, NonCoprimeModuli, NotInvertible
from x1points.matgroup import (
    MatGroup,
    borel_group,
    closure,
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
    crt_join,
    euler_phi,
    gl2_order,
    identity,
    mat2,
    modulus,
    sl2_order,
)


def test_closure_trivial():
    G = closure([identity(5)])
    assert G.order == 1


def test_closure_sl2_mod_5():
    G = closure([mat2(5, 1, 1, 0, 1), mat2(5, 1, 0, 1, 1)])
    assert G.order == sl2_order(5) == 120


def test_closure_gl2_mod_8():
    G = closure(gl2_group(8).generators)
    assert G.order == gl2_order(8) == 1536


def test_standard_generator_orders_match_closure():
    # the preset orders of gl2_group / sl2_group against actual closure
    for n in (2, 3, 4, 5, 8, 9, 12, 15):
        assert closure(gl2_group(n).generators).order == gl2_order(n) == gl2_group(n).order
        assert closure(sl2_group(n).generators).order == sl2_order(n) == sl2_group(n).order


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
        closure([mat2(4, 2, 0, 0, 1)])


def test_closure_cap_exceeded():
    with pytest.raises(CapExceeded) as info:
        closure(gl2_group(8).generators, cap=100)
    assert info.value.partial_count == 100


def test_cap_exceeded_from_chain_reports_true_count():
    # orbit and stabilizer entries both count against the cap
    with pytest.raises(CapExceeded) as info:
        gl2_group(8, cap=10).contains((1, 1, 0, 1))  # orbit of e1 has 48 vectors
    assert info.value.partial_count == 11
    with pytest.raises(CapExceeded) as info:
        borel_group(25, cap=100).order  # orbit 20, stabilizer 500
    assert info.value.partial_count > 100
    with pytest.raises(CapExceeded) as info:
        full_preimage(borel_group(3), 81, cap=1000).order
    assert info.value.partial_count > 1000
    assert "(0 found)" not in str(info.value)


def test_lagrange_for_materialized_subgroups():
    for G in (borel_group(7), sl2_group(9), split_cartan_group(8), fiber_product_group(5, 3)):
        n = G.modulus.n
        order = closure(G.generators).order
        assert gl2_order(n) % order == 0


def test_project_gl2_35_to_7():
    G = gl2_group(35)
    P = project(G, 7)
    assert P.modulus.n == 7
    assert closure(P.generators).order == gl2_order(7) == 2016


def test_project_identity():
    G = gl2_group(12)
    assert project(G, 12) is G


def test_project_sl2_25_to_5():
    P = project(sl2_group(25), 5)
    assert closure(P.generators).order == sl2_order(5)


def test_project_requires_divisor():
    with pytest.raises(ModulusMismatch):
        project(gl2_group(12), 5)


def test_project_of_materialized_matches_closure_of_reduced_generators():
    G = closure(borel_group(15).generators)
    P = project(G, 5)
    assert P.is_materialized
    assert P.elements() == closure(borel_group(5).generators).elements()


def test_kernel_of_projection_gl2_15_to_3():
    G = closure(gl2_group(15).generators)
    K = kernel_of_projection(G, 3)
    assert K.order == gl2_order(15) // gl2_order(3) == 480
    assert K.order == gl2_order(5)


def test_kernel_of_projection_trivial():
    G = closure(gl2_group(6).generators)
    K = kernel_of_projection(G, 6)
    assert K.order == 1


def test_kernel_contains_coprime_sl2_factor():
    G = closure(crt_product(sl2_group(5), sl2_group(7)).generators)
    K = kernel_of_projection(G, 7)
    for g in ((1, 1, 0, 1), (1, 0, 1, 1)):
        lifted = crt_join((mat2(5, *g), identity(7)))
        assert K.contains(lifted)


def test_order_product_identity_kernel_times_image():
    for G in (closure(gl2_group(15).generators), closure(borel_group(12).generators)):
        for m in (3, 1, G.modulus.n):
            if G.modulus.n % m:
                continue
            assert G.order == kernel_of_projection(G, m).order * project(G, m).order


def test_contains_sl2():
    assert contains_sl2(gl2_group(7))
    assert contains_sl2(sl2_group(9))
    assert not contains_sl2(borel_group(7))
    # Borel order is below sl2_order(7), so containment is impossible anyway
    assert closure(borel_group(7).generators).order == 252 < sl2_order(7)


def test_is_full_preimage_cases():
    assert is_full_preimage(gl2_group(8), 2)
    assert not is_full_preimage(sl2_group(4), 2)
    pre = full_preimage(closure(borel_group(3).generators), 9)
    assert is_full_preimage(pre, 3)
    assert not is_full_preimage(pre, 1)


def test_full_preimage_order_and_elements_agree():
    base = closure(borel_group(3).generators)
    pre = full_preimage(base, 9)
    assert pre.order == base.order * (9 // 3) ** 4
    assert len(pre.elements()) == pre.order
    # closure from the stored generators reproduces the same set
    assert closure(pre.generators).elements() == pre.elements()


def test_full_preimage_requires_same_support():
    with pytest.raises(ValueError):
        full_preimage(closure(borel_group(3).generators), 18)


def test_crt_product_order_and_projections():
    G = crt_product(sl2_group(5), gl2_group(4))
    assert G.order == sl2_order(5) * gl2_order(4)
    assert project(G, 5).order == sl2_order(5)
    assert project(G, 4).order == gl2_order(4)
    assert closure(G.generators).order == G.order


def test_crt_product_rejects_common_factor():
    with pytest.raises(NonCoprimeModuli):
        crt_product(sl2_group(4), gl2_group(6))


# -- Goursat ------------------------------------------------------------------


def test_goursat_full_product_mod_6():
    H = closure(gl2_group(6).generators)
    data = goursat(H, 2, 3)
    assert data.common_quotient_order == 1
    assert data.left_kernel.order == gl2_order(2)
    assert data.right_kernel.order == gl2_order(3)
    assert len(data.graph_pairs) == 1


def test_goursat_diagonal_mod_5():
    gens = [(g, g) for g in gl2_group(5).generators]
    data = goursat_product(gens)
    assert data.common_quotient_order == gl2_order(5) == 480
    assert data.left_kernel.order == 1
    assert data.right_kernel.order == 1
    assert len(data.graph_pairs) == 480


def test_goursat_index_two_fiber_product():
    # pulled back from the sign character of GL2(F2) and the determinant
    # character of GL2(F3); brute-force construction, then verified orders
    H = fiber_product_group(5, 3)  # same recipe, but check the 2x3 case directly
    from conftest import GL2_F2_THREE_CYCLE

    g2 = closure(gl2_group(2).generators).elements()
    g3 = closure(gl2_group(3).generators).elements()

    def sign2(g):
        even = closure([mat2(2, *GL2_F2_THREE_CYCLE)]).elements()
        return 1 if g in even else -1

    def det3(g):
        d = (g[0] * g[3] - g[1] * g[2]) % 3
        return 1 if d == 1 else -1

    elements = [
        join2(2, 3, x, y) for x in g2 for y in g3 if sign2(x) == det3(y)
    ]
    assert len(elements) == 6 * 48 // 2
    H6 = MatGroup.from_elements(6, elements)
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
        H = closure(G.generators)
        data = goursat(H, ell, m)
        assert H.order == (
            data.common_quotient_order * data.left_kernel.order * data.right_kernel.order
        )
        assert data.left_image.order // data.left_kernel.order == data.common_quotient_order
        assert data.right_image.order // data.right_kernel.order == data.common_quotient_order


def test_goursat_rejects_noncoprime():
    H = closure(sl2_group(12).generators)
    with pytest.raises(NonCoprimeModuli):
        goursat(H, 2, 6)


# -- the kernel criterion at desk scale ----------------------------------------


def test_large_image_samples_have_large_projection(large_image_samples):
    for (n, ell, m), G in large_image_samples.items():
        Gl = project(G, ell)
        if ell == 5:
            assert closure(Gl.generators).order == gl2_order(5)
        else:
            assert contains_sl2(closure(Gl.generators))


def test_kernel_of_large_image_contains_sl2_generators(large_image_samples):
    for (n, ell, m), G in large_image_samples.items():
        H = closure(G.generators)
        K = kernel_of_projection(H, m)
        for g in ((1, 1, 0, 1), (1, 0, 1, 1)):
            lifted = crt_join((mat2(ell, *g), identity(m)))
            assert K.contains(lifted), (n, ell, m, g)


def test_kernel_criterion_mod_30(large_image_sample_mod30):
    # coprime part 6: the mod-5 projection is full GL2 and the kernel of
    # projection to 6 still contains the SL2 generators
    H = closure(large_image_sample_mod30.generators)
    assert H.order == gl2_order(5) * gl2_order(6) // 2
    assert closure(project(H, 5).generators).order == gl2_order(5)
    K = kernel_of_projection(H, 6)
    for g in ((1, 1, 0, 1), (1, 0, 1, 1)):
        assert K.contains(crt_join((mat2(5, *g), identity(6))))


def test_fiber_product_kernels_are_proper():
    # the index-2 fiber products have kernels strictly between SL2 and GL2
    G = closure(fiber_product_group(5, 3).generators)
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
        assert closure(fiber_product_group(ell, m).generators).order == order


# -- group files ----------------------------------------------------------------


def test_group_file_round_trip(tmp_path):
    G = gl2_group(8)
    data = group_to_dict(G)
    assert data["modulus"] == 8
    H = group_from_dict(json.loads(json.dumps(data)))
    assert closure(H.generators).order == gl2_order(8)


def test_group_file_rejects_non_integers():
    bad = (
        ({"modulus": 5, "generators": [[1.7, 1, 0, 1]]}, r"generators\[0\]\[0\]"),
        ({"modulus": 5, "generators": [[1, 1, 0, 5.0]]}, r"generators\[0\]\[3\]"),
        ({"modulus": 5, "generators": [[1, True, 0, 1]]}, r"generators\[0\]\[1\]"),
        ({"modulus": 5, "generators": ["1101"]}, r"generators\[0\]\[0\]"),
        ({"modulus": 5.9, "generators": []}, "modulus"),
        ({"modulus": True, "generators": []}, "modulus"),
        ({"modulus": "5", "generators": []}, "modulus"),
    )
    for data, key in bad:
        with pytest.raises(ValueError, match=key + " must be a JSON integer"):
            group_from_dict(data)


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
