import pytest

from x1points.errors import HypothesisFailed, StageTooLow
from x1points.levels import (
    BoundInput,
    LadicDetection,
    M1_LEVELS,
    SPECIAL_IMAGE_ORDERS,
    classification_table,
    compose_level,
    detect_ladic_level,
    level_bound,
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
    is_full_preimage,
    sl2_group,
)
from x1points.modarith import gl2_order, modulus, valuation

# Frozen expected table: all fourteen (a_p, b_p) entries.
EXPECTED_TABLE = {
    1: (9, 5),
    5: (14, 6),
    7: (14, 7),
    11: (13, 6),
    13: (14, 7),
    17: (15, 5),
    37: (13, 8),
}


def det_one_mod4_group_16():
    # {g in GL2(Z/16) : det g = 1 mod 4}, level 4 by construction
    return MatGroup(modulus(16), [(1, 1, 0, 1), (1, 0, 1, 1), (5, 0, 0, 1)])


def test_detect_full_group_mod_27():
    G = gl2_group(27)
    for s in (1, 2):
        det = detect_ladic_level(G, s)
        assert det.certified and det.level_bound == 3**s
    assert minimize_level(G) == 1


def test_detect_preimage_mod_32():
    base = sl2_group(8)
    base.elements()
    G = full_preimage(base, 32)
    assert detect_ladic_level(G, 3).certified  # level | 8
    assert detect_ladic_level(G, 4).certified  # level | 16
    assert minimize_level(G) == 8


def test_detect_det_condition_group_mod_16():
    G = det_one_mod4_group_16()
    det = detect_ladic_level(G, 2)
    assert det.certified and det.level_bound == 4
    assert minimize_level(G) == 4
    assert not is_full_preimage(G, 2)


def test_detect_stage_too_low():
    with pytest.raises(StageTooLow):
        detect_ladic_level(gl2_group(8), 1)
    assert minimal_stage(2) == 2 and minimal_stage(3) == 1


def test_detect_requires_prime_power():
    with pytest.raises(ValueError):
        detect_ladic_level(gl2_group(12))


def test_detect_inconclusive_is_a_value():
    # SL2 mod 8 is not a full congruence preimage at stage 2: the kernel of
    # SL2(8) -> SL2(4) has order 8, not 16
    det = detect_ladic_level(sl2_group(8), 2)
    assert isinstance(det, LadicDetection)
    assert not det.certified and det.kernel_order == 8 and det.level_bound is None


def test_detection_implies_full_preimage_at_all_later_stages():
    cases = [
        (full_preimage(sl2_group(8), 32), 2, 8),
        (full_preimage(closure(borel_group(9).raw_generators, 9), 27), 3, 9),
        (full_preimage(closure(borel_group(5).raw_generators, 5), 25), 5, 5),
    ]
    for G, ell, construction_level in cases:
        e = G.modulus.factorization[0][1]
        s = valuation(construction_level, ell)
        assert detect_ladic_level(G, max(s, minimal_stage(ell))).certified
        for k in range(s, e + 1):
            assert is_full_preimage(G, ell**k)
        assert minimize_level(G) == construction_level


def test_minimize_level_examples():
    assert minimize_level(gl2_group(24)) == 1
    assert minimize_level(full_preimage(closure(borel_group(3).raw_generators, 3), 9)) == 3
    # det-square subgroup mod 8 is SL2(8) (all units square to 1): level 8
    assert minimize_level(sl2_group(8)) == 8


@pytest.mark.parametrize("ell, n", [(3, 81), (5, 125), (11, 121), (13, 169), (3, 3**7), (13, 13**3)])
def test_minimize_level_of_borel_preimages_at_single_prime_levels(ell, n):
    # near-full images at the paper's single-prime levels M_1 and above
    assert minimize_level(full_preimage(borel_group(ell), n)) == ell


def test_compose_level_gl2_36():
    cert = compose_level(gl2_group(36), {2: 1, 3: 1})
    assert cert.level == 6
    assert cert.prime_powers == ((2, 1), (3, 1))
    assert minimize_level(gl2_group(36)) == 1


def test_compose_level_preimage_72():
    G = full_preimage(closure([(1, 0, 0, 1)], 6), 72)
    cert = compose_level(G, {2: 1, 3: 1})
    assert cert.level == 6
    assert minimize_level(G) == 6


def test_compose_level_mixed_100():
    base = crt_product(borel_group(5), gl2_group(4))
    G = full_preimage(base, 100)
    cert = compose_level(G, {2: 1, 5: 1})
    assert cert.level == 10
    assert minimize_level(G) == 5
    # minimization never increases the certified level
    assert cert.level % minimize_level(G) == 0


def test_compose_level_evidence_trail():
    cert = compose_level(gl2_group(36), {2: 1, 3: 1})
    assert cert.level == 6
    primes = [ev.prime for ev in cert.evidence]
    assert 2 in primes and 3 in primes
    for ev in cert.evidence:
        if ev.prime:
            assert ev.kernel_order == ev.full_kernel == ev.prime**4


def test_compose_level_projects_each_modulus_once(monkeypatch):
    import x1points.matgroup

    projected = []
    real = x1points.matgroup.project

    def counting(G, m):
        projected.append(m)
        return real(G, m)

    monkeypatch.setattr(x1points.matgroup, "project", counting)
    cert = compose_level(gl2_group(36), {2: 1, 3: 1})
    assert cert.level == 6
    # the full-preimage checks sift through G's own chain mod 36
    assert sorted(projected) == [36]


def chains_built(monkeypatch) -> list[int]:
    """The moduli of the stabilizer chains built from here on."""
    import x1points.matgroup

    built = []
    real = x1points.matgroup._stabilizer_chain

    def spy(n, gens, cap):
        built.append(n)
        return real(n, gens, cap)

    monkeypatch.setattr(x1points.matgroup, "_stabilizer_chain", spy)
    return built


def test_minimize_level_builds_only_the_groups_chain(monkeypatch):
    built = chains_built(monkeypatch)
    assert minimize_level(sl2_group(72)) == 72
    assert built == [72]


def test_minimize_level_takes_one_round_per_exponent(monkeypatch):
    import x1points.matgroup

    asked = []
    real = x1points.matgroup.is_full_preimage

    def spy(G, m):
        asked.append(m)
        return real(G, m)

    monkeypatch.setattr(x1points.matgroup, "is_full_preimage", spy)
    n = 720720  # 2^4 3^2 5 7 11 13: 240 divisors, exponents summing to 10
    # the unipotent group has level n, and with K_360 added level 360; both
    # chains build in well under a second, where SL2's mod n takes seconds
    unipotent = [(1, 1, 0, 1)]
    for gens, level in ((unipotent, n), (unipotent + list(congruence_kernel_generators(n, 360)), 360)):
        asked.clear()
        assert minimize_level(MatGroup(modulus(n), gens)) == level
        assert len(asked) <= 10
        assert n not in asked


def test_compose_level_builds_only_the_groups_chain(monkeypatch):
    built = chains_built(monkeypatch)
    assert compose_level(gl2_group(36), {2: 1, 3: 1}).level == 6
    assert built == [36]


def test_compose_level_hypothesis_failed_names_prime():
    K9 = MatGroup(modulus(9), [(1, 3, 0, 1)])  # order 3, level 9
    G = crt_product(K9, gl2_group(4))  # mod 36
    with pytest.raises(HypothesisFailed) as info:
        compose_level(G, {2: 1, 3: 1})
    assert info.value.prime == 3


def test_compose_level_requires_enough_modulus():
    with pytest.raises(ValueError):
        compose_level(gl2_group(12), {2: 1, 3: 1})  # needs mod 36


def test_compose_level_rejects_non_prime_keys():
    # no certificate for "prime 1" or "prime 6"
    for n, stages, key in ((5, {1: 3}, 1), (36, {6: 1}, 6)):
        with pytest.raises(ValueError, match=f"stage key {key} is not a prime"):
            compose_level(gl2_group(n), stages)


def test_compose_level_projects_larger_modulus():
    G = full_preimage(closure([(1, 0, 0, 1)], 6), 144)  # available mod 144, needs 36
    cert = compose_level(G, {2: 1, 3: 1})
    assert cert.level == 6
    assert cert.evidence[0].checked_modulus == 36


def test_level_bound_examples():
    B = BoundInput.build({2, 3})
    assert level_bound(B, 2) == 9
    assert level_bound(B, 3) == 5
    B17 = BoundInput.build({2, 3, 17}, image_orders={17: SPECIAL_IMAGE_ORDERS[17]})
    assert level_bound(B17, 2) == 15
    with pytest.raises(ValueError):
        level_bound(B, 7)


def test_detect_full_preimage_mod_169():
    # the paper's single-prime level 13^2: |G| = 53,466,192, never materialized
    G = full_preimage(borel_group(13), 169)
    det = detect_ladic_level(G)
    assert det.certified and det.level_bound == 13
    assert det.kernel_order == det.full_kernel == 13**4
    assert minimize_level(G) == 13


def test_bound_input_rejects_non_primes():
    for primes in ({2, 3, 4}, {1, 2}):
        with pytest.raises(ValueError, match="prime"):
            BoundInput.build(primes)


def test_level_bound_tau_override():
    B = BoundInput.build({2, 3}, tau={2: 0})
    assert level_bound(B, 2) == 5  # just max(v2(32), v2(4))


def test_bound_input_override_contract():
    # a bound is a non-negative integer: negative tau, a non-divisor image
    # order or an override of a prime outside the set cannot give one
    with pytest.raises(ValueError, match=r"tau override 3=-5 is negative"):
        BoundInput.build({2, 3, 5}, tau={3: -5})
    for order in (0, -48, 7, 96):
        with pytest.raises(ValueError, match=rf"image order override 3={order} .*#GL2\(Z/3Z\) = 48"):
            BoundInput.build({2, 3}, image_orders={3: order})
    with pytest.raises(ValueError, match=r"image order override 5=7: 5 is not in the prime set"):
        BoundInput.build({2, 3}, image_orders={5: 7})
    with pytest.raises(ValueError, match=r"tau override 5=1: 5 is not in the prime set"):
        BoundInput.build({2, 3}, tau={5: 1})
    B = BoundInput.build({2, 3, 5}, image_orders={3: 1}, tau={5: 0})
    # max(v2(32), v2(4)) + v2(1) + v2(#GL2(Z/5Z)) = 5 + 0 + 5
    assert level_bound(B, 2) == 10
    assert level_bound(B, 5) == 3  # max(v5(125), v5(10)), tau overridden to 0


def test_tau_default_obeys_gl2_cap():
    # default tau never exceeds v_ell(#GL2(Z/m_{S-ell}Z)), with or without
    # the special image orders at 17 and 37
    import itertools

    primes = [2, 3, 5, 7, 11, 13, 17, 37]
    for size in (1, 2, 3):
        for S in itertools.combinations(primes, size):
            overrides = {q: SPECIAL_IMAGE_ORDERS[q] for q in S if q in SPECIAL_IMAGE_ORDERS}
            for B in (BoundInput.build(S), BoundInput.build(S, image_orders=overrides)):
                for ell in S:
                    m_rest = 1
                    for p in S:
                        if p != ell:
                            m_rest *= p
                    tau = sum(valuation(B.image_orders[p], ell) for p in S if p != ell)
                    if m_rest > 1:
                        assert tau <= valuation(gl2_order(m_rest), ell)
                    else:
                        assert tau == 0


def test_classification_table_reproduces_all_14_entries():
    rows = {r.p: (r.a_p, r.b_p) for r in classification_table()}
    assert rows == EXPECTED_TABLE


def test_classification_prime_power_caps():
    caps = {r.p: r.p_power_cap for r in classification_table()}
    assert caps == {1: 1, 5: 125, 7: 49, 11: 121, 13: 169, 17: 17, 37: 37}
    assert all(c <= 169 for c in caps.values())


def test_m1_levels_data():
    assert M1_LEVELS == {2: 32, 3: 81, 5: 125, 7: 49, 11: 121, 13: 169, 17: 17, 37: 37}


def test_compose_level_refuses_empty_and_zero_stages():
    G = gl2_group(36)
    with pytest.raises(ValueError, match="^at least one prime stage required$"):
        compose_level(G, {})
    with pytest.raises(StageTooLow, match="^stage 0 below 1 for prime 2$"):
        compose_level(G, {2: 0, 3: 1})


def test_detect_ladic_level_refuses_a_stage_above_the_modulus():
    # stage s reads the group mod l^(s+1), one power more than 9 gives
    with pytest.raises(ValueError, match=r"^stage 2 needs the group mod 3\^3, have 3\^2$"):
        detect_ladic_level(gl2_group(9), 2)
