import pytest

from x1points.classify import (
    two_power_screen,
    GaloisProfile,
    NonsurjectivePrime,
    classify_profile,
    m1_table,
    prime_level_screen,
    profile_from_dict,
    profile_to_dict,
    sporadic_screen,
    sz_table,
    target_level,
)
from x1points.errors import InconsistentProfile
from x1points.modarith import divisors


def borel37(assume_sz=False):
    return GaloisProfile(
        nonsurjective=(NonsurjectivePrime(37, "borel", 37),), assume_sz=assume_sz
    )


def nonsplit17(assume_sz=False):
    return GaloisProfile(
        nonsurjective=(NonsurjectivePrime(17, "normalizer_nonsplit"),), assume_sz=assume_sz
    )


def nonsurj57(assume_sz=False):
    return GaloisProfile(
        nonsurjective=(
            NonsurjectivePrime(5, "borel"),
            NonsurjectivePrime(7, "normalizer_split"),
        ),
        assume_sz=assume_sz,
    )


def test_case4_borel_37():
    v = classify_profile(borel37(), 37)
    assert v.case == 4
    assert v.candidates == (1, 37)


def test_case1_nonsplit_17():
    assert classify_profile(nonsplit17(), 17).case == 1


def test_case1_large_prime():
    prof = GaloisProfile(nonsurjective=(NonsurjectivePrime(19, "borel"),))
    assert classify_profile(prof, 19).case == 1
    # 19 not dividing n: the case-1 wording is about primes in Supp(n)
    v = classify_profile(prof, 6)
    assert v.case == 4
    assert v.evidence["nonsurjective_away_from_n"] == [19]


def test_case2_two_primes():
    assert classify_profile(nonsurj57(), 35).case == 2
    # both primes must divide n
    assert classify_profile(nonsurj57(), 5).case == 4


def test_case3_large_level():
    prof = GaloisProfile(nonsurjective=(NonsurjectivePrime(5, "borel", 625),))
    assert classify_profile(prof, 25).case == 3


def test_case_order_prefers_earlier_case():
    # nonsplit Cartan at 17 beats a huge declared level at 5
    prof = GaloisProfile(
        nonsurjective=(
            NonsurjectivePrime(17, "normalizer_nonsplit"),
            NonsurjectivePrime(5, "borel", 625),
        )
    )
    assert classify_profile(prof, 85).case == 1


def test_case4_candidate_structure():
    prof = GaloisProfile(nonsurjective=(NonsurjectivePrime(5, "borel", 25),))
    n = 2**12 * 3**7 * 5**2
    v = classify_profile(prof, n)
    assert v.case == 4
    table_a, table_b = 14, 6
    for d in v.candidates:
        assert n % d == 0
        rest = d
        a = b = c = 0
        while rest % 2 == 0:
            rest //= 2
            a += 1
        while rest % 3 == 0:
            rest //= 3
            b += 1
        while rest % 5 == 0:
            rest //= 5
            c += 1
        assert rest == 1 and a <= table_a and b <= table_b and 5**c <= 25
    # completeness: every divisor of the right shape within bounds is present
    expected = []
    for d in divisors(n):
        if any(p not in (2, 3, 5) for p in _primes(d)):
            continue
        v2 = v3 = v5 = 0
        rest = d
        while rest % 2 == 0:
            rest //= 2
            v2 += 1
        while rest % 3 == 0:
            rest //= 3
            v3 += 1
        while rest % 5 == 0:
            rest //= 5
            v5 += 1
        if v2 <= table_a and v3 <= table_b and 5**v5 <= 25:
            expected.append(d)
    assert v.candidates == tuple(expected)
    # global cap from the table
    assert all(d <= 2**15 * 3**8 * 169 for d in v.candidates)


def _primes(d):
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        out.append(d)
    return out


def test_unknown_type_at_17_is_conservative():
    prof = GaloisProfile(nonsurjective=(NonsurjectivePrime(17, "unknown"),))
    v = classify_profile(prof, 17)
    assert v.case is None
    assert v.possible_cases == (1, 4)


def test_inconsistent_borel_17_and_37():
    with pytest.raises(InconsistentProfile):
        GaloisProfile(
            nonsurjective=(
                NonsurjectivePrime(17, "borel"),
                NonsurjectivePrime(37, "borel"),
            )
        )


def test_duplicate_prime_rejected():
    with pytest.raises(InconsistentProfile):
        GaloisProfile(
            nonsurjective=(
                NonsurjectivePrime(5, "borel"),
                NonsurjectivePrime(5, "other"),
            )
        )


def test_s_set_always_contains_2_3():
    assert GaloisProfile().s_set == frozenset({2, 3})
    assert borel37().s_set == frozenset({2, 3, 37})


def test_target_level():
    t = target_level(96, 24)
    assert t.target == 24
    assert t.map_degree.degree == 16
    assert target_level(25, 1).target == 1
    assert target_level(5 * 37, 37).target == 37


def test_tables():
    assert sz_table(3) == 27
    assert sz_table(17) == 1
    assert m1_table(2) == 32
    with pytest.raises(KeyError):
        sz_table(2)


def test_profile_round_trip():
    data = {
        "field_degree": 1,
        "nonsurjective": [{"prime": 37, "type": "borel", "level": 37}],
        "flags": {"assume_sz": True},
    }
    prof = profile_from_dict(data)
    assert prof == borel37(assume_sz=True)
    assert profile_from_dict(profile_to_dict(prof)) == prof


def test_nonsurjective_prime_must_be_prime():
    for bad in (1, 15, 341):
        with pytest.raises(ValueError, match="not a prime"):
            NonsurjectivePrime(bad, "borel")
    with pytest.raises(ValueError, match="not a prime: 15"):
        profile_from_dict({"nonsurjective": [{"prime": 15, "type": "borel"}]})


def test_profile_unknown_keys_rejected():
    entry = {"prime": 37, "type": "borel"}
    bad = (
        ({"nonsurjectiv": [entry]}, "'nonsurjectiv'"),
        ({"nonsurjective": [{**entry, "typ": "borel"}]}, "'typ'"),
        ({"nonsurjective": [entry], "flags": {"assume_SZ": True}}, "'assume_SZ'"),
    )
    for data, key in bad:
        with pytest.raises(ValueError, match=key):
            profile_from_dict(data)


def test_profile_json_types():
    entry = {"prime": 37, "type": "borel"}
    bad = (
        ({"flags": {"assume_sz": "false"}}, "flags.assume_sz must be a JSON boolean"),
        ({"flags": {"assume_sz": 0}}, "flags.assume_sz must be a JSON boolean"),
        ({"field_degree": 1.5}, "field_degree must be a JSON integer"),
        ({"field_degree": True}, "field_degree must be a JSON integer"),
        ({"nonsurjective": [{**entry, "prime": 37.0}]}, r"nonsurjective\[0\].prime"),
        ({"nonsurjective": [entry, {"prime": 17, "level": 1.5}]}, r"nonsurjective\[1\].level"),
        ({"nonsurjective": [{**entry, "level": None}]}, r"nonsurjective\[0\].level"),
        ({"nonsurjective": 5}, "nonsurjective must be a JSON array, got 5"),
        ({"nonsurjective": None}, "nonsurjective must be a JSON array, got null"),
        (
            {"nonsurjective": [{**entry, "type": ["borel"]}]},
            r"nonsurjective\[0\].type must be a JSON string",
        ),
        ({"nonsurjective": [{**entry, "level": 0}]}, r"level must be 37\^k with k >= 1, got 0"),
        ({"nonsurjective": [{**entry, "level": 1}]}, r"level must be 37\^k with k >= 1, got 1"),
        ({"nonsurjective": [{"prime": 5, "level": 6}]}, r"level must be 5\^k with k >= 1, got 6"),
        ({"nonsurjective": [{"prime": 7, "level": -49}]}, r"level must be 7\^k with k >= 1, got -49"),
        ({"field_degree": -3}, "field_degree must be >= 1, got -3"),
        ({"field_degree": 0}, "field_degree must be >= 1, got 0"),
    )
    for data, message in bad:
        with pytest.raises(ValueError, match=message):
            profile_from_dict(data)
    assert not profile_from_dict({"flags": {"assume_sz": False}}).assume_sz
    for ell, level in ((5, 25), (37, 37), (3, 243), (5, 625)):
        profile = profile_from_dict({"nonsurjective": [{"prime": ell, "level": level}]})
        assert profile.entry(ell).level == level


def test_prime_level_screen_small_and_surjective():
    for ell in (2, 3, 5, 7, 11, 13):
        assert prime_level_screen(ell, "borel").no_sporadic
    v = prime_level_screen(23, None)
    assert v.no_sporadic and "prime-power" in v.reason


def test_prime_level_screen_17_37():
    assert prime_level_screen(17, "borel").no_sporadic
    v = prime_level_screen(37, "borel")
    assert not v.no_sporadic
    assert v.candidate_level == 37 and v.candidate_j == "-7*11^3"
    assert prime_level_screen(29, "normalizer_nonsplit").no_sporadic
    assert prime_level_screen(19, "normalizer_split").no_sporadic
    assert prime_level_screen(19, "exceptional").no_sporadic
    assert prime_level_screen(19, "borel").no_sporadic  # no rational 19-isogeny


def test_sporadic_screen_survivors():
    # only the 37-Borel profile survives under the prime-power conjectures
    assert not sporadic_screen(borel37(True), 37).no_sporadic
    assert sporadic_screen(borel37(True), 37).candidate_j == "-7*11^3"
    assert sporadic_screen(nonsplit17(True), 17).no_sporadic
    assert sporadic_screen(nonsurj57(True), 37).no_sporadic
    assert sporadic_screen(nonsurj57(True), 17 * 37).no_sporadic
    # surjective-everywhere profile on a pure power of 17
    assert sporadic_screen(GaloisProfile(assume_sz=True), 17**2).no_sporadic


def test_sporadic_screen_requires_large_support():
    with pytest.raises(ValueError):
        sporadic_screen(borel37(True), 74)  # 2 | n


def test_sporadic_screen_unconditional_is_inconclusive_on_case1():
    v = sporadic_screen(nonsplit17(False), 17)
    assert not v.no_sporadic
    assert "conjecture" in v.reason


def test_two_power_screen():
    for s in range(1, 9):
        v = two_power_screen(s)
        assert v.no_sporadic, s
        assert v.conditional_on == ()
    assert "genus 0" in two_power_screen(3).reason
    assert "no non-cuspidal rational points" in two_power_screen(4).reason
    assert "gonality 8" in two_power_screen(5).reason
    # levels past the 2-adic cap reduce to X_1(32) first
    assert "maps to one on X_1(2^5)" in two_power_screen(7).reason
    with pytest.raises(ValueError):
        two_power_screen(0)


def test_classify_profile_needs_a_positive_level():
    with pytest.raises(ValueError, match="^level must be positive, got 0$"):
        classify_profile(GaloisProfile(), 0)


def test_unknown_image_at_17_leaves_cases_2_and_3_ambiguous():
    # 17 may be a nonsplit Cartan (case 1), so the later case found is only
    # one of two possibilities
    unknown17 = NonsurjectivePrime(17, "unknown")
    v = classify_profile(GaloisProfile(nonsurjective=(unknown17, NonsurjectivePrime(5, "borel"))), 85)
    assert (v.case, v.possible_cases) == (None, (1, 2))
    assert v.evidence["case2_primes"] == [17, 5] and v.evidence["ambiguous_at"] == [17]
    v = classify_profile(GaloisProfile(nonsurjective=(unknown17, NonsurjectivePrime(3, "borel", 243))), 51)
    assert (v.case, v.possible_cases) == (None, (1, 3))
    assert v.evidence["case3_prime"] == 3 and v.evidence["ambiguous_at"] == [17]


def test_prime_level_screen_of_another_image_type_is_inconclusive():
    v = prime_level_screen(19, "other")
    assert not v.no_sporadic and v.scope == "X_1(19)"
    assert v.reason == "image type 'other' leaves the screen inconclusive"
    assert v.candidate_level is None and v.conditional_on == ()


@pytest.mark.parametrize("image_type", ["other", "normalizer_split", "exceptional"])
def test_sporadic_screen_reaches_case_2_at_17_times_37(image_type):
    # 17 of a known type other than the nonsplit normalizer, with 37 Borel:
    # both primes divide n = 629, so the screen stops at case 2
    P = GaloisProfile(
        nonsurjective=(NonsurjectivePrime(17, image_type), NonsurjectivePrime(37, "borel")),
        assume_sz=True,
    )
    assert classify_profile(P, 629).case == 2
    v = sporadic_screen(P, 629)
    assert (v.no_sporadic, v.scope, v.reason) == (False, "X_1(629)", "two nonsurjective primes dividing n")
    assert v.conditional_on == ()


def test_sporadic_screen_case_3_needs_the_conjectures():
    borel17 = (NonsurjectivePrime(17, "borel", 289),)
    v = sporadic_screen(GaloisProfile(nonsurjective=borel17), 17)
    assert (v.no_sporadic, v.reason) == (False, "case-3 profile: screen inconclusive")
    v = sporadic_screen(GaloisProfile(nonsurjective=borel17, assume_sz=True), 17)
    assert (v.no_sporadic, v.conditional_on) == (True, ("assume_sz",))
    assert v.reason == "levels above the prime-power table are conjectured not to occur"
