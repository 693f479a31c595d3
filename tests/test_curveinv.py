import random
from fractions import Fraction

import pytest

from x1points.curveinv import (
    CurveInvariants,
    cusp_count,
    curve_invariants,
    frey_gonality_cert,
    genus_x1,
    gonality_lower,
    known_gonality,
    map_degree,
    psl2_index,
)
from x1points.matgroup import sl2_group
from x1points.orbits import fiber_count
from x1points.modarith import vec2


def test_psl2_index_small():
    assert psl2_index(1) == 1
    assert psl2_index(2) == 3
    assert psl2_index(5) == 12
    assert psl2_index(37) == (37 * 37 - 1) // 2 == 684


def test_psl2_index_vs_sl2_coset_count():
    # [PSL2(Z) : Gamma_1(N)-image] = #SL2(Z/N) / N / 2 for N > 2, with the
    # group order coming from an independent generator closure
    for N in (5, 7, 8, 12):
        order = sl2_group(N)
        order = len(order.elements())
        assert psl2_index(N) == order // N // 2


def test_map_degree_examples():
    assert map_degree(2, 2).degree == 2
    assert map_degree(2, 2).c_f == Fraction(1, 2)
    assert map_degree(5, 7).degree == 48
    assert map_degree(1, 1).degree == 1
    assert map_degree(1, 1).c_f == 1


def test_map_degree_index_multiplicativity():
    # deg(X_1(ab) -> X_1(a)) * mu(a) = mu(ab); in this normalization the
    # identity holds for every a >= 1, the a <= 2 half factors included
    for a in range(1, 61):
        for b in range(1, 61):
            if a * b > 60:
                break
            assert map_degree(a, b).degree * psl2_index(a) == psl2_index(a * b), (a, b)


def test_map_degree_composition():
    for a in range(3, 61):
        for b in range(1, 21):
            for c in range(1, 21):
                if a * b * c > 60:
                    break
                lhs = map_degree(a, b).degree * map_degree(a * b, c).degree
                assert lhs == map_degree(a, b * c).degree


def test_fiber_count_matches_map_degree():
    rng = random.Random(20250810)
    pairs = {(1, 4), (2, 2), (2, 6)}  # force the a <= 2 factor-two cases
    candidates = [(a, b) for a in range(1, 25) for b in range(2, 49) if a * b <= 48]
    while len(pairs) < 20:
        pairs.add(candidates[rng.randrange(len(candidates))])
    for a, b in sorted(pairs):
        n = a * b
        if n < 2:
            continue
        P = vec2(n, 1, 0)
        expected = map_degree(a, b).degree * (2 if a <= 2 and n > 2 else 1)
        assert fiber_count(P, b) == expected, (a, b)


def test_genus_values():
    assert genus_x1(16) == 2
    assert genus_x1(12) == 0
    for N in range(1, 11):
        assert genus_x1(N) == 0
    known = {11: 1, 13: 2, 14: 1, 15: 1, 17: 5, 18: 2, 21: 5, 25: 12}
    for N, g in known.items():
        assert genus_x1(N) == g


def test_genus_prime_bound():
    # genus(X_1(l)) <= (l^2 - 1) / 24 for primes l > 13
    for ell in (17, 19, 23, 29, 31, 37):
        assert genus_x1(ell) <= (ell * ell - 1) // 24
    assert genus_x1(37) == 40


def test_cusp_counts():
    assert cusp_count(1) == 1
    assert cusp_count(4) == 3
    assert cusp_count(5) == 4
    assert cusp_count(16) == 14
    assert cusp_count(11) == 10


def test_cusp_count_needs_a_positive_level():
    with pytest.raises(ValueError, match="^level must be positive, got 0$"):
        cusp_count(0)


def test_known_gonality():
    assert known_gonality(25) == 5
    assert known_gonality(37) == 18
    assert known_gonality(32) == 8
    assert known_gonality(17) == 4
    assert known_gonality(11) == 2
    assert known_gonality(40) is None


def test_gonality_lower_bound_value():
    assert gonality_lower(229) == Fraction(7, 800) * 26220


def test_curve_invariants_bundle():
    inv = curve_invariants(37)
    assert inv == CurveInvariants(
        N=37,
        psl2_index=684,
        genus=40,
        gonality_lower=Fraction(7 * 684, 800),
        known_gonality=18,
        gonality_source="Derickx-van Hoeij, Gonality of X_1(N), Table 1",
    )


def test_frey_certificate():
    assert frey_gonality_cert(37, 6, 18).issued
    assert frey_gonality_cert(25, 2, 5).issued
    # strict boundary: 2d < gonality
    assert frey_gonality_cert(10, 3, 7).issued
    assert not frey_gonality_cert(10, 3, 6).issued


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        psl2_index(0)
    with pytest.raises(ValueError):
        map_degree(0, 3)
    with pytest.raises(ValueError):
        genus_x1(-1)
