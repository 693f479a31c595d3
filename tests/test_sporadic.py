from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reduced_form_class_number, split_cartan_group
from x1points.curveinv import psl2_index
from x1points.errors import PreconditionFailed
from x1points.matgroup import gl2_group
from x1points.orbits import max_growth_check
from x1points.sporadic import (
    MAX_CM_DISCRIMINANT,
    CmOrder,
    class_number,
    cm_order,
    cm_point_degree,
    cm_threshold,
    lift_chain_holds,
    lifting_certificate,
    splits,
)

# every valid discriminant in [-100, -3]
DISCRIMINANTS = [D for D in range(-100, -2) if D % 4 in (0, 1)]


def test_lifting_certificate_229():
    cert = lifting_certificate(229, 114)
    assert cert.issued
    assert cert.threshold == Fraction(7 * 26220, 1600) == Fraction(9177, 80)
    assert cert.margin == Fraction(57, 80)


def test_lifting_certificate_37_inconclusive():
    cert = lifting_certificate(37, 6)
    assert not cert.issued
    assert cert.threshold == Fraction(7 * 684, 1600) == Fraction(1197, 400)


def test_lifting_certificate_small_level_never_issues():
    for N in (1, 2):
        for d in (1, 2, 5):
            assert not lifting_certificate(N, d).issued


def test_lifting_monotone_in_degree():
    for N in (37, 100, 229, 250):
        issued = [lifting_certificate(N, d).issued for d in range(1, 130)]
        # once it stops being issued it never resumes
        assert issued == sorted(issued, reverse=True)


def test_lift_chain_identity():
    # issued base certificate forces the chain inequality for all m <= 20
    for N, d in ((229, 114), (229, 50), (250, 80)):
        if lifting_certificate(N, d).issued:
            for m in range(1, 21):
                assert lift_chain_holds(N, d, m), (N, d, m)


def test_pushforward_gl2_35():
    # deg(x) = deg(f) * deg(f(x)) for f: X_1(35) -> X_1(5)
    reports = max_growth_check(gl2_group(35), 7)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.upstairs_degree == 576
    assert rep.map_degree == 48 and rep.downstairs_degree == 12
    assert rep.product_equal
    assert rep.upstairs_degree == 48 * 12


def test_pushforward_split_cartan_25():
    reports = max_growth_check(split_cartan_group(25), 5)
    assert reports
    for r in reports:
        assert r.upstairs_degree <= r.map_degree * r.downstairs_degree


def test_cm_class_number_table_against_form_count():
    for D in DISCRIMINANTS:
        assert class_number(D) == reduced_form_class_number(D), D


def test_cm_order_needs_a_positive_class_number():
    with pytest.raises(ValueError, match="^class number must be positive$"):
        CmOrder(-3, 0, 6)


def test_cm_order_validation():
    assert cm_order(-4) == CmOrder(-4, 1, 4)
    assert cm_order(-3).unit_count == 6
    assert cm_order(-7).unit_count == 2
    with pytest.raises(ValueError):
        CmOrder(-4, 1, 2)
    with pytest.raises(ValueError):
        CmOrder(-5, 1, 2)  # -5 is not 0 or 1 mod 4
    assert cm_order(-104) == CmOrder(-104, 6, 2)
    for D in (-5, 0, 5):
        with pytest.raises(ValueError):
            cm_order(D)


def test_cm_order_rejects_class_number_contradicting_table():
    assert cm_order(-7, 1) == cm_order(-7)
    assert cm_order(-104, 6).class_number == 6
    with pytest.raises(ValueError, match=r"class number 5 contradicts h\(-4\) = 1"):
        cm_order(-4, 5)


def test_cm_threshold_disc_minus_4():
    threshold, ell = cm_threshold(cm_order(-4))
    assert threshold == Fraction(6400, 28) - 1 == Fraction(1593, 7)
    assert ell == 229
    assert ell % 4 == 1  # split condition for discriminant -4


def test_cm_threshold_disc_minus_3():
    threshold, ell = cm_threshold(cm_order(-3))
    assert threshold == Fraction(6400, 42) - 1 == Fraction(3179, 21)
    assert ell == 157
    assert ell % 3 == 1


def test_cm_point_degree_disc_minus_4():
    degree, cert = cm_point_degree(cm_order(-4), 229)
    assert degree == 114
    assert cert.issued
    # the closing inequality of the construction, as exact rationals:
    # 114 < 2 * 228 * 230 * 7 / 6400 = (7/1600) * mu(229)
    bound = Fraction(2 * 228 * 230 * 7, 6400)
    assert Fraction(114) < bound == Fraction(7, 1600) * psl2_index(229) == cert.threshold


def test_cm_point_degree_disc_minus_3():
    degree, cert = cm_point_degree(cm_order(-3), 157)
    assert degree == 52
    assert cert.threshold == Fraction(7 * 12324, 1600) == Fraction(21567, 400)
    assert cert.issued


def test_cm_point_degree_below_threshold_rejected():
    with pytest.raises(PreconditionFailed):
        cm_point_degree(cm_order(-4), 13)
    with pytest.raises(PreconditionFailed):
        cm_point_degree(cm_order(-4), 227)  # prime above 226 but 227 = 3 mod 4


def test_cm_point_degree_rejects_euler_pseudoprime():
    # 341 = 11 * 31 passes Euler's criterion for -4 and lies above the threshold
    O = cm_order(-4)
    assert splits(O, 341) and 341 > cm_threshold(O)[0]
    with pytest.raises(PreconditionFailed, match="prime"):
        cm_point_degree(O, 341)


def test_cm_certificate_always_issued_for_small_ratio():
    # every order with |D| <= 100 has h/w <= 10; a few synthetic ones stretch it
    orders = [cm_order(D) for D in DISCRIMINANTS]
    orders += [CmOrder(-7, h, 2) for h in (3, 10, 20)]
    orders += [CmOrder(-4, 25, 4), CmOrder(-3, 41, 6)]
    for O in orders:
        if Fraction(O.class_number, O.unit_count) > 10:
            continue
        threshold, ell = cm_threshold(O)
        degree, cert = cm_point_degree(O, ell)
        assert cert.issued, (O, ell, degree)


def test_splits_kronecker():
    O4 = cm_order(-4)
    assert splits(O4, 5) and splits(O4, 13) and not splits(O4, 7)
    O3 = cm_order(-3)
    assert splits(O3, 7) and not splits(O3, 5)
    O7 = cm_order(-7)
    assert splits(O7, 2)  # -7 = 1 mod 8
    assert not splits(cm_order(-8), 2)


@given(st.integers(-20000, -3).filter(lambda D: D % 4 in (0, 1)))
def test_class_number_matches_form_count_oracle(D):
    assert class_number(D) == reduced_form_class_number(D)


def test_cm_order_rejects_class_number_contradicting_count():
    # -104 lies outside |D| <= 100; the count gives 6, not the 7 once taken on trust
    with pytest.raises(ValueError, match=r"class number 7 contradicts h\(-104\) = 6"):
        cm_order(-104, 7)
    assert cm_threshold(cm_order(-104))[1] == 2749


def test_class_number_discriminant_contract_and_limit():
    for D in (-5, -2, 0, 1, 4):
        with pytest.raises(ValueError, match="not a valid imaginary quadratic discriminant"):
            class_number(D)
    largest = -MAX_CM_DISCRIMINANT
    assert largest % 4 == 0
    with pytest.raises(ValueError, match="limit"):
        class_number(largest - 4)
    with pytest.raises(ValueError, match="limit"):
        cm_order(largest - 4)


@pytest.mark.parametrize("N, d", [(11, 0), (11, -3), (0, 1)])
def test_lifting_certificate_needs_a_positive_level_and_degree(N, d):
    with pytest.raises(ValueError, match="^level and degree must be positive$"):
        lifting_certificate(N, d)
