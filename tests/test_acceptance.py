"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its time budget (run with `pytest -s` to see the lines)."""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import fiber_product_group, join2, orbit_partition_oracle, spectrum_partition
from x1points.classify import GaloisProfile, NonsurjectivePrime, classify_profile, sporadic_screen
from x1points.cli import main
from x1points.curveinv import frey_gonality_cert, known_gonality, map_degree, psl2_index
from x1points.levels import compose_level, detect_ladic_level, minimize_level
from x1points.matgroup import (
    borel_group,
    closure,
    crt_product,
    full_preimage,
    gl2_group,
    kernel_of_projection,
    sl2_group,
)
from x1points.modarith import factorize, gl2_order, identity
from x1points.orbits import degree_spectrum, exact_order_vectors, fiber_count
from x1points.sporadic import cm_order, cm_point_degree, cm_threshold, lifting_certificate
from x1points.modarith import vec2


@contextmanager
def criterion(number: int, budget_seconds: float, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s >= {budget_seconds}s"
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_classification_table(capsys):
    with criterion(1, 1.0, "classification table reproduces all 14 entries"):
        assert main(["tables", "--which", "classification"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out)["rows"]
        expected = {
            1: (9, 5), 5: (14, 6), 7: (14, 7), 11: (13, 6),
            13: (14, 7), 17: (15, 5), 37: (13, 8),
        }
        got = {r[0]: (r[1], r[2]) for r in rows}
        assert got == expected
        assert sum(len(v) for v in got.values()) == 14


def test_criterion_2_gl2_cardinalities():
    expected = {
        2: ((2, 1), (3, 1)),
        3: ((2, 4), (3, 1)),
        5: ((2, 5), (3, 1), (5, 1)),
        7: ((2, 5), (3, 2), (7, 1)),
        11: ((2, 4), (3, 1), (5, 2), (11, 1)),
        13: ((2, 5), (3, 2), (7, 1), (13, 1)),
        17: ((2, 9), (3, 2), (17, 1)),
        37: ((2, 5), (3, 4), (19, 1), (37, 1)),
    }
    with criterion(2, 1.0, "GL2 cardinality factorizations match"):
        for ell, fact in expected.items():
            assert factorize(gl2_order(ell)) == fact, ell


def test_criterion_3_degree_index_consistency():
    with criterion(3, 10.0, "map degrees consistent with indices and fiber counts"):
        for a in range(3, 61):
            b = 1
            while a * b <= 60:
                assert map_degree(a, b).degree * psl2_index(a) == psl2_index(a * b)
                b += 1
        import random

        rng = random.Random(20250810)
        pairs = {(1, 4), (2, 2), (2, 6)}
        candidates = [(a, b) for a in range(1, 25) for b in range(2, 49) if a * b <= 48]
        while len(pairs) < 20:
            pairs.add(candidates[rng.randrange(len(candidates))])
        for a, b in sorted(pairs):
            n = a * b
            expected = map_degree(a, b).degree * (2 if a <= 2 and n > 2 else 1)
            assert fiber_count(vec2(n, 1, 0), b) == expected, (a, b)


def test_criterion_4_orbit_oracle_equivalence():
    with criterion(4, 30.0, "degree spectra agree with indices and brute force"):
        for n in range(3, 41):
            spec = degree_spectrum(gl2_group(n))
            assert sum(r.degree for r in spec.records) == psl2_index(n), n
        borel7 = degree_spectrum(borel_group(7))
        assert sorted(r.degree for r in borel7.records) == [3, 21]
        # independent full-element orbit enumeration
        for G in (gl2_group(5), borel_group(7), gl2_group(8), fiber_product_group(5, 2)):
            G = closure(G.generators)
            vectors = exact_order_vectors(G.modulus.n)
            assert spectrum_partition(G, vectors) == orbit_partition_oracle(G, vectors)


def test_criterion_5_kernel_criterion_desk_scale(large_image_samples):
    with criterion(5, 60.0, "kernels of projection contain the SL2 generators"):
        for (n, ell, m), G in large_image_samples.items():
            H = closure(G.generators)
            K = kernel_of_projection(H, m)
            for g in ((1, 1, 0, 1), (1, 0, 1, 1)):
                lifted = join2(ell, m, g, (1, 0, 0, 1))
                assert K.contains(lifted), (n, ell, m)


def test_criterion_6_level_machinery():
    with criterion(6, 60.0, "level detection, minimization, and composition"):
        # synthetic full preimages at 2^5, 3^3, 5^2
        b8 = sl2_group(8)
        b8.elements()
        g32 = full_preimage(b8, 32)
        assert detect_ladic_level(g32, 3).certified
        assert minimize_level(g32) == 8

        b9 = closure(borel_group(9).generators)
        g27 = full_preimage(b9, 27)
        assert detect_ladic_level(g27, 2).certified
        assert minimize_level(g27) == 9

        b5 = closure(borel_group(5).generators)
        g25 = full_preimage(b5, 25)
        assert detect_ladic_level(g25, 1).certified
        assert minimize_level(g25) == 5

        # composition on mixed moduli 72 and 100
        g72 = full_preimage(closure([identity(6)]), 72)
        assert compose_level(g72, {2: 1, 3: 1}).level == 6
        assert minimize_level(g72) == 6

        g100 = full_preimage(crt_product(borel_group(5), gl2_group(4)), 100)
        assert compose_level(g100, {2: 1, 5: 1}).level == 10
        assert minimize_level(g100) == 5


def test_criterion_7_sporadic_certificates():
    with criterion(7, 1.0, "sporadic certificates with exact rational thresholds"):
        cert = lifting_certificate(229, 114)
        assert cert.issued
        assert cert.threshold == Fraction(7 * 26220, 1600)

        cert37 = lifting_certificate(37, 6)
        assert not cert37.issued
        frey = frey_gonality_cert(37, 6, known_gonality(37))
        assert frey.gonality == 18 and frey.issued

        O = cm_order(-4)
        threshold, ell = cm_threshold(O)
        assert ell == 229
        degree, cm_cert = cm_point_degree(O, ell)
        assert degree == 114 and cm_cert.issued
        assert cm_cert.threshold == Fraction(7 * psl2_index(229), 1600)
        # the closing inequality chain, end to end and exact
        assert Fraction(degree) < Fraction(2 * 228 * 230 * 7, 6400) == cm_cert.threshold


def test_criterion_8_classification_pipeline():
    with criterion(8, 1.0, "classification cases 4/1/2 and the conjectural screen"):
        borel37 = GaloisProfile(
            nonsurjective=(NonsurjectivePrime(37, "borel", 37),), assume_sz=True
        )
        nonsplit17 = GaloisProfile(
            nonsurjective=(NonsurjectivePrime(17, "normalizer_nonsplit"),), assume_sz=True
        )
        nonsurj57 = GaloisProfile(
            nonsurjective=(
                NonsurjectivePrime(5, "borel"),
                NonsurjectivePrime(7, "borel"),
            ),
            assume_sz=True,
        )
        assert classify_profile(borel37, 37).case == 4
        assert classify_profile(nonsplit17, 17).case == 1
        assert classify_profile(nonsurj57, 35).case == 2

        survivors = []
        for name, prof, n in (
            ("borel37", borel37, 37),
            ("nonsplit17", nonsplit17, 17),
            ("nonsurj57", nonsurj57, 37 * 17),
        ):
            verdict = sporadic_screen(prof, n)
            if not verdict.no_sporadic:
                survivors.append((name, verdict.candidate_level, verdict.candidate_j))
        assert survivors == [("borel37", 37, "-7*11^3")]
