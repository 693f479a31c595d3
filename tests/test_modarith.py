import random
from math import gcd

import pytest

from conftest import gl2_count_oracle, matmul_oracle
from x1points import orbits
from x1points.errors import ModulusMismatch, NonCoprimeModuli, NotInvertible
from x1points.modarith import (
    Modulus,
    crt_join,
    crt_split,
    divisors,
    euler_phi,
    exact_order_vector_count,
    factorize,
    gl2_order,
    identity,
    is_prime,
    mat2,
    mat_det,
    mat_inv,
    mat_mul,
    modulus,
    reduce_mat,
    sl2_order,
    unit_group_generators,
    valuation,
    vec2,
    vec_order,
)


def test_modulus_factorization():
    m = modulus(360)
    assert m.factorization == ((2, 3), (3, 2), (5, 1))
    assert modulus(1).factorization == ()
    with pytest.raises(ValueError):
        Modulus(0)
    with pytest.raises(ValueError):
        Modulus(2**63)


def test_entries_reduced_on_construction():
    A = mat2(5, 7, -1, 10, 3)
    assert A.entries == (2, 4, 0, 3)
    v = vec2(4, -1, 6)
    assert v.entries == (3, 2)


def test_mat_mul_identity():
    I = identity(5)
    assert mat_mul(I, I) == I


def test_mat_mul_hand_example():
    A = mat2(5, 1, 1, 0, 1)
    B = mat2(5, 1, 0, 1, 1)
    assert mat_mul(A, B).entries == (2, 1, 1, 1)
    assert matmul_oracle(A.entries, B.entries, 5) == (2, 1, 1, 1)


def test_mat_mul_matches_oracle_randomized():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 998)
        x = tuple(rng.randrange(n) for _ in range(4))
        y = tuple(rng.randrange(n) for _ in range(4))
        assert mat_mul(mat2(n, *x), mat2(n, *y)).entries == matmul_oracle(x, y, n)


def test_mat_mul_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        mat_mul(identity(5), identity(7))


def test_inverse_round_trip_all_invertible_mod_7():
    I = identity(7)
    count = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    if gcd((a * d - b * c) % 7, 7) == 1:
                        A = mat2(7, a, b, c, d)
                        assert mat_mul(A, mat_inv(A)) == I
                        count += 1
    assert count == gl2_order(7)


def test_det_diagonal():
    assert mat_det(mat2(7, 2, 0, 0, 3)) == 6


def test_inv_involution():
    W = mat2(11, 0, 1, 1, 0)
    assert mat_inv(W) == W


def test_inv_nonunit_det():
    with pytest.raises(NotInvertible):
        mat_inv(mat2(4, 2, 0, 0, 1))


def test_det_multiplicative_randomized():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randrange(2, 998)
        A = mat2(n, *(rng.randrange(n) for _ in range(4)))
        B = mat2(n, *(rng.randrange(n) for _ in range(4)))
        assert mat_det(mat_mul(A, B)) == (mat_det(A) * mat_det(B)) % n


def test_reduce_entrywise():
    A = mat2(12, 6, 1, 0, 7)
    assert reduce_mat(A, 4).entries == (2, 1, 0, 3)
    with pytest.raises(ModulusMismatch):
        reduce_mat(A, 5)


def test_crt_split_identity():
    parts = crt_split(identity(35))
    assert [P.modulus.n for P in parts] == [5, 7]
    assert all(P == identity(P.modulus.n) for P in parts)


def test_crt_join_reduces_both_ways():
    A5 = identity(5)
    A7 = mat2(7, 2, 0, 0, 1)
    J = crt_join((A5, A7))
    assert J.modulus.n == 35
    assert reduce_mat(J, 5) == A5
    assert reduce_mat(J, 7) == A7


def test_crt_noncoprime_rejected():
    with pytest.raises(NonCoprimeModuli):
        crt_join((identity(4), identity(6)))
    with pytest.raises(NonCoprimeModuli):
        crt_split(identity(12), (2, 6))


def test_crt_round_trip_exhaustive_mod_30():
    # Exhaustive over all 30^4 matrices: every entry value is rebuilt through
    # crt_scalar (checked against an independent brute-force residue table),
    # and every matrix is swept through the precomputed entry map.
    from x1points.modarith import crt_scalar

    table = {}
    for x in range(30):
        table[(x % 2, x % 3, x % 5)] = x
    moduli = (2, 3, 5)
    rebuilt = {}
    for e in range(30):
        r = (e % 2, e % 3, e % 5)
        rebuilt[e] = crt_scalar(r, moduli)
        assert rebuilt[e] == table[r] == e
    for a in range(30):
        for b in range(30):
            for c in range(30):
                for d in range(30):
                    assert (rebuilt[a], rebuilt[b], rebuilt[c], rebuilt[d]) == (a, b, c, d)


def test_crt_round_trip_matrix_api_mod_30():
    # Same identity through the Mat2ModN layer, sweeping three entries fully.
    m30 = modulus(30)
    from x1points.modarith import Mat2ModN

    for a in range(30):
        for b in range(30):
            for c in range(30):
                A = Mat2ModN(m30, a, b, c, (a + b + c) % 30)
                assert crt_join(crt_split(A)) == A


def test_gl2_order_table_values():
    assert gl2_order(1) == 1
    assert gl2_order(2) == 6
    assert gl2_order(37) == 1_822_176
    assert factorize(gl2_order(37)) == ((2, 5), (3, 4), (19, 1), (37, 1))


def test_gl2_order_brute_force_small():
    for n in range(1, 13):
        assert gl2_order(n) == gl2_count_oracle(n)


def test_gl2_order_multiplicative_up_to_200():
    for n in range(1, 201):
        prod = 1
        for p, e in factorize(n):
            prod *= gl2_order(p**e)
        assert gl2_order(n) == prod


def test_sl2_order():
    assert sl2_order(2) == 6
    assert sl2_order(5) == 120
    assert sl2_order(4) == 48
    for n in (2, 3, 4, 5, 8, 9, 12):
        assert sl2_order(n) * euler_phi(n) == gl2_order(n)


def test_vec_order():
    assert vec_order(vec2(12, 4, 6)) == 6
    assert vec_order(vec2(12, 0, 0)) == 1
    assert vec_order(vec2(12, 1, 0)) == 12


def test_divisors_and_valuation():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(48, 5) == 0


def test_unit_group_generators():
    for n in (3, 4, 5, 7, 8, 9, 12, 15, 16, 24):
        gens = unit_group_generators(n)
        span = {1}
        for g in gens:
            new = set()
            for s in span:
                x = (s * g) % n
                while x not in span and x not in new:
                    new.add(x)
                    x = (x * g) % n
            span |= new
        assert len(span) == euler_phi(n)


def _trial_division(n):
    out, m, p = [], n, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def test_factorize_agrees_with_trial_division_below_20000():
    for n in range(1, 20000):
        assert factorize(n) == _trial_division(n), n
        assert is_prime(n) == (_trial_division(n) == ((n, 1),)), n
    with pytest.raises(ValueError):
        factorize(0)


def test_mersenne_61_is_prime_quickly():
    import time

    start = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert factorize(2**61 - 1) == ((2**61 - 1, 1),)
    assert time.perf_counter() - start < 0.5


def test_semiprime_near_2_to_63_factors():
    p, q = 3037000453, 3037000493  # both prime, p * q just below 2^63
    assert p * q < 2**63
    assert factorize(p * q) == ((p, 1), (q, 1))
    assert factorize(p * p * 4) == ((2, 2), (p, 2))
    assert factorize(2**63 - 1) == ((7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1))


def test_pseudoprimes_rejected():
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185)
    for n in carmichael:
        assert not is_prime(n), n
    # strong pseudoprimes to the first 9 and to the first 12 prime bases
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert factorize(318665857834031151167461) == ((399165290221, 1), (798330580441, 1))
    # past the deterministic Miller-Rabin range the answer comes from trial division
    assert not is_prime(43**16)


def test_reduce_mat_rejects_zero_modulus():
    with pytest.raises(ModulusMismatch, match="0 does not divide 6"):
        reduce_mat(mat2(6, 1, 2, 3, 5), 0)


def test_exact_order_vector_count_is_one_function():
    # orbits re-exports the modarith count under its old name
    assert orbits.exact_order_vector_count is exact_order_vector_count
