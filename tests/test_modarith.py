import random
from math import gcd

import pytest

from conftest import gl2_count_oracle, matmul_oracle
from x1points import orbits
from x1points.errors import NotInvertible
from x1points.matgroup import MatGroup
from x1points.modarith import (
    Modulus,
    crt_scalar,
    divisors,
    euler_phi,
    exact_order_vector_count,
    factorize,
    gl2_order,
    inv_raw,
    is_prime,
    modulus,
    mul_raw,
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
    assert MatGroup(modulus(5), [(7, -1, 10, 3)]).raw_generators == ((2, 4, 0, 3),)
    v = vec2(4, -1, 6)
    assert v.entries == (3, 2)


def test_mat_mul_identity():
    I = (1, 0, 0, 1)
    assert mul_raw(I, I, 5) == I


def test_mat_mul_hand_example():
    A = (1, 1, 0, 1)
    B = (1, 0, 1, 1)
    assert mul_raw(A, B, 5) == (2, 1, 1, 1)
    assert matmul_oracle(A, B, 5) == (2, 1, 1, 1)


def test_mat_mul_matches_oracle_randomized():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 998)
        x = tuple(rng.randrange(n) for _ in range(4))
        y = tuple(rng.randrange(n) for _ in range(4))
        assert mul_raw(x, y, n) == matmul_oracle(x, y, n)


def test_inverse_round_trip_all_invertible_mod_7():
    I = (1, 0, 0, 1)
    count = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    if gcd((a * d - b * c) % 7, 7) == 1:
                        A = (a, b, c, d)
                        assert mul_raw(A, inv_raw(A, 7), 7) == I
                        count += 1
    assert count == gl2_order(7)


def test_inv_involution():
    W = (0, 1, 1, 0)
    assert inv_raw(W, 11) == W


def test_inv_nonunit_det():
    with pytest.raises(NotInvertible):
        inv_raw((2, 0, 0, 1), 4)


def test_det_multiplicative_randomized():
    def det(x, n):
        return (x[0] * x[3] - x[1] * x[2]) % n

    rng = random.Random(11)
    for _ in range(400):
        n = rng.randrange(2, 998)
        A = tuple(rng.randrange(n) for _ in range(4))
        B = tuple(rng.randrange(n) for _ in range(4))
        assert det(mul_raw(A, B, n), n) == det(A, n) * det(B, n) % n


def test_crt_join_reduces_both_ways():
    # the entry-by-entry join that crt_product builds its generators with
    A5, A7 = (1, 0, 0, 1), (2, 0, 0, 1)
    J = tuple(crt_scalar((x, y), (5, 7)) for x, y in zip(A5, A7))
    assert tuple(e % 5 for e in J) == A5
    assert tuple(e % 7 for e in J) == A7


def test_crt_round_trip_exhaustive_mod_30():
    # Exhaustive over all 30^4 matrices: every entry value is rebuilt through
    # crt_scalar (checked against an independent brute-force residue table),
    # and every matrix is swept through the precomputed entry map.
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


@pytest.mark.parametrize("n", [73009, 331, 3**7])
def test_unit_group_generators_of_a_cyclic_group_is_one_unit(n):
    [g] = unit_group_generators(n)
    order, x = 1, g
    while x != 1:
        x = x * g % n
        order += 1
    assert order == euler_phi(n)


def test_unit_group_generators_of_a_congruence_subgroup():
    # the units u = 1 mod m, one generator per cyclic factor, merged when
    # the factors have coprime orders (3 * 5 mod 9 * 25 here)
    for n, m, count in ((81, 3, 1), (32, 8, 1), (16, 2, 2), (225, 15, 1), (360, 6, 4)):
        gens = unit_group_generators(n, m)
        span = {1}
        for g in gens:
            for s in list(span):
                x = s * g % n
                while x not in span:
                    span.add(x)
                    x = x * g % n
        assert span == {u for u in range(n) if gcd(u, n) == 1 and u % m == 1 % m}, (n, m)
        assert len(gens) == count, (n, m)


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
    # past the deterministic Miller-Rabin range there is no answer
    with pytest.raises(ValueError, match="past the exact primality bound"):
        is_prime(43**16)


def test_exact_order_vector_count_is_one_function():
    # orbits re-exports the modarith count under its old name
    assert orbits.exact_order_vector_count is exact_order_vector_count
