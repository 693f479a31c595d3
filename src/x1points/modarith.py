"""Exact arithmetic in Z/nZ: 2x2 matrices, column vectors, CRT, GL2/SL2 orders,
and exact factorization and primality for moduli up to 2^63 - 1.

The one product over primes of the form d^2 prod(1 - 1/p^2) lives here:
`exact_order_vector_count`, the Jordan totient J_2(d) of the vectors of exact
order d.  #GL2, the PSL2 index of X_1(N), covering degrees and fiber counts
are all products or quotients of it.

All values are immutable and reduced to the canonical range [0, n) on
construction, so equality and hashing are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count
from math import gcd, isqrt

from .errors import ModulusMismatch, NonCoprimeModuli, NotInvertible, OrderMismatch

MAX_MODULUS = 2**63 - 1

# Raw representations used in hot loops: matrices are row-major 4-tuples
# (a, b, c, d), vectors are pairs (x, y).
MatTuple = tuple[int, int, int, int]
VecTuple = tuple[int, int]


# Every prime below _TRIAL_BOUND is divided out by trial division; a cofactor
# below _TRIAL_BOUND^2 is then prime, and larger ones are split by Pollard rho.
_TRIAL_BOUND = 100

# The first 13 primes are a deterministic Miller-Rabin base set for every
# n below _MR_LIMIT (Sorenson and Webster, Strong pseudoprimes to twelve
# prime bases, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization, primes strictly increasing.

    Exact for every n: a cofactor is declared prime only by `is_prime`.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    counts: dict[int, int] = {}
    m = n
    p = 2
    while p < _TRIAL_BOUND and p * p <= m:
        while m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1
        p = 3 if p == 2 else p + 2
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        if m < _TRIAL_BOUND**2 or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            pending += [d, m // d]
    return tuple(sorted(counts.items()))


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor below _TRIAL_BOUND.

    Brent's variant of Pollard rho on x -> x^2 + c from x = 2, with c = 1,
    2, ... in turn until one splits n, so the answer is deterministic.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


@dataclass(frozen=True)
class Modulus:
    n: int
    factorization: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_MODULUS:
            raise ValueError(f"modulus out of range [1, 2^63-1]: {self.n}")
        object.__setattr__(self, "factorization", factorize(self.n))

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factorization)

    @property
    def prime_powers(self) -> tuple[int, ...]:
        return tuple(p**e for p, e in self.factorization)

    def __repr__(self):
        return f"Modulus({self.n})"


@lru_cache(maxsize=None)
def modulus(n: int) -> Modulus:
    """Shared Modulus instance for n (factorization computed once)."""
    return Modulus(n)


@dataclass(frozen=True)
class Mat2ModN:
    modulus: Modulus
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        n = self.modulus.n
        s = object.__setattr__
        s(self, "a", self.a % n)
        s(self, "b", self.b % n)
        s(self, "c", self.c % n)
        s(self, "d", self.d % n)

    @property
    def entries(self) -> MatTuple:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]] mod {self.modulus.n}"


@dataclass(frozen=True)
class Vec2ModN:
    modulus: Modulus
    x: int
    y: int

    def __post_init__(self):
        n = self.modulus.n
        object.__setattr__(self, "x", self.x % n)
        object.__setattr__(self, "y", self.y % n)

    @property
    def entries(self) -> VecTuple:
        return (self.x, self.y)

    def __repr__(self):
        return f"({self.x},{self.y}) mod {self.modulus.n}"


def mat2(n: int, a: int, b: int, c: int, d: int) -> Mat2ModN:
    return Mat2ModN(modulus(n), a, b, c, d)


def vec2(n: int, x: int, y: int) -> Vec2ModN:
    return Vec2ModN(modulus(n), x, y)


def identity(n: int) -> Mat2ModN:
    return mat2(n, 1, 0, 0, 1)


def _same_modulus(a: Mat2ModN, b: Mat2ModN) -> int:
    if a.modulus.n != b.modulus.n:
        raise ModulusMismatch(f"moduli differ: {a.modulus.n} vs {b.modulus.n}")
    return a.modulus.n


def mul_raw(x: MatTuple, y: MatTuple, n: int) -> MatTuple:
    a, b, c, d = x
    e, f, g, h = y
    return (
        (a * e + b * g) % n,
        (a * f + b * h) % n,
        (c * e + d * g) % n,
        (c * f + d * h) % n,
    )


def inv_raw(x: MatTuple, n: int) -> MatTuple:
    a, b, c, d = x
    det = (a * d - b * c) % n
    if gcd(det, n) != 1:
        raise NotInvertible(f"det {det} is not a unit mod {n}")
    di = pow(det, -1, n)
    return ((d * di) % n, (-b * di) % n, (-c * di) % n, (a * di) % n)


def apply_raw(m: MatTuple, v: VecTuple, n: int) -> VecTuple:
    a, b, c, d = m
    x, y = v
    return ((a * x + b * y) % n, (c * x + d * y) % n)


def mat_mul(A: Mat2ModN, B: Mat2ModN) -> Mat2ModN:
    n = _same_modulus(A, B)
    return Mat2ModN(A.modulus, *mul_raw(A.entries, B.entries, n))


def mat_det(A: Mat2ModN) -> int:
    return (A.a * A.d - A.b * A.c) % A.modulus.n


def mat_inv(A: Mat2ModN) -> Mat2ModN:
    return Mat2ModN(A.modulus, *inv_raw(A.entries, A.modulus.n))


def reduce_mat(A: Mat2ModN, m: int) -> Mat2ModN:
    if m < 1 or A.modulus.n % m != 0:
        raise ModulusMismatch(f"{m} does not divide {A.modulus.n}")
    return mat2(m, A.a, A.b, A.c, A.d)


def _check_coprime_cover(n: int, factors: tuple[int, ...]) -> None:
    prod = 1
    for f in factors:
        prod *= f
    if prod != n:
        raise NonCoprimeModuli(f"factors {factors} do not multiply to {n}")
    for i, f in enumerate(factors):
        for g in factors[i + 1 :]:
            if gcd(f, g) != 1:
                raise NonCoprimeModuli(f"factors {f} and {g} share a prime")


def crt_split(A: Mat2ModN, factors: tuple[int, ...] | None = None) -> tuple[Mat2ModN, ...]:
    """Split a matrix mod n into components mod pairwise-coprime factors of n.

    Default factors are the prime powers of the modulus.
    """
    n = A.modulus.n
    if factors is None:
        factors = A.modulus.prime_powers
    else:
        factors = tuple(factors)
    _check_coprime_cover(n, factors)
    return tuple(reduce_mat(A, f) for f in factors)


@lru_cache(maxsize=None)
def _crt_coefficients(moduli: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    n = 1
    for m in moduli:
        n *= m
    coeffs = []
    for m in moduli:
        rest = n // m
        coeffs.append(rest * pow(rest, -1, m))
    return n, tuple(coeffs)


def crt_scalar(residues: tuple[int, ...], moduli: tuple[int, ...]) -> int:
    n, coeffs = _crt_coefficients(moduli)
    return sum(r * c for r, c in zip(residues, coeffs)) % n


def crt_join(parts: tuple[Mat2ModN, ...]) -> Mat2ModN:
    """Inverse of crt_split: parts with pairwise coprime moduli join mod the product."""
    moduli = tuple(P.modulus.n for P in parts)
    n = 1
    for m in moduli:
        n *= m
    _check_coprime_cover(n, moduli)
    entries = [crt_scalar(tuple(P.entries[i] for P in parts), moduli) for i in range(4)]
    return mat2(n, *entries)


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below 3.3 * 10^24, trial
    division from there on."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        return all(n % p for p in range(43, isqrt(n) + 1, 2))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def exact_order_vector_count(n: int, d: int) -> int:
    """Number of vectors of exact order d in (Z/nZ)^2: J_2(d) = d^2 * prod(1 - 1/p^2)."""
    if d < 1 or n % d != 0:
        raise OrderMismatch(f"{d} does not divide {n}")
    out = d * d
    for p, _ in factorize(d):
        out = out // (p * p) * (p * p - 1)
    return out


@lru_cache(maxsize=None)
def gl2_order(n: int) -> int:
    """#GL2(Z/nZ): J_2(n) first columns of order n, each completed by the
    n * phi(n) second columns that make the determinant a unit."""
    return exact_order_vector_count(n, n) * n * euler_phi(n)


@lru_cache(maxsize=None)
def sl2_order(n: int) -> int:
    """#SL2(Z/nZ) = #GL2(Z/nZ) / phi(n)."""
    return gl2_order(n) // euler_phi(n)


def vec_order(v: Vec2ModN) -> int:
    """Exact additive order of v in (Z/nZ)^2: n / gcd(n, x, y)."""
    n = v.modulus.n
    return n // gcd(n, gcd(v.x, v.y))


def unit_group_generators(n: int, m: int = 1) -> list[int]:
    """A small generating set of the units u = 1 mod m of Z/nZ (all of
    (Z/nZ)^* for m = 1), found greedily in increasing order."""
    size = euler_phi(n) // euler_phi(m)
    gens: list[int] = []
    span = {1}
    for u in range(1 + m, n, m):
        if len(span) == size:
            break
        if gcd(u, n) != 1 or u in span:
            continue
        gens.append(u)
        frontier = list(span)
        for s in frontier:
            x = (s * u) % n
            while x not in span:
                span.add(x)
                x = (x * u) % n
    return gens
