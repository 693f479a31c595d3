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

from functools import lru_cache
from itertools import count
from math import gcd, lcm, prod

from .errors import NotInvertible, OrderMismatch, field, record

MAX_MODULUS = 2**63 - 1

# All arithmetic runs on raw values: matrices are row-major 4-tuples
# (a, b, c, d), vectors are pairs (x, y).  A matrix is a 4-tuple everywhere,
# the group API included; Vec2ModN is the typed vector that orbit records
# carry.
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

    Exact for every n: a cofactor is declared prime only by `is_prime`, so a
    cofactor it cannot decide raises ValueError.
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


@record
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

    def __repr__(self):
        return f"Modulus({self.n})"


@lru_cache(maxsize=None)
def modulus(n: int) -> Modulus:
    """Shared Modulus instance for n (factorization computed once)."""
    return Modulus(n)


@record
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


def vec2(n: int, x: int, y: int) -> Vec2ModN:
    return Vec2ModN(modulus(n), x, y)


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
    """Exact primality by deterministic Miller-Rabin below 3.3 * 10^24, the
    exact primality bound; ValueError from there on."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is past the exact primality bound {_MR_LIMIT}")
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


class _LineKey(dict):
    """x -> (g n, n/g, (x/g)^-1 mod n/g) for g = gcd(x, n), each x filled on
    its first lookup, so the table never holds more than the x read from it;
    called as key(x, y), it gives g n + y (x/g)^-1 mod n/g."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, x: int) -> tuple[int, int, int]:
        n = self.n
        g = gcd(x, n)
        m = n // g
        entry = self[x] = (g * n, m, pow(x // g, -1, m))
        return entry

    def __call__(self, x: int, y: int) -> int:
        gn, m, inv = self[x]
        return gn + y * inv % m


def line_key(n: int) -> _LineKey:
    """The key of the line through (x, y), a vector of exact order n with
    entries in [0, n), as a point of P^1(Z/nZ): `key = line_key(n)`, then
    `key(x, y)`.

    Let g = gcd(x, n).  A unit multiple of (x, y) is (g, y'), and y' mod n/g
    is y (x/g)^-1 mod n/g for every such multiple (x/g is a unit mod n/g), so
    (g : y') is the normal form of the point (Cremona, Algorithms for Modular
    Elliptic Curves, 1997) and the key is g n + y (x/g)^-1 mod n/g.  Two
    vectors get one key iff one is a unit multiple of the other, so the
    order-n vectors give psi(n) = n prod(1 + 1/p) keys, all in [n, n^2].
    The factorization of n is not needed.

    The key is also a dict from x to (g n, n/g, (x/g)^-1 mod n/g), one table
    per call, so a hot loop can read it inline: `gn, m, inv = key[x]`, then
    `gn + y * inv % m`.
    """
    return _LineKey(n)


def _primitive_root(p: int, e: int) -> int:
    """A generator of (Z/p^eZ)^* for an odd prime p: the least primitive root
    g mod p, or g + p when g^(p-1) = 1 mod p^2, is one mod every p^e."""
    primes = [r for r, _ in factorize(p - 1)]
    g = next(g for g in count(2) if all(pow(g, (p - 1) // r, p) != 1 for r in primes))
    if e >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def unit_group_generators(n: int, m: int = 1) -> list[int]:
    """Generators of the units u = 1 mod m of Z/nZ (all of (Z/nZ)^* for
    m = 1), for m | n.

    By CRT the group is the product, over the prime powers q = p^e of n, of
    the units u = 1 mod p^f of Z/qZ, p^f the part of m.  Each factor is
    cyclic, generated by a primitive root (f = 0) or by 1 + p^f, except that
    for p = 2, f <= 1 it is <3> mod 4 and <-1> x <5> mod 2^e, e >= 3.  Each
    cyclic factor gets one generator, lifted to 1 mod n/q.  When their orders
    are pairwise coprime the group is cyclic, and their product is its one
    generator.
    """
    cyclic: list[tuple[int, int]] = []  # (generator, order)
    for p, e in factorize(n):
        q, f = p**e, valuation(m, p)
        if p == 2 and f <= 1:  # all of (Z/2^eZ)^*: trivial, <3> or <-1> x <5>
            local = [(3, 2)] if e == 2 else [(q - 1, 2), (5, q // 4)] if e >= 3 else []
        elif f == 0:
            local = [(_primitive_root(p, e), q // p * (p - 1))]
        else:
            local = [(1 + p**f, p ** (e - f))] if f < e else []
        cyclic += [(crt_scalar((u, 1), (q, n // q)), k) for u, k in local]
    orders = [k for _, k in cyclic]
    if len(cyclic) > 1 and lcm(*orders) == prod(orders):
        return [prod(u for u, _ in cyclic) % n]
    return [u for u, _ in cyclic]
