"""Number theory and 2x2 matrix helpers for the benchmark's own answer key.

Nothing here imports x1points: expected answers are derived from closed-form
formulas so that inputs and answers stay byte-identical on every commit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases, exact below 3.3e24."""
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int) -> list[tuple[int, int]]:
    """Trial division; only used on benchmark-sized numbers (below 10^8)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def phi(n: int) -> int:
    out = n
    for p, _ in factor(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factor(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def gl2(n: int) -> int:
    out = 1
    for p, e in factor(n):
        out *= p ** (4 * (e - 1)) * (p * p - 1) * (p * p - p)
    return out


def sl2(n: int) -> int:
    return gl2(n) // phi(n)


def order_n_vectors(n: int) -> int:
    """Vectors of exact order n in (Z/n)^2: n^2 * prod(1 - 1/p^2)."""
    out = n * n
    for p, _ in factor(n):
        out = out // (p * p) * (p * p - 1)
    return out


def psl2_index(n: int, fac: list[tuple[int, int]] | None = None) -> int:
    if n <= 2:
        return (1, 3)[n - 1]
    num, den = n * n, 2
    for p, _ in fac if fac is not None else factor(n):
        num *= p * p - 1
        den *= p * p
    return num // den


def x1_cusps(n: int, fac: list[tuple[int, int]]) -> int:
    """Cusps of X_1(n): half of sum over d | n of phi(d) phi(n/d) for n >= 5."""
    if n <= 4:
        return (1, 2, 2, 3)[n - 1]
    # multiplicative: for p^e the sum over d | p^e of phi(d) phi(p^e/d)
    total = 1
    for p, e in fac:
        ph = [1] + [p ** (k - 1) * (p - 1) for k in range(1, e + 1)]
        total *= sum(ph[k] * ph[e - k] for k in range(e + 1))
    return total // 2


def x1_genus(n: int, fac: list[tuple[int, int]]) -> int:
    if n <= 4:
        return 0
    return int(1 + Fraction(psl2_index(n, fac), 12) - Fraction(x1_cusps(n, fac), 2))


def map_degree(a: int, b: int) -> int:
    """Degree of X_1(ab) -> X_1(a)."""
    deg = Fraction(b * b)
    for p, _ in factor(b):
        if a % p:
            deg *= Fraction(p * p - 1, p * p)
    if a <= 2 < a * b:
        deg /= 2
    return int(deg)


def class_number(D: int) -> int:
    """Reduced primitive positive definite forms of discriminant D."""
    h = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                h += 1
        a += 1
    return h


def kronecker_splits(D: int, ell: int) -> bool:
    if D % ell == 0:
        return False
    if ell == 2:
        return D % 8 == 1
    return pow(D % ell, (ell - 1) // 2, ell) == 1


def unit_generators(n: int) -> list[int]:
    """Greedy generating set of (Z/n)^*, smallest units first."""
    target = phi(n)
    gens: list[int] = []
    span = {1 % n}
    for u in range(2, n):
        if len(span) == target:
            break
        if gcd(u, n) != 1 or u in span:
            continue
        gens.append(u)
        frontier = list(span)
        while frontier:
            nxt = []
            for s in frontier:
                for g in gens:
                    x = s * g % n
                    if x not in span:
                        span.add(x)
                        nxt.append(x)
            frontier = nxt
    return gens


# -- matrices as row-major 4-tuples -------------------------------------------


def mmul(x, y, n):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n, (c * e + d * g) % n, (c * f + d * h) % n)


def minv(x, n):
    a, b, c, d = x
    di = pow((a * d - b * c) % n, -1, n)
    return (d * di % n, -b * di % n, -c * di % n, a * di % n)


def mvec(x, v, n):
    a, b, c, d = x
    return ((a * v[0] + b * v[1]) % n, (c * v[0] + d * v[1]) % n)


def random_gl2(rng, n: int):
    while True:
        m = tuple(rng.randrange(n) for _ in range(4))
        if gcd((m[0] * m[3] - m[1] * m[2]) % n, n) == 1:
            return m
