"""Subgroups of GL2(Z/n) whose order and reductions are known by formula.

A family gives generators in a standard frame and `image_order(M)`, the
order of the group's reduction mod M for every M | n. A seeded conjugation
by a random element of GL2(Z/n) changes every generator entry and nothing
else: orders, reductions, orbit sizes and SL2 containment are invariant.
"""

from __future__ import annotations

from math import gcd

import numtheory as nt

S = (1, 1, 0, 1)
T = (1, 0, 1, 1)
W = (0, 1, 1, 0)


def borel_order(m: int) -> int:
    return m * nt.phi(m) ** 2


class Family:
    """One group: `kind` in gl2, sl2, borel, cartan, normalizer, lift."""

    def __init__(self, kind: str, n: int, base: int | None = None):
        self.kind, self.n, self.base = kind, n, base
        if kind == "lift":
            fb, fn = nt.factor(base), nt.factor(n)
            assert n % base == 0 and [p for p, _ in fb] == [p for p, _ in fn]

    @property
    def label(self) -> str:
        if self.kind == "lift":
            return f"lift{self.base}to{self.n}"
        return f"{self.kind}{self.n}"

    def generators(self) -> list[tuple[int, int, int, int]]:
        n, kind = self.n, self.kind
        if kind == "lift":
            # Borel mod m lifted, plus generators of the congruence kernel:
            # I + mE12, I + mE21 and diag(v, 1), diag(1, v) for every v = 1 mod m.
            m = self.base
            gens = Family("borel", m).generators()
            gens += [(1, m, 0, 1), (1, 0, m, 1)]
            for v in range(1 + m, n, m):
                gens += [(v, 0, 0, 1), (1, 0, 0, v)]
            return gens
        units = nt.unit_generators(n)
        diag = [(u, 0, 0, 1) for u in units] + [(1, 0, 0, u) for u in units]
        if kind == "gl2":
            return [S, T] + [(u, 0, 0, 1) for u in units]
        if kind == "sl2":
            return [S, T]
        if kind == "borel":
            return [S] + diag
        if kind == "cartan":
            return diag
        if kind == "normalizer":
            return diag + [W]
        raise ValueError(kind)

    def image_order(self, M: int) -> int:
        """Order of the group's reduction mod M, for M | n."""
        kind = self.kind
        if kind == "gl2":
            return nt.gl2(M)
        if kind == "sl2":
            return nt.sl2(M)
        if kind == "borel":
            return borel_order(M)
        if kind == "cartan":
            return nt.phi(M) ** 2
        if kind == "normalizer":
            return 1 if M == 1 else 2 * nt.phi(M) ** 2
        g = gcd(M, self.base)  # lift: full preimage of Borel(g) in GL2(Z/M)
        return borel_order(g) * nt.gl2(M) // nt.gl2(g)

    @property
    def order(self) -> int:
        return self.image_order(self.n)

    @property
    def contains_sl2(self) -> bool:
        return self.kind in ("gl2", "sl2")

    def is_full_preimage(self, M: int) -> bool:
        n = self.n
        return self.order == self.image_order(M) * nt.gl2(n) // nt.gl2(M)

    def minimal_level(self) -> int:
        return next(M for M in nt.divisors(self.n) if self.is_full_preimage(M))

    def orbit_sizes(self) -> list[int]:
        """Sorted orbit sizes on the vectors of exact order n."""
        n, kind = self.n, self.kind
        if kind in ("gl2", "sl2"):
            return [nt.order_n_vectors(n)]
        if kind == "borel":
            return sorted(self.borel_orbit_size(n, g) for g in nt.divisors(n))
        if kind in ("cartan", "normalizer"):
            sizes = []
            for g1 in nt.divisors(n):
                for g2 in nt.divisors(n):
                    if gcd(g1, g2) != 1:
                        continue
                    size = nt.phi(n // g1) * nt.phi(n // g2)
                    if kind == "normalizer" and g1 != g2:
                        if g1 > g2:
                            continue
                        size *= 2
                    sizes.append(size)
            return sorted(sizes)
        raise ValueError(kind)

    @staticmethod
    def borel_orbit_size(n: int, g: int) -> int:
        """Borel orbit of the order-n vectors (x, y) with gcd(y, n) = g."""
        return nt.phi(n // g) * n * nt.phi(g) // g


def conjugate(gens, h, n):
    hi = nt.minv(h, n)
    return [nt.mmul(nt.mmul(h, g, n), hi, n) for g in gens]


def group_file_generators(fam: Family, rng) -> tuple[list, tuple]:
    """Seeded conjugate's generators (deduplicated, shuffled), and the conjugator."""
    n = fam.n
    h = nt.random_gl2(rng, n)
    gens = list(dict.fromkeys(conjugate([tuple(e % n for e in g) for g in fam.generators()], h, n)))
    rng.shuffle(gens)
    return gens, h
