"""Orbits of a mod-n Galois image on torsion vectors and the point degrees
they induce on X_1(n) above a fixed j-invariant.

Orbits are computed by generator closure on vectors; the group itself is
never materialized.  A record's degree is c * [k:Q] * orbit size, where the
half factor applies exactly when some group element negates the vector and
the vector does not have order <= 2; in that case the orbit size is even
(asserted), so degrees are always integers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import gcd

from .curveinv import map_degree
from .errors import OrderMismatch
from .matgroup import MatGroup, project
from .modarith import VecTuple, Vec2ModN, apply_raw, factorize, modulus, vec2, vec_order


def exact_order_vector_count(n: int, d: int) -> int:
    """Number of vectors of exact order d in (Z/nZ)^2: d^2 * prod(1 - 1/p^2)."""
    out = d * d
    for p, _ in factorize(d):
        out = out // (p * p) * (p * p - 1)
    return out


def exact_order_vectors(n: int, d: int | None = None) -> list[Vec2ModN]:
    """All vectors in (Z/nZ)^2 of exact order d (default d = n), sorted."""
    if d is None:
        d = n
    if n % d != 0:
        raise OrderMismatch(f"{d} does not divide {n}")
    step = n // d
    mod = modulus(n)
    out = []
    for x in range(0, n, step):
        for y in range(0, n, step):
            if n // gcd(n, gcd(x, y)) == d:
                out.append(Vec2ModN(mod, x, y))
    return out


@dataclass(frozen=True)
class OrbitRecord:
    representative: Vec2ModN
    size: int
    point_order: int
    minus_closed: bool
    degree: int


@dataclass(frozen=True, eq=False)
class DegreeSpectrum:
    modulus: int
    field_degree: int
    records: tuple[OrbitRecord, ...]
    _index: dict[VecTuple, int] = field(repr=False, compare=False, default_factory=dict)

    def record_of(self, v: Vec2ModN | VecTuple) -> OrbitRecord:
        raw = v.entries if isinstance(v, Vec2ModN) else (v[0] % self.modulus, v[1] % self.modulus)
        return self.records[self._index[raw]]


def vector_orbits(G: MatGroup, vectors: list[Vec2ModN]) -> list[frozenset[VecTuple]]:
    """Partition `vectors` into G-orbits by generator closure."""
    n = G.modulus.n
    gens = G.raw_generators
    remaining = {v.entries for v in vectors}
    orbits = []
    for v in sorted(remaining):
        if v not in remaining:
            continue
        orbit = {v}
        queue = deque([v])
        while queue:
            w = queue.popleft()
            for g in gens:
                u = apply_raw(g, w, n)
                if u not in orbit:
                    orbit.add(u)
                    queue.append(u)
        remaining -= orbit
        orbits.append(frozenset(orbit))
    return orbits


def _record_for_orbit(n: int, order: int, orbit: frozenset[VecTuple], field_degree: int) -> OrbitRecord:
    rep = min(orbit)
    minus = ((-rep[0]) % n, (-rep[1]) % n) in orbit
    half = minus and order > 2
    size = len(orbit)
    if half:
        assert size % 2 == 0, "negation-closed orbit of a point of order > 2 must be even"
        degree = size // 2 * field_degree
    else:
        degree = size * field_degree
    return OrbitRecord(
        representative=vec2(n, *rep),
        size=size,
        point_order=order,
        minus_closed=minus,
        degree=degree,
    )


def degree_spectrum(G: MatGroup, field_degree: int = 1) -> DegreeSpectrum:
    """G-orbits on exact-order-n vectors with their closed-point degrees."""
    if field_degree < 1:
        raise ValueError(f"field degree must be >= 1, got {field_degree}")
    n = G.modulus.n
    vectors = exact_order_vectors(n, n)
    orbits = vector_orbits(G, vectors)
    orbits.sort(key=min)
    records = tuple(_record_for_orbit(n, n, orbit, field_degree) for orbit in orbits)
    index: dict[VecTuple, int] = {}
    for i, orbit in enumerate(orbits):
        for v in orbit:
            index[v] = i
    return DegreeSpectrum(modulus=n, field_degree=field_degree, records=records, _index=index)


def closed_point_degrees(spectrum: DegreeSpectrum) -> list[int]:
    """Degrees of the closed points the spectrum describes, sorted.

    A vector and its negative give the same point of X_1(n), so a
    mirror pair of records collapses to a single point; negation-closed
    records already are single points.
    """
    n = spectrum.modulus
    out = []
    seen = set()
    for rec in spectrum.records:
        rep = rec.representative.entries
        if rep in seen:
            continue
        seen.add(rep)
        if not rec.minus_closed and rec.point_order > 2:
            mirror = spectrum.record_of(((-rep[0]) % n, (-rep[1]) % n))
            seen.add(mirror.representative.entries)
            assert mirror.size == rec.size
        out.append(rec.degree)
    return sorted(out)


def fiber_count(P: Vec2ModN, b: int) -> int:
    """#{Q : bQ = bP, Q of exact order ab}, for P of exact order ab = modulus.

    Enumerates Q = P + T over the b^2 vectors T killed by b.
    """
    n = P.modulus.n
    if vec_order(P) != n:
        raise OrderMismatch(f"vector {P} does not have exact order {n}")
    if n % b != 0:
        raise OrderMismatch(f"{b} does not divide {n}")
    a = n // b
    count = 0
    for i in range(b):
        for j in range(b):
            qx = (P.x + a * i) % n
            qy = (P.y + a * j) % n
            if n // gcd(n, gcd(qx, qy)) == n:
                count += 1
    return count


@dataclass(frozen=True)
class GrowthReport:
    """Per-orbit comparison of field growth against the fiber count.

    `max_growth` is [k(P):k(bP)] == #{Q : bQ = bP, Q order ab}; when it
    holds, deg(x) = deg(f) * deg(f(x)) for the covering f: X_1(ab) -> X_1(a)
    (`product_equal` records that identity directly).
    """

    representative: Vec2ModN
    upstairs_size: int
    downstairs_size: int
    field_ratio: int
    fiber: int
    max_growth: bool
    upstairs_degree: int
    downstairs_degree: int
    map_degree: int
    product_equal: bool


def max_growth_check(G: MatGroup, b: int, field_degree: int = 1) -> tuple[GrowthReport, ...]:
    """Compare orbit-size growth along X_1(ab) -> X_1(a) with fiber counts."""
    n = G.modulus.n
    if n % b != 0:
        raise OrderMismatch(f"{b} does not divide {n}")
    a = n // b
    up = degree_spectrum(G, field_degree)
    down = degree_spectrum(project(G, a), field_degree)
    deg_f = map_degree(a, b).degree
    reports = []
    for rec in up.records:
        rep = rec.representative
        # bP in E[a] =~ (Z/aZ)^2 has coordinates (x, y) mod a: the basis of
        # E[a] inside E[ab] is b times the basis of E[ab]
        image = (rep.x % a, rep.y % a)
        drec = down.record_of(image)
        ratio, rem = divmod(rec.size, drec.size)
        assert rem == 0, "orbit size downstairs must divide orbit size upstairs"
        fib = fiber_count(rep, b)
        reports.append(
            GrowthReport(
                representative=rep,
                upstairs_size=rec.size,
                downstairs_size=drec.size,
                field_ratio=ratio,
                fiber=fib,
                max_growth=ratio == fib,
                upstairs_degree=rec.degree,
                downstairs_degree=drec.degree,
                map_degree=deg_f,
                product_equal=rec.degree == deg_f * drec.degree,
            )
        )
    return tuple(reports)
