"""Orbits of a mod-n Galois image on torsion vectors and the point degrees
they induce on X_1(n) above a fixed j-invariant.

Orbits are computed by generator closure on raw (x, y) tuples, frontier by
frontier; the group itself is never materialized, and no per-vector object
or function call is made.  The exact-order vectors are enumerated in
ascending order, so each orbit is found from its minimum and orbits come out
ordered by it.  Their number is checked against the group's cap before they
are enumerated.  A record's degree is c * [k:Q] * orbit size, where the half
factor applies exactly when some group element negates the vector and the
vector does not have order <= 2; in that case the orbit size is even
(asserted), so degrees are always integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import gcd

from .curveinv import map_degree
from .errors import CapExceeded, OrderMismatch
from .matgroup import DEFAULT_CAP, MatGroup, project
from .modarith import VecTuple, Vec2ModN, factorize, modulus, vec2, vec_order


def exact_order_vector_count(n: int, d: int) -> int:
    """Number of vectors of exact order d in (Z/nZ)^2: d^2 * prod(1 - 1/p^2)."""
    if n % d != 0:
        raise OrderMismatch(f"{d} does not divide {n}")
    out = d * d
    for p, _ in factorize(d):
        out = out // (p * p) * (p * p - 1)
    return out


def _exact_order_entries(n: int, d: int) -> list[VecTuple]:
    """The vectors of exact order d in (Z/nZ)^2 as sorted (x, y) tuples.

    (x, y) has order d iff gcd(n, x, y) = n/d, so the valid y depend on x
    only through gcd(n, x): one column of y is built per distinct gcd.
    """
    if n % d != 0:
        raise OrderMismatch(f"{d} does not divide {n}")
    step = n // d
    columns: dict[int, list[int]] = {}
    out: list[VecTuple] = []
    for x in range(0, n, step):
        g = gcd(n, x)
        ys = columns.get(g)
        if ys is None:
            ys = columns[g] = [y for y in range(0, n, step) if gcd(g, y) == step]
        out.extend(zip(repeat(x), ys))
    return out


def exact_order_vectors(n: int, d: int | None = None) -> list[Vec2ModN]:
    """All vectors in (Z/nZ)^2 of exact order d (default d = n), sorted."""
    mod = modulus(n)
    return [Vec2ModN(mod, x, y) for x, y in _exact_order_entries(n, n if d is None else d)]


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


def vector_orbits(
    G: MatGroup, vectors: list[Vec2ModN] | list[VecTuple]
) -> list[frozenset[VecTuple]]:
    """Partition `vectors` (Vec2ModN or reduced (x, y) tuples) into G-orbits
    by generator closure.

    The input is walked in ascending order, so when it is a union of orbits
    each orbit is grown from its minimum and the orbits come out ordered by
    their minimum.
    """
    n = G.modulus.n
    gens = G.raw_generators
    if vectors and isinstance(vectors[0], Vec2ModN):
        vectors = [v.entries for v in vectors]
    seen: set[VecTuple] = set()
    orbits = []
    for v in sorted(vectors):
        if v in seen:
            continue
        orbit = {v}
        frontier = orbit
        while frontier:
            new: set[VecTuple] = set()
            for a, b, c, d in gens:
                new.update([((a * x + b * y) % n, (c * x + d * y) % n) for x, y in frontier])
            new -= orbit
            orbit |= new
            frontier = new
        seen |= orbit
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
    """G-orbits on exact-order-n vectors with their closed-point degrees.

    Raises CapExceeded, with the true count, before enumerating when the
    vectors outnumber G's cap.  That bound never falls below DEFAULT_CAP: a
    smaller cap limits what the group engine stores, and orbits never store
    the group.
    """
    if field_degree < 1:
        raise ValueError(f"field degree must be >= 1, got {field_degree}")
    n = G.modulus.n
    count, limit = exact_order_vector_count(n, n), max(G.cap, DEFAULT_CAP)
    if count > limit:
        raise CapExceeded(limit, count, "vector enumeration", "vectors")
    orbits = vector_orbits(G, _exact_order_entries(n, n))
    records = tuple(_record_for_orbit(n, n, orbit, field_degree) for orbit in orbits)
    index: dict[VecTuple, int] = {}
    for i, orbit in enumerate(orbits):
        index.update(dict.fromkeys(orbit, i))
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

    Q = P + T over the b^2 vectors T killed by b, and Q has order ab iff it
    is nonzero mod every prime p | ab.  Mod p | a, Q = P, which is nonzero;
    mod p | b with p not dividing a, Q runs evenly over (Z/pZ)^2.  So the
    count is b^2 * prod(1 - 1/p^2) over the primes p | b that do not divide a.
    """
    n = P.modulus.n
    if vec_order(P) != n:
        raise OrderMismatch(f"vector {P} does not have exact order {n}")
    if n % b != 0:
        raise OrderMismatch(f"{b} does not divide {n}")
    a = n // b
    out = b * b
    for p, _ in factorize(b):
        if a % p:
            out = out // (p * p) * (p * p - 1)
    return out


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
