"""Orbits of a mod-n Galois image on torsion vectors and the point degrees
they induce on X_1(n) above a fixed j-invariant.

The orbit kernel walks G on lines, not on vectors.  A line is the unit class
{u v : u in (Z/nZ)^*} of an order-n vector: a cyclic subgroup of order n,
that is a point of X_0(n) above j, where X_1(n) -> X_0(n) sends a point to
the subgroup it generates.  There are psi(n) = n prod(1 + 1/p) lines, phi(n)
times fewer than vectors.  Line orbits are grown breadth-first.  Each line
keeps one tracked vector w and a row (a, b) with a w = 1, which reads off the
scalar t of a vector v = t w on the line as t = a v.  An edge that lands on
a known line gives the multiplier t of the image of its tracked vector; by
Schreier's lemma these multipliers generate S, the image of the isogeny
character Stab_G(<w>) -> (Z/nZ)^*.  The G-orbits inside a line orbit L are
then the unit cosets t S: each holds |L| |S| vectors, and it is closed under
negation iff -1 lies in S.

One list indexed by x n + y maps a vector to its line; no per-orbit vector
set is stored.  The exact-order vectors are walked in ascending order, so
each orbit is found from its minimum and orbits come out ordered by it.
Their number is checked against the group's cap before any is enumerated.
A record's degree is c * [k:Q] * orbit size, where the half factor applies
exactly when -1 lies in S and the vector does not have order <= 2; then |S|
is even, so the orbit size is even (asserted) and degrees are integers.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat
from math import gcd

from .curveinv import map_degree
from .errors import CapExceeded, ModulusMismatch, OrderMismatch
from .matgroup import DEFAULT_CAP, MatGroup, project
from .modarith import (
    MatTuple,
    VecTuple,
    Vec2ModN,
    exact_order_vector_count,
    inv_raw,
    modulus,
    vec2,
    vec_order,
)


def _ascending_exact_order(n: int, d: int) -> Iterator[VecTuple]:
    """The vectors of exact order d (d | n) in (Z/nZ)^2, ascending.

    (x, y) has order d iff gcd(n, x, y) = n/d, so the valid y depend on x
    only through gcd(n, x): one column of y is built per distinct gcd.
    """
    step = n // d
    columns: dict[int, list[int]] = {}
    for x in range(0, n, step):
        g = gcd(n, x)
        ys = columns.get(g)
        if ys is None:
            ys = columns[g] = [y for y in range(0, n, step) if gcd(g, y) == step]
        yield from zip(repeat(x), ys)


def _exact_order_entries(n: int, d: int) -> list[VecTuple]:
    """The vectors of exact order d in (Z/nZ)^2 as sorted (x, y) tuples."""
    if d < 1 or n % d != 0:
        raise OrderMismatch(f"{d} does not divide {n}")
    return list(_ascending_exact_order(n, d))


def exact_order_vectors(n: int, d: int | None = None) -> list[Vec2ModN]:
    """All vectors in (Z/nZ)^2 of exact order d (default d = n), sorted."""
    mod = modulus(n)
    return [Vec2ModN(mod, x, y) for x, y in _exact_order_entries(n, n if d is None else d)]


def _dual(x: int, y: int, n: int) -> tuple[int, int]:
    """(a, b) with a x + b y = 1 mod n, for (x, y) of exact order n.

    The extended Euclidean algorithm gives a x + b y = gcd(x, y), and that
    gcd is a unit mod n because gcd(n, x, y) = 1.
    """
    a0, b0, r0, a1, b1, r1 = 1, 0, x, 0, 1, y
    while r1:
        q = r0 // r1
        a0, a1, b0, b1, r0, r1 = a1, a0 - q * a1, b1, b0 - q * b1, r1, r0 - q * r1
    inv = pow(r0, -1, n)
    return a0 * inv % n, b0 * inv % n


class _LineOrbit:
    """A G-orbit of lines: lines first .. first + count - 1 of its `_Lines`,
    the multiplier group S, the coset index of each unit, and per coset the
    claim that found the G-orbit t S (None until one does)."""

    __slots__ = ("first", "count", "scalars", "coset", "claims")

    def __init__(self, first: int):
        self.first = first
        self.count = 0
        self.scalars: frozenset[int] = frozenset()
        self.coset: dict[int, int] = {}
        self.claims: list[int | None] = []


class _Lines:
    """G acting on the lines of (Z/nZ)^2, grown one line orbit at a time.

    `line_of[x n + y]` is the line id of the order-n vector (x, y), or None
    while its line orbit is not grown (and for vectors of other orders).
    Line k is `lines[k]` = (orbit, x, y, a, b): its tracked vector (x, y)
    and the row (a, b) with a x + b y = 1.
    """

    def __init__(self, n: int, gens: tuple[MatTuple, ...]):
        self.n = n
        self.gens = [(g, inv_raw(g, n)) for g in gens]
        self.units = [u for u in range(n) if gcd(u, n) == 1]
        self.line_of: list[int | None] = [None] * (n * n)
        self.lines: list[tuple[_LineOrbit, int, int, int, int]] = []
        self.cosets: dict[frozenset[int], dict[int, int]] = {}
        self.claimed = 0
        self.unclaimed = 0

    def _add_line(self, orbit: _LineOrbit, x: int, y: int, a: int, b: int) -> None:
        n, line_of, lid = self.n, self.line_of, len(self.lines)
        self.lines.append((orbit, x, y, a, b))
        for u in self.units:
            line_of[u * x % n * n + u * y % n] = lid

    def _grow(self, x: int, y: int) -> int:
        """Grow the line orbit of the order-n vector (x, y), whose line is
        new, with (x, y) as the tracked vector of its first line."""
        n, line_of, lines = self.n, self.line_of, self.lines
        orbit = _LineOrbit(len(lines))
        self._add_line(orbit, x, y, *_dual(x, y, n))
        multipliers = set()
        k = orbit.first
        while k < len(lines):
            _, x, y, a, b = lines[k]
            for (p, q, r, s), (pi, qi, ri, si) in self.gens:
                x2, y2 = (p * x + q * y) % n, (r * x + s * y) % n
                lid = line_of[x2 * n + y2]
                if lid is None:
                    # (a, b) g^-1 is the row of g w
                    self._add_line(orbit, x2, y2, (a * pi + b * ri) % n, (a * qi + b * si) % n)
                else:
                    _, _, _, a2, b2 = lines[lid]
                    multipliers.add((a2 * x2 + b2 * y2) % n)
            k += 1
        orbit.count = len(lines) - orbit.first
        orbit.scalars = _unit_span(multipliers, n)
        orbit.coset = self._cosets(orbit.scalars)
        orbit.claims = [None] * (len(self.units) // len(orbit.scalars))
        self.unclaimed += len(orbit.claims)
        return orbit.first

    def _cosets(self, scalars: frozenset[int]) -> dict[int, int]:
        """Coset index of each unit mod the subgroup `scalars`."""
        out = self.cosets.get(scalars)
        if out is None:
            n, out = self.n, {}
            for u in self.units:
                if u not in out:
                    k = len(out) // len(scalars)
                    for s in scalars:
                        out[u * s % n] = k
            self.cosets[scalars] = out
        return out

    def claim(self, x: int, y: int) -> tuple[_LineOrbit, int] | None:
        """For an order-n vector v = (x, y) = t w: (its line orbit, t) if no
        vector of the G-orbit of v was claimed before, else None."""
        n = self.n
        lid = self.line_of[x * n + y]
        if lid is None:
            lid = self._grow(x, y)
        orbit, _, _, a, b = self.lines[lid]
        t = (a * x + b * y) % n
        c = orbit.coset[t]
        if orbit.claims[c] is not None:
            return None
        orbit.claims[c] = self.claimed
        self.claimed += 1
        self.unclaimed -= 1
        return orbit, t

    def claim_of(self, x: int, y: int) -> int:
        """The claim number of the G-orbit of the order-n vector (x, y),
        whose line orbit is grown and whose G-orbit is claimed."""
        orbit, _, _, a, b = self.lines[self.line_of[x * self.n + y]]
        return orbit.claims[orbit.coset[(a * x + b * y) % self.n]]

    def members(self, orbit: _LineOrbit, t: int) -> list[VecTuple]:
        """The G-orbit t S of the tracked vectors of `orbit`."""
        n = self.n
        ts = [t * s % n for s in orbit.scalars]
        return [
            (u * x % n, u * y % n)
            for _, x, y, _, _ in self.lines[orbit.first : orbit.first + orbit.count]
            for u in ts
        ]


def _unit_span(units: set[int], n: int) -> frozenset[int]:
    """The subgroup of (Z/nZ)^* generated by `units`."""
    span = {1 % n}
    frontier = list(span)
    while frontier:
        new = []
        for s in frontier:
            for u in units:
                v = s * u % n
                if v not in span:
                    span.add(v)
                    new.append(v)
        frontier = new
    return frozenset(span)


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
    _lines: _Lines = field(repr=False, compare=False)

    def record_of(self, v: Vec2ModN | VecTuple) -> OrbitRecord:
        """The record of the orbit of v, a Vec2ModN mod n or a tuple reduced
        mod n; OrderMismatch unless v has exact order n."""
        n = self.modulus
        if isinstance(v, Vec2ModN):
            if v.modulus.n != n:
                raise ModulusMismatch(f"vector modulus {v.modulus.n} != spectrum modulus {n}")
            v = v.entries
        x, y = v[0] % n, v[1] % n
        if gcd(gcd(x, y), n) != 1:
            raise OrderMismatch(f"vector ({x},{y}) does not have exact order {n}")
        return self.records[self._lines.claim_of(x, y)]


def vector_orbits(
    G: MatGroup, vectors: list[Vec2ModN] | list[VecTuple]
) -> list[frozenset[VecTuple]]:
    """Partition `vectors` (Vec2ModN or reduced (x, y) tuples, a union of
    G-orbits of any orders) into G-orbits, ordered by their minimum.

    An order-d vector is n/d times an order-d vector of (Z/dZ)^2, on which G
    acts through G mod d, so each order is walked on its own lines.
    """
    n = G.modulus.n
    if vectors and isinstance(vectors[0], Vec2ModN):
        vectors = [v.entries for v in vectors]
    by_step: dict[int, list[VecTuple]] = {}
    for x, y in vectors:
        by_step.setdefault(gcd(gcd(x, y), n), []).append((x, y))
    found: dict[VecTuple, frozenset[VecTuple]] = {}
    for step, vs in by_step.items():
        lines = _Lines(n // step, project(G, n // step).raw_generators)
        for x, y in sorted(vs):
            claimed = lines.claim(x // step, y // step)
            if claimed:
                found[x, y] = frozenset((step * a, step * b) for a, b in lines.members(*claimed))
    return [found[v] for v in sorted(found)]


def _record(n: int, rep: VecTuple, orbit: _LineOrbit, field_degree: int) -> OrbitRecord:
    size = orbit.count * len(orbit.scalars)
    minus = -1 % n in orbit.scalars
    if minus and n > 2:
        assert size % 2 == 0, "negation-closed orbit of a point of order > 2 must be even"
        degree = size // 2 * field_degree
    else:
        degree = size * field_degree
    return OrbitRecord(
        representative=vec2(n, *rep),
        size=size,
        point_order=n,
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
    lines = _Lines(n, G.raw_generators)
    line_count = count // len(lines.units)
    records = []
    for v in _ascending_exact_order(n, n):
        claimed = lines.claim(*v)
        if claimed:
            records.append(_record(n, v, claimed[0], field_degree))
            # every line grown and every coset claimed: the rest claims nothing
            if not lines.unclaimed and len(lines.lines) == line_count:
                break
    return DegreeSpectrum(modulus=n, field_degree=field_degree, records=tuple(records), _lines=lines)


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

    Multiplication by b maps the J_2(ab) vectors of order ab onto the J_2(a)
    of order a, evenly since GL2 acts transitively on both and commutes
    with it, so the count is J_2(ab) / J_2(a).
    """
    n = P.modulus.n
    if vec_order(P) != n:
        raise OrderMismatch(f"vector {P} does not have exact order {n}")
    if b < 1 or n % b != 0:
        raise OrderMismatch(f"{b} does not divide {n}")
    return exact_order_vector_count(n, n) // exact_order_vector_count(n, n // b)


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
    if b < 1 or n % b != 0:
        raise OrderMismatch(f"{b} does not divide {n}")
    a = n // b
    up = degree_spectrum(G, field_degree)
    down = degree_spectrum(project(G, a), field_degree)
    deg_f = map_degree(a, b).degree
    # the fiber count depends on a and b only; every exact-order-n vector has one
    fib = fiber_count(up.records[0].representative, b)
    reports = []
    for rec in up.records:
        rep = rec.representative
        # bP in E[a] =~ (Z/aZ)^2 has coordinates (x, y) mod a, which record_of
        # reduces to: the basis of E[a] inside E[ab] is b times that of E[ab]
        drec = down.record_of(rep.entries)
        ratio, rem = divmod(rec.size, drec.size)
        assert rem == 0, "orbit size downstairs must divide orbit size upstairs"
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
