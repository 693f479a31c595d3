"""Orbits of a mod-n Galois image on torsion vectors and the point degrees
they induce on X_1(n) above a fixed j-invariant.

The orbit kernel walks G on lines, not on vectors.  A line is the unit class
{u v : u in (Z/nZ)^*} of an order-n vector: a cyclic subgroup of order n,
that is a point of X_0(n) above j, where X_1(n) -> X_0(n) sends a point to
the subgroup it generates.  There are psi(n) = n prod(1 + 1/p) lines, phi(n)
times fewer than vectors.  Line orbits are grown by `matgroup.walk_lines`,
the walk the stabilizer chain runs, from u0 = [[x, -b], [y, a]], a x + b y
= 1.  A line's entry holds its transversal element u, whose first column is
the line's tracked vector w, and no row: dv (q, -p), the first row of u^-1,
reads off the scalar t of a vector v = t w on the line.  The a-component of
an edge's Schreier residue is the multiplier t of the image of a tracked
vector; by Schreier's lemma these generate S, the image of the isogeny
character Stab_G(<w>) -> (Z/nZ)^*.  The walk uses the edges of
`matgroup.line_edges`, which replaces each scalar generator, and each h
with g h = zI for a kept g, by z.  With Z0 = <z> central and K the kept
generators, G and <K> have the same line orbits and Stab_G(l) =
Stab_<K>(l) Z0, so S starts from <Z0>, computed once per spectrum, and the
residues add the rest.  The G-orbits inside a line orbit L are then the
unit cosets t S: each holds |L| |S| vectors, and it is closed under
negation iff -1 lies in S.

A line is named by its point of P^1(Z/nZ), the key of `modarith.tables(n)`.
A spectrum keeps one dict, `DegreeSpectrum._lines`, from the key of each
grown line to its entry, whose tag is the line's orbit; that tag holds, per
coset t S, the record of the G-orbit t S, so `record_of` and the growth
check read the dict directly.  What it stores grows with the lines walked,
and nothing of size n^2 and no per-orbit vector set is built.  What depends
on n alone is read from `tables(n)`, shared by every spectrum and chain mod
n while n stays among the 32 moduli used last: the key table (at most n
entries), phi(n), the y of each gcd class of columns and the coset index
of the units mod each multiplier group S met (phi(n) entries each).  The
exact-order vectors are walked in ascending order, so each orbit is found
from its minimum and orbits come out ordered by it.  Their number is
checked against the group's cap before any is enumerated.

A record's degree is c * [k:Q] * orbit size, where the half factor applies
exactly when -1 lies in S and the vector does not have order <= 2; then |S|
is even, so the orbit size is even (asserted) and degrees are integers.

Two walk steps that cannot change the result are skipped.  Once S is all of
(Z/nZ)^*, nothing can enlarge it, so the rest of its line orbit is walked for
the lines alone and reads no multiplier; when <Z0> is all of it already,
the walk reads one residue per line orbit and stops reading.  And a column
of vectors (fixed x) is skipped once a column of its class g = gcd(n, x)
was walked and every G-orbit on the line orbits it met has its record.  Every column of the class
meets the same lines: those of key g n + y (x/g)^-1 mod n/g with gcd(g, y)
= 1, that is g n + r for every r prime to gcd(g, n/g), whatever x of the
class.  So a skipped column holds only vectors of G-orbits already found.
The open line orbits of a class are kept in a list that only shrinks, so
the check is O(1) amortized.

The growth check along X_1(n) -> X_1(a), a | n, reads the orbits mod a off
the line index mod n; G mod a gets no walk of its own.  Let O be a line
orbit with multiplier group S, and bar mean reduction mod a.  Each tracked
vector w_l is g w_r for the first line r of O, so all lie in G w_r, and by
the above G w_r is the union of the S w_l.  The lines l of O with det(w_l,
w_r) = 0 mod a form F, the fibre of O over the line of bar w_r mod a; as
bar w_r has exact order a, bar w_l = mu_l bar w_r there, with the unit mu_l
= d0 w_l0 + e0 w_l1 for (d0, e0) = `_dual` of bar w_r.  The fibres of O
over its image are G-translates of F, so the image holds |O| / |F| lines;
and G w_r mod a meets the line of bar w_r in S' bar w_r, S' = (S mod a)
{mu_l : l in F}, the multiplier group mod a.  So every G-orbit mod a under
O has |O| / |F| |S'| vectors, and the half factor applies when -1 lies in
S' and a > 2.  A G-orbit t G w mod n reduces to t G w mod a, of the same
size, so one pass over the psi(n) entries prices every record, an orbit's
entries being contiguous since each walk inserts a whole orbit.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import groupby
from math import gcd
from operator import itemgetter

from .curveinv import map_degree
from .errors import CapExceeded, ModulusMismatch, OrderMismatch, field, record
from .matgroup import Line, MatGroup, line_edges, walk_lines
from .modarith import (
    Tables,
    VecTuple,
    Vec2ModN,
    exact_order_vector_count,
    modulus,
    tables,
    vec2,
    vec_order,
)


def _exact_order_columns(tab: Tables, d: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The vectors of exact order d (d | n) in (Z/nZ)^2, ascending, one
    column (x, gcd(n, x), ys) per x, ys shared by the gcd class."""
    n, classes = tab.n, tab.columns(d)
    for x in range(0, n, n // d):
        g = gcd(n, x)
        yield x, g, classes[g]


def exact_order_vectors(n: int, d: int | None = None) -> list[Vec2ModN]:
    """All vectors in (Z/nZ)^2 of exact order d (default d = n), sorted."""
    mod = modulus(n)
    d = n if d is None else d
    if d < 1 or n % d != 0:
        raise OrderMismatch(f"{d} does not divide {n}")
    return [Vec2ModN(mod, x, y) for x, _, ys in _exact_order_columns(tables(n), d) for y in ys]


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


def _adjoin(span: set[int], t: int, n: int) -> None:
    """Extend the subgroup `span` of (Z/nZ)^* to <span, t> in place.

    (Z/nZ)^* is abelian, so <S, t> = P_k, the union of the cosets t^j S for
    j < k, for any k with t^k in P_k, which makes P_k closed under t
    (Dimino).  P_2k is P_k with t^k P_k, so k doubles from 1 until then.
    """
    while t not in span:
        span |= {t * v % n for v in span}
        t = t * t % n


class _LineOrbit:
    """A G-orbit of lines, the tag of their entries, filled in once its walk
    is done: its number of lines, the multiplier group S, the coset index of
    each unit, per coset the record of the G-orbit t S (None until the
    spectrum finds it), and the number of cosets still unfound."""

    __slots__ = ("count", "scalars", "coset", "claims", "open")


def _grow(
    tab: Tables, lines: dict[int, Line], edges: list[tuple[int, ...]], base: set[int], x: int, y: int
) -> Line:
    """Grow the line orbit of the order-n vector (x, y), n = tab.n, whose
    line is new, into `lines` from u0 = [[x, -b], [y, a]] (det 1, (a, b)
    from `_dual`) under `edges`, and return the entry of that line.  Each
    residue read is upper triangular, and only its a-component, the
    multiplier, is kept.  The key table, phi(n) and the cosets come from
    `tab`, the tables of n that `degree_spectrum` read.

    S starts as `base`, the group of the scalars that `line_edges` took out
    of the edges, and grows as a subgroup as each multiplier arrives
    (`_adjoin`); one inside S costs a lookup.  Once S is all phi(n) units no
    multiplier can enlarge it, so the walk reads no more.
    """
    n, phi = tab.n, tab.phi
    a, b = _dual(x, y, n)
    orbit = _LineOrbit()
    span = set(base)

    def multiplier(t: int, _b: int, _d: int) -> bool:
        if t not in span:
            _adjoin(span, t, n)
        return len(span) == phi

    start = (x, y, -b % n, a, 1 % n, orbit)
    orbit.count = walk_lines(n, tab.key, lines, start, edges, multiplier)
    orbit.scalars = frozenset(span)
    orbit.coset = tab.cosets(orbit.scalars)
    orbit.open = phi // len(span)
    orbit.claims = [None] * orbit.open
    return start


@record
class OrbitRecord:
    representative: Vec2ModN
    size: int
    point_order: int
    minus_closed: bool
    degree: int


@record
class DegreeSpectrum:
    modulus: int
    field_degree: int
    records: tuple[OrbitRecord, ...]
    _lines: dict[int, Line] = field(repr=False)

    # a spectrum is its own line index: two are equal only if they are one
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def record_of(self, v: Vec2ModN | VecTuple) -> OrbitRecord:
        """The record of the orbit of v, a Vec2ModN mod n or a pair reduced
        mod n; OrderMismatch unless v has exact order n."""
        n = self.modulus
        if isinstance(v, Vec2ModN):
            if v.modulus.n != n:
                raise ModulusMismatch(f"vector modulus {v.modulus.n} != spectrum modulus {n}")
            v = v.entries
        elif len(v) != 2:
            raise ValueError(f"vector {tuple(v)} needs 2 entries, got {len(v)}")
        x, y = v[0] % n, v[1] % n
        if gcd(gcd(x, y), n) != 1:
            raise OrderMismatch(f"vector ({x},{y}) does not have exact order {n}")
        _, _, p, q, dv, orbit = self._lines[tables(n).key(x, y)]
        return orbit.claims[orbit.coset[dv * (q * x - p * y) % n]]


def _degree(size: int, minus: bool, n: int, field_degree: int) -> int:
    """The degree of the closed points of a G-orbit of `size` vectors of
    order n, closed under negation iff `minus`."""
    if minus and n > 2:
        assert size % 2 == 0, "negation-closed orbit of a point of order > 2 must be even"
        return size // 2 * field_degree
    return size * field_degree


def _record(n: int, rep: VecTuple, orbit: _LineOrbit, field_degree: int) -> OrbitRecord:
    size = orbit.count * len(orbit.scalars)
    minus = -1 % n in orbit.scalars
    # positional: a record's keyword call pays for a **kwargs dict, and spectra
    # build one record per orbit
    return OrbitRecord(vec2(n, *rep), size, n, minus, _degree(size, minus, n, field_degree))


def degree_spectrum(G: MatGroup, field_degree: int = 1) -> DegreeSpectrum:
    """G-orbits on exact-order-n vectors with their closed-point degrees.

    Records come in ascending order of their least vector, which is each
    one's representative.  One loop over the columns (fixed x) of the
    order-n vectors does all the work.  It skips a column whose gcd class
    holds no unfound G-orbit.  For each vector of the column, it looks up
    the vector's line and grows the line's orbit when the line is new
    (`_grow`); when the vector's coset t S has no record yet, it writes one,
    and it stops once the records cover every vector.  Both skips, the
    column one and the multipliers no longer read once S = (Z/nZ)^*, are
    proved in the module doc.

    Raises CapExceeded, with the true count, before enumerating when the
    vectors outnumber G's cap: a group with many small orbits makes the
    column loop look up every one of them.
    """
    if field_degree < 1:
        raise ValueError(f"field degree must be >= 1, got {field_degree}")
    n = G.modulus.n
    count = exact_order_vector_count(n, n)
    if count > G.cap:
        raise CapExceeded(G.cap, count, "vector enumeration", "vectors")
    tab = tables(n)
    key = tab.key
    edges, scalars = line_edges(n, G.raw_generators)
    base = {1 % n}
    for z in scalars:
        _adjoin(base, z, n)
    lines: dict[int, Line] = {}
    records, found = [], 0
    pending: dict[int, list[_LineOrbit]] = {}
    for x, g, ys in _exact_order_columns(tab, n):
        open_orbits = pending.get(g)
        if open_orbits is not None:
            while open_orbits and not open_orbits[-1].open:
                open_orbits.pop()
            if not open_orbits:
                continue
        gn, m, inv = key[x]
        for y in ys:
            t = lines.get(gn + y * inv % m)
            if t is None:
                t = _grow(tab, lines, edges, base, x, y)
            _, _, p, q, dv, orbit = t
            c = orbit.coset[dv * (q * x - p * y) % n]
            if orbit.claims[c] is None:
                orbit.claims[c] = rec = _record(n, (x, y), orbit, field_degree)
                orbit.open -= 1
                records.append(rec)
                found += rec.size
                # the orbits found cover every vector, and every line
                if found == count:
                    return DegreeSpectrum(n, field_degree, tuple(records), lines)
        if open_orbits is None:
            met = {t[5] for t in map(lines.get, range(gn, gn + m)) if t is not None}
            pending[g] = [orbit for orbit in met if orbit.open]
    raise AssertionError("the G-orbits must cover every vector of order n")


def closed_point_degrees(spectrum: DegreeSpectrum) -> list[int]:
    """Degrees of the closed points the spectrum describes, sorted.

    A vector and its negative give the same point of X_1(n).  A record
    closed under -1 is one point.  Any other record has a mirror record of
    the same degree: -v lies on the line of v, in the coset -t S of the same
    line orbit, so its orbit has the same size.  For n <= 2, -1 = 1 lies in
    S, so every record is closed.  The points are therefore the closed
    records and one of each mirror pair, that is every second entry of the
    sorted degrees of the other records.
    """
    closed, mirrored = [], []
    for rec in spectrum.records:
        (closed if rec.minus_closed else mirrored).append(rec.degree)
    mirrored.sort()
    assert mirrored[::2] == mirrored[1::2], "records not closed under -1 must pair up"
    return sorted(closed + mirrored[::2])


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


def _downstairs(
    lines: dict[int, Line], a: int, field_degree: int
) -> dict[_LineOrbit, tuple[int, int]]:
    """Per line orbit O of a full line index mod n, the size and degree of
    the G-orbits mod a (a | n) that O's vectors reduce to, from one pass
    over the index (see the module doc): |O| / |F| lines mod a, times the
    multiplier group S' mod a, grown from S mod a by the mu_l of F."""
    out = {}
    for orbit, entries in groupby(lines.values(), itemgetter(5)):
        r0, r1, _, _, _, _ = next(entries)
        r0, r1 = r0 % a, r1 % a
        d0, e0 = _dual(r0, r1, a)
        # S mod a, the image of a subgroup, is one already
        span = {s % a for s in orbit.scalars}
        fibre = 1
        for w0, w1, _, _, _, _ in entries:
            if (w0 * r1 - w1 * r0) % a == 0:
                fibre += 1
                mu = (d0 * w0 + e0 * w1) % a
                if mu not in span:
                    _adjoin(span, mu, a)
        size = orbit.count // fibre * len(span)
        out[orbit] = size, _degree(size, -1 % a in span, a, field_degree)
    return out


@record
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
    """Compare orbit-size growth along X_1(ab) -> X_1(a) with fiber counts.

    The image of P is bP, and the basis of E[a] inside E[n] is b times that
    of E[n], so bP has coordinates P mod a in E[a] =~ (Z/aZ)^2.  Its G-orbit
    is read off the line index of the spectrum mod n (see the module doc):
    for a line orbit O with multiplier group S, F is the set of lines l of O
    with det(w_l, w_r) = 0 mod a for the first line r, the image of O holds
    |O| / |F| lines mod a, and S' = (S mod a) {mu_l : l in F} is the
    multiplier group mod a, mu_l the unit with w_l = mu_l w_r mod a.  Every
    record of O gets |O| / |F| |S'| vectors downstairs, halved in degree when
    -1 lies in S' and a > 2.  G mod a is never built or walked.
    """
    n = G.modulus.n
    if b < 1 or n % b != 0:
        raise OrderMismatch(f"{b} does not divide {n}")
    a = n // b
    up = degree_spectrum(G, field_degree)
    # the spectrum stops once its records cover every vector, so every line
    # orbit, and with it every line, is in the index
    lines, key = up._lines, tables(n).key
    down = _downstairs(lines, a, field_degree)
    deg_f = map_degree(a, b).degree
    # the fiber count depends on a and b only; every exact-order-n vector has one
    fib = fiber_count(up.records[0].representative, b)
    reports = []
    for rec in up.records:
        dsize, ddegree = down[lines[key(*rec.representative.entries)][5]]
        ratio, rem = divmod(rec.size, dsize)
        assert rem == 0, "orbit size downstairs must divide orbit size upstairs"
        # fields in declaration order, positional as in `_record`
        reports.append(
            GrowthReport(
                rec.representative,
                rec.size,
                dsize,
                ratio,
                fib,
                ratio == fib,
                rec.degree,
                ddegree,
                deg_f,
                rec.degree == deg_f * ddegree,
            )
        )
    return tuple(reports)
