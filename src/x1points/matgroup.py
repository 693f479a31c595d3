"""Finite subgroups of GL2(Z/nZ) given by generators.

Order and membership come from a stabilizer chain through the line <e1>, a
point of P^1(Z/nZ): Schreier-Sims with the kernel of each action as the next
level (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
ch. 4).  The chain has four levels.

- L1 is the orbit of <e1> among the psi(n) = n prod(1 + 1/p) lines, keyed by
  the key table of `modarith.tables(n)` and grown by `walk_lines`, the one
  line walk, which the degree spectra of `orbits` share.  The key table is
  shared by every chain and spectrum mod n while n stays among the 32
  moduli used last; it holds at most n entries, and a chain refused by its
  cap empties it.  A line's entry (w0, w1, p, q, dv, tag) holds its
  transversal element u = [[w0, p], [w1, q]] and dv = det(u)^-1, so u^-1 =
  dv [[q, -p], [-w1, w0]] needs no inversion; a new line reached by g gets
  g u, with dv = det(g)^-1 dv.  An edge g into a known line u' hands the
  caller the Schreier residue u'^-1 g u = (a, b, d) until the caller says
  stop, and then only finds lines.  The walk's edges are the generators that are not scalar, less
  each h with g h = zI for a g kept before it (`line_edges`): a scalar fixes
  every line, so its edge would only repeat the residue (z, 0, z) on each
  line; it is sifted once instead.
- The stabilizer H of <e1> is upper triangular: [[a, b], [0, d]], written
  (a, b, d).  L2 is A, the image of a (the isogeny character), and L3 is D,
  the image of d on the elements with a = 1.  Each keeps a transversal of
  elements of H with their inverses, so no sift inverts anything.
- L4 is the translations (1, b, 1) of H: b runs over gZ/nZ for one g | n.

So |G| = lines * |A| * |D| * n/g, from at most psi(n) + 2 phi(n) stored
entries and g; the cost grows with the lines, not with the n^2 vectors or
with |G| (up to n^4).  Each residue of the line walk is a Schreier generator
of H, and each (point, generator) pair of A or D gives one of the next
level's kernel; each is sifted and kept only if it is no member.  A
generator kept at L3 from the line walk also joins the generators of A, so
its conjugates by the A transversal are sifted too.  L4 needs no such step:
gZ/nZ is an ideal, so conjugation keeps it.

Sifting stops once H is complete.  H lies in {(a, b, d) : ad in det G}, of
n phi(n) |det G| elements, and D lies in det G, since (1, b, d) in H has
determinant d.  So once a failing sift leaves |A| = phi(n), g = 1 and every
generator's determinant in D, the levels span all of H and no later residue
can add to them: the line walk hands over no more residues, and A and D
sift no more Schreier generators.  The lines, A and D are still walked in
full, so the order and the pairs charged to the cap are unchanged; a group
containing SL2, the usual image by Serre's open image theorem, is complete
after a few sifts.

Whether G is the full preimage of G mod m is a membership test: a few
generators of the congruence kernel ker(GL2(Z/n) -> GL2(Z/m)) are sifted
through G's own chain, so no chain of G mod m is built for it.  G mod m is
the group of G's generators reduced mod m.  Elements are read off the chain,
each once as line * A * D * translation, only on an explicit `elements()`
call.  A kernel of a map between groups, G -> G mod m or a projection of a
Goursat H, is spanned by the Schreier generators of one walk of the image,
`_left_kernel`, so neither G nor H is built.  The cap bounds what each
engine pays for: the (point, generator) pairs the chain visits, each a sift
or a new entry, the image elements a kernel walk stores, or the elements of
the set, |G|, checked before any is built.  Going past it is a hard error.
Its default, `DEFAULT_CAP`, is defined in `errors` and re-exported here.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from math import gcd

from .errors import DEFAULT_CAP, CapExceeded, ModulusMismatch, NonCoprimeModuli, json_typed, record
from .modarith import (
    MatTuple,
    Modulus,
    crt_scalar,
    inv_raw,
    modulus,
    mul_raw,
    tables,
    unit_group_generators,
)

# An element [[a, b], [0, d]] of H as (a, b, d); (a, b, d)(a', b', d') = (aa', ab' + bd', dd').
Triangular = tuple[int, int, int]
# A line's entry (w0, w1, p, q, det(u)^-1, tag) for u = [[w0, p], [w1, q]].
Line = tuple[int, int, int, int, int, object]
# A generator (x, y) of a subgroup of GL2(Z/n1) x GL2(Z/n2).
PairTuple = tuple[MatTuple, MatTuple]


class Chain:
    """The stabilizer chain of a group through <e1> (see the module doc).

    `lines` maps a line key to its `walk_lines` entry, tagged None; `a_level`
    and `d_level` map each point of A (by a) and of D (by d) to its
    transversal element and that element's inverse, (a, b, d, a', b', d');
    `g` spans the translations.
    """

    __slots__ = ("n", "key", "lines", "a_level", "d_level", "g")

    def __init__(self, n: int):
        one = 1 % n
        ident = (one, 0, one, one, 0, one)
        self.n = n
        self.key = tables(n).key
        self.lines: dict[int, Line] = {}
        self.a_level: dict[int, tuple[int, ...]] = {one: ident}
        self.d_level: dict[int, tuple[int, ...]] = {one: ident}
        self.g = n

    @property
    def order(self) -> int:
        return len(self.lines) * len(self.a_level) * len(self.d_level) * (self.n // self.g)

    def sift(self, a: int, b: int, d: int) -> Triangular | None:
        """None if (a, b, d) lies in H, else its residue: itself if a is
        outside A, else h_a^-1 (a, b, d) = (1, b', d') if d' is outside D,
        else the translation (1, b'', 1) left after dividing by k_d'."""
        n = self.n
        h = self.a_level.get(a)
        if h is None:
            return a, b, d
        _, _, _, ia, ib, id_ = h
        b, d = (ia * b + ib * d) % n, id_ * d % n
        k = self.d_level.get(d)
        if k is None:
            return 1 % n, b, d
        b = (b + k[4] * d) % n
        return None if b % self.g == 0 else (1 % n, b, 1 % n)

    def contains(self, m: MatTuple) -> bool:
        """The first column must be of order n on a line of the orbit, with
        transversal element u, and u^-1 m, upper triangular, must sift."""
        n = self.n
        x, y, z, w = m
        if gcd(gcd(x, z), n) != 1:
            return False
        t = self.lines.get(self.key(x, z))
        if t is None:
            return False
        w0, w1, p, q, dv, _ = t
        a = dv * (q * x - p * z) % n
        return self.sift(a, dv * (q * y - p * w) % n, dv * (w0 * w - w1 * y) % n) is None

    def elements(self) -> frozenset[MatTuple]:
        """Each element once as u h_a k_d (1, t, 1), the factorization `sift`
        divides out: u of the lines, h_a of A, k_d (a = 1) of D, t in gZ/nZ."""
        n, ts = self.n, range(0, self.n, self.g)
        H = [
            (ha, (ha * (kb + t) + hb * kd) % n, hd * kd % n)
            for ha, hb, hd, *_ in self.a_level.values()
            for _, kb, kd, *_ in self.d_level.values()
            for t in ts
        ]
        return frozenset(
            (w0 * a % n, (w0 * b + p * d) % n, w1 * a % n, (w1 * b + q * d) % n)
            for w0, w1, p, q, *_ in self.lines.values()
            for a, b, d in H
        )


def line_edges(n: int, gens: tuple[MatTuple, ...]) -> tuple[list[tuple[int, ...]], list[int]]:
    """The edges of `walk_lines`, each kept generator's entries and
    det(g)^-1, and the scalars z that replace the other generators.

    A generator h is replaced by z when g h = zI for I or for a generator g
    kept before it, since <g, h> = <g, z>.  A matrix is fixed up to a scalar
    by the lines it sends e1, e2 and e1 + e2 to: one fixing all three is
    scalar.  So each kept g, and I first, is indexed under the keys of the
    lines of adj(g) = det(g) g^-1, (d, -c), (-b, a) and (d - b, a - c) for
    g = (a, b, c, d), and h is looked up once under the keys of its own
    columns and their sum: it is found exactly when some g h is scalar.  With
    Z0 = <z> central and K the kept generators, G = <K> Z0 has the line
    orbits of <K>, and Stab_G(l) = Stab_<K>(l) Z0, so a caller walks K alone
    and adds Z0 to each stabilizer once.
    """
    key, one = tables(n).key, 1 % n
    inverse_of = {(key(one, 0), key(0, one), key(one, one)): (one, 0, 0, one)}
    edges: list[tuple[int, ...]] = []
    scalars: list[int] = []
    for h in gens:
        a, b, c, d = h
        # key(x, y) read inline, as in `walk_lines`; y needs no reduction
        (k0, m0, i0), (k1, m1, i1), (k2, m2, i2) = key[a], key[b], key[(a + b) % n]
        g = inverse_of.get((k0 + c * i0 % m0, k1 + d * i1 % m1, k2 + (c + d) * i2 % m2))
        if g is not None:
            scalars.append((g[0] * a + g[1] * c) % n)
            continue
        (k0, m0, i0), (k1, m1, i1), (k2, m2, i2) = key[d], key[-b % n], key[(d - b) % n]
        inverse_of[k0 + -c * i0 % m0, k1 + a * i1 % m1, k2 + (a - c) * i2 % m2] = h
        edges.append((a, b, c, d, pow((a * d - b * c) % n, -1, n)))
    return edges, scalars


def walk_lines(
    n: int, key: dict, lines: dict[int, Line], start: Line, edges: list[tuple[int, ...]],
    residue: Callable[[int, int, int], object], spend: Callable[[int], None] | None = None,
) -> int:
    """Grow the orbit of the line of `start` (see the module doc) under
    `edges`, add its lines to `lines` with the tag of `start`, and return
    their number.  `residue` gets each residue until it returns true; g (p,
    q) is computed only for a new line or a residue read.  `spend`, if
    given, is charged each line's edges as the walk reaches the line."""
    tag = start[5]
    lines[key(start[0], start[1])] = start
    queue = [start]
    reading = True
    for w0, w1, p, q, dv, _ in queue:
        if spend is not None:
            spend(len(edges))
        for ga, gb, gc, gd, dg in edges:
            x0, x1 = (ga * w0 + gb * w1) % n, (gc * w0 + gd * w1) % n
            gn, m, inv = key[x0]
            k = gn + x1 * inv % m
            t = lines.get(k)
            if t is None:
                lines[k] = t = (x0, x1, (ga * p + gb * q) % n, (gc * p + gd * q) % n, dg * dv % n, tag)
                queue.append(t)
            elif reading:
                y0, y1 = (ga * p + gb * q) % n, (gc * p + gd * q) % n
                v0, v1, r, s, dw, _ = t
                reading = not residue(
                    dw * (s * x0 - r * x1) % n, dw * (s * y0 - r * y1) % n, dw * (v0 * y1 - v1 * y0) % n
                )
    return len(queue)


def _stabilizer_chain(n: int, gens: tuple[MatTuple, ...], cap: int) -> Chain:
    """The line chain of the group generated by `gens` (see the module doc).

    The scalars z of `line_edges` lie in H as (z, 0, z); each is sifted
    through `keep` once, before the walk.  `walk_lines` then grows the orbit
    of <e1> from I under the kept edges and hands each residue to `keep`.  A
    and D grow one generator at a time, and each (point, generator) pair is
    visited once; once H is complete (see the module doc), `keep` returns
    true and A and D stop calling it.  These pairs and the lines' edges are
    what the chain costs, so the cap bounds them (a scalar costs its sift,
    not an edge per line): CapExceeded, with partial count cap + 1, is
    raised once they exceed `cap`.  Charging a line's edges as the walk reaches it raises at the same
    point of the total.  A refused walk empties the key table of n, so it
    leaves nothing behind: the table is shared, and `tables` drops a modulus
    only once it is among the least recently used.
    """
    chain = Chain(n)
    one, phi = 1 % n, tables(n).phi
    A, D = chain.a_level, chain.d_level
    a_points, a_gens, d_points, d_gens = [one], [], [one], []
    dets = {(a * d - b * c) % n for a, b, c, d in gens}
    pairs = 0
    complete = False

    def spend(k: int) -> None:
        nonlocal pairs
        pairs += k
        if pairs > cap:
            unit = "(point, generator) pairs on its lines, A and D"
            raise CapExceeded(cap, cap + 1, "stabilizer chain", unit)

    def keep(a: int, b: int, d: int, from_lines: bool = True) -> bool:
        """Sift (a, b, d) and add its residue to the level where it failed;
        true once H is complete, so no later residue can fail."""
        nonlocal complete
        residue = chain.sift(a, b, d)
        if residue is None:
            return False
        a, b, d = residue
        if a != one:
            extend(A, a_points, a_gens, residue)
        elif d != one:
            extend(D, d_points, d_gens, residue)
            if from_lines:
                # Schreier's lemma for the kernel of a: the conjugates of a
                # new element of D by the A transversal are sifted too
                extend(A, a_points, a_gens, residue)
        elif b % chain.g:
            chain.g = gcd(chain.g, b)
        if len(A) == phi and chain.g == 1:
            complete = D.keys() >= dets
        return complete

    def extend(level: dict, points: list, level_gens: list, gen: Triangular) -> None:
        """Add `gen` to the generators of `level` (A or D) and grow its
        orbit: the old points meet `gen`, the new ones every generator.  The
        kernel element u_y^-1 s h_x of each pair that meets a known point y
        goes to `keep`."""
        a, b, d = gen
        t = pow(a * d % n, -1, n)
        level_gens.append((a, b, d, t * d % n, -b * t % n, t * a % n))
        on_a = level is A
        old = len(points)
        j = 0
        while j < len(points):
            ha, hb, hd, hia, hib, hid = level[points[j]]
            for sa, sb, sd, sia, sib, sid in level_gens[-1:] if j < old else level_gens:
                spend(1)
                ya, yb, yd = sa * ha % n, (sa * hb + sb * hd) % n, sd * hd % n
                y = ya if on_a else yd
                u = level.get(y)
                if u is None:
                    level[y] = (ya, yb, yd, hia * sia % n, (hia * sib + hib * sid) % n, hid * sid % n)
                    points.append(y)
                    continue
                if not complete:
                    # u^-1 y has a = 1 (and d = 1 in D)
                    _, _, _, uia, uib, uid = u
                    keep(one, (uia * yb + uib * yd) % n, uid * yd % n, False)
            j += 1

    edges, scalars = line_edges(n, gens)
    try:
        for z in scalars:
            keep(z, 0, z)
        walk_lines(n, chain.key, chain.lines, (one, 0, 0, one, one, None), edges, keep, spend)
    except CapExceeded:
        chain.key.clear()
        raise
    return chain


def _reduced(m, n: int) -> MatTuple:
    """The matrix m, four row-major entries, reduced mod n."""
    m = tuple(m)
    if len(m) != 4:
        raise ValueError(f"matrix {m} needs 4 entries, got {len(m)}")
    a, b, c, d = m
    return (a % n, b % n, c % n, d % n)


class MatGroup:
    """Subgroup of GL2(Z/nZ): lazily built stabilizer chain and element set."""

    def __init__(self, mod: Modulus, gens: Iterable[MatTuple], cap: int = DEFAULT_CAP):
        self.modulus = mod
        n = mod.n
        raw = []
        for g in gens:
            a, b, c, d = g = _reduced(g, n)
            if gcd(a * d - b * c, n) != 1:
                inv_raw(g, n)  # raises NotInvertible, naming the determinant
            raw.append(g)
        self._gens: tuple[MatTuple, ...] = tuple(dict.fromkeys(raw))
        self.cap = cap
        self._elements: frozenset[MatTuple] | None = None
        self._chain: Chain | None = None

    # -- basic accessors ----------------------------------------------------

    @property
    def raw_generators(self) -> tuple[MatTuple, ...]:
        return self._gens

    @property
    def is_materialized(self) -> bool:
        return self._elements is not None

    def _get_chain(self) -> Chain:
        if self._chain is None:
            self._chain = _stabilizer_chain(self.modulus.n, self._gens, self.cap)
        return self._chain

    @property
    def order(self) -> int:
        return self._get_chain().order

    def elements(self) -> frozenset[MatTuple]:
        """Every element, read off the chain once it is known to fit the cap."""
        if self._elements is None:
            chain = self._get_chain()
            if chain.order > self.cap:
                raise CapExceeded(self.cap, chain.order, "element set", "elements")
            self._elements = chain.elements()
        return self._elements

    def contains(self, A) -> bool:
        """Membership of A, four row-major entries read mod n, by sifting
        through the chain."""
        return self._get_chain().contains(_reduced(A, self.modulus.n))

    def __repr__(self):
        order = self.order if self._chain is not None else "?"
        return f"MatGroup(mod {self.modulus.n}, {len(self._gens)} gens, order {order})"


# -- public operations --------------------------------------------------------


def closure(generators, n: int, cap: int = DEFAULT_CAP) -> MatGroup:
    """Materialize the subgroup of GL2(Z/nZ) generated by `generators`, each
    four row-major entries read mod n."""
    grp = MatGroup(modulus(n), list(generators), cap)
    grp.elements()
    return grp


def project(G: MatGroup, m: int) -> MatGroup:
    """Image of G under reduction mod m (m | n): G itself when m = n, else
    the group of G's generators mod m, which `MatGroup` reduces."""
    n = G.modulus.n
    if m < 1 or n % m != 0:
        raise ModulusMismatch(f"{m} does not divide {n}")
    if m == n:
        return G
    return MatGroup(modulus(m), G.raw_generators, G.cap)


def _left_kernel(
    gen_pairs: list[PairTuple], n1: int, n2: int, order: int | None, cap: int
) -> MatGroup:
    """N' = {x : (x, I) in H} for the H <= GL2(Z/n1) x GL2(Z/n2) generated by
    `gen_pairs`, unmaterialized.

    The right image is walked by right multiplication, keeping x^-1 for the
    lift (x, y) that first reached each y.  An edge (x2, y2) into a known y2
    with lift x' gives the Schreier generator (x2 x'^-1, I), and these
    generate N' (Schreier's lemma; Holt, Eick and O'Brien, ch. 4).  A residue
    is kept only if it lies outside the span of those kept so far.  The walk
    stops once the span has `order` elements, when that order is known.  It
    stores one entry per image element, which is what the cap bounds.
    """
    i1, i2 = (1 % n1, 0, 0, 1 % n1), (1 % n2, 0, 0, 1 % n2)
    span = MatGroup(modulus(n1), [], cap)
    lift_inv = {i2: i1}
    queue = [(i1, i2)]
    for x, y in queue:
        if span.order == order:
            break
        for gx, gy in gen_pairs:
            x2, y2 = mul_raw(x, gx, n1), mul_raw(y, gy, n2)
            known = lift_inv.get(y2)
            if known is None:
                if len(lift_inv) >= cap:
                    raise CapExceeded(cap, len(lift_inv), "kernel walk", "image elements")
                lift_inv[y2] = inv_raw(x2, n1)
                queue.append((x2, y2))
                continue
            residue = mul_raw(x2, known, n1)
            if residue != i1 and not span.contains(residue):
                span = MatGroup(modulus(n1), [*span.raw_generators, residue], cap)
    return span


def kernel_of_projection(G: MatGroup, m: int) -> MatGroup:
    """Subgroup {g in G : g = I mod m} (m | n), unmaterialized: generated by
    Schreier generators read off a walk of G mod m, until they span
    `kernel_order(G, m)` elements."""
    order = kernel_order(G, m)
    pairs = [(g, tuple(e % m for e in g)) for g in G.raw_generators]
    return _left_kernel(pairs, G.modulus.n, m, order, G.cap)


def kernel_order(G: MatGroup, m: int) -> int:
    """|ker(G -> G mod m)| = |G| / |G mod m| (m | n), from the chains alone."""
    order, rem = divmod(G.order, project(G, m).order)
    assert rem == 0
    return order


def sl2_generator_tuples(n: int) -> tuple[MatTuple, MatTuple]:
    """The standard pair generating SL2(Z/nZ)."""
    return ((1, 1 % n, 0, 1), (1, 0, 1 % n, 1))


def contains_sl2(G: MatGroup) -> bool:
    """True iff both standard SL2 generators lie in G."""
    s, t = sl2_generator_tuples(G.modulus.n)
    return G.contains(s) and G.contains(t)


def congruence_kernel_generators(n: int, m: int) -> Iterator[MatTuple]:
    """Generators of K_m = ker(GL2(Z/nZ) -> GL2(Z/mZ)) (m | n), yielded
    lazily: I + m*E12, I + m*E21, then diag(u, 1) and diag(1, u) for each
    generator u of the units u = 1 mod m.

    By CRT, K_m is the product of its factors at the primes l of n.  At l | m
    every (1,1) entry 1 + m*x is a unit, so the factor is L*D*U and the
    elementary and diagonal matrices generate it.  At l not dividing m the
    factor is all of GL2(Z/l^e): the elementary matrices generate SL2 and the
    diagonal units add the determinant.  A generator's components at
    distinct primes have coprime orders, so each is a power of it.
    """
    if m < 1 or n % m != 0:
        raise ModulusMismatch(f"{m} does not divide {n}")
    yield (1, m, 0, 1)
    yield (1, 0, m, 1)
    for u in unit_group_generators(n, m):
        yield (u, 0, 0, 1)
        yield (1, 0, 0, u)


def is_full_preimage(G: MatGroup, m: int) -> bool:
    """True iff G mod n is the full preimage of its own reduction mod m:
    every generator of ker(GL2(n) -> GL2(m)) sifts through G's chain."""
    return all(G.contains(k) for k in congruence_kernel_generators(G.modulus.n, m))


# -- structured constructions ------------------------------------------------


def full_preimage(base: MatGroup, n: int, cap: int = DEFAULT_CAP) -> MatGroup:
    """Full preimage of `base` (mod m) under GL2(Z/nZ) -> GL2(Z/mZ).

    Requires Supp(n) = Supp(m) so that every entrywise lift of an invertible
    matrix stays invertible.  Generated by the lifted base generators and a
    few generators of the congruence kernel, so its order is
    |base| * (n/m)^4.
    """
    m = base.modulus.n
    if n % m != 0:
        raise ModulusMismatch(f"{m} does not divide {n}")
    if modulus(n).primes != base.modulus.primes:
        raise ValueError(f"prime support of {n} differs from base modulus {m}")
    if n == m:
        return base
    gens = [*base.raw_generators, *congruence_kernel_generators(n, m)]
    return MatGroup(modulus(n), gens, cap)


def crt_product(left: MatGroup, right: MatGroup, cap: int = DEFAULT_CAP) -> MatGroup:
    """Direct product of groups with coprime moduli, as one group mod n1*n2:
    each generator g of `left` joined by CRT with the identity mod n2, then
    the identity mod n1 joined with each generator of `right`, a generator
    that repeats mod n1*n2 kept once."""
    n1, n2 = left.modulus.n, right.modulus.n
    if gcd(n1, n2) != 1:
        raise NonCoprimeModuli(f"moduli {n1} and {n2} share a prime")
    one = (1, 0, 0, 1)
    pairs = [(g, one) for g in left.raw_generators] + [(one, h) for h in right.raw_generators]
    gens = [tuple(crt_scalar(r, (n1, n2)) for r in zip(g, h)) for g, h in pairs]
    return MatGroup(modulus(n1 * n2), gens, cap)


def gl2_group(n: int, cap: int = DEFAULT_CAP) -> MatGroup:
    """GL2(Z/nZ) from the standard SL2 pair plus diagonal unit generators."""
    s, t = sl2_generator_tuples(n)
    gens = [s, t] + [(u, 0, 0, 1) for u in unit_group_generators(n)]
    return MatGroup(modulus(n), gens, cap)


def sl2_group(n: int, cap: int = DEFAULT_CAP) -> MatGroup:
    return MatGroup(modulus(n), list(sl2_generator_tuples(n)), cap)


def borel_group(n: int, cap: int = DEFAULT_CAP) -> MatGroup:
    """Upper-triangular invertible matrices mod n."""
    gens = [(1, 1, 0, 1)]
    for u in unit_group_generators(n):
        gens.append((u, 0, 0, 1))
        gens.append((1, 0, 0, u))
    return MatGroup(modulus(n), gens, cap)


# -- Goursat data -------------------------------------------------------------

@record
class GoursatData:
    """Kernel pair and coset graph of a subgroup H of a direct product.

    `left_image` G and `right_image` G' are the projections of H, on the
    reduced generators of H.  `left_kernel` is N' = {x : (x, 1) in H} inside
    G, `right_kernel` is N = {y : (1, y) in H} inside G', each generated by
    Schreier generators of H (see `_left_kernel`); `graph_pairs` is the
    induced bijection between cosets of N' in G and cosets of N in G', as
    pairs (x, y) of 4-tuples, x mod n1 and y mod n2, the least representatives
    of their cosets, sorted on x.
    """

    left_image: MatGroup
    right_image: MatGroup
    left_kernel: MatGroup
    right_kernel: MatGroup
    common_quotient_order: int
    graph_pairs: tuple[PairTuple, ...]


def _goursat(
    left: MatGroup, right: MatGroup, gen_pairs: list[PairTuple], cap: int, order: int | None = None
) -> GoursatData:
    """Goursat data of the H generated by `gen_pairs`, whose projections are
    `left` and `right`; `order` is |H| when known.

    N' is the kernel of H -> G', of order |H|/|G'|, so |H| = |G'| |N'| is
    known once N' is, and N, of order |H|/|G|, is found the same way on the
    swapped pairs.  Each image is read in ascending order, and each element
    not yet labelled labels its whole coset of the kernel, so it is the
    coset's least element.  The pairing xN' -> yN is walked on the quotient
    from (I, I) by the generator pairs; it reaches every coset, since their
    left components generate G.
    """
    n1, n2 = left.modulus.n, right.modulus.n
    i1, i2 = (1 % n1, 0, 0, 1 % n1), (1 % n2, 0, 0, 1 % n2)
    kernel_l = _left_kernel(gen_pairs, n1, n2, order and order // right.order, cap)
    order = right.order * kernel_l.order
    kernel_r = _left_kernel([(y, x) for x, y in gen_pairs], n2, n1, order // left.order, cap)

    def cosets(image: MatGroup, kernel: MatGroup) -> dict[MatTuple, MatTuple]:
        """The least element of the coset of each element of `image`.  A
        kernel of the image's order is the whole image, one coset, so its
        elements are not built a second time."""
        if kernel.order == image.order:
            return dict.fromkeys(image.elements(), min(image.elements()))
        n, ks = image.modulus.n, kernel.elements()
        label: dict[MatTuple, MatTuple] = {}
        for x in sorted(image.elements()):
            if x not in label:
                for k in ks:
                    label[mul_raw(x, k, n)] = x
        return label

    label_l, label_r = cosets(left, kernel_l), cosets(right, kernel_r)
    graph = {label_l[i1]: label_r[i2]}
    queue = [(i1, i2)]
    for x, y in queue:
        for gx, gy in gen_pairs:
            x2 = mul_raw(x, gx, n1)
            if label_l[x2] not in graph:
                y2 = mul_raw(y, gy, n2)
                graph[label_l[x2]] = label_r[y2]
                queue.append((x2, y2))
    return GoursatData(
        left_image=left,
        right_image=right,
        left_kernel=kernel_l,
        right_kernel=kernel_r,
        common_quotient_order=len(graph),
        graph_pairs=tuple(sorted(graph.items())),
    )


def goursat(H: MatGroup, a: int, b: int) -> GoursatData:
    """Goursat data of H <= GL2(Z/abZ) split along coprime a, b (ab = n),
    from H's projections mod a and mod b and H's order.  H's own elements
    are built only when a or b is 1, where H is its own projection."""
    n = H.modulus.n
    if a * b != n:
        raise NonCoprimeModuli(f"{a}*{b} != {n}")
    if gcd(a, b) != 1:
        raise NonCoprimeModuli(f"{a} and {b} are not coprime")
    gen_pairs = [(tuple(e % a for e in g), tuple(e % b for e in g)) for g in H.raw_generators]
    return _goursat(project(H, a), project(H, b), gen_pairs, H.cap, H.order)


def goursat_product(gen_pairs, n1: int, n2: int, cap: int = DEFAULT_CAP) -> GoursatData:
    """Goursat data of the subgroup of GL2(Z/n1) x GL2(Z/n2) generated by
    `gen_pairs`, each a pair (x, y) of four row-major entries, x read mod n1
    and y mod n2.

    Accepts the external direct-product form, so n1 = n2 is allowed
    (e.g. the diagonal subgroup of GL2(Z/5) x GL2(Z/5)).
    """
    pairs = list(gen_pairs)
    left = MatGroup(modulus(n1), [x for x, _ in pairs], cap)
    right = MatGroup(modulus(n2), [y for _, y in pairs], cap)
    return _goursat(left, right, pairs, cap)


# -- group files --------------------------------------------------------------


def group_to_dict(G: MatGroup) -> dict:
    return {
        "modulus": G.modulus.n,
        "generators": [list(g) for g in G.raw_generators],
    }


def group_from_dict(data: dict, cap: int = DEFAULT_CAP) -> MatGroup:
    """Group from its file form: the modulus an integer, the generators an
    array of arrays of integers."""
    try:
        n = json_typed(data["modulus"], int, "modulus")
        gens = json_typed(data["generators"], list, "generators")
        for i, g in enumerate(gens):
            if type(g) is not list or not all(type(e) is int for e in g):
                json_typed(g, list, f"generators[{i}]")
                for j, e in enumerate(g):
                    json_typed(e, int, f"generators[{i}][{j}]")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed group file: {exc}") from exc
    if n < 1:
        raise ValueError(f"malformed group file: modulus {n} < 1")
    return MatGroup(modulus(n), gens, cap)


def load_group(path: str, cap: int = DEFAULT_CAP) -> MatGroup:
    """The group of a group file, read as strict UTF-8 (no byte-order mark)."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return group_from_dict(json.loads(text), cap)


def save_group(G: MatGroup, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(group_to_dict(G), fh, sort_keys=True)
        fh.write("\n")
