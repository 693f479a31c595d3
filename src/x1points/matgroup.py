"""Finite subgroups of GL2(Z/nZ) given by generators.

Order and membership come from a stabilizer chain with base {e1, e2}.  Only
the identity fixes both basis vectors, so |G| = |G.e1| * |Stab(e1)|, and
Stab(e1) is a group of matrices [[1, b], [0, d]] stored by its keys (b, d).
The chain is the orbit G.e1 with a transversal, plus Stab(e1) closed
Dimino-style from the Schreier generators: Schreier-Sims with a base of
length 2 (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
2005; Seress, Permutation Group Algorithms, 2003).  Its size grows with the
orbit (about n^2), not with |G| (up to n^4).  The element set is built by
breadth-first closure, and only on an explicit `elements()` call.  The cap
bounds what either engine stores (orbit plus stabilizer entries, or the
element set); going past it is a hard error.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from math import gcd

from .errors import CapExceeded, ModulusMismatch, NonCoprimeModuli, json_typed
from .modarith import (
    MatTuple,
    Mat2ModN,
    Modulus,
    VecTuple,
    crt_join,
    gl2_order,
    identity,
    inv_raw,
    modulus,
    mul_raw,
    unit_group_generators,
)

DEFAULT_CAP = 2**24

# Stab(e1) element [[1, b], [0, d]] as its key (b, d); (b, d) * (b', d') = (b' + b d', d d').
StabKey = tuple[int, int]
# inverse transversal {v: u_v^-1} of the orbit G.e1, and Stab(e1) by keys
Chain = tuple[dict[VecTuple, MatTuple], set[StabKey]]


def _closure(ident, gens, mul, inv, cap: int) -> frozenset:
    """Breadth-first closure of `gens` and their inverses from `ident`.

    `mul(x, g)` multiplies and `inv(g)` inverts (raising NotInvertible on bad
    input); raises CapExceeded once the set would outgrow `cap`.
    """
    start = list(dict.fromkeys(x for g in gens for x in (g, inv(g))))
    seen = {ident}
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for g in start:
            y = mul(x, g)
            if y not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(cap, len(seen))
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def _bfs_closure(n: int, gens: list[MatTuple], cap: int) -> frozenset[MatTuple]:
    return _closure(
        (1 % n, 0, 0, 1 % n), gens, lambda x, g: mul_raw(x, g, n), lambda g: inv_raw(g, n), cap
    )


def _stabilizer_chain(n: int, gens: tuple[MatTuple, ...], cap: int) -> Chain:
    """Inverse transversal {v: u_v^-1} of the orbit G.e1, and Stab(e1) by keys.

    u_v maps e1 to v.  Each orbit edge v -> w = g.v gives the Schreier
    generator u_w^-1 g u_v of Stab(e1); its first column is e1, so only the
    second one is computed.  A generator that is not yet a member is kept
    and the stabilizer is re-closed.  Raises CapExceeded once the orbit and
    the stabilizer together would hold more than `cap` entries.
    """
    one = 1 % n
    e1 = (one, 0)
    column = {e1: (0, one)}  # second column of u_v
    inverse = {e1: (one, 0, 0, one)}
    stab = {(0, one)}
    stab_gens: list[StabKey] = []
    queue = [e1]
    for v in queue:
        x0, x1 = v
        y0, y1 = column[v]
        for ga, gb, gc, gd in gens:
            w = ((ga * x0 + gb * x1) % n, (gc * x0 + gd * x1) % n)
            p = (ga * y0 + gb * y1) % n
            q = (gc * y0 + gd * y1) % n
            t = inverse.get(w)
            if t is None:
                if len(inverse) + len(stab) >= cap:
                    raise CapExceeded(cap, len(inverse) + len(stab) + 1)
                column[w] = (p, q)
                inverse[w] = inv_raw((w[0], p, w[1], q), n)
                queue.append(w)
                continue
            ia, ib, ic, id_ = t
            key = ((ia * p + ib * q) % n, (ic * p + id_ * q) % n)
            if key not in stab:
                stab_gens.append(key)
                _dimino_extend(n, stab, stab_gens, cap, len(inverse))
    return inverse, stab


def _dimino_extend(
    n: int, stab: set[StabKey], stab_gens: list[StabKey], cap: int, stored: int
) -> None:
    """Close the subgroup `stab` under `stab_gens`, one right coset at a time.

    The right cosets H r of the old group H are reached by multiplying known
    representatives by every generator, and each new coset is added whole.
    `stored` entries held elsewhere count against `cap` too.
    """
    old = list(stab)
    reps = [(0, 1 % n)]
    for rb, rd in reps:
        for gb, gd in stab_gens:
            xb, xd = (gb + rb * gd) % n, (rd * gd) % n
            if (xb, xd) in stab:
                continue
            found = stored + len(stab) + len(old)
            if found > cap:
                raise CapExceeded(cap, found)
            reps.append((xb, xd))
            stab.update([((xb + hb * xd) % n, (hd * xd) % n) for hb, hd in old])


class MatGroup:
    """Subgroup of GL2(Z/nZ): lazily built stabilizer chain and element set."""

    def __init__(self, mod: Modulus, gens: list[MatTuple], cap: int = DEFAULT_CAP):
        self.modulus = mod
        n = mod.n
        raw = []
        for g in gens:
            g = tuple(e % n for e in g)
            inv_raw(g, n)  # invertibility check on every generator
            raw.append(g)
        self._gens: tuple[MatTuple, ...] = tuple(dict.fromkeys(raw))
        self.cap = cap
        self._elements: frozenset[MatTuple] | None = None
        self._chain: Chain | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_elements(cls, n: int, elements, cap: int = DEFAULT_CAP) -> "MatGroup":
        """Group on a given element set, with a greedy generating subset.

        The elements are scanned in sorted order and each one that is not in
        the span of those kept so far is kept.  Raises ValueError unless the
        set is a subgroup.
        """
        els = frozenset(tuple(e % n for e in x) for x in elements)
        grp = cls(modulus(n), [], cap)
        for x in sorted(els):
            if not grp.contains(x):
                grp = cls(modulus(n), [*grp._gens, x], cap)
        if grp.order != len(els):
            raise ValueError("element set is not closed under the group operation")
        grp._elements = els
        return grp

    # -- basic accessors ----------------------------------------------------

    @property
    def generators(self) -> tuple[Mat2ModN, ...]:
        return tuple(Mat2ModN(self.modulus, *g) for g in self._gens)

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
        inverse, stab = self._get_chain()
        return len(inverse) * len(stab)

    def elements(self) -> frozenset[MatTuple]:
        if self._elements is None:
            self._elements = _bfs_closure(self.modulus.n, list(self._gens), self.cap)
        return self._elements

    def contains(self, A) -> bool:
        """Membership by sifting: A e1 must lie in the orbit G.e1, and
        u^-1 A (u from the transversal) in Stab(e1)."""
        n = self.modulus.n
        a, b, c, d = A.entries if isinstance(A, Mat2ModN) else (e % n for e in A)
        inverse, stab = self._get_chain()
        t = inverse.get((a, c))
        if t is None:
            return False
        ia, ib, ic, id_ = t
        return ((ia * b + ib * d) % n, (ic * b + id_ * d) % n) in stab

    def __repr__(self):
        order = self.order if self._chain is not None else "?"
        return f"MatGroup(mod {self.modulus.n}, {len(self._gens)} gens, order {order})"


# -- public operations --------------------------------------------------------


def closure(generators, n: int | None = None, cap: int = DEFAULT_CAP) -> MatGroup:
    """Materialize the subgroup generated by `generators` (Mat2ModN or tuples)."""
    gens = list(generators)
    if n is None:
        if not gens or not isinstance(gens[0], Mat2ModN):
            raise ValueError("modulus required when generators are not Mat2ModN")
        n = gens[0].modulus.n
    raw = []
    for g in gens:
        if isinstance(g, Mat2ModN):
            if g.modulus.n != n:
                raise ModulusMismatch(f"generator modulus {g.modulus.n} != {n}")
            raw.append(g.entries)
        else:
            raw.append(tuple(g))
    grp = MatGroup(modulus(n), raw, cap)
    grp.elements()
    return grp


def project(G: MatGroup, m: int) -> MatGroup:
    """Image of G under reduction mod m (m | n)."""
    n = G.modulus.n
    if m < 1 or n % m != 0:
        raise ModulusMismatch(f"{m} does not divide {n}")
    if m == n:
        return G
    reduced = [tuple(e % m for e in g) for g in G._gens]
    out = MatGroup(modulus(m), reduced, G.cap)
    if G.is_materialized:
        out._elements = frozenset(tuple(e % m for e in x) for x in G.elements())
    return out


def kernel_of_projection(G: MatGroup, m: int) -> MatGroup:
    """Subgroup {g in G : g = I mod m}, materialized."""
    n = G.modulus.n
    if m < 1 or n % m != 0:
        raise ModulusMismatch(f"{m} does not divide {n}")
    ident_m = (1 % m, 0, 0, 1 % m)
    kernel = frozenset(x for x in G.elements() if tuple(e % m for e in x) == ident_m)
    return MatGroup.from_elements(n, kernel, G.cap)


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


def is_full_preimage(G: MatGroup, m: int) -> bool:
    """True iff G mod n is the full preimage of its own reduction mod m:
    its kernel down to m is all of ker(GL2(n) -> GL2(m))."""
    return kernel_order(G, m) == gl2_order(G.modulus.n) // gl2_order(m)


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
    gens: list[MatTuple] = [tuple(int(e) for e in g) for g in base.raw_generators]
    # The congruence kernel {I + mX} is L*D*U: every (1,1) entry 1 + m*x is a
    # unit because Supp(n) = Supp(m).  So I + m*E21, I + m*E12 and the
    # diagonals diag(u, 1), diag(1, u) with u = 1 mod m generate it.
    gens += [(1, m, 0, 1), (1, 0, m, 1)]
    for u in unit_group_generators(n, m):
        gens += [(u, 0, 0, 1), (1, 0, 0, u)]
    return MatGroup(modulus(n), gens, cap)


def crt_product(left: MatGroup, right: MatGroup, cap: int = DEFAULT_CAP) -> MatGroup:
    """Direct product of groups with coprime moduli, as one group mod n1*n2."""
    n1, n2 = left.modulus.n, right.modulus.n
    if gcd(n1, n2) != 1:
        raise NonCoprimeModuli(f"moduli {n1} and {n2} share a prime")
    n = n1 * n2
    i1, i2 = identity(n1), identity(n2)
    gens = [crt_join((Mat2ModN(left.modulus, *g), i2)).entries for g in left.raw_generators]
    gens += [crt_join((i1, Mat2ModN(right.modulus, *g))).entries for g in right.raw_generators]
    return MatGroup(modulus(n), gens, cap)


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

PairTuple = tuple[MatTuple, MatTuple]


@dataclass(frozen=True)
class GoursatData:
    """Kernel pair and coset graph of a subgroup of a direct product.

    For H <= G x G' with surjective projections: `left_kernel` is
    N' = ker(H -> G') viewed inside G, `right_kernel` is N = ker(H -> G)
    viewed inside G', and `graph_pairs` is the induced bijection between
    cosets of N' in G and cosets of N in G' (canonical minimal
    representatives, sorted on the left entry).
    """

    left_image: MatGroup
    right_image: MatGroup
    left_kernel: MatGroup
    right_kernel: MatGroup
    common_quotient_order: int
    graph_pairs: tuple[tuple[Mat2ModN, Mat2ModN], ...]


def _goursat_from_pairs(
    n1: int,
    n2: int,
    pair_elements: frozenset[PairTuple],
    gen_pairs: list[PairTuple],
    cap: int,
) -> GoursatData:
    i1 = (1 % n1, 0, 0, 1 % n1)
    i2 = (1 % n2, 0, 0, 1 % n2)
    g_els = frozenset(x for x, _ in pair_elements)
    gp_els = frozenset(y for _, y in pair_elements)
    nprime_els = frozenset(x for x, y in pair_elements if y == i2)  # N' <| G
    n_els = frozenset(y for x, y in pair_elements if x == i1)  # N <| G'
    q_left = len(g_els) // len(nprime_els)
    q_right = len(gp_els) // len(n_els)
    if q_left != q_right:
        raise ValueError("projections are not surjective onto compatible quotients")

    def coset_label(x: MatTuple, kernel: frozenset[MatTuple], n: int) -> MatTuple:
        return min(mul_raw(x, k, n) for k in kernel)

    label_cache_l: dict[MatTuple, MatTuple] = {}
    label_cache_r: dict[MatTuple, MatTuple] = {}
    graph: dict[MatTuple, MatTuple] = {}
    for x, y in pair_elements:
        lx = label_cache_l.get(x)
        if lx is None:
            lx = label_cache_l[x] = coset_label(x, nprime_els, n1)
        ly = label_cache_r.get(y)
        if ly is None:
            ly = label_cache_r[y] = coset_label(y, n_els, n2)
        prev = graph.get(lx)
        if prev is None:
            graph[lx] = ly
        elif prev != ly:
            raise ValueError("coset pairing is not well defined")
    if len(graph) != q_left or len(set(graph.values())) != q_left:
        raise ValueError("coset pairing is not a bijection")
    # homomorphism property spot-checked on generator pairs
    for x1, y1 in gen_pairs:
        for x2, y2 in gen_pairs:
            lx = coset_label(mul_raw(x1, x2, n1), nprime_els, n1)
            ly = coset_label(mul_raw(y1, y2, n2), n_els, n2)
            if graph[lx] != ly:
                raise ValueError("coset pairing does not respect the group operation")

    m1, m2 = modulus(n1), modulus(n2)
    pairs = tuple(
        (Mat2ModN(m1, *lx), Mat2ModN(m2, *ly)) for lx, ly in sorted(graph.items())
    )
    return GoursatData(
        left_image=MatGroup.from_elements(n1, g_els, cap),
        right_image=MatGroup.from_elements(n2, gp_els, cap),
        left_kernel=MatGroup.from_elements(n1, nprime_els, cap),
        right_kernel=MatGroup.from_elements(n2, n_els, cap),
        common_quotient_order=q_left,
        graph_pairs=pairs,
    )


def goursat(H: MatGroup, a: int, b: int) -> GoursatData:
    """Goursat data of H <= GL2(Z/abZ) split along coprime a, b (ab = n)."""
    n = H.modulus.n
    if a * b != n:
        raise NonCoprimeModuli(f"{a}*{b} != {n}")
    if gcd(a, b) != 1:
        raise NonCoprimeModuli(f"{a} and {b} are not coprime")
    pair_elements = frozenset(
        (tuple(e % a for e in x), tuple(e % b for e in x)) for x in H.elements()
    )
    gen_pairs = [
        (tuple(e % a for e in g), tuple(e % b for e in g)) for g in H.raw_generators
    ]
    return _goursat_from_pairs(a, b, pair_elements, gen_pairs, H.cap)


def goursat_product(gen_pairs, cap: int = DEFAULT_CAP) -> GoursatData:
    """Goursat data of the subgroup of GL2(Z/n1) x GL2(Z/n2) generated by pairs.

    Accepts the external direct-product form, so n1 = n2 is allowed
    (e.g. the diagonal subgroup of GL2(Z/5) x GL2(Z/5)).
    """
    pairs = list(gen_pairs)
    if not pairs:
        raise ValueError("at least one generator pair required")
    raw = []
    for x, y in pairs:
        rx = x.entries if isinstance(x, Mat2ModN) else tuple(x)
        ry = y.entries if isinstance(y, Mat2ModN) else tuple(y)
        raw.append((rx, ry))
    first = pairs[0]
    if not (isinstance(first[0], Mat2ModN) and isinstance(first[1], Mat2ModN)):
        raise ValueError("generator pairs must be Mat2ModN instances")
    n1 = first[0].modulus.n
    n2 = first[1].modulus.n
    elements = _closure(
        ((1 % n1, 0, 0, 1 % n1), (1 % n2, 0, 0, 1 % n2)),
        raw,
        lambda x, g: (mul_raw(x[0], g[0], n1), mul_raw(x[1], g[1], n2)),
        lambda g: (inv_raw(g[0], n1), inv_raw(g[1], n2)),
        cap,
    )
    return _goursat_from_pairs(n1, n2, elements, raw, cap)


# -- group files --------------------------------------------------------------


def group_to_dict(G: MatGroup) -> dict:
    return {
        "modulus": G.modulus.n,
        "generators": [list(g) for g in G.raw_generators],
    }


def group_from_dict(data: dict, cap: int = DEFAULT_CAP) -> MatGroup:
    """Group from its file form; the modulus and every entry must be integers."""
    try:
        n = json_typed(data["modulus"], int, "modulus")
        gens = [
            tuple(json_typed(e, int, f"generators[{i}][{j}]") for j, e in enumerate(g))
            for i, g in enumerate(data["generators"])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed group file: {exc}") from exc
    if n < 1:
        raise ValueError(f"malformed group file: modulus {n} < 1")
    for g in gens:
        if len(g) != 4:
            raise ValueError(f"malformed group file: generator {g} needs 4 entries")
    return MatGroup(modulus(n), gens, cap)


def load_group(path: str, cap: int = DEFAULT_CAP) -> MatGroup:
    with open(path) as fh:
        return group_from_dict(json.load(fh), cap)


def save_group(G: MatGroup, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(group_to_dict(G), fh, sort_keys=True)
        fh.write("\n")
