"""Level detection and composition for open subgroups given at finite level.

A group G known mod l^(s+1) whose congruence kernel down to l^s is full
(all l^4 cosets) is certified to be the full preimage of its mod-l^s
reduction at every higher stage; that is the entire content of the
detection step.  Detection, minimization and composition all ask whether a
kernel is full by a membership test of the congruence kernel's generators
in G's own chain (`matgroup.is_full_preimage`).  A certified detection
reports the full kernel order l^4; only an uncertified one reads the kernel
order off the quotient of the orders of G mod l^(s+1) and G mod l^s, and so
builds the chain mod l^s.  "Level" is handled as a divisibility certificate
plus a minimization that finds the level's exponent one prime at a time.

Claims about the profinite group are always conditional on the supplied
finite truncation representing it faithfully; the kernel check makes the
l-adic statement unconditional once it holds at one admissible stage.
"""

from __future__ import annotations

# The package registers each layer lazily, so this binds `matgroup` without
# running it: `tables` and `level-bound` build no group and never load it.
from . import matgroup
from .errors import HypothesisFailed, StageTooLow, record
from .modarith import gl2_order, is_prime, valuation

# Smallest single-prime levels M_1({l}) of l-adic images of non-CM elliptic
# curves over Q, assuming no l-adic level exceeds 169 for 2 < l <= 37.
M1_LEVELS: dict[int, int] = {
    2: 2**5,
    3: 3**4,
    5: 5**3,
    7: 7**2,
    11: 11**2,
    13: 13**2,
    17: 17,
    37: 37,
}

# Orders of the exceptional mod-l images at 17 and 37 (Borel-type images of
# the finitely many known curves; used in place of the full GL2 order).
SPECIAL_IMAGE_ORDERS: dict[int, int] = {
    17: 2**6 * 17,
    37: 2**4 * 3**3 * 37,
}


def minimal_stage(ell: int) -> int:
    """Smallest admissible detection stage: 1 for odd primes, 2 for l = 2."""
    return 2 if ell == 2 else 1


@record
class LadicDetection:
    """Outcome of the congruence-kernel check at one stage.

    `certified` means |ker(G mod l^(s+1) -> G mod l^s)| = l^4, hence the
    l-adic group is the full preimage of its mod-l^s reduction and its
    level divides l^s.  `certified=False` is an inconclusive value, not an
    error: the kernel was smaller than full at this stage.
    """

    prime: int
    stage: int
    kernel_order: int
    full_kernel: int
    certified: bool

    @property
    def level_bound(self) -> int | None:
        return self.prime**self.stage if self.certified else None


def detect_ladic_level(G: matgroup.MatGroup, s: int | None = None) -> LadicDetection:
    """Kernel-size check for G given mod l^(s+1) (prime-power modulus)."""
    fac = G.modulus.factorization
    if len(fac) != 1:
        raise ValueError(f"modulus {G.modulus.n} is not a prime power")
    ell, e = fac[0]
    if s is None:
        s = e - 1
    s0 = minimal_stage(ell)
    if s < s0:
        raise StageTooLow(f"stage {s} below minimum {s0} for prime {ell}")
    if s + 1 > e:
        raise ValueError(f"stage {s} needs the group mod {ell}^{s + 1}, have {ell}^{e}")
    part, full = matgroup.project(G, ell ** (s + 1)), ell**4
    # a full kernel is all of ker(GL2(l^(s+1)) -> GL2(l^s)): no chain mod l^s
    certified = matgroup.is_full_preimage(part, ell**s)
    return LadicDetection(
        prime=ell,
        stage=s,
        kernel_order=full if certified else matgroup.kernel_order(part, ell**s),
        full_kernel=full,
        certified=certified,
    )


def minimize_level(G: matgroup.MatGroup) -> int:
    """Smallest M | n with G = full preimage of G mod M, found per prime: t_l
    is the least t for which (n / l^e) l^t passes (l^e || n), and M = prod l^t_l.
    By CRT ker(n -> m1) ker(n -> m2) = ker(n -> gcd(m1, m2)), so the m that pass
    are the multiples of M.  m = n is never asked: at most sum(e_l) rounds."""
    n, level = G.modulus.n, 1
    for ell, e in G.modulus.factorization:
        passing = (t for t in range(e) if matgroup.is_full_preimage(G, n // ell ** (e - t)))
        level *= ell ** next(passing, e)
    return level


@record
class PrimeEvidence:
    prime: int
    exponent: int
    checked_modulus: int
    target_modulus: int
    kernel_order: int
    full_kernel: int


@record
class LevelCertificate:
    """Certified statement: the group is the full preimage of its mod-M reduction.

    `prime_powers` lists (l, t_l) with M = prod l^t_l; `evidence` records the
    per-prime full-preimage checks on the mixed moduli followed by one record
    with prime 0 for the composite statement down to M (implied, not re-checked).
    """

    prime_powers: tuple[tuple[int, int], ...]
    level: int
    evidence: tuple[PrimeEvidence, ...]

    def __post_init__(self):
        m = 1
        for ell, t in self.prime_powers:
            m *= ell**t
        assert m == self.level


def compose_level(G: matgroup.MatGroup, stages: dict[int, int]) -> LevelCertificate:
    """Combine certified per-prime stages {l: t_l} into M = prod l^t_l.

    Every key must be a prime (ValueError otherwise).  G must be available
    mod prod l^(t_l+1) (larger moduli are projected down).  For each prime
    the full-preimage hypothesis is checked on the mixed modulus (only that
    prime's exponent lowered); a failure raises HypothesisFailed naming the
    prime.  By CRT these imply the composite statement down to M, which is not
    checked again.  Each check is a membership test in the chain of G mod prod
    l^(t_l+1), so a record's `kernel_order` is the full kernel order it certifies.
    """

    if not stages:
        raise ValueError("at least one prime stage required")
    check_mod = 1
    for ell, t in stages.items():
        if not is_prime(ell):
            raise ValueError(f"stage key {ell} is not a prime")
        # t >= 1 suffices here; the s0 floor belongs to the kernel-equality
        # detection step, not to composition of already-certified exponents.
        if t < 1:
            raise StageTooLow(f"stage {t} below 1 for prime {ell}")
        check_mod *= ell ** (t + 1)
    if G.modulus.n % check_mod != 0:
        raise ValueError(f"group modulus {G.modulus.n} is not divisible by {check_mod}")
    G = matgroup.project(G, check_mod)
    level = 1
    evidence = []
    for ell, t in sorted(stages.items()):
        level *= ell**t
        mixed = check_mod // ell
        # the congruence kernel down to `mixed` has order ell^4, since ell
        # still divides `mixed`
        if not matgroup.is_full_preimage(G, mixed):
            raise HypothesisFailed(
                ell, f"G mod {check_mod} is not the full preimage of G mod {mixed}"
            )
        evidence.append(
            PrimeEvidence(
                prime=ell,
                exponent=t,
                checked_modulus=check_mod,
                target_modulus=mixed,
                kernel_order=ell**4,
                full_kernel=ell**4,
            )
        )
    full_kernel = gl2_order(check_mod) // gl2_order(level)
    evidence.append(
        PrimeEvidence(
            prime=0,
            exponent=max(t for t in stages.values()),
            checked_modulus=check_mod,
            target_modulus=level,
            kernel_order=full_kernel,
            full_kernel=full_kernel,
        )
    )
    return LevelCertificate(
        prime_powers=tuple(sorted((ell, t) for ell, t in stages.items())),
        level=level,
        evidence=tuple(evidence),
    )


@record
class BoundInput:
    """Inputs to the valuation bound on the level of a multi-prime image.

    `image_orders` maps each prime l' to the order of the mod-l' image
    (defaults to #GL2(Z/l'Z)); `m1` maps l to the single-prime level
    M_1({l}); `tau` optionally overrides the carry term per prime.
    """

    primes: frozenset[int]
    m1: dict[int, int]
    image_orders: dict[int, int]
    tau: dict[int, int]

    @classmethod
    def build(
        cls,
        primes,
        image_orders: dict[int, int] | None = None,
        tau: dict[int, int] | None = None,
    ) -> "BoundInput":
        """Each override names a prime of the set; an image order is a positive
        divisor of #GL2(Z/lZ) and a tau is non-negative."""
        ps = frozenset(int(p) for p in primes)
        composite = sorted(p for p in ps if not is_prime(p))
        if composite:
            raise ValueError(f"prime set must contain only primes, got {composite}")
        image_orders, tau = dict(image_orders or {}), dict(tau or {})
        for name, overrides in (("image order", image_orders), ("tau", tau)):
            for p, value in overrides.items():
                if p not in ps:
                    raise ValueError(f"{name} override {p}={value}: {p} is not in the prime set")
        for p, order in image_orders.items():
            if order < 1 or gl2_order(p) % order:
                raise ValueError(
                    f"image order override {p}={order} is not a positive divisor of "
                    f"#GL2(Z/{p}Z) = {gl2_order(p)}"
                )
        for p, t in tau.items():
            if t < 0:
                raise ValueError(f"tau override {p}={t} is negative")
        m1 = {p: M1_LEVELS[p] for p in ps if p in M1_LEVELS}
        orders = {p: gl2_order(p) for p in ps} | image_orders
        return cls(primes=ps, m1=m1, image_orders=orders, tau=tau)


def level_bound(B: BoundInput, ell: int) -> int:
    """Bound on v_ell of the level: max(v_ell(M_1({ell})), v_ell(2*ell)) + tau.

    tau defaults to the sum over the other primes of v_ell of their image
    orders, which is at most v_ell(#GL2 of their product modulus).
    """
    if ell not in B.primes:
        raise ValueError(f"{ell} is not in the prime set {sorted(B.primes)}")
    if ell not in B.m1:
        raise ValueError(f"no single-prime level known for {ell}")
    tau = B.tau.get(ell)
    if tau is None:
        tau = sum(valuation(B.image_orders[p], ell) for p in B.primes if p != ell)
    base = max(valuation(B.m1[ell], ell), valuation(2 * ell, ell))
    return base + tau


@record
class ClassificationRow:
    p: int
    a_p: int
    b_p: int
    p_power_cap: int


CLASSIFICATION_PRIMES = (1, 5, 7, 11, 13, 17, 37)


def classification_table() -> tuple[ClassificationRow, ...]:
    """Exponent bounds (a_p, b_p) on 2^a 3^b p^c levels, one row per p.

    Derived entirely from level_bound with the M_1({l}) data, GL2 orders,
    and the special image orders at 17 and 37.
    """
    rows = []
    for p in CLASSIFICATION_PRIMES:
        primes = {2, 3} | ({p} if p != 1 else set())
        overrides = {q: SPECIAL_IMAGE_ORDERS[q] for q in primes if q in SPECIAL_IMAGE_ORDERS}
        B = BoundInput.build(primes, image_orders=overrides)
        cap = 1 if p == 1 else min(M1_LEVELS[p], 169)
        rows.append(
            ClassificationRow(
                p=p,
                a_p=level_bound(B, 2),
                b_p=level_bound(B, 3),
                p_power_cap=cap,
            )
        )
    return tuple(rows)
