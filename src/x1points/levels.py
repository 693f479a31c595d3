"""Level detection and composition for open subgroups given at finite level.

A group G known mod l^(s+1) whose congruence kernel down to l^s is full
(all l^4 cosets) is certified to be the full preimage of its mod-l^s
reduction at every higher stage; that is the entire content of the
detection step, checked here by order bookkeeping.  "Level" is handled as
a divisibility certificate plus a separate minimization pass over divisors.

Claims about the profinite group are always conditional on the supplied
finite truncation representing it faithfully; the kernel check makes the
l-adic statement unconditional once it holds at one admissible stage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import HypothesisFailed, StageTooLow
from .matgroup import MatGroup, is_full_preimage, kernel_order, project
from .modarith import divisors, gl2_order, is_prime, valuation

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


@dataclass(frozen=True)
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


def detect_ladic_level(G: MatGroup, s: int | None = None) -> LadicDetection:
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
    kernel = kernel_order(project(G, ell ** (s + 1)), ell**s)
    full = ell**4
    return LadicDetection(
        prime=ell,
        stage=s,
        kernel_order=kernel,
        full_kernel=full,
        certified=kernel == full,
    )


def minimize_level(G: MatGroup) -> int:
    """Smallest divisor M of n with G = full preimage of G mod M."""
    for m in divisors(G.modulus.n):
        if is_full_preimage(G, m):
            return m
    raise AssertionError("unreachable: m = n always passes")


@dataclass(frozen=True)
class PrimeEvidence:
    prime: int
    exponent: int
    checked_modulus: int
    target_modulus: int
    kernel_order: int
    full_kernel: int


@dataclass(frozen=True)
class LevelCertificate:
    """Certified statement: the group is the full preimage of its mod-M reduction.

    `prime_powers` lists (l, t_l) with M = prod l^t_l; `evidence` records the
    per-prime full-preimage checks on the mixed moduli followed by one record
    with prime 0 for the direct composite order check down to M.
    """

    prime_powers: tuple[tuple[int, int], ...]
    level: int
    evidence: tuple[PrimeEvidence, ...]

    def __post_init__(self):
        m = 1
        for ell, t in self.prime_powers:
            m *= ell**t
        assert m == self.level

    def to_dict(self) -> dict:
        return asdict(self)


def compose_level(G: MatGroup, stages: dict[int, int]) -> LevelCertificate:
    """Combine certified per-prime stages {l: t_l} into M = prod l^t_l.

    G must be available mod prod l^(t_l+1) (larger moduli are projected
    down).  For each prime the full-preimage hypothesis is checked on the
    mixed modulus (only that prime's exponent lowered); a failure raises
    HypothesisFailed naming the prime.  The composite statement is then
    verified directly by order bookkeeping.
    """

    if not stages:
        raise ValueError("at least one prime stage required")
    check_mod = 1
    for ell, t in stages.items():
        # t >= 1 suffices here; the s0 floor belongs to the kernel-equality
        # detection step, not to composition of already-certified exponents.
        if t < 1:
            raise StageTooLow(f"stage {t} below 1 for prime {ell}")
        check_mod *= ell ** (t + 1)
    if G.modulus.n % check_mod != 0:
        raise ValueError(f"group modulus {G.modulus.n} is not divisible by {check_mod}")
    G = project(G, check_mod)
    level = 1
    evidence = []
    for ell, t in sorted(stages.items()):
        level *= ell**t
        mixed = check_mod // ell
        # full preimage iff the kernel down to `mixed` is the whole congruence
        # kernel, of order ell^4 since ell still divides `mixed`
        kernel = kernel_order(G, mixed)
        if kernel != ell**4:
            raise HypothesisFailed(
                ell, f"G mod {check_mod} is not the full preimage of G mod {mixed}"
            )
        evidence.append(
            PrimeEvidence(
                prime=ell,
                exponent=t,
                checked_modulus=check_mod,
                target_modulus=mixed,
                kernel_order=kernel,
                full_kernel=ell**4,
            )
        )
    # composite conclusion, verified directly rather than trusted
    kernel = kernel_order(G, level)
    full_kernel = gl2_order(check_mod) // gl2_order(level)
    if kernel != full_kernel:
        raise HypothesisFailed(0, f"composite full-preimage check failed at M={level}")
    evidence.append(
        PrimeEvidence(
            prime=0,
            exponent=max(t for t in stages.values()),
            checked_modulus=check_mod,
            target_modulus=level,
            kernel_order=kernel,
            full_kernel=full_kernel,
        )
    )
    return LevelCertificate(
        prime_powers=tuple(sorted((ell, t) for ell, t in stages.items())),
        level=level,
        evidence=tuple(evidence),
    )


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
