"""Sporadic-point certificates: the lifting criterion and the CM
construction arithmetic.  Degree growth along X_1(n) -> X_1(a), which
pushes a sporadic point down, is checked by `orbits.max_growth_check`.

All thresholds are exact rationals so the strict inequalities in the
certificates are bit-exact.  The lifting criterion is sufficient only:
a certificate is either issued or Inconclusive, never "not sporadic".
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .curveinv import map_degree, psl2_index
from .errors import PreconditionFailed, record
from .modarith import is_prime

LIFTING_FACTOR = Fraction(7, 1600)

ISSUED = "SporadicAllLiftsSporadic"
INCONCLUSIVE = "Inconclusive"


@record
class SporadicCertificate:
    """Outcome of the degree-vs-index criterion for a point of degree d on X_1(N).

    Issued iff d < (7/1600) * mu(N) strictly (which forces N > 2); the
    certificate then asserts that the point is sporadic and that every lift
    to every X_1(mN) is sporadic, via the chain
    deg(y) <= d * deg(X_1(mN) -> X_1(N)) < (7/1600) * mu(mN).
    """

    N: int
    degree: int
    threshold: Fraction
    margin: Fraction
    verdict: str
    chain: tuple[str, ...]

    @property
    def issued(self) -> bool:
        return self.verdict == ISSUED


def lifting_certificate(N: int, d: int) -> SporadicCertificate:
    if N < 1 or d < 1:
        raise ValueError("level and degree must be positive")
    mu = psl2_index(N)
    threshold = LIFTING_FACTOR * mu
    issued = Fraction(d) < threshold and N > 2
    chain = (
        f"mu({N}) = {mu}",
        f"threshold = 7*{mu}/1600 = {threshold}",
        f"deg = {d} {'<' if issued else '>='} threshold",
    )
    if issued:
        chain += (
            "for every m >= 1: deg(lift) <= deg * deg(X_1(mN)->X_1(N))"
            " < (7/1600)*mu(N)*deg(X_1(mN)->X_1(N)) = (7/1600)*mu(mN)",
        )
    return SporadicCertificate(
        N=N,
        degree=d,
        threshold=threshold,
        margin=threshold - d,
        verdict=ISSUED if issued else INCONCLUSIVE,
        chain=chain,
    )


def lift_chain_holds(N: int, d: int, m: int) -> bool:
    """Check d * deg(X_1(mN) -> X_1(N)) < (7/1600) * mu(mN) exactly."""
    return Fraction(d * map_degree(N, m).degree) < LIFTING_FACTOR * psl2_index(N * m)


# -- CM construction ----------------------------------------------------------

# Largest |D| whose forms class_number counts: about 0.1 s at 10^7, 1 s at 10^8.
MAX_CM_DISCRIMINANT = 10**7


def _check_discriminant(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"not a valid imaginary quadratic discriminant: {D} (D < 0, 0 or 1 mod 4)")


def _unit_count(D: int) -> int:
    return 6 if D == -3 else 4 if D == -4 else 2


def class_number(D: int) -> int:
    """h(D) for |D| <= MAX_CM_DISCRIMINANT: the reduced primitive positive definite
    forms (a, b, c), |b| <= a <= c with b >= 0 if |b| = a or a = c, counted over
    b >= 0 and the divisors a of (b^2 - D)/4 with b <= a <= c; (a, -b, c) counts
    too when 0 < b < a < c (Cohen, Computational Algebraic Number Theory, 5.3.5).
    """
    _check_discriminant(D)
    if -D > MAX_CM_DISCRIMINANT:
        raise ValueError(f"discriminant {D} is beyond the limit |D| <= {MAX_CM_DISCRIMINANT}")
    h = 0
    b = D % 2
    while 3 * b * b <= -D:
        q = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= q:
            if q % a == 0 and gcd(gcd(a, b), q // a) == 1:
                h += 1 if b in (0, a) or a * a == q else 2
            a += 1
        b += 2
    return h


@record
class CmOrder:
    """An order in an imaginary quadratic field: discriminant, class number,
    unit count (6 only for discriminant -3, 4 only for -4, else 2)."""

    discriminant: int
    class_number: int
    unit_count: int

    def __post_init__(self):
        D = self.discriminant
        _check_discriminant(D)
        if self.unit_count != _unit_count(D):
            raise ValueError(f"unit count for discriminant {D} must be {_unit_count(D)}")
        if self.class_number < 1:
            raise ValueError("class number must be positive")


def cm_order(discriminant: int, h: int | None = None) -> CmOrder:
    """The order of the given discriminant, its class number counted by
    class_number; an explicit h is a cross-check and must equal the count."""
    counted = class_number(discriminant)
    if h is not None and h != counted:
        raise ValueError(f"class number {h} contradicts h({discriminant}) = {counted}")
    return CmOrder(discriminant, counted, _unit_count(discriminant))


def splits(O: CmOrder, ell: int) -> bool:
    """Whether the prime ell splits: Kronecker symbol of the discriminant is +1
    (Euler's criterion for odd ell)."""
    D = O.discriminant
    if D % ell == 0:
        return False
    if ell == 2:
        return D % 8 == 1
    return pow(D % ell, (ell - 1) // 2, ell) == 1


def cm_threshold(O: CmOrder) -> tuple[Fraction, int]:
    """The prime threshold (6400/7)*(h/w) - 1 and the smallest split prime above it."""
    threshold = Fraction(6400 * O.class_number, 7 * O.unit_count) - 1
    ell = max(2, int(threshold))
    while True:
        ell += 1
        if ell > threshold and is_prime(ell) and splits(O, ell):
            return threshold, ell


def cm_point_degree(O: CmOrder, ell: int) -> tuple[int, SporadicCertificate]:
    """Degree 2h(ell-1)/w of the CM point of order ell, plus its certificate.

    Requires ell prime, split and above the threshold; the resulting
    lifting_certificate is then always issued (the strict inequality
    2h(ell-1)/w < (7/1600)*mu(ell) is equivalent to ell > threshold).
    """
    if not is_prime(ell):
        raise PreconditionFailed(f"{ell} is not prime; the CM point degree needs a prime ell")
    threshold, _ = cm_threshold(O)
    if not splits(O, ell):
        raise PreconditionFailed(f"{ell} does not split for discriminant {O.discriminant}")
    if not Fraction(ell) > threshold:
        raise PreconditionFailed(f"{ell} is not above the threshold {threshold}")
    num = 2 * O.class_number * (ell - 1)
    degree, rem = divmod(num, O.unit_count)
    assert rem == 0, "splitting forces w | 2(ell-1)"
    return degree, lifting_certificate(ell, degree)
