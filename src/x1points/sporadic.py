"""Sporadic-point certificates: the lifting criterion, pushforward degree
bookkeeping, and the CM construction arithmetic.

All thresholds are exact rationals so the strict inequalities in the
certificates are bit-exact.  The lifting criterion is sufficient only:
a certificate is either issued or Inconclusive, never "not sporadic".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curveinv import map_degree, psl2_index
from .errors import PreconditionFailed
from .modarith import is_prime
from .orbits import DegreeSpectrum

LIFTING_FACTOR = Fraction(7, 1600)

ISSUED = "SporadicAllLiftsSporadic"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PushforwardReport:
    """One orbit upstairs against its image orbit under X_1(n) -> X_1(a)."""

    upstairs_rep: tuple[int, int]
    downstairs_rep: tuple[int, int]
    upstairs_degree: int
    downstairs_degree: int
    map_degree: int
    multiplicative: bool  # deg(x) = deg(f) * deg(f(x)); sporadicity transfers


def pushforward_degree_check(
    spectrum_n: DegreeSpectrum, spectrum_a: DegreeSpectrum
) -> tuple[PushforwardReport, ...]:
    """Match each orbit of the mod-n spectrum with its image mod a (a | n).

    The spectra must come from a group G mod n and its projection mod a,
    with the same field degree.  An orbit with `multiplicative` True has
    maximal degree growth, so a sporadic point in it pushes forward to a
    sporadic point downstairs.
    """
    n, a = spectrum_n.modulus, spectrum_a.modulus
    if n % a != 0:
        raise ValueError(f"{a} does not divide {n}")
    if spectrum_n.field_degree != spectrum_a.field_degree:
        raise ValueError("spectra have different field degrees")
    b = n // a
    deg_f = map_degree(a, b).degree
    out = []
    for rec in spectrum_n.records:
        rep = rec.representative
        # coordinates of bP in E[a]: reduce P mod a (see max_growth_check)
        image = (rep.x % a, rep.y % a)
        drec = spectrum_a.record_of(image)
        out.append(
            PushforwardReport(
                upstairs_rep=rep.entries,
                downstairs_rep=drec.representative.entries,
                upstairs_degree=rec.degree,
                downstairs_degree=drec.degree,
                map_degree=deg_f,
                multiplicative=rec.degree == deg_f * drec.degree,
            )
        )
    return tuple(out)


# -- CM construction ----------------------------------------------------------

# Class numbers of imaginary quadratic orders by discriminant, |D| <= 100.
# Shipped data; the test suite re-derives it by counting reduced primitive
# positive definite binary quadratic forms.
CM_CLASS_NUMBERS: dict[int, int] = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -12: 1, -15: 2, -16: 1, -19: 1,
    -20: 2, -23: 3, -24: 2, -27: 1, -28: 1, -31: 3, -32: 2, -35: 2, -36: 2,
    -39: 4, -40: 2, -43: 1, -44: 3, -47: 5, -48: 2, -51: 2, -52: 2, -55: 4,
    -56: 4, -59: 3, -60: 2, -63: 4, -64: 2, -67: 1, -68: 4, -71: 7, -72: 2,
    -75: 2, -76: 3, -79: 5, -80: 4, -83: 3, -84: 4, -87: 6, -88: 2, -91: 2,
    -92: 3, -95: 8, -96: 4, -99: 2, -100: 2,
}


@dataclass(frozen=True)
class CmOrder:
    """An order in an imaginary quadratic field: discriminant, class number,
    unit count (6 only for discriminant -3, 4 only for -4, else 2)."""

    discriminant: int
    class_number: int
    unit_count: int

    def __post_init__(self):
        D = self.discriminant
        if D >= 0 or D % 4 not in (0, 1):
            raise ValueError(f"not a valid imaginary quadratic discriminant: {D}")
        expected_w = 6 if D == -3 else 4 if D == -4 else 2
        if self.unit_count != expected_w:
            raise ValueError(f"unit count for discriminant {D} must be {expected_w}")
        if self.class_number < 1:
            raise ValueError("class number must be positive")


def cm_order(discriminant: int, class_number: int | None = None) -> CmOrder:
    """CmOrder with the class number from the shipped table when omitted.

    An explicit class number must agree with the table where it has an entry.
    """
    shipped = CM_CLASS_NUMBERS.get(discriminant)
    if class_number is None:
        if shipped is None:
            raise ValueError(
                f"no shipped class number for discriminant {discriminant}; pass one explicitly"
            )
        class_number = shipped
    elif shipped is not None and class_number != shipped:
        raise ValueError(
            f"class number {class_number} contradicts the shipped "
            f"h({discriminant}) = {shipped}"
        )
    w = 6 if discriminant == -3 else 4 if discriminant == -4 else 2
    return CmOrder(discriminant=discriminant, class_number=class_number, unit_count=w)


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def splits(O: CmOrder, ell: int) -> bool:
    """Whether the prime ell splits: Kronecker symbol of the discriminant is +1."""
    if O.discriminant % ell == 0:
        return False
    if ell == 2:
        return O.discriminant % 8 == 1
    return legendre_symbol(O.discriminant, ell) == 1


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
