"""Numerical invariants of the modular curves X_1(N).

The PSL2 index mu(N) is the total degree of X_1(N) -> X(1); the gonality
lower bound is (7/800) * mu(N) (a bound over C, applied to the Q-gonality),
and the handful of exactly known Q-gonalities ships as a data table with
source tags.  Everything is exact integer or Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .modarith import divisors, euler_phi, exact_order_vector_count

GONALITY_BOUND_FACTOR = Fraction(7, 800)

# Known Q-gonalities of X_1(N): external data, not computed here.
KNOWN_GONALITY: dict[int, tuple[int, str]] = {
    11: (2, "hyperelliptic"),
    13: (2, "hyperelliptic"),
    16: (2, "genus 2, hence hyperelliptic"),
    17: (4, "Derickx-van Hoeij, Gonality of X_1(N), Table 1"),
    25: (5, "Derickx-van Hoeij, Gonality of X_1(N), Table 1"),
    32: (8, "Derickx-van Hoeij, Gonality of X_1(N), Table 1"),
    37: (18, "Derickx-van Hoeij, Gonality of X_1(N), Table 1"),
}


def psl2_index(N: int) -> int:
    """[PSL2(Z) : image of Gamma_1(N)]: the J_2(N) vectors of exact order N,
    paired up by -1 once N > 2."""
    if N < 1:
        raise ValueError(f"level must be positive, got {N}")
    count = exact_order_vector_count(N, N)
    return count // 2 if N > 2 else count


@dataclass(frozen=True)
class MapDegree:
    """Degree of the natural covering X_1(ab) -> X_1(a), [(E,P)] -> [(E,bP)]."""

    a: int
    b: int
    c_f: Fraction
    degree: int


def map_degree(a: int, b: int) -> MapDegree:
    """Degree c_f * b^2 * prod_{p | b, p !| a}(1 - 1/p^2), c_f = 1/2 iff a <= 2 < ab:
    mu(ab) / mu(a) along the tower X_1(ab) -> X_1(a) -> X(1)."""
    if a < 1 or b < 1:
        raise ValueError("levels must be positive")
    c_f = Fraction(1, 2) if (a <= 2 and a * b > 2) else Fraction(1)
    return MapDegree(a=a, b=b, c_f=c_f, degree=psl2_index(a * b) // psl2_index(a))


def cusp_count(N: int) -> int:
    """Number of cusps of X_1(N)."""
    if N < 1:
        raise ValueError(f"level must be positive, got {N}")
    if N <= 4:
        return {1: 1, 2: 2, 3: 2, 4: 3}[N]
    total = sum(euler_phi(d) * euler_phi(N // d) for d in divisors(N))
    assert total % 2 == 0
    return total // 2


def genus_x1(N: int) -> int:
    """Genus of X_1(N); 0 for N <= 4, else 1 + mu/12 - cusps/2 (no elliptic points)."""
    if N < 1:
        raise ValueError(f"level must be positive, got {N}")
    if N <= 4:
        return 0
    g = Fraction(1) + Fraction(psl2_index(N), 12) - Fraction(cusp_count(N), 2)
    assert g.denominator == 1 and g >= 0
    return int(g)


def known_gonality(N: int) -> int | None:
    entry = KNOWN_GONALITY.get(N)
    return entry[0] if entry else None


def gonality_lower(N: int) -> Fraction:
    return GONALITY_BOUND_FACTOR * psl2_index(N)


@dataclass(frozen=True)
class CurveInvariants:
    N: int
    psl2_index: int
    genus: int
    cusps: int = field(init=False)
    gonality_lower: Fraction
    known_gonality: int | None
    gonality_source: str | None

    def __post_init__(self):
        object.__setattr__(self, "cusps", cusp_count(self.N))


def curve_invariants(N: int) -> CurveInvariants:
    entry = KNOWN_GONALITY.get(N)
    return CurveInvariants(
        N=N,
        psl2_index=psl2_index(N),
        genus=genus_x1(N),
        gonality_lower=gonality_lower(N),
        known_gonality=entry[0] if entry else None,
        gonality_source=entry[1] if entry else None,
    )


@dataclass(frozen=True)
class FreyCertificate:
    """Finiteness of low-degree points from a gonality bound.

    A curve with infinitely many points of degree <= d has gonality <= 2d,
    so 2d < gonality certifies that X_1(N) has only finitely many closed
    points of degree <= d.
    """

    N: int
    degree: int
    gonality: int
    issued: bool

    @property
    def statement(self) -> str:
        if self.issued:
            return (
                f"X_1({self.N}) has only finitely many closed points of degree <= "
                f"{self.degree} (2*{self.degree} < gonality {self.gonality})"
            )
        return f"no conclusion: 2*{self.degree} >= gonality {self.gonality}"


def frey_gonality_cert(N: int, d: int, gonality: int) -> FreyCertificate:
    return FreyCertificate(N=N, degree=d, gonality=gonality, issued=2 * d < gonality)
