"""Decision tree over a declared Galois-image profile.

A profile lists, per prime, whether the mod-l image is nonsurjective and of
which maximal-subgroup type; the tool never computes a curve's actual image.
Conjectural steps (the surjectivity conjecture at 17 < l != 37, the
prime-power level table) are explicit boolean flags recorded in the verdict
evidence, so conditional conclusions stay visibly conditional.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .curveinv import MapDegree, genus_x1, known_gonality, map_degree
from .errors import InconsistentProfile, field, json_typed, record
from .levels import M1_LEVELS, classification_table
from .modarith import divisors, is_prime, modulus, valuation

IMAGE_TYPES = (
    "borel",
    "normalizer_split",
    "normalizer_nonsplit",
    "exceptional",
    "other",
    "unknown",
)

# Maximal prime-power level of a modular curve with infinitely many rational
# points, per prime.
SZ_MAX_LEVELS: dict[int, int] = {3: 27, 5: 25, 7: 7, 11: 11, 13: 13, 17: 1, 37: 1}

BOREL_37_SPORADIC_J = "-7*11^3"


def sz_table(ell: int) -> int:
    return SZ_MAX_LEVELS[ell]


def m1_table(ell: int) -> int:
    return M1_LEVELS[ell]


@record
class NonsurjectivePrime:
    prime: int
    image_type: str
    level: int | None = None

    def __post_init__(self):
        if self.image_type not in IMAGE_TYPES:
            raise ValueError(f"unknown image type {self.image_type!r}")
        if not is_prime(self.prime):
            raise ValueError(f"not a prime: {self.prime}")
        ell, level = self.prime, self.level
        if level is not None and (level < ell or ell ** valuation(level, ell) != level):
            raise ValueError(f"level must be {ell}^k with k >= 1, got {level}")


@record
class GaloisProfile:
    field_degree: int = 1
    nonsurjective: tuple[NonsurjectivePrime, ...] = ()
    assume_sz: bool = False

    def __post_init__(self):
        if self.field_degree < 1:
            raise ValueError(f"field_degree must be >= 1, got {self.field_degree}")
        seen = set()
        for entry in self.nonsurjective:
            if entry.prime in seen:
                raise InconsistentProfile(f"prime {entry.prime} declared twice")
            seen.add(entry.prime)
        types = {e.prime: e.image_type for e in self.nonsurjective}
        if types.get(17) == "borel" and types.get(37) == "borel":
            raise InconsistentProfile(
                "Borel image at both 17 and 37 is impossible (no curve admits "
                "rational isogenies of both degrees)"
            )

    @property
    def s_set(self) -> frozenset[int]:
        """Primes where the image is known deficient, always including 2 and 3."""
        return frozenset({2, 3} | {e.prime for e in self.nonsurjective})

    def entry(self, ell: int) -> NonsurjectivePrime | None:
        for e in self.nonsurjective:
            if e.prime == ell:
                return e
        return None


# The keys a profile file may use: top level, per nonsurjective entry, flags.
PROFILE_KEYS = frozenset({"field_degree", "nonsurjective", "flags"})
ENTRY_KEYS = frozenset({"prime", "type", "level"})
FLAG_KEYS = frozenset({"assume_sz"})


def _check_keys(data, allowed: frozenset[str], where: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {where} key {unknown[0]!r}; allowed: {', '.join(sorted(allowed))}"
        )


def profile_from_dict(data: dict) -> GaloisProfile:
    """Profile from its file form; integers, booleans, strings and arrays must
    have those JSON types."""
    _check_keys(data, PROFILE_KEYS, "profile")
    raw_entries = json_typed(data.get("nonsurjective", []), list, "nonsurjective")
    for e in raw_entries:
        _check_keys(e, ENTRY_KEYS, "nonsurjective entry")
    entries = tuple(
        NonsurjectivePrime(
            prime=json_typed(e["prime"], int, f"nonsurjective[{i}].prime"),
            image_type=json_typed(e.get("type", "unknown"), str, f"nonsurjective[{i}].type"),
            level=json_typed(e["level"], int, f"nonsurjective[{i}].level")
            if "level" in e
            else None,
        )
        for i, e in enumerate(raw_entries)
    )
    flags = data.get("flags", {})
    _check_keys(flags, FLAG_KEYS, "flags")
    return GaloisProfile(
        field_degree=json_typed(data.get("field_degree", 1), int, "field_degree"),
        nonsurjective=entries,
        assume_sz=json_typed(flags.get("assume_sz", False), bool, "flags.assume_sz"),
    )


def profile_to_dict(P: GaloisProfile) -> dict:
    return {
        "field_degree": P.field_degree,
        "nonsurjective": [
            {"prime": e.prime, "type": e.image_type, **({"level": e.level} if e.level else {})}
            for e in P.nonsurjective
        ],
        "flags": {"assume_sz": P.assume_sz},
    }


@record
class ClassificationVerdict:
    """Outcome of the four-way classification for a point level n.

    `case` is None when the profile leaves the case genuinely ambiguous
    (e.g. an untyped nonsurjective image at 17); `possible_cases` then lists
    every compatible case.  Case 4 carries the candidate target levels:
    divisors of n of the shape 2^a 3^b p^c within the table bounds.
    """

    case: int | None
    possible_cases: tuple[int, ...]
    evidence: dict = field(compare=False)
    candidates: tuple[int, ...] = ()


def _case4_candidates(n: int, p: int, p_cap: int) -> tuple[int, ...]:
    table = {row.p: row for row in classification_table()}
    row = table[p]
    out = []
    for d in divisors(n):
        rest = d
        a = valuation(d, 2)
        rest //= 2**a
        b = valuation(d, 3)
        rest //= 3**b
        if p != 1:
            c = valuation(rest, p)
            rest //= p**c
            p_power = p**c
        else:
            p_power = 1
        if rest != 1:
            continue
        if a <= row.a_p and b <= row.b_p and p_power <= min(p_cap, 169):
            out.append(d)
    return tuple(out)


def classify_profile(P: GaloisProfile, n: int) -> ClassificationVerdict:
    """First applicable case, in order, for a point of level n over the profile.

    1: some l | n with l > 17, l != 37 nonsurjective, or l in {17, 37} inside
       the normalizer of a nonsplit Cartan;
    2: two nonsurjective primes l1 > l2 > 3 dividing n;
    3: some 2 < l <= 37 dividing n with declared l-adic level > 169;
    4: otherwise, the point maps to level 2^a 3^b p^c within the table bounds.
    """
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    supp = list(modulus(n).primes)
    evidence: dict = {"n": n, "support": supp, "s_set": sorted(P.s_set)}

    ambiguous_17_37 = []
    for ell in supp:
        entry = P.entry(ell)
        if entry is None:
            continue
        if ell > 17 and ell != 37:
            evidence["case1_prime"] = ell
            evidence["reason"] = f"nonsurjective at {ell} > 17"
            return ClassificationVerdict(1, (1,), evidence)
        if ell in (17, 37):
            if entry.image_type == "normalizer_nonsplit":
                evidence["case1_prime"] = ell
                evidence["reason"] = f"normalizer of nonsplit Cartan at {ell}"
                return ClassificationVerdict(1, (1,), evidence)
            if entry.image_type == "unknown":
                ambiguous_17_37.append(ell)

    def settle(case: int, ev: dict) -> ClassificationVerdict:
        if ambiguous_17_37:
            ev["ambiguous_at"] = ambiguous_17_37
            return ClassificationVerdict(None, (1, case), ev)
        return ClassificationVerdict(case, (case,), ev)

    nonsurj_big = sorted(
        (e.prime for e in P.nonsurjective if e.prime > 3 and n % e.prime == 0), reverse=True
    )
    if len(nonsurj_big) >= 2:
        evidence["case2_primes"] = nonsurj_big[:2]
        evidence["reason"] = f"nonsurjective at {nonsurj_big[1]} and {nonsurj_big[0]}"
        return settle(2, evidence)

    for ell in supp:
        entry = P.entry(ell)
        if entry and entry.level is not None and 2 < ell <= 37 and entry.level > 169:
            evidence["case3_prime"] = ell
            evidence["reason"] = f"declared {ell}-adic level {entry.level} > 169"
            return settle(3, evidence)

    p = nonsurj_big[0] if nonsurj_big else 1
    entry = P.entry(p) if p != 1 else None
    if entry is not None and entry.level is not None:
        p_cap = entry.level
    elif p != 1 and p in M1_LEVELS:
        p_cap = M1_LEVELS[p]
    else:
        p_cap = 169
    candidates = _case4_candidates(n, p, p_cap)
    evidence["p"] = p
    evidence["p_cap"] = min(p_cap, 169)
    stray = sorted(e.prime for e in P.nonsurjective if e.prime > 3 and n % e.prime != 0)
    if stray:
        evidence["nonsurjective_away_from_n"] = stray
    if ambiguous_17_37:
        evidence["reason"] = (
            f"image type unknown at {ambiguous_17_37}: case 1 if nonsplit Cartan, else case 4"
        )
        return ClassificationVerdict(None, (1, 4), evidence, candidates)
    evidence["reason"] = "no earlier case applies"
    return ClassificationVerdict(4, (4,), evidence, candidates)


@record
class TargetLevel:
    n: int
    level: int
    target: int
    map_degree: MapDegree


def target_level(n: int, M: int) -> TargetLevel:
    """Target X_1(gcd(n, M)) and the degree of the natural map from X_1(n)."""
    g = gcd(n, M)
    return TargetLevel(n=n, level=M, target=g, map_degree=map_degree(g, n // g))


# -- data-driven screens -------------------------------------------------------

# Prime-level facts used by the screens: rational isogeny degrees (Borel case),
# the two Borel points at 37 with their degrees on X_1(37), and the 2-primary
# data: X_1(16) has no non-cuspidal rational points (Levi), and over the eight
# rational j-invariants with small enough mod-32 image the least field degree
# of a point of order 32 is 32 (Rouse-Zureick-Brown candidates).
BOREL_ISOGENY_PRIMES = frozenset({2, 3, 5, 7, 11, 13, 17, 37})
BOREL_17_MIN_DEGREE = 4
BOREL_37_POINT_DEGREES = (6, 18)
X1_16_NONCUSPIDAL_RATIONAL_POINTS = 0
MIN_ORDER_32_FIELD_DEGREE = 32


@record
class ScreenVerdict:
    no_sporadic: bool
    scope: str
    reason: str
    candidate_level: int | None = None
    candidate_j: str | None = None
    conditional_on: tuple[str, ...] = ()


def prime_level_screen(ell: int, image_type: str | None) -> ScreenVerdict:
    """Sporadic-point screen for X_1(ell) with rational j-invariant.

    `image_type` None means the mod-ell image is surjective.  Data-driven:
    small primes have infinitely many low-degree points; surjective images
    never give sporadic points at prime-power level; each maximal-subgroup
    type is ruled out by the recorded degree/gonality facts except the
    Borel case at 37.
    """
    if ell <= 13:
        reason = (
            "X_1(ell) has infinitely many rational points for ell <= 10, "
            "gonality 2 for ell in {11, 13}"
        )
        return ScreenVerdict(True, f"X_1({ell})", reason)
    if image_type is None:
        return ScreenVerdict(
            True,
            f"X_1({ell}^s) for every s",
            "surjective mod-ell image: no sporadic or isolated points at prime-power level",
        )
    if image_type == "normalizer_nonsplit":
        min_deg = Fraction(ell * ell - 1, 6)
        gon_bound = Fraction(ell * ell - 1, 24)
        assert min_deg >= gon_bound
        return ScreenVerdict(
            True,
            f"X_1({ell})",
            f"every point has degree >= (ell^2-1)/6 = {min_deg} while the gonality is "
            f"at most genus <= (ell^2-1)/24 = {gon_bound}",
        )
    if image_type in ("normalizer_split", "exceptional"):
        return ScreenVerdict(
            True, f"X_1({ell})", f"{image_type} images only occur for ell <= 13"
        )
    if image_type == "borel":
        if ell not in BOREL_ISOGENY_PRIMES:
            return ScreenVerdict(
                True, f"X_1({ell})", f"no rational {ell}-isogeny exists"
            )
        if ell == 17:
            gon = known_gonality(17)
            assert gon is not None and BOREL_17_MIN_DEGREE >= gon
            return ScreenVerdict(
                True,
                "X_1(17)",
                f"points of order 17 on the two Borel curves have degree >= "
                f"{BOREL_17_MIN_DEGREE} = gonality {gon}",
            )
        if ell == 37:
            gon = known_gonality(37)
            low, high = BOREL_37_POINT_DEGREES
            assert gon is not None and low < gon <= high
            return ScreenVerdict(
                False,
                "X_1(37)",
                f"the Borel point of degree {low} is sporadic (gonality {gon}); "
                f"the degree-{high} point is not",
                candidate_level=37,
                candidate_j=BOREL_37_SPORADIC_J,
            )
    return ScreenVerdict(
        False, f"X_1({ell})", f"image type {image_type!r} leaves the screen inconclusive"
    )


def two_power_screen(s: int) -> ScreenVerdict:
    """Sporadic-point screen for X_1(2^s) with rational j-invariant.

    The 2-adic level of a non-CM curve over Q divides 32, so every 2-power
    level pushes down to s <= 5 with maximal degree growth; there the gates
    are: genus 0 for s <= 3, the genus-2 curve X_1(16) with no non-cuspidal
    rational points for s = 4, and for s = 5 the recorded least field degree
    of an order-32 point (over the candidate j-invariants), which exceeds
    the gonality of X_1(32) even after the half factor.
    """
    if s < 1:
        raise ValueError(f"exponent must be positive, got {s}")
    cap = valuation(M1_LEVELS[2], 2)
    reduced = min(s, cap)
    prefix = (
        f"the 2-adic level divides 2^{cap}, so a sporadic point on X_1(2^{s}) "
        f"maps to one on X_1(2^{reduced}); "
        if s > cap
        else ""
    )
    if reduced <= 3:
        assert genus_x1(2**reduced) == 0
        return ScreenVerdict(
            True, f"X_1(2^{s})", prefix + f"X_1({2 ** reduced}) has genus 0"
        )
    if reduced == 4:
        gon = known_gonality(16)
        assert genus_x1(16) == 2 and gon == 2
        assert X1_16_NONCUSPIDAL_RATIONAL_POINTS == 0
        return ScreenVerdict(
            True,
            f"X_1(2^{s})",
            prefix + "X_1(16) has gonality 2 (infinitely many quadratic points) "
            "and no non-cuspidal rational points",
        )
    gon = known_gonality(32)
    # point degree is at least half the field degree of the point itself
    assert gon is not None and MIN_ORDER_32_FIELD_DEGREE // 2 > gon
    return ScreenVerdict(
        True,
        f"X_1(2^{s})",
        prefix + f"on X_1(32) every candidate point has degree >= "
        f"{MIN_ORDER_32_FIELD_DEGREE // 2} > gonality {gon}",
    )


def sporadic_screen(P: GaloisProfile, n: int) -> ScreenVerdict:
    """Sporadic screen for rational-j points on X_1(n) with min(Supp(n)) >= 17.

    With the prime-power conjectures assumed (profile flag assume_sz), the
    only surviving scenario is 37 | n with a Borel image at 37, pointing at
    the degree-6 point with j = -7*11^3.
    """
    supp = list(modulus(n).primes)
    if supp and min(supp) < 17:
        raise ValueError(f"screen requires min(Supp(n)) >= 17, got support {supp}")
    conditions = ("assume_sz",) if P.assume_sz else ()
    verdict = classify_profile(P, n)
    if verdict.case is None:
        return ScreenVerdict(
            False,
            f"X_1({n})",
            f"profile leaves cases {verdict.possible_cases} ambiguous",
            conditional_on=conditions,
        )
    if verdict.case == 1:
        if P.assume_sz:
            return ScreenVerdict(
                True,
                f"X_1({n})",
                "case-1 image types are conjectured not to exist",
                conditional_on=conditions,
            )
        return ScreenVerdict(
            False,
            f"X_1({n})",
            "case-1 profile: screen inconclusive without the surjectivity conjecture",
        )
    if verdict.case == 3:
        if P.assume_sz:
            return ScreenVerdict(
                True,
                f"X_1({n})",
                "levels above the prime-power table are conjectured not to occur",
                conditional_on=conditions,
            )
        return ScreenVerdict(
            False, f"X_1({n})", "case-3 profile: screen inconclusive"
        )
    if verdict.case == 2:
        # 17 and 37 both divide n and both are nonsurjective, of known types
        # other than the nonsplit normalizer: e.g. 17 "other" and 37 Borel
        # at n = 629 (Borel at both is refused by the profile)
        return ScreenVerdict(False, f"X_1({n})", "two nonsurjective primes dividing n")
    # case 4: candidates are divisors of n of the form p^c, p in {17, 37}
    for d in verdict.candidates:
        if d == 1:
            continue
        ell = modulus(d).primes[0]
        entry = P.entry(ell)
        sub = prime_level_screen(ell, entry.image_type if entry else None)
        if not sub.no_sporadic:
            return ScreenVerdict(
                False,
                f"X_1({n})",
                f"maps to X_1({d}): " + sub.reason,
                candidate_level=sub.candidate_level,
                candidate_j=sub.candidate_j,
                conditional_on=conditions,
            )
    return ScreenVerdict(
        True,
        f"X_1({n})",
        "every candidate target level is screened out",
        conditional_on=conditions,
    )
