"""Seeded inputs and their expected answers for the three workloads.

`build(workload, seed)` returns one pass: a list of jobs, each a JSON-able
dict with the input the program sees and the answer the check expects.
Answers come from `numtheory` and `families`, never from x1points, and every
job type has a seed-independent cost and jobs run in a fixed order, so seeds
change inputs but not the mix.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import numtheory as nt
from families import Family, group_file_generators

# Data from the paper, as shipped tables would state it.
CLASSIFICATION = {1: (9, 5), 5: (14, 6), 7: (14, 7), 11: (13, 6), 13: (14, 7), 17: (15, 5), 37: (13, 8)}
M1_LEVELS = {2: 32, 3: 81, 5: 125, 7: 49, 11: 121, 13: 169, 17: 17, 37: 37}
SZ_MAX_LEVELS = {3: 27, 5: 25, 7: 7, 11: 11, 13: 13, 17: 1, 37: 1}
SPECIAL_IMAGE_ORDERS = {17: 2**6 * 17, 37: 2**4 * 3**3 * 37}
KNOWN_GONALITY = {11: 2, 13: 2, 16: 2, 17: 4, 25: 5, 32: 8, 37: 18}
GL2_TABLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 37)

MERSENNE_61 = 2**61 - 1
KNOWN_DEFECT_61 = "curve 2^61-1: trial-division factorize does not finish (ROADMAP item 3)"

# group_level: (family, replicas, commands). Every file gets a seeded
# conjugate; replicas of one type differ only in the conjugator.
GROUP_LEVEL_MIX = (
    (("gl2", 40), 1, ("group",)),
    (("borel", 72), 1, ("group", "level")),
    (("sl2", 36), 1, ("group", "level")),
    (("borel", 45), 1, ("group", "level")),
    (("lift", 16, 2), 1, ("group", "level")),
    (("lift", 18, 6), 2, ("group", "level")),
    (("lift", 9, 3), 2, ("group", "level")),
    (("borel", 36), 1, ("group", "level")),
    (("normalizer", 72), 2, ("group", "level")),
    (("normalizer", 100), 2, ("group", "level")),
    (("cartan", 36), 2, ("group", "level")),
    (("cartan", 100), 2, ("group", "level")),
    (("sl2", 20), 2, ("group", "level")),
    (("gl2", 12), 4, ("group", "level")),
)

# spectra: preimage jobs are (base family at m, lifted to n) and go through
# full_preimage; few-generator jobs use the group itself.
SPECTRA_PREIMAGE_MIX = (
    (("borel", 7), 49, 1),
    (("borel", 2), 16, 2),
    (("borel", 6), 36, 1),
    (("normalizer", 5), 25, 3),
    (("cartan", 6), 18, 5),
)
SPECTRA_FEWGEN_MIX = (
    (("gl2", 300), 1),
    (("borel", 256), 1),
    (("sl2", 200), 1),
    (("borel", 180), 2),
    (("gl2", 150), 2),
    (("borel", 120), 2),
)


DIGESTS_FILE = Path(__file__).with_name("digests.json")


def recorded_digest(workload: str, seed: int) -> str | None:
    """Digest recorded for (workload, seed) in digests.json, if any."""
    if not DIGESTS_FILE.is_file():
        return None
    return json.loads(DIGESTS_FILE.read_text()).get(workload, {}).get(str(seed))


def digest(jobs) -> str:
    blob = json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# jobs (by id suffix) that set-up runs once as warm-up: one cheap input per workload
WARMUP = {"group_level": "cartan36-r0", "spectra": "cartan6to18-r0", "cli_mix": "tables-m1-json"}


def build(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"x1points-bench/{workload}/{seed}")
    jobs = {"group_level": _group_level, "spectra": _spectra, "cli_mix": _cli_mix}[workload](rng)
    for i, job in enumerate(jobs):
        job["warmup"] = job["id"].endswith(WARMUP[workload])
        job["id"] = f"{i:03d}-{job['id']}"
    return jobs


def _family(spec) -> Family:
    return Family(spec[0], spec[1], spec[2] if len(spec) > 2 else None)


# -- expected CLI answers for group files -------------------------------------


def expect_group(fam: Family, gens) -> dict:
    n, order = fam.n, fam.order
    return {
        "modulus": n,
        "generators": [list(g) for g in gens],
        "order": order,
        "gl2_order": nt.gl2(n),
        "index": nt.gl2(n) // order,
        "contains_sl2": fam.contains_sl2,
    }


def expect_level(fam: Family) -> dict:
    n = fam.n
    fac = nt.factor(n)
    detections = []
    for ell, e in fac:
        s = e - 1
        if s >= (2 if ell == 2 else 1):
            kernel = fam.image_order(ell**e) // fam.image_order(ell**s)
            certified = kernel == ell**4
            detections.append(
                {
                    "prime": ell,
                    "stage": s,
                    "kernel_order": kernel,
                    "full_kernel": ell**4,
                    "certified": certified,
                    "level_bound": ell**s if certified else None,
                }
            )
    out = {
        "modulus": n,
        "order": fam.order,
        "detections": detections,
        "minimal_level": fam.minimal_level(),
    }
    if len(fac) >= 2 and all(e >= 2 for _, e in fac):
        out["certificate"] = _expect_certificate(fam, fac)
    return out


def _expect_certificate(fam: Family, fac) -> dict:
    n = fam.n
    evidence = []
    level = 1
    for ell, e in fac:
        level *= ell ** (e - 1)
        mixed = n // ell
        if not fam.is_full_preimage(mixed):
            detail = f"G mod {n} is not the full preimage of G mod {mixed}"
            return {
                "hypothesis_failed": ell,
                "detail": f"full-preimage hypothesis failed at prime {ell}: {detail}",
            }
        evidence.append(
            {
                "prime": ell,
                "exponent": e - 1,
                "checked_modulus": n,
                "target_modulus": mixed,
                "kernel_order": fam.order // fam.image_order(mixed),
                "full_kernel": ell**4,
            }
        )
    if not fam.is_full_preimage(level):
        return {
            "hypothesis_failed": 0,
            "detail": "full-preimage hypothesis failed at prime 0: "
            f"composite full-preimage check failed at M={level}",
        }
    evidence.append(
        {
            "prime": 0,
            "exponent": max(e - 1 for _, e in fac),
            "checked_modulus": n,
            "target_modulus": level,
            "kernel_order": fam.order // fam.image_order(level),
            "full_kernel": nt.gl2(n) // nt.gl2(level),
        }
    )
    return {
        "level": level,
        "prime_powers": [[ell, e - 1] for ell, e in fac],
        "evidence": evidence,
    }


def _group_jobs(fam: Family, rng, commands, tag: str) -> list[dict]:
    gens, _ = group_file_generators(fam, rng)
    group = {"modulus": fam.n, "generators": [list(g) for g in gens]}
    out = []
    for cmd in commands:
        expect = expect_group(fam, gens) if cmd == "group" else expect_level(fam)
        out.append(
            {
                "id": f"{cmd}-{fam.label}{tag}",
                "kind": cmd,
                "group": group,
                "expect": expect,
            }
        )
    return out


def _group_level(rng) -> list[dict]:
    jobs = []
    for spec, replicas, commands in GROUP_LEVEL_MIX:
        fam = _family(spec)
        for r in range(replicas):
            jobs += _group_jobs(fam, rng, commands, f"-r{r}")
    return jobs


# -- spectra -------------------------------------------------------------------


def _spectrum_expect(n: int, sizes: list[int]) -> dict:
    # every family here contains -I, so each orbit is negation-closed and
    # (n > 2) a closed point of degree size / 2
    assert n > 2
    return {
        "modulus": n,
        "orbit_sizes": sizes,
        "closed_point_degrees": sorted(s // 2 for s in sizes),
        "psl2_index": nt.psl2_index(n),
        "vectors": nt.order_n_vectors(n),
    }


def _fiber(a: int, b: int) -> int:
    out = b * b
    for p, _ in nt.factor(b):
        if a % p:
            out = out // (p * p) * (p * p - 1)
    return out


def _growth_expect(n: int, b: int) -> dict:
    a = n // b
    return {"a": a, "b": b, "fiber": _fiber(a, b), "map_degree": nt.map_degree(a, b)}


def _spectra(rng) -> list[dict]:
    jobs = []
    for spec, n, replicas in SPECTRA_PREIMAGE_MIX:
        base = _family(spec)
        m = base.n
        sizes = sorted((n // m) ** 2 * s for s in base.orbit_sizes())
        for r in range(replicas):
            gens, _ = group_file_generators(base, rng)
            group = {"modulus": m, "generators": [list(g) for g in gens]}
            common = {"group": group, "lift_to": n}
            jobs.append(
                {"id": f"degrees-{base.label}to{n}-r{r}", "kind": "degrees", **common,
                 "expect": _spectrum_expect(n, sizes)}
            )
            growth = _growth_expect(n, n // m)
            growth["all_max_growth"] = True
            jobs.append(
                {"id": f"growth-{base.label}to{n}-r{r}", "kind": "growth", **common,
                 "expect": {**_spectrum_expect(n, sizes), **growth}}
            )
    for spec, replicas in SPECTRA_FEWGEN_MIX:
        fam = _family(spec)
        n = fam.n
        b = nt.factor(n)[0][0]
        for r in range(replicas):
            gens, h = group_file_generators(fam, rng)
            group = {"modulus": n, "generators": [list(g) for g in gens]}
            common = {"group": group, "lift_to": None}
            exp = _spectrum_expect(n, fam.orbit_sizes())
            jobs.append({"id": f"degrees-{fam.label}-r{r}", "kind": "degrees", **common, "expect": exp})
            growth = {**exp, **_growth_expect(n, b)}
            if fam.kind == "borel":
                # orbit of (x, y) in the standard frame is labelled by gcd(y, n)
                growth["borel_frame"] = list(h)
            else:
                growth["all_max_growth"] = True
            jobs.append({"id": f"growth-{fam.label}-r{r}", "kind": "growth", **common, "expect": growth})
    return jobs


# -- cli_mix ------------------------------------------------------------------


def _frac(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _curve_expect(N: int, fac) -> dict:
    mu = nt.psl2_index(N, fac)
    return {
        "N": N,
        "psl2_index": mu,
        "genus": nt.x1_genus(N, fac),
        "cusps": nt.x1_cusps(N, fac),
        "gonality_lower": _frac(Fraction(7, 800) * mu),
        "known_gonality": KNOWN_GONALITY.get(N),
    }


def _prime_below(rng, top: int, width: int) -> int:
    p = top - rng.randrange(width)
    while not nt.is_prime(p):
        p -= 1
    return p


def _cli(tag, argv, expect, code=0, files=None, check="json", known_defect=None) -> dict:
    job = {"id": tag, "kind": "cli", "argv": argv, "check": check, "expect": expect, "exit": code}
    if files:
        job["files"] = files
    if known_defect:
        job["known_defect"] = known_defect
    return job


def _cli_mix(rng) -> list[dict]:
    jobs = []
    # curve: light levels, a known-gonality level, twelve primes near 10^11
    # where trial division dominates the job, and 2^61 - 1 (known defect:
    # it hits the per-job limit)
    for i in range(5):
        N = rng.randrange(5, 5000)
        fmt = ("json", "csv", "markdown")[i % 3]
        jobs.append(_cli(f"curve-light{i}", ["curve", str(N), "--format", fmt],
                         _curve_expect(N, nt.factor(N)), check=f"curve-{fmt}"))
    N = rng.choice(sorted(KNOWN_GONALITY))
    jobs.append(_cli("curve-gonality", ["curve", str(N)], _curve_expect(N, nt.factor(N)), check="curve-json"))
    for i in range(12):
        p = _prime_below(rng, 10**11, 10**6)
        jobs.append(_cli(f"curve-bigprime{i}", ["curve", str(p)], _curve_expect(p, [(p, 1)]), check="curve-json"))
    jobs.append(_cli("curve-mersenne61", ["curve", str(MERSENNE_61)],
                     _curve_expect(MERSENNE_61, [(MERSENNE_61, 1)]), check="curve-json",
                     known_defect=KNOWN_DEFECT_61))

    # sporadic-check
    for i in range(4):
        N = rng.randrange(20, 3000)
        d = rng.randrange(1, 60)
        argv = ["sporadic-check", "--level", str(N), "--degree", str(d)]
        gon = KNOWN_GONALITY.get(N)
        if i % 3 == 1:
            gon = rng.randrange(2, 40)
            argv += ["--gonality", str(gon)]
        elif i % 3 == 2:
            N = rng.choice(sorted(KNOWN_GONALITY))
            argv[2] = str(N)
            gon = KNOWN_GONALITY[N]
        require = i % 2 == 0
        if require:
            argv.append("--require")
        mu = nt.psl2_index(N)
        threshold = Fraction(7 * mu, 1600)
        issued = Fraction(d) < threshold and N > 2
        expect = {"N": N, "degree": d, "threshold": _frac(threshold), "margin": _frac(threshold - d),
                  "issued": issued, "gonality": gon, "frey_issued": None if gon is None else 2 * d < gon}
        certified = issued or bool(expect["frey_issued"])
        expect["certified_sporadic"] = certified
        jobs.append(_cli(f"sporadic{i}", argv, expect, code=1 if require and not certified else 0,
                         check="sporadic"))

    # cm over shipped discriminants; -4 always (ell = 229, degree 114)
    discs = [D for D in range(-100, -2) if D % 4 in (0, 1)]
    for i, D in enumerate([-4] + rng.sample([D for D in discs if D != -4], 3)):
        h = nt.class_number(D)
        w = 6 if D == -3 else 4 if D == -4 else 2
        threshold = Fraction(6400 * h, 7 * w) - 1
        ell = max(2, int(threshold)) + 1
        while not (ell > threshold and nt.is_prime(ell) and nt.kronecker_splits(D, ell)):
            ell += 1
        expect = {"discriminant": D, "class_number": h, "unit_count": w, "threshold": _frac(threshold),
                  "smallest_admissible_prime": ell, "ell": ell, "degree": 2 * h * (ell - 1) // w}
        if D == -4:
            assert (ell, expect["degree"]) == (229, 114)
        jobs.append(_cli(f"cm{i}", ["cm", "--disc", str(D), "--require"], expect, check="cm"))

    # classify: cases 1, 2 and 4 by construction
    for i in range(3):
        if i % 3 == 0:
            ell = rng.choice((19, 23, 29, 31, 41, 43))
            profile = {"nonsurjective": [{"prime": ell, "type": "borel"}]}
            n = ell * rng.choice((1, 2, 3, 4, 6))
            expect = {"case": 1, "possible_cases": [1], "candidates": []}
        elif i % 3 == 1:
            l1, l2 = rng.choice(((5, 7), (5, 11), (7, 13), (11, 13)))
            profile = {"nonsurjective": [{"prime": l1, "type": "borel"}, {"prime": l2, "type": "normalizer_split"}]}
            n = l1 * l2 * rng.choice((1, 2, 3))
            expect = {"case": 2, "possible_cases": [2], "candidates": []}
        else:
            profile = {"nonsurjective": []}
            n = 2 ** rng.randrange(0, 12) * 3 ** rng.randrange(0, 7)
            a_max, b_max = CLASSIFICATION[1]
            cands = [d for d in nt.divisors(n) if nt.vp(d, 2) <= a_max and nt.vp(d, 3) <= b_max]
            expect = {"case": 4, "possible_cases": [4], "candidates": cands}
        name = f"profile{i}.json"
        jobs.append(_cli(f"classify{i}", ["classify", "--profile", name, "--n", str(n)], expect,
                         files={name: profile}, check="classify"))

    # tables in every format
    for which, fmt in (("classification", "json"), ("gl2", "markdown"), ("m1", "json"), ("sz", "csv")):
        header, rows = _table(which)
        jobs.append(_cli(f"tables-{which}-{fmt}", ["tables", "--which", which, "--format", fmt],
                         {"table": which, "header": header, "rows": rows}, check=f"table-{fmt}"))

    # level-bound reproduces the classification table entries
    for i, p in enumerate(rng.sample((5, 7, 11, 13, 17, 37), 3)):
        ell = (2, 3)[i % 2]
        argv = ["level-bound", "--primes", f"2,3,{p}", "--ell", str(ell)]
        if p in SPECIAL_IMAGE_ORDERS:
            argv += ["--image-order", f"{p}={SPECIAL_IMAGE_ORDERS[p]}"]
        bound = CLASSIFICATION[p][i % 2]
        expect = {"primes": [2, 3, p], "ell": ell, "m1": M1_LEVELS[ell], "bound": bound,
                  "bound_prime_power": ell**bound}
        jobs.append(_cli(f"levelbound{i}", argv, expect))

    # group, level and degrees on small group files (order at most 500)
    for i, spec in enumerate((("borel", 7), ("normalizer", 11), ("sl2", 5), ("gl2", 5))):
        fam = _family(spec)
        gens, _ = group_file_generators(fam, rng)
        name = f"group{i}.json"
        files = {name: {"modulus": fam.n, "generators": [list(g) for g in gens]}}
        cmd = ("group", "level", "degrees")[i % 3]
        if cmd == "group":
            expect, check = expect_group(fam, gens), "json"
        elif cmd == "level":
            expect, check = expect_level(fam), "json"
        else:
            expect, check = _spectrum_expect(fam.n, fam.orbit_sizes()), "degrees"
        jobs.append(_cli(f"{cmd}-{fam.label}", [cmd, "--in", name], expect, files=files, check=check))
    return jobs


def _table(which: str):
    if which == "classification":
        rows = [[p, a, b, 1 if p == 1 else min(M1_LEVELS[p], 169)] for p, (a, b) in CLASSIFICATION.items()]
        return ["p", "a_p", "b_p", "p_power_cap"], rows
    if which == "gl2":
        rows = []
        for ell in GL2_TABLE_PRIMES:
            order = nt.gl2(ell)
            fact = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in nt.factor(order))
            rows.append([ell, order, fact])
        return ["ell", "gl2_order", "factorization"], rows
    if which == "m1":
        return ["ell", "m1_level"], [[k, v] for k, v in sorted(M1_LEVELS.items())]
    return ["ell", "max_level"], [[k, v] for k, v in sorted(SZ_MAX_LEVELS.items())]
