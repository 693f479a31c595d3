"""Command-line surface: file ingestion, certificate and table emission.

Output is deterministic (sorted keys, canonical row order) and every numeric
value is exact; rationals are emitted as {"num": ..., "den": ...}.  Exit
codes: 0 success, 1 certificate not issued under --require, 2 input or
precondition error (with a message naming the violated contract).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import classify as _classify
from . import curveinv, levels, matgroup, orbits, sporadic
from .errors import HypothesisFailed, X1PointsError
from .matgroup import DEFAULT_CAP
from .modarith import gl2_order, factorize

CAP_ENV_VAR = "X1POINTS_CAP"


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    inputs: tuple[str, ...]
    output_format: str
    cap: int
    flags: dict

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        if self.output_format not in ("json", "csv", "markdown"):
            raise ValueError(f"unknown output format {self.output_format!r}")


def _frac(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True, separators=(", ", ": ")))


def _default_cap() -> int:
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_CAP


def _load_group(path: str, cap: int) -> matgroup.MatGroup:
    try:
        return matgroup.load_group(path, cap)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise X1PointsError(f"group file contract violated by {path}: {exc}") from exc


def cmd_group(cfg: RunConfig) -> int:
    G = _load_group(cfg.inputs[0], cfg.cap)
    order = G.order
    _emit(
        {
            "modulus": G.modulus.n,
            "generators": [list(g) for g in G.raw_generators],
            "order": order,
            "gl2_order": gl2_order(G.modulus.n),
            "index": gl2_order(G.modulus.n) // order,
            "contains_sl2": matgroup.contains_sl2(G),
        }
    )
    return 0


def cmd_orbits(cfg: RunConfig) -> int:
    G = _load_group(cfg.inputs[0], cfg.cap)
    vectors = orbits.exact_order_vectors(G.modulus.n)
    parts = orbits.vector_orbits(G, vectors)
    parts.sort(key=min)
    _emit(
        {
            "modulus": G.modulus.n,
            "exact_order_vectors": len(vectors),
            "orbits": [{"representative": list(min(o)), "size": len(o)} for o in parts],
        }
    )
    return 0


def cmd_degrees(cfg: RunConfig) -> int:
    G = _load_group(cfg.inputs[0], cfg.cap)
    spec = orbits.degree_spectrum(G, cfg.flags["field_degree"])
    _emit(
        {
            "modulus": spec.modulus,
            "field_degree": spec.field_degree,
            "records": [
                {
                    "representative": list(r.representative.entries),
                    "size": r.size,
                    "point_order": r.point_order,
                    "minus_closed": r.minus_closed,
                    "degree": r.degree,
                }
                for r in spec.records
            ],
            "closed_point_degrees": orbits.closed_point_degrees(spec),
        }
    )
    return 0


def cmd_level(cfg: RunConfig) -> int:
    G = _load_group(cfg.inputs[0], cfg.cap)
    n = G.modulus.n
    detections = []
    for ell, e in G.modulus.factorization:
        s = e - 1
        if s >= levels.minimal_stage(ell):
            part = matgroup.project(G, ell**e)
            det = levels.detect_ladic_level(part, s)
            detections.append(
                {
                    "prime": ell,
                    "stage": det.stage,
                    "kernel_order": det.kernel_order,
                    "full_kernel": det.full_kernel,
                    "certified": det.certified,
                    "level_bound": det.level_bound,
                }
            )
    out = {
        "modulus": n,
        "order": G.order,
        "detections": detections,
        "minimal_level": levels.minimize_level(G),
    }
    fac = G.modulus.factorization
    if len(fac) >= 2 and all(e >= 2 for _, e in fac):
        stages = {ell: e - 1 for ell, e in fac}
        try:
            out["certificate"] = levels.compose_level(G, stages).to_dict()
        except HypothesisFailed as exc:
            out["certificate"] = {"hypothesis_failed": exc.prime, "detail": str(exc)}
    _emit(out)
    return 0


def cmd_level_bound(cfg: RunConfig) -> int:
    B = levels.BoundInput.build(
        cfg.flags["primes"],
        image_orders=cfg.flags["image_orders"],
        tau=cfg.flags["tau"],
    )
    ell = cfg.flags["ell"]
    bound = levels.level_bound(B, ell)
    _emit(
        {
            "primes": sorted(B.primes),
            "ell": ell,
            "m1": B.m1[ell],
            "bound": bound,
            "bound_prime_power": ell**bound,
        }
    )
    return 0


def cmd_curve(cfg: RunConfig) -> int:
    N = cfg.flags["N"]
    inv = curveinv.curve_invariants(N)
    data = {
        "N": inv.N,
        "psl2_index": inv.psl2_index,
        "genus": inv.genus,
        "cusps": curveinv.cusp_count(N),
        "gonality_lower": _frac(inv.gonality_lower),
        "known_gonality": inv.known_gonality,
        "gonality_source": inv.gonality_source,
    }
    if cfg.output_format == "json":
        _emit(data)
    else:
        rows = [(k, _fmt_cell(v)) for k, v in data.items()]
        _print_rows(("invariant", "value"), rows, cfg.output_format)
    return 0


def cmd_sporadic_check(cfg: RunConfig) -> int:
    N, d = cfg.flags["N"], cfg.flags["degree"]
    cert = sporadic.lifting_certificate(N, d)
    out = {"lifting": cert.to_dict()}
    issued = cert.issued
    gon = cfg.flags["gonality"]
    if gon is None:
        gon = curveinv.known_gonality(N)
    if gon is not None:
        frey = curveinv.frey_gonality_cert(N, d, gon)
        out["frey"] = {
            "N": N,
            "degree": d,
            "gonality": gon,
            "issued": frey.issued,
            "statement": frey.statement,
        }
        issued = issued or frey.issued
    out["certified_sporadic"] = issued
    _emit(out)
    if cfg.flags["require"] and not issued:
        return 1
    return 0


def cmd_cm(cfg: RunConfig) -> int:
    disc = cfg.flags["disc"]
    h = cfg.flags["h"]
    if h is not None:
        order = sporadic.CmOrder(
            disc, h, 6 if disc == -3 else 4 if disc == -4 else 2
        )
    else:
        order = sporadic.cm_order(disc)
    threshold, smallest = sporadic.cm_threshold(order)
    ell = cfg.flags["ell"] if cfg.flags["ell"] is not None else smallest
    degree, cert = sporadic.cm_point_degree(order, ell)
    _emit(
        {
            "discriminant": order.discriminant,
            "class_number": order.class_number,
            "unit_count": order.unit_count,
            "threshold": _frac(threshold),
            "smallest_admissible_prime": smallest,
            "ell": ell,
            "degree": degree,
            "certificate": cert.to_dict(),
        }
    )
    if cfg.flags["require"] and not cert.issued:
        return 1
    return 0


def cmd_classify(cfg: RunConfig) -> int:
    try:
        with open(cfg.inputs[0]) as fh:
            profile = _classify.profile_from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise X1PointsError(f"profile file contract violated by {cfg.inputs[0]}: {exc}") from exc
    n = cfg.flags["n"]
    verdict = _classify.classify_profile(profile, n)
    out = {
        "n": n,
        "case": verdict.case,
        "possible_cases": list(verdict.possible_cases),
        "candidates": list(verdict.candidates),
        "evidence": verdict.evidence,
    }
    supp = [p for p, _ in factorize(n)]
    if profile.assume_sz and (not supp or min(supp) >= 17):
        screen = _classify.sporadic_screen(profile, n)
        out["screen"] = {
            "no_sporadic": screen.no_sporadic,
            "scope": screen.scope,
            "reason": screen.reason,
            "candidate_level": screen.candidate_level,
            "candidate_j": screen.candidate_j,
            "conditional_on": list(screen.conditional_on),
        }
    _emit(out)
    return 0


def _fmt_cell(v) -> str:
    if isinstance(v, dict) and set(v) == {"num", "den"}:
        return f"{v['num']}/{v['den']}"
    return str(v)


def _print_rows(header, rows, fmt: str) -> None:
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(c) for c in row))
    else:  # markdown
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            print("| " + " | ".join(str(c) for c in row) + " |")


def cmd_tables(cfg: RunConfig) -> int:
    which = cfg.flags["which"]
    if which == "classification":
        rows = [
            (r.p, r.a_p, r.b_p, r.p_power_cap) for r in levels.classification_table()
        ]
        header = ("p", "a_p", "b_p", "p_power_cap")
    elif which == "gl2":
        rows = []
        for ell in (2, 3, 5, 7, 11, 13, 17, 37):
            order = gl2_order(ell)
            fact = " * ".join(
                f"{p}^{e}" if e > 1 else str(p) for p, e in factorize(order)
            )
            rows.append((ell, order, fact))
        header = ("ell", "gl2_order", "factorization")
    elif which == "m1":
        rows = sorted(levels.M1_LEVELS.items())
        header = ("ell", "m1_level")
    elif which == "sz":
        rows = sorted(_classify.SZ_MAX_LEVELS.items())
        header = ("ell", "max_level")
    else:
        raise X1PointsError(f"unknown table {which!r}; contract: one of classification, gl2, m1, sz")
    if cfg.output_format == "json":
        _emit({"table": which, "header": list(header), "rows": [list(r) for r in rows]})
    else:
        _print_rows(header, rows, cfg.output_format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cap", type=int, default=None, help="bounds the elements a group computation stores"
    )
    common.add_argument(
        "--format",
        choices=("json", "csv", "markdown"),
        default="json",
        dest="output_format",
    )
    parser = argparse.ArgumentParser(
        prog="x1points",
        description="Finite GL2(Z/nZ) computations for degrees of points on X_1(n)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("group", parents=[common], help="order and basic facts of a group file")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("orbits", parents=[common], help="orbits on exact-order-n torsion vectors")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("degrees", parents=[common], help="degree spectrum above a j-invariant")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--field-degree", type=int, default=1)

    p = sub.add_parser("level", parents=[common], help="detect and minimize the level of a group")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("level-bound", parents=[common], help="valuation bound for a multi-prime level")
    p.add_argument("--primes", required=True, help="comma-separated prime set")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument(
        "--image-order",
        action="append",
        default=[],
        help="override, formatted ell=order",
    )
    p.add_argument("--tau", action="append", default=[], help="override, formatted ell=tau")

    p = sub.add_parser("curve", parents=[common], help="invariants of X_1(N)")
    p.add_argument("N", type=int)

    p = sub.add_parser("sporadic-check", parents=[common], help="lifting and gonality certificates")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--gonality", type=int, default=None)
    p.add_argument("--require", action="store_true", help="exit 1 unless certified")

    p = sub.add_parser("cm", parents=[common], help="CM sporadic-point pipeline")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--h", type=int, default=None, help="class number override")
    p.add_argument("--ell", type=int, default=None, help="prime (default: smallest admissible)")
    p.add_argument("--require", action="store_true")

    p = sub.add_parser("classify", parents=[common], help="decision tree over a Galois profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("tables", parents=[common], help="built-in data tables")
    p.add_argument(
        "--which", required=True, choices=("classification", "gl2", "m1", "sz")
    )
    return parser


def _parse_overrides(pairs: list[str]) -> dict[int, int]:
    out = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        out[int(key)] = int(value)
    return out


def make_config(args: argparse.Namespace) -> RunConfig:
    cap = args.cap if args.cap is not None else _default_cap()
    flags: dict = {}
    inputs: tuple[str, ...] = ()
    sc = args.subcommand
    if sc in ("group", "orbits", "degrees", "level"):
        inputs = (args.infile,)
        if sc == "degrees":
            flags["field_degree"] = args.field_degree
    elif sc == "level-bound":
        flags["primes"] = [int(p) for p in args.primes.split(",") if p]
        flags["ell"] = args.ell
        flags["image_orders"] = _parse_overrides(args.image_order)
        flags["tau"] = _parse_overrides(args.tau)
    elif sc == "curve":
        flags["N"] = args.N
    elif sc == "sporadic-check":
        flags.update(N=args.level, degree=args.degree, gonality=args.gonality, require=args.require)
    elif sc == "cm":
        flags.update(disc=args.disc, h=args.h, ell=args.ell, require=args.require)
    elif sc == "classify":
        inputs = (args.profile,)
        flags["n"] = args.n
    elif sc == "tables":
        flags["which"] = args.which
    return RunConfig(
        subcommand=sc,
        inputs=inputs,
        output_format=args.output_format,
        cap=cap,
        flags=flags,
    )


COMMANDS = {
    "group": cmd_group,
    "orbits": cmd_orbits,
    "degrees": cmd_degrees,
    "level": cmd_level,
    "level-bound": cmd_level_bound,
    "curve": cmd_curve,
    "sporadic-check": cmd_sporadic_check,
    "cm": cmd_cm,
    "classify": cmd_classify,
    "tables": cmd_tables,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        return COMMANDS[cfg.subcommand](cfg)
    except X1PointsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: input contract violated: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
