"""Command-line surface: file ingestion, certificate and table emission.

Each subcommand returns the library's result objects, and one encoder turns
them into JSON values: a record (`errors.record`) becomes an object of its
fields by name (fields with a leading underscore are private and left out), a
Fraction becomes {"num": ..., "den": ...}, a vector mod n (`Vec2ModN`)
becomes its list of entries, and tuples, matrices among them, become lists.
So the result records are the output schema: a field declared on one reaches
stdout with no edit here.
Output is deterministic (sorted keys, canonical row order) and every numeric
value is exact.  Every subcommand prints JSON; `curve` and `tables` also
print CSV or Markdown rows under --format.  Exit codes: 0 success, 1
certificate not issued under --require, 2 input or precondition error (with
a message naming the violated contract).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import classify as _classify
from . import curveinv, levels, matgroup, orbits, sporadic
from .errors import DEFAULT_CAP, HypothesisFailed, X1PointsError, fields
from .modarith import MAX_MODULUS, Vec2ModN, gl2_order, factorize

# Each cmd_* reads the parsed arguments and returns (result, exit code): a
# result record, or a dict of them with the keys that are not fields.
Result = tuple[object, int]


def _fields(obj) -> dict:
    """The public fields of a record, by name."""
    return {name: getattr(obj, name) for name in fields(obj) if not name.startswith("_")}


def _encode(value):
    """The JSON value of a command result (the rule is in the module docstring)."""
    if isinstance(value, Vec2ModN):
        return list(value.entries)
    if fields(value):
        value = _fields(value)
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    return value


def _load_group(args: argparse.Namespace) -> matgroup.MatGroup:
    """The group of --in, bounded by --cap (the options of the group-file
    subcommands)."""
    if args.cap < 1:
        raise ValueError(f"cap must be >= 1, got {args.cap}")
    try:
        return matgroup.load_group(args.infile, args.cap)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise X1PointsError(f"group file contract violated by {args.infile}: {exc}") from exc


def cmd_group(args: argparse.Namespace) -> Result:
    G = _load_group(args)
    order = G.order
    return {
        "modulus": G.modulus.n,
        "generators": G.raw_generators,
        "order": order,
        "gl2_order": gl2_order(G.modulus.n),
        "index": gl2_order(G.modulus.n) // order,
        "contains_sl2": matgroup.contains_sl2(G),
    }, 0


def cmd_orbits(args: argparse.Namespace) -> Result:
    G = _load_group(args)
    n = G.modulus.n
    spec = orbits.degree_spectrum(G)
    return {
        "modulus": n,
        "exact_order_vectors": orbits.exact_order_vector_count(n, n),
        "orbits": [{"representative": r.representative, "size": r.size} for r in spec.records],
    }, 0


def cmd_degrees(args: argparse.Namespace) -> Result:
    G = _load_group(args)
    spec = orbits.degree_spectrum(G, args.field_degree)
    return {**_fields(spec), "closed_point_degrees": orbits.closed_point_degrees(spec)}, 0


def cmd_level(args: argparse.Namespace) -> Result:
    G = _load_group(args)
    detections = []
    for ell, e in G.modulus.factorization:
        s = e - 1
        if s >= levels.minimal_stage(ell):
            part = matgroup.project(G, ell**e)
            det = levels.detect_ladic_level(part, s)
            detections.append({**_fields(det), "level_bound": det.level_bound})
    out = {
        "modulus": G.modulus.n,
        "order": G.order,
        "detections": detections,
        "minimal_level": levels.minimize_level(G),
    }
    fac = G.modulus.factorization
    if len(fac) >= 2 and all(e >= 2 for _, e in fac):
        stages = {ell: e - 1 for ell, e in fac}
        try:
            out["certificate"] = levels.compose_level(G, stages)
        except HypothesisFailed as exc:
            out["certificate"] = {"hypothesis_failed": exc.prime, "detail": str(exc)}
    return out, 0


def _override(text: str) -> tuple[int, int]:
    """An `ell=value` override of --image-order or --tau (an argparse type)."""
    ell, _, value = text.partition("=")
    try:
        return int(ell), int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected ell=value with integers, got {text!r}"
        ) from None


def _in_range(value: int) -> int:
    """`value` if |value| <= 2^63 - 1, the advertised range of a modulus:
    factoring past it may not finish."""
    if abs(value) > MAX_MODULUS:
        raise argparse.ArgumentTypeError(f"{value} is out of range: |value| must be <= 2^63 - 1")
    return value


def _bounded_int(text: str) -> int:
    """An integer within `_in_range` (an argparse type)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return _in_range(value)


def _prime_list(text: str) -> list[int]:
    """The comma-separated integers of --primes, each within `_in_range` (an
    argparse type)."""
    try:
        return [_in_range(int(p)) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def cmd_level_bound(args: argparse.Namespace) -> Result:
    B = levels.BoundInput.build(
        args.primes, image_orders=dict(args.image_order), tau=dict(args.tau)
    )
    bound = levels.level_bound(B, args.ell)
    # ell^bound is printed, so it must fit the int-to-str limit; 16^limit >
    # 10^limit, so a bound past 4 * limit is refused before the power is taken
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if bound > 4 * limit or args.ell**bound >= 10**limit:
        raise ValueError(
            f"{args.ell}^{bound} has more than {limit} digits, the int-to-str limit"
        )
    return {
        "primes": sorted(B.primes),
        "ell": args.ell,
        "m1": B.m1[args.ell],
        "bound": bound,
        "bound_prime_power": args.ell**bound,
    }, 0


def cmd_curve(args: argparse.Namespace) -> Result:
    return curveinv.curve_invariants(args.N), 0


def cmd_sporadic_check(args: argparse.Namespace) -> Result:
    N, d = args.level, args.degree
    cert = sporadic.lifting_certificate(N, d)
    out = {"lifting": cert}
    issued = cert.issued
    gon = args.gonality if args.gonality is not None else curveinv.known_gonality(N)
    if gon is not None:
        frey = curveinv.frey_gonality_cert(N, d, gon)
        out["frey"] = {**_fields(frey), "statement": frey.statement}
        issued = issued or frey.issued
    out["certified_sporadic"] = issued
    return out, 1 if args.require and not issued else 0


def cmd_cm(args: argparse.Namespace) -> Result:
    order = sporadic.cm_order(args.disc, args.h)
    threshold, smallest = sporadic.cm_threshold(order)
    ell = args.ell if args.ell is not None else smallest
    degree, cert = sporadic.cm_point_degree(order, ell)
    return {
        **_fields(order),
        "threshold": threshold,
        "smallest_admissible_prime": smallest,
        "ell": ell,
        "degree": degree,
        "certificate": cert,
    }, 1 if args.require and not cert.issued else 0


def cmd_classify(args: argparse.Namespace) -> Result:
    try:
        with open(args.profile) as fh:
            profile = _classify.profile_from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise X1PointsError(f"profile file contract violated by {args.profile}: {exc}") from exc
    n = args.n
    verdict = _classify.classify_profile(profile, n)
    out = {**_fields(verdict), "n": n}
    supp = [p for p, _ in factorize(n)]
    if profile.assume_sz and (not supp or min(supp) >= 17):
        out["screen"] = _classify.sporadic_screen(profile, n)
    return out, 0


def cmd_tables(args: argparse.Namespace) -> Result:
    which = args.which
    if which == "classification":
        header = fields(levels.ClassificationRow)
        rows = [[getattr(r, name) for name in header] for r in levels.classification_table()]
    elif which == "gl2":
        header = ["ell", "gl2_order", "factorization"]
        rows = []
        for ell in (2, 3, 5, 7, 11, 13, 17, 37):
            order = gl2_order(ell)
            fact = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factorize(order))
            rows.append([ell, order, fact])
    elif which == "m1":
        header = ["ell", "m1_level"]
        rows = sorted(levels.M1_LEVELS.items())
    else:
        header = ["ell", "max_level"]
        rows = sorted(_classify.SZ_MAX_LEVELS.items())
    return {"table": which, "header": header, "rows": rows}, 0


def _cell(v) -> str:
    if isinstance(v, dict) and set(v) == {"num", "den"}:
        return f"{v['num']}/{v['den']}"
    return str(v)


def _render(result, fmt: str) -> str:
    """The encoded `result` as JSON, or as unquoted CSV or Markdown rows: a
    `tables` result gives its header and rows, a `curve` result one row per
    invariant."""
    data = _encode(result)
    if fmt == "json":
        return json.dumps(data, sort_keys=True, separators=(", ", ": "))
    if "header" in data:
        header, rows = data["header"], data["rows"]
    else:
        header, rows = ["invariant", "value"], data.items()
    lines = [[_cell(c) for c in row] for row in [header, *rows]]
    if fmt == "csv":
        return "\n".join(",".join(line) for line in lines)
    table = ["| " + " | ".join(line) + " |" for line in lines]
    table.insert(1, "|" + "|".join("---" for _ in header) + "|")
    return "\n".join(table)


# --format exists on `curve` and `tables` only: the others print JSON alone.
FORMAT_OPTION = {"choices": ("json", "csv", "markdown"), "default": "json", "dest": "output_format"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    # the options of the subcommands that build a group, the only ones the cap bounds
    group_file = argparse.ArgumentParser(add_help=False)
    group_file.add_argument("--in", dest="infile", required=True)
    group_file.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help="bounds the chain pairs a group visits, the elements it stores and the vectors orbits enumerate",
    )
    parser = argparse.ArgumentParser(
        prog="x1points",
        description="Finite GL2(Z/nZ) computations for degrees of points on X_1(n)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("group", parents=[group_file], help="order and basic facts of a group file")
    sub.add_parser("orbits", parents=[group_file], help="orbits on exact-order-n torsion vectors")
    p = sub.add_parser("degrees", parents=[group_file], help="degree spectrum above a j-invariant")
    p.add_argument("--field-degree", type=int, default=1)
    sub.add_parser("level", parents=[group_file], help="detect and minimize the level of a group")

    p = sub.add_parser("level-bound", help="valuation bound for a multi-prime level")
    p.add_argument(
        "--primes", type=_prime_list, required=True, help="comma-separated prime set"
    )
    p.add_argument("--ell", type=int, required=True)
    p.add_argument(
        "--image-order",
        type=_override,
        action="append",
        default=[],
        help="override, formatted ell=order",
    )
    p.add_argument(
        "--tau", type=_override, action="append", default=[], help="override, formatted ell=tau"
    )

    p = sub.add_parser("curve", help="invariants of X_1(N)")
    p.add_argument("N", type=_bounded_int)
    p.add_argument("--format", **FORMAT_OPTION)

    p = sub.add_parser("sporadic-check", help="lifting and gonality certificates")
    p.add_argument("--level", type=_bounded_int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--gonality", type=int, default=None)
    p.add_argument("--require", action="store_true", help="exit 1 unless certified")

    p = sub.add_parser("cm", help="CM sporadic-point pipeline")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--h", type=int, default=None, help="class number cross-check (h is counted)")
    p.add_argument("--ell", type=_bounded_int, default=None, help="prime (default: smallest admissible)")
    p.add_argument("--require", action="store_true")

    p = sub.add_parser("classify", help="decision tree over a Galois profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--n", type=_bounded_int, required=True)

    p = sub.add_parser("tables", help="built-in data tables")
    p.add_argument(
        "--which", required=True, choices=("classification", "gl2", "m1", "sz")
    )
    p.add_argument("--format", **FORMAT_OPTION)
    return parser


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
    args = build_parser().parse_args(argv)
    try:
        result, code = COMMANDS[args.subcommand](args)
        text = _render(result, getattr(args, "output_format", "json"))
    except X1PointsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: input contract violated: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
