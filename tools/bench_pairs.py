"""Alternating parent/change pairs of the benchmark, summarized per metric.

    python3 tools/bench_pairs.py --parent TREE --change TREE --pr N \
        [--claim WORKLOAD:METRIC]

Each TREE is a checkout (a copy of the parent commit and one of the change).
For every workload of BENCHMARK.json, in its order, and every seed 1..10,
`perfbench/run.py --trace 0` runs once from each tree for BENCHMARK.json's
run_seconds, with PYTHONDONTWRITEBYTECODE=1: odd seeds run the parent first,
even seeds the change first.  Each run object is the last stdout line of run.py.
`src_sha256` names what each side ran: a sha256 over the sorted paths and
bytes of the tree's src/, skipping __pycache__ and .pyc files.  The file
BENCH_<N>.json (in this checkout's root) is rewritten after every run, so an
interrupted session keeps the runs it made; the summary covers complete pairs.

Per workload and end-to-end metric of BENCHMARK.json the summary gives each
side's median and quartiles (statistics.quantiles(n=4, method='inclusive')),
the parent's and change's interquartile range, `pairs_won` (pairs in which
the change read better; ties count for neither) and `worse_by`, the relative
worsening of the change's median (negative when it is better), beside the
metric's bound.  `within_bound` says whether worse_by is at most the bound,
and `within_parent_iqr` whether the change's median is worse than the
parent's by at most the parent's interquartile range.
`unresolved` says the runs spread too widely to tell: the parent's
interquartile range exceeds bound x parent median, and not every change run
beats every parent run.  The summary's `no_regression` holds when every
metric of every workload is within its bound and none is unresolved.  With
--claim the summary also says whether the claimed metric is met: the change
wins at least 9 of 10 pairs and its median beats the parent's by more than
the parent's interquartile range.  A --claim that names no workload and
end-to-end metric of BENCHMARK.json exits 2 before any run.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
PAIRS = 10
SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def run_once(tree: Path, workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tree_digest(tree: Path) -> str:
    """sha256 of the sorted relative paths and bytes of the files under
    tree/src, bytecode left out."""
    src = tree / "src"
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        rel = path.relative_to(src)
        if "__pycache__" in rel.parts or rel.suffix == ".pyc":
            continue
        data = path.read_bytes()
        h.update(f"{rel.as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize_metric(runs: list[dict], workload: str, metric: dict) -> dict | None:
    name, higher = metric["name"], metric["better"] == "higher"
    by_seed = {}
    for r in runs:
        if r["workload"] == workload:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"][name]["value"]
    pairs = [v for _, v in sorted(by_seed.items()) if len(v) == 2]
    if not pairs:
        return None
    out = {}
    for side in SIDES:
        q1, med, q3 = quartiles([p[side] for p in pairs])
        out[f"{side}_median"], out[f"{side}_q1_q3"], out[f"{side}_iqr"] = med, [q1, q3], q3 - q1
    won = sum((p["change"] > p["parent"]) if higher else (p["change"] < p["parent"]) for p in pairs)
    parent, change = out["parent_median"], out["change_median"]
    worse = (parent - change) if higher else (change - parent)
    worse_by, bound = worse / parent if parent else 0.0, metric["bound"]
    parents, changes = [p["parent"] for p in pairs], [p["change"] for p in pairs]
    separated = min(changes) > max(parents) if higher else max(changes) < min(parents)
    out.update(
        runs_per_side=len(pairs),
        pairs_won=won,
        pairs=len(pairs),
        worse_by=worse_by,
        bound=bound,
        within_bound=worse_by <= bound,
        within_parent_iqr=worse <= out["parent_iqr"],
        unresolved=out["parent_iqr"] > bound * parent and not separated,
    )
    return out


def summarize(runs: list[dict], claim: str | None) -> dict:
    summary = {}
    for w in WORKLOADS:
        metrics = {m["name"]: summarize_metric(runs, w, m) for m in BENCHMARK["end_to_end"]}
        metrics = {k: v for k, v in metrics.items() if v is not None}
        if metrics:
            summary[w] = metrics
    summary["no_regression"] = all(
        s["within_bound"] and not s["unresolved"] for ms in summary.values() for s in ms.values()
    )
    if claim:
        workload, metric = claim.split(":")
        s = summary.get(workload, {}).get(metric)
        if s is not None:
            higher = next(m for m in BENCHMARK["end_to_end"] if m["name"] == metric)["better"] == "higher"
            gain = (s["change_median"] - s["parent_median"]) * (1 if higher else -1)
            summary["claim"] = {
                "workload": workload,
                "metric": metric,
                "pairs_won": s["pairs_won"],
                "pairs": s["pairs"],
                "median_gain": gain,
                "parent_iqr": s["parent_iqr"],
                "met": s["pairs_won"] * 10 >= 9 * s["pairs"] and gain > s["parent_iqr"],
            }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    args = ap.parse_args(argv)
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in WORKLOADS or metric not in METRICS:
            ap.error(f"--claim {args.claim!r} is not WORKLOAD:METRIC with WORKLOAD one of "
                     f"{', '.join(WORKLOADS)} and METRIC one of {', '.join(METRICS)}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out_file = ROOT / f"BENCH_{args.pr}.json"
    command = f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS:g} --trace 0"
    doc = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "command": command,
        "protocol": (
            "for each seed, one parent run and one change run, each from a copy of its tree, with "
            "PYTHONDONTWRITEBYTECODE=1; odd seeds run the parent first, even seeds the change "
            f"first; every workload seeds 1-{PAIRS}, workloads in the order {', '.join(WORKLOADS)}; "
            + (f"the claimed gain is {args.claim.replace(':', ' ')} "
               "(summary.claim: met when the change wins at least 9 of 10 pairs and its median "
               "exceeds the parent's by more than the parent's interquartile range); "
               if args.claim else "")
            + "every end-to-end metric is checked against its BENCHMARK.json bound (worse_by is "
            "the relative worsening of the change's median, negative when it is better; "
            "within_bound when worse_by <= bound; within_parent_iqr when the change's median is "
            "worse than the parent's by at most the parent's interquartile range; unresolved when the parent's interquartile "
            "range exceeds bound x parent median and not every change run beats every parent "
            "run; summary.no_regression when every metric is within_bound and none unresolved); "
            "pairs_won counts the pairs in which the change read better; quartiles by "
            "statistics.quantiles(n=4, method='inclusive'); no trace runs; each run object is "
            "the last stdout line of run.py; written by tools/bench_pairs.py"
        ),
        "hardware": f"{platform.system()} host, {os.cpu_count()} CPUs",
        "src_sha256": {side: tree_digest(tree) for side, tree in trees.items()},
        "summary": {},
        "runs": [],
    }
    for w in WORKLOADS:
        for seed in range(1, PAIRS + 1):
            for side in (SIDES if seed % 2 else SIDES[::-1]):
                result = run_once(trees[side], w, seed)
                doc["runs"].append({"workload": w, "seed": seed, "side": side, "result": result})
                doc["summary"] = summarize(doc["runs"], args.claim)
                out_file.write_text(json.dumps(doc, indent=1) + "\n")
                m = result["metrics"]
                print(f"{w} seed {seed} {side}: " + ", ".join(
                    f"{k} {v['value']:.6g}" for k, v in m.items()), flush=True)
    print(json.dumps(doc["summary"].get("claim", {})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
