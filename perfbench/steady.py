"""Steadiness check: two sets of runs of the same commit.

    python3 perfbench/steady.py

Each set runs run.py once per seed on every workload in BENCHMARK.json, for
its run_seconds (set k uses seeds k*1000+1 ... k*1000+10). For every
end-to-end metric it prints the median and quartiles per set, the quartile
spread as a share of the median against the metric's bound in
BENCHMARK.json, and how far the second set's median moved from the first
set's. Exits 1 if a spread exceeds its bound or a median moved the wrong
way by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
        raise RuntimeError(f"{workload} seed {seed}: answers did not check")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {}  # (set, workload, metric) -> [values]
    for k in range(SETS):
        for i in range(SEEDS):
            seed = (k + 1) * 1000 + i + 1
            for w in workloads:
                t0 = time.perf_counter()
                result = run_once(w, seed, bench["run_seconds"])
                for name, m in result["metrics"].items():
                    values.setdefault((k, w, name), []).append(m["value"])
                print(f"set {k + 1} seed {seed} {w}: {time.perf_counter() - t0:.1f}s "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                      flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':14s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'moved':>8s}")
        for name, spec in metrics.items():
            first = None
            for k in range(SETS):
                vals = values[(k, w, name)]
                q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
                spread = (q3 - q1) / med if med else 0.0
                moved = 0.0
                if first is None:
                    first = med
                elif first:
                    worse = med - first if spec["better"] == "lower" else first - med
                    moved = worse / first
                bad_spread = spread > spec["bound"]
                bad_move = moved > spec["bound"]
                ok = ok and not (bad_spread or bad_move)
                flag = " <-- spread" if bad_spread else " <-- moved" if bad_move else ""
                print(f"  {name:14s} {k + 1:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3%} "
                      f"{spec['bound']:6.2f} {moved:8.3%}{flag}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(
        json.dumps([{"set": k, "workload": w, "metric": n, "values": v} for (k, w, n), v in values.items()]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
