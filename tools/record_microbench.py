"""Per-instance cost of result records: construction, `==` and `hash`.

    python3 tools/record_microbench.py [TREE ...]

Each TREE is a checkout (default: this one); its package is imported from
TREE/src in a child process of its own.  The trees take turns, one round
each, for ROUNDS rounds; a round times each operation NUMBER times, five
times over.  Every timing reported is the best of all, in microseconds per
operation.  Prints one JSON object: {tree: {operation: us}}.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 7
NUMBER = 100_000

# Runs in the child: times each operation with timeit and prints a JSON dict.
CHILD = r"""
import json, sys, timeit
sys.path.insert(0, sys.argv[1])
from x1points.modarith import Vec2ModN, modulus
from x1points.orbits import OrbitRecord

m = modulus(7)
v, w = Vec2ModN(m, 3, 4), Vec2ModN(m, 3, 4)
r = OrbitRecord(representative=v, size=4, point_order=7, minus_closed=True, degree=2)
s = OrbitRecord(representative=w, size=4, point_order=7, minus_closed=True, degree=2)
ops = {
    "Vec2ModN(m, x, y)": lambda: Vec2ModN(m, 3, 4),
    "Vec2ModN(modulus=, x=, y=)": lambda: Vec2ModN(modulus=m, x=3, y=4),
    "Vec2ModN ==": lambda: v == w,
    "Vec2ModN hash": lambda: hash(v),
    "OrbitRecord(keywords)": lambda: OrbitRecord(
        representative=v, size=4, point_order=7, minus_closed=True, degree=2
    ),
    "OrbitRecord(positional)": lambda: OrbitRecord(v, 4, 7, True, 2),
    "OrbitRecord ==": lambda: r == s,
    "OrbitRecord hash": lambda: hash(r),
}
number = int(sys.argv[2])
print(json.dumps({k: min(timeit.repeat(f, number=number, repeat=5)) / number * 1e6 for k, f in ops.items()}))
"""


def main() -> None:
    trees = sys.argv[1:] or [str(ROOT)]
    best: dict[str, dict[str, float]] = {tree: {} for tree in trees}
    for _ in range(ROUNDS):
        for tree in trees:
            out = subprocess.run(
                [sys.executable, "-c", CHILD, str(Path(tree) / "src"), str(NUMBER)],
                capture_output=True, text=True, check=True,
            ).stdout
            for op, us in json.loads(out).items():
                best[tree][op] = min(us, best[tree].get(op, us))
    print(json.dumps(best, indent=1))


if __name__ == "__main__":
    main()
