"""Host pace probe, run in an interpreter of its own.

    python3 -I perfbench/pace.py

The host's speed drifts by tens of percent within seconds, so run.py times
a fixed pure-Python routine next to each job and scales job times by it.
The routine has two halves, because the jobs slow down unevenly: an orbit
closure on small tuples (like the package's orbit and closure loops) and
the compilation of a fixed synthetic module (allocation- and branch-heavy,
like interpreter start and import). It runs in this separate process, which
never imports x1points: nothing the package does to its own interpreter (tracemalloc, a
profile hook, gc settings) slows the probe, so such a slowdown shows in the
job times in full instead of cancelling out.

For each line read on stdin, the routine runs once and its time in seconds
is written as one line on stdout. The process exits at the end of input.
"""

import sys
import time


def mvec(x, v, n):
    a, b, c, d = x
    return ((a * v[0] + b * v[1]) % n, (c * v[0] + d * v[1]) % n)


TEMPLATE = '''
class Node{i}:
    """Docstring {i}."""
    limit = {i}

    def __init__(self, items, scale={i}):
        self.items = [x * scale % 97 for x in items if x != {i}]
        self.index = {{k: v for k, v in enumerate(self.items)}}

    def total(self, start=0):
        acc = start
        for k, v in self.index.items():
            if v > self.limit:
                acc += k * v
            elif v < 0:
                raise ValueError(f"negative {{v}} at {{k}}")
            else:
                acc -= v
        return acc, (acc % {i}, "node{i}")


def helper{i}(a, b=None, *rest, **opts):
    try:
        return sorted(set(a) | {{b, {i}}}, key=lambda t: (t is None, t))
    except TypeError as exc:
        return [str(exc), *rest, opts.get("x", {i})]
'''
SOURCE = "".join(TEMPLATE.format(i=i) for i in range(20))


def pace() -> float:
    """Seconds taken to close the orbit of (1, 0) mod 97 under three
    matrices and to compile SOURCE."""
    t0 = time.perf_counter()
    n = 97
    gens = ((1, 1, 0, 1), (1, 0, 1, 1), (5, 0, 0, 1))
    seen = {(1, 0)}
    queue = [(1, 0)]
    for v in queue:
        for g in gens:
            w = mvec(g, v, n)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    assert len(seen) == n * n - 1
    compile(SOURCE, "<pace>", "exec")
    return time.perf_counter() - t0


def main() -> None:
    for _ in sys.stdin:
        sys.stdout.write(f"{pace()!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
