"""Layered benchmark for x1points.

    python3 perfbench/run.py --workload group_level|spectra|cli_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. Each
workload is a closed loop with one client and one job at a time. A run
repeats whole passes over the seeded job list until about S seconds have
gone, checks every answer, and prints the end-to-end metrics (--trace 0) or
the per-layer metrics of one pass that runs each job untraced and traced
(--trace 1) as the last line of stdout. Times are scaled by the host's pace
(see PaceProbe). Spans and the per-layer table go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import numtheory as nt  # noqa: E402
from families import Family  # noqa: E402

WORKLOADS = ("group_level", "spectra", "cli_mix")
JOB_LIMIT_S = {"group_level": 60.0, "spectra": 60.0, "cli_mix": 1.0}
SETUP_REPEATS = 15
PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
PACE_NOMINAL_S = 0.015
PACE_EVERY_S = 0.2


class JobTimeout(Exception):
    pass


def import_package():
    """A fresh import of x1points from ./src (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "x1points" or m.startswith("x1points.")]:
        del sys.modules[name]
    sys.path.insert(0, str(SRC))
    try:
        import x1points.cli  # noqa: F401
    finally:
        sys.path.remove(str(SRC))
    return sys.modules["x1points"]


class Outcome:
    __slots__ = ("status", "detail", "stdout_bytes")

    def __init__(self, status: str, detail: str = "", stdout_bytes: int = 0):
        self.status = status  # ok | wrong | timeout
        self.detail = detail
        self.stdout_bytes = stdout_bytes


# -- answer checks ---------------------------------------------------------------


def check_degrees(records, cpd, exp) -> str:
    """`records` holds (size, point_order, minus_closed, degree) per orbit."""
    n = exp["modulus"]
    sizes = sorted(r[0] for r in records)
    if sizes != exp["orbit_sizes"]:
        return f"orbit sizes {sizes} != {exp['orbit_sizes']}"
    if sum(sizes) != exp["vectors"]:
        return "orbit sizes do not cover the exact-order vectors"
    for size, point_order, minus_closed, degree in records:
        if point_order != n or not minus_closed or degree != size // 2:
            return f"record {(size, point_order, minus_closed, degree)} inconsistent"
    if cpd != exp["closed_point_degrees"] or sum(cpd) != exp["psl2_index"]:
        return f"closed-point degrees {cpd} != {exp['closed_point_degrees']}"
    return ""


def check_growth(reports, exp) -> str:
    a, b, n = exp["a"], exp["b"], exp["modulus"]
    if sorted(r.upstairs_size for r in reports) != exp["orbit_sizes"]:
        return "upstairs orbit sizes differ"
    frame = exp.get("borel_frame")
    hinv = nt.minv(tuple(frame), n) if frame else None
    for r in reports:
        if r.fiber != exp["fiber"] or r.map_degree != exp["map_degree"]:
            return f"fiber/map degree {r.fiber}/{r.map_degree} != {exp['fiber']}/{exp['map_degree']}"
        if r.field_ratio * r.downstairs_size != r.upstairs_size:
            return "field ratio does not divide the orbit"
        if hinv is None:
            want = exp["all_max_growth"]
        else:
            y = nt.mvec(hinv, r.representative.entries, n)[1]
            g = math.gcd(y, n)
            up = Family.borel_orbit_size(n, g)
            down = Family.borel_orbit_size(a, math.gcd(g, a))
            if (r.upstairs_size, r.downstairs_size) != (up, down):
                return f"Borel orbit sizes {r.upstairs_size}/{r.downstairs_size} != {up}/{down}"
            want = up // down == exp["fiber"]
        if r.max_growth != want:
            return f"max_growth {r.max_growth} at {r.representative}"
    return ""


def _rows(text: str, fmt: str) -> list[list[str]]:
    lines = text.splitlines()
    if fmt == "csv":
        return [line.split(",", len(lines[0].split(",")) - 1) for line in lines]
    rows = [[c.strip() for c in line.strip().strip("|").split("|")] for line in lines]
    return [rows[0]] + rows[2:]


def check_cli(job, code: int, out: str) -> str:
    exp, check = job["expect"], job["check"]
    if code != job["exit"]:
        return f"exit code {code} != {job['exit']}"
    if check.startswith("curve-") and check != "curve-json":
        rows = dict((r[0], r[1]) for r in _rows(out, check[6:])[1:])
        want = {k: str(v) for k, v in exp.items()}
        want["gonality_lower"] = "{num}/{den}".format(**exp["gonality_lower"])
        got = {k: rows.get(k) for k in want}
        return "" if got == want else f"{got} != {want}"
    if check.startswith("table-") and check != "table-json":
        rows = _rows(out, check[6:])
        want = [[str(c) for c in exp["header"]]] + [[str(c) for c in r] for r in exp["rows"]]
        return "" if rows == want else f"table {rows} != {want}"
    data = json.loads(out)
    if check in ("json", "table-json"):
        return "" if data == exp else f"{data} != {exp}"
    if check == "curve-json":
        got = {k: data[k] for k in exp}
    elif check == "sporadic":
        lift = data["lifting"]
        frey = data.get("frey")
        got = {"N": lift["N"], "degree": lift["degree"], "threshold": lift["threshold"],
               "margin": lift["margin"], "issued": lift["verdict"] == "SporadicAllLiftsSporadic",
               "gonality": frey and frey["gonality"], "frey_issued": frey and frey["issued"],
               "certified_sporadic": data["certified_sporadic"]}
    elif check == "cm":
        got = {k: data[k] for k in exp}
        cert = data["certificate"]
        if cert["verdict"] != "SporadicAllLiftsSporadic" or (cert["N"], cert["degree"]) != (exp["ell"], exp["degree"]):
            return f"cm certificate {cert}"
    elif check == "classify":
        got = {k: data[k] for k in exp}
        if "screen" in data:
            return "unexpected screen"
    elif check == "degrees":
        records = [(r["size"], r["point_order"], r["minus_closed"], r["degree"]) for r in data["records"]]
        return check_degrees(records, data["closed_point_degrees"], exp)
    else:
        raise ValueError(check)
    return "" if got == exp else f"{got} != {exp}"


# -- workloads -----------------------------------------------------------------


class Workload:
    """Set-up and execution of one workload's jobs; subclasses run the jobs."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.limit = JOB_LIMIT_S[self.name]
        self.jobs: list[dict] = []
        self.digest = ""

    def setup(self) -> None:
        self.jobs = inputs.build(self.name, self.seed)
        self.digest = inputs.digest(self.jobs)
        for job in self.jobs:
            for fname, content in job.get("files", {}).items():
                (self.workdir / fname).write_text(json.dumps(content))
            if "group" in job and job["kind"] in ("group", "level"):
                path = self.workdir / f"{job['id']}.json"
                path.write_text(json.dumps(job["group"]))
                job["path"] = str(path)
        self.prepare()
        for job in [j for j in self.jobs if j["warmup"]]:
            outcome = self.run(job)
            if outcome.status != "ok":
                raise RuntimeError(f"warm-up job {job['id']} failed: {outcome.detail}")

    def prepare(self) -> None:
        self.x1 = import_package()

    def run_timed(self, job, pace=None) -> tuple[Outcome, float, list[float]]:
        """Run one job in-process under its time limit.

        A timer fires every PACE_EVERY_S while the job runs. It enforces the
        limit and, given a `pace` probe, samples the host's pace. Returns the
        outcome, the job's wall time without the time spent probing, and the
        samples.
        """
        during: list[float] = []
        probing = 0.0
        deadline = time.perf_counter() + self.limit

        def tick(signum, frame):
            nonlocal probing
            t0 = time.perf_counter()
            if t0 >= deadline:
                raise JobTimeout()
            if pace is not None:
                during.append(pace())
            probing += time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, PACE_EVERY_S)

        old = signal.signal(signal.SIGALRM, tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PACE_EVERY_S)
        try:
            outcome = self.run(job)
        except JobTimeout:
            outcome = Outcome("timeout", "per-job time limit")
        except Exception as exc:  # a crash inside the program is a wrong answer
            outcome = Outcome("wrong", f"{type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raw = time.perf_counter() - start - probing
            signal.signal(signal.SIGALRM, old)
        return outcome, raw, during


class GroupLevel(Workload):
    name = "group_level"

    def run(self, job) -> Outcome:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.x1.cli.main([job["kind"], "--in", job["path"]])
        out = buf.getvalue()
        if code != 0:
            return Outcome("wrong", f"exit code {code}")
        data = json.loads(out)
        if data != job["expect"]:
            return Outcome("wrong", f"{data} != {job['expect']}")
        return Outcome("ok", stdout_bytes=len(out.encode()))


class Spectra(Workload):
    name = "spectra"

    def run(self, job) -> Outcome:
        x1 = self.x1
        G = x1.matgroup.group_from_dict(job["group"])
        if job["lift_to"] is not None:
            G = x1.matgroup.full_preimage(G, job["lift_to"])
        exp = job["expect"]
        if job["kind"] == "degrees":
            spectrum = x1.orbits.degree_spectrum(G)
            records = [(r.size, r.point_order, r.minus_closed, r.degree) for r in spectrum.records]
            err = check_degrees(records, x1.orbits.closed_point_degrees(spectrum), exp)
        else:
            err = check_growth(x1.orbits.max_growth_check(G, exp["b"]), exp)
        return Outcome("wrong", err) if err else Outcome("ok")


class CliMix(Workload):
    name = "cli_mix"

    def prepare(self) -> None:
        self.env = dict(os.environ)
        self.env.pop("X1POINTS_CAP", None)
        self.env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.inprocess = False

    def argv(self, job) -> list[str]:
        files = job.get("files", {})
        return [str(self.workdir / a) if a in files else a for a in job["argv"]]

    def run(self, job) -> Outcome:
        if self.inprocess:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = self.x1.cli.main(self.argv(job))
            out = buf.getvalue()
        else:
            try:
                proc = subprocess.run([sys.executable, "-m", "x1points.cli", *self.argv(job)],
                                      capture_output=True, text=True, env=self.env,
                                      cwd=self.workdir, timeout=self.limit)
            except subprocess.TimeoutExpired:
                return Outcome("timeout", "per-job time limit")
            code, out = proc.returncode, proc.stdout
        try:
            err = check_cli(job, code, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            err = f"unparseable output: {exc!r}: {out[:200]!r}"
        return Outcome("wrong", err) if err else Outcome("ok", stdout_bytes=len(out.encode()))

    def run_timed(self, job, pace=None) -> tuple[Outcome, float, list[float]]:
        if self.inprocess:
            return super().run_timed(job, pace)
        # the subprocess timeout enforces the limit; no probe may run beside the child
        start = time.perf_counter()
        outcome = self.run(job)
        return outcome, time.perf_counter() - start, []


WORKLOAD_CLASSES = {cls.name: cls for cls in (GroupLevel, Spectra, CliMix)}


# -- measurement ---------------------------------------------------------------


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[int, float]:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return rank, sorted_values[rank - 1]


def pin_to_one_cpu() -> None:
    """Run this process, the pace probe and every job child on one CPU.

    The host's cores drift apart, so the probe only tracks the jobs' speed
    when it runs on the same core as they do. The jobs run one at a time and
    the probe only while the benchmark waits for it, so they never compete.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class PaceProbe:
    """The host-pace routine of pace.py, timed in a child interpreter.

    The host's speed drifts by tens of percent within seconds. Timing this
    routine next to each job tracks that drift; job times are reported
    scaled to PACE_NOMINAL_S, a fixed constant near the routine's time on
    the 2-CPU host the bounds were set on. The child never imports
    x1points, so a slowdown of the whole benchmark process (tracemalloc, a
    profile hook, gc settings) is not cancelled by the scaling.
    """

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", str(HERE / "pace.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for _ in range(3):
            self()
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Record:
    __slots__ = ("job", "raw_s", "norm_s", "outcome")

    def __init__(self, job, raw_s, norm_s, outcome):
        self.job, self.raw_s, self.norm_s, self.outcome = job, raw_s, norm_s, outcome


def run_pass(wl: Workload, records: list, pace: PaceProbe) -> float:
    """Run every job once; returns the pass's wall time."""
    t0 = time.perf_counter()
    paces, timed = [], []
    for job in wl.jobs:
        # every job starts from the same collector state, whatever ran before
        gc.collect()
        paces.append(pace())
        timed.append((job, *wl.run_timed(job, pace)))
    paces.append(pace())
    for i, (job, outcome, raw, during) in enumerate(timed):
        # a job cut at its limit took the limit, however fast the host was
        norm = wl.limit if outcome.status == "timeout" else raw * pace_scale(paces, i, during)
        records.append(Record(job, raw, norm, outcome))
    return time.perf_counter() - t0


def pace_scale(paces: list[float], i: int, during: list[float]) -> float:
    """PACE_NOMINAL_S over the host's pace for span i, which ran between the
    samples paces[i] and paces[i + 1].

    A span with samples taken while it ran averages them and its two end
    samples as speeds (1 / pace), so each stretch of the span weighs by its
    length. A short span uses the median of the six samples around it.
    """
    if during:
        return PACE_NOMINAL_S * statistics.fmean(1 / p for p in (paces[i], *during, paces[i + 1]))
    return PACE_NOMINAL_S / statistics.median(paces[max(0, i - 2): i + 4])


def measure(wl: Workload, seconds: float, pace: PaceProbe) -> tuple[list, float, int]:
    records: list = []
    total = 0.0
    passes = 0
    while True:
        total += run_pass(wl, records, pace)
        passes += 1
        # whole passes only, so every run has the same job mix; stop at the
        # pass count closest to the requested duration
        if total + 0.5 * total / passes >= seconds:
            return records, total, passes


def summarize_failures(records) -> tuple[int, list[str], list[str]]:
    failed, known, wrong = 0, [], []
    for r in records:
        if r.outcome.status == "ok":
            continue
        failed += 1
        label = f"{r.job['id']}: {r.outcome.status}: {r.outcome.detail[:300]}"
        if r.outcome.status == "timeout" and r.job.get("known_defect"):
            known.append(f"{label} [known defect: {r.job['known_defect']}]")
        else:
            wrong.append(label)
    return failed, known, wrong


def end_to_end(wl: Workload, seconds: float) -> dict:
    raw_setups, setup_paces = [], []
    with PaceProbe() as pace:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            setup_paces.append(pace())
            t0 = time.perf_counter()
            wl.setup()
            raw_setups.append(time.perf_counter() - t0)
        setup_paces.append(pace())
        setups = [raw * pace_scale(setup_paces, i, []) for i, raw in enumerate(raw_setups)]
        records, total, passes = measure(wl, seconds, pace)
        # read before the probe exits: RUSAGE_CHILDREN would count it then
        if isinstance(wl, CliMix):
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(records)
    failed, known, wrong = summarize_failures(records)
    # A job's time is the mean over the run's passes of its pace-scaled
    # time (the mean does not change meaning with the pass count). A job
    # that failed in a pass has infinite latency: it misses any limit.
    # Throughput counts the time failed jobs took.
    spent: dict = {}
    latency: dict = {}
    for r in records:
        spent.setdefault(r.job["id"], []).append(r.norm_s)
        latency.setdefault(r.job["id"], []).append(r.norm_s if r.outcome.status == "ok" else math.inf)
    lat = sorted(statistics.fmean(v) for v in latency.values())
    jobs = len(lat)
    tail_pct = next((p for p in PERCENTILES if jobs - nearest_rank(lat, p)[0] >= TAIL_BEYOND),
                    PERCENTILES[-1])
    rank, tail = nearest_rank(lat, tail_pct)
    if math.isinf(tail):
        tail = wl.limit
    raw_jobs = sum(r.raw_s for r in records)
    print(f"# {wl.name} seed={wl.seed} inputs_sha256={wl.digest} passes={passes} jobs/pass={jobs} "
          f"attempted={n} wall_s={total:.3f} raw_job_s={raw_jobs:.3f} "
          f"pace_scaled_job_s={sum(r.norm_s for r in records):.3f} "
          f"median_pace_s={statistics.median(r.raw_s / r.norm_s * PACE_NOMINAL_S for r in records):.5f}")
    print(f"# job_tail_s is p{tail_pct:g} over {jobs} jobs ({jobs - rank} jobs beyond it); "
          f"set-ups (pace-scaled) {[round(s, 4) for s in setups]}")
    for line in known:
        print(f"# failed (known defect) {line}")
    for line in wrong:
        print(f"# FAILED {line}")
    metrics = {
        "job_p50_s": (nearest_rank(lat, 50.0)[1], "s"),
        "job_tail_s": (tail, "s"),
        "jobs_per_s": (jobs / sum(statistics.fmean(v) for v in spent.values()), "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_frac": ((n - failed) / n, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {"correct": not wrong, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _subprocess_wall(argv, env, repeats=5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _microloop(fn, n: int, vector: bool) -> float:
    """Nanoseconds per call of mul_raw/apply_raw at modulus n (best of 3)."""
    import random

    rng = random.Random(n)
    mats = [nt.random_gl2(rng, n) for _ in range(64)]
    second = [(m[0], m[2]) for m in mats] if vector else mats
    pairs = list(zip(mats, second)) * 250
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for x, y in pairs:
            fn(x, y, n)
        best = min(best, (time.perf_counter_ns() - t0) / len(pairs))
    return best


def _unit_cost(fn, calls, moduli, vector: bool) -> float:
    costs = {n: _microloop(fn, n, vector) for n in sorted(moduli)}
    weight = sum(calls.values())
    if weight == 0:
        return statistics.mean(costs.values())
    return sum(costs[n] * calls.get(n, 0) for n in costs) / weight


def traced(wl: Workload, seconds: float) -> dict:
    from tracing import Tracer

    wl.setup()
    if isinstance(wl, CliMix):
        wl.x1 = import_package()
        wl.inprocess = True
    # Each job runs untraced and traced back to back (alternating which goes
    # first), so host drift between the two cancels out of the overhead.
    tracer = Tracer()
    plain: list = []
    records: list = []
    for i, job in enumerate(wl.jobs):
        tracer.job = i
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            gc.collect()
            if with_trace:
                tracer.install()
            try:
                outcome, raw, _ = wl.run_timed(job)
            finally:
                if with_trace:
                    tracer.uninstall()
            (records if with_trace else plain).append(Record(job, raw, raw, outcome))
    failed, known, wrong = summarize_failures(records)
    _, _, wrong_plain = summarize_failures(plain)
    # jobs cut at their time limit would read as zero overhead
    both = [(p, r) for p, r in zip(plain, records) if p.outcome.status == r.outcome.status == "ok"]
    untraced_s = sum(p.raw_s for p, _ in both)
    traced_s = sum(r.raw_s for _, r in both)
    summary = tracer.summary()
    self_s, calls, incl = summary["self_s"], summary["calls"], summary["incl_s"]
    c = tracer.counters

    moduli = {j["group"]["modulus"] for j in wl.jobs if "group" in j}
    moduli |= {j["lift_to"] for j in wl.jobs if j.get("lift_to")}
    moduli |= {f["modulus"] for j in wl.jobs for f in j.get("files", {}).values() if "modulus" in f}
    x1m = wl.x1.modarith
    interp_s = import_s = 0.0
    if isinstance(wl, CliMix):
        interp_s = _subprocess_wall([sys.executable, "-c", "pass"], wl.env)
        import_s = _subprocess_wall([sys.executable, "-c", "import x1points.cli"], wl.env) - interp_s

    m = {
        "modarith.mul_raw_ns": (_unit_cost(x1m.mul_raw, tracer.mul_calls, moduli, False), "ns"),
        "modarith.mul_raw_calls": (sum(tracer.mul_calls.values()), "count"),
        "modarith.apply_raw_ns": (_unit_cost(x1m.apply_raw, tracer.apply_calls, moduli, True), "ns"),
        "modarith.apply_raw_calls": (sum(tracer.apply_calls.values()), "count"),
        "modarith.factorize_calls": (calls.get("modarith.factorize", 0), "count"),
        "modarith.factorize_s": (incl.get("modarith.factorize", 0.0), "s"),
        "modarith.self_s": (self_s.get("modarith", 0.0), "s"),
        "matgroup.elements_s": (incl.get("matgroup.MatGroup.elements", 0.0), "s"),
        "matgroup.elements_materialized": (c["elements_materialized"], "count"),
        "matgroup.peak_group_elements": (c["peak_group_elements"], "count"),
        "matgroup.contains_calls": (calls.get("matgroup.MatGroup.contains", 0), "count"),
        "matgroup.self_s": (self_s.get("matgroup", 0.0), "s"),
        "matgroup.project_calls": (calls.get("matgroup.project", 0), "count"),
        "matgroup.project_s": (incl.get("matgroup.project", 0.0), "s"),
        "matgroup.full_preimage_gens": (c["full_preimage_gens"], "count"),
        "orbits.vectors": (c["orbit_vectors"], "count"),
        "orbits.orbits": (c["orbits"], "count"),
        "orbits.vector_orbits_s": (incl.get("orbits.vector_orbits", 0.0), "s"),
        "orbits.fiber_count_s": (incl.get("orbits.fiber_count", 0.0), "s"),
        "orbits.self_s": (self_s.get("orbits", 0.0), "s"),
        "levels.is_full_preimage_calls": (calls.get("matgroup.is_full_preimage", 0), "count"),
        "levels.minimize_level_s": (incl.get("levels.minimize_level", 0.0), "s"),
        "levels.compose_level_s": (incl.get("levels.compose_level", 0.0), "s"),
        "levels.detect_s": (incl.get("levels.detect_ladic_level", 0.0), "s"),
        "levels.self_s": (self_s.get("levels", 0.0), "s"),
        "levels.classification_table_calls": (calls.get("levels.classification_table", 0), "count"),
        "classify.self_s": (self_s.get("classify", 0.0), "s"),
        "curveinv.self_s": (self_s.get("curveinv", 0.0), "s"),
        "sporadic.self_s": (self_s.get("sporadic", 0.0), "s"),
        "sporadic.cm_candidates_scanned": (c["cm_candidates_scanned"], "count"),
        "cli.interpreter_s": (interp_s, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "cli.stdout_bytes": (sum(r.outcome.stdout_bytes for r in records), "bytes"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"trace-{wl.name}-seed{wl.seed}.json"
    table = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    out_file.write_text(json.dumps({
        "workload": wl.name, "seed": wl.seed, "inputs_sha256": wl.digest,
        "untraced_jobs_s": untraced_s, "traced_jobs_s": traced_s,
        "layers": table, "spans_by_name": summary,
        "jobs": [j["id"] for j in wl.jobs],
        "spans": tracer.dump_spans(),
    }))
    print(f"# {wl.name} seed={wl.seed} job time traced {traced_s:.3f}s, untraced {untraced_s:.3f}s, "
          f"{len(tracer.spans)} spans -> {out_file.relative_to(ROOT)}")
    for k, (v, u) in m.items():
        print(f"#   {k:36s} {v:>14.6g} {u}")
    for line in known:
        print(f"# failed (known defect) {line}")
    for line in wrong + wrong_plain:
        print(f"# FAILED {line}")
    return {"correct": not (wrong or wrong_plain), "attempted": len(records), "failed": failed,
            "metrics": table}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "x1points" / "cli.py").is_file():
        print(f"error: no x1points package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("X1POINTS_CAP", None)
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        wl = WORKLOAD_CLASSES[args.workload](args.seed, workdir)
        result = traced(wl, args.seconds) if args.trace else end_to_end(wl, args.seconds)
        recorded = inputs.recorded_digest(args.workload, args.seed)
        if recorded is not None and recorded != wl.digest:
            print(f"error: inputs for seed {args.seed} differ from the recorded digest {recorded}",
                  file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
