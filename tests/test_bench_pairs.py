"""The verdicts of `tools/bench_pairs.py`'s summary on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

WORKLOAD = bench_pairs.WORKLOADS[0]


def paired_runs(metric: str, parent: list[float], change: list[float]) -> list[dict]:
    """One parent and one change run per seed; every other end-to-end metric
    reads 1.0 on both sides."""
    runs = []
    for seed, values in enumerate(zip(parent, change), 1):
        for side, value in zip(bench_pairs.SIDES, values):
            metrics = {m["name"]: {"value": 1.0} for m in bench_pairs.BENCHMARK["end_to_end"]}
            metrics[metric] = {"value": value}
            runs.append({"workload": WORKLOAD, "seed": seed, "side": side,
                         "result": {"metrics": metrics}})
    return runs


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


def test_claim_met_within_bound():
    runs = paired_runs("jobs_per_s", PARENT, [v + 20 for v in PARENT])
    summary = bench_pairs.summarize(runs, f"{WORKLOAD}:jobs_per_s")
    s = summary[WORKLOAD]["jobs_per_s"]
    assert s["pairs_won"] == 10 and s["worse_by"] < 0
    assert s["within_bound"] and not s["unresolved"]
    assert summary["claim"]["met"] and summary["no_regression"]


def test_claim_not_met_when_the_change_reads_the_same():
    change = PARENT[1:] + PARENT[:1]
    summary = bench_pairs.summarize(paired_runs("jobs_per_s", PARENT, change), f"{WORKLOAD}:jobs_per_s")
    assert not summary["claim"]["met"]
    assert summary[WORKLOAD]["jobs_per_s"]["within_bound"] and summary["no_regression"]


def test_past_the_bound_is_a_regression():
    # jobs_per_s is higher-better and job_p50_s lower-better; each bound is 0.25
    for metric, change in (("jobs_per_s", [v * 0.7 for v in PARENT]),
                           ("job_p50_s", [v * 1.3 for v in PARENT])):
        summary = bench_pairs.summarize(paired_runs(metric, PARENT, change), None)
        s = summary[WORKLOAD][metric]
        assert s["worse_by"] > s["bound"] and not s["within_bound"], metric
        assert not summary["no_regression"] and "claim" not in summary, metric


def test_a_parent_spread_past_the_bound_is_unresolved():
    # the parent's interquartile range exceeds 0.25 x its median, so a change
    # inside the bound cannot be told apart unless every run of it beats every
    # parent run
    wide = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 55.0, 145.0, 100.0, 100.0]
    summary = bench_pairs.summarize(paired_runs("jobs_per_s", wide, wide[::-1]), None)
    s = summary[WORKLOAD]["jobs_per_s"]
    assert s["parent_iqr"] > s["bound"] * s["parent_median"]
    assert s["within_bound"] and s["unresolved"] and not summary["no_regression"]
    summary = bench_pairs.summarize(paired_runs("jobs_per_s", wide, [v + 200 for v in wide]), None)
    s = summary[WORKLOAD]["jobs_per_s"]
    assert not s["unresolved"] and summary["no_regression"]


def test_within_parent_iqr_compares_the_median_shift_with_the_parent_spread():
    # PARENT's quartiles are 99.625 and 100.425, so its interquartile range
    # is 0.8, and its median is 100.0
    s = bench_pairs.summarize(paired_runs("jobs_per_s", PARENT, [v - 0.5 for v in PARENT]), None)
    s = s[WORKLOAD]["jobs_per_s"]
    assert s["parent_iqr"] == pytest.approx(0.8) and s["within_parent_iqr"] and s["within_bound"]
    s = bench_pairs.summarize(paired_runs("jobs_per_s", PARENT, [v - 1.0 for v in PARENT]), None)
    s = s[WORKLOAD]["jobs_per_s"]
    assert not s["within_parent_iqr"] and s["within_bound"]
    # lower-better: a median 1.0 lower is better, so inside the spread
    s = bench_pairs.summarize(paired_runs("job_p50_s", PARENT, [v - 1.0 for v in PARENT]), None)
    assert s[WORKLOAD]["job_p50_s"]["within_parent_iqr"]
    s = bench_pairs.summarize(paired_runs("job_p50_s", PARENT, [v + 1.0 for v in PARENT]), None)
    assert not s[WORKLOAD]["job_p50_s"]["within_parent_iqr"]


def test_src_digest_follows_the_source_and_not_the_bytecode(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    (pkg / "__pycache__").mkdir(parents=True)
    (pkg / "mod.py").write_text("x = 1\n")
    before = bench_pairs.tree_digest(tmp_path)
    (pkg / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\x00bytecode")
    (pkg / "stray.pyc").write_bytes(b"\x00bytecode")
    assert bench_pairs.tree_digest(tmp_path) == before
    (pkg / "mod.py").write_text("x = 2\n")
    assert bench_pairs.tree_digest(tmp_path) != before


@pytest.mark.parametrize("claim", ["spectra:jobs_per_sec", "jobs_per_s", "spectrum:jobs_per_s", ""])
def test_a_claim_outside_the_benchmark_exits_before_any_run(claim, monkeypatch, capsys, tmp_path):
    def run_once(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--pr", "0", "--claim", claim]
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 2 and f"--claim {claim!r} is not WORKLOAD:METRIC" in err
    assert all(name in err for name in bench_pairs.WORKLOADS + bench_pairs.METRICS)
