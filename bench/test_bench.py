"""Tests of the benchmark itself: `python3 -m pytest -q bench/test_bench.py`.

They run every workload at a tiny pass size, check that the digest gate
bites and that the seed drives the job list, and check that the metric
names agree with BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_checkout_src()
import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def tiny_pass(name, seed=3, size=4):
    data = run.load(name)
    return next(run.passes(name, seed, data, size=size))


def run_jobs(name, jobs):
    ctx = run.Context(name)
    try:
        return run.run_pass(jobs, workloads.job_fn(name), ctx)
    finally:
        ctx.close()


@pytest.mark.parametrize("name", NAMES)
def test_tiny_pass_matches_recorded_digests(name):
    results = run_jobs(name, tiny_pass(name))
    failed, correct = run.summarize(results)
    assert correct
    statuses = {e["key"]: status for e, _, status, _ in results}
    if name == "cli":
        # the pinned defect stays in every pass and still gives the seed's
        # wrong output, which lowers ok_ratio but is not a failed job
        assert statuses.pop(workloads.PINNED_DEFECT) == "known_defect"
    assert failed == 0
    assert set(statuses.values()) == {"ok"}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_digest_is_a_failure(name):
    jobs = tiny_pass(name, size=2)
    victim = dict(jobs[0], digest="0" * 64)
    victim.pop("defect_digest", None)
    results = run_jobs(name, [victim])
    assert results[0][2] == "mismatch"
    assert run.summarize(results) == (1, False)


def test_raising_job_is_a_failure():
    def broken(spec, ctx):
        raise AssertionError("routes disagree")
    results = run.run_pass(tiny_pass("oracle", size=1), broken, None)
    assert results[0][2] == "error"
    assert run.summarize(results) == (1, False)


def test_strata_cut_the_costly_end_finest():
    bounds = run.strata(7, 3)
    assert bounds == [(0, 3), (3, 5), (5, 7)]
    assert run.strata(5, 5) == [(k, k + 1) for k in range(5)]


def test_band_percentile_is_the_mean_around_the_rank():
    values = list(range(1, 101))
    assert run.band_percentile(values, 0.5) == 50.5
    assert run.band_percentile(values, 0.9) == 90.5
    assert run.band_percentile([3.0], 0.9) == 3.0


def test_times_are_scaled_by_the_local_kernel_median():
    ref = run.REFERENCE_S
    # the machine runs at half speed around the last two jobs
    kernel = [ref, ref, ref, 2 * ref, 2 * ref]
    scaled = run.at_reference_speed([1.0, 1.0, 1.0, 1.0, 1.0], kernel)
    assert scaled == pytest.approx([1.0, 1.0, 1.0, 0.5, 0.5])


@pytest.mark.parametrize("name", NAMES)
def test_seed_drives_the_job_list(name):
    def keys(seed):
        return [e["key"] for e in tiny_pass(name, seed=seed, size=20)]
    assert keys(1) == keys(1)
    assert keys(1) != keys(2)


@pytest.mark.parametrize("name", NAMES)
def test_recorded_universe_matches_the_code(name):
    sampled, fixed = workloads.candidates(name)
    recorded = [e["key"] for e in run.load(name)["instances"]]
    assert recorded == [key for key, _ in sampled + fixed]
    assert len(set(recorded)) == len(recorded)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == NAMES
    ctx = run.Context("cli")
    try:
        metrics, _, _ = run.trace([tiny_pass("cli", size=3)],
                                  workloads.job_fn("cli"), ctx)
    finally:
        ctx.close()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in metrics.items()}


def test_trace_accounts_for_the_wall_and_uninstalls():
    from edgeschur import lattice
    from edgeschur.poly import MultiPoly
    originals = (lattice.partition_function, MultiPoly.__mul__,
                 MultiPoly.__rmul__, workloads.schur.edge_schur)
    t = tracer.Tracer()
    t.install()
    try:
        assert lattice.partition_function is not originals[0]
        assert MultiPoly.__mul__ is MultiPoly.__rmul__
        root = t.begin("bench.run")
        run_jobs("oracle", tiny_pass("oracle", size=3))
        t.end(root)
    finally:
        t.uninstall()
    assert (lattice.partition_function, MultiPoly.__mul__, MultiPoly.__rmul__,
            workloads.schur.edge_schur) == originals
    summ = t.summary()
    wall = t.span_end[root] - t.span_start[root]
    assert sum(r["self_s"] for r in summ.values()) == pytest.approx(wall)
    assert summ["lattice.partition_function"]["calls"] == 6
    assert summ["poly.mul"]["calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
