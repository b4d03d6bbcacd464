"""Benchmark runner: one workload, one seed, a closed loop of jobs.

    python3 bench/run.py --workload oracle --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`.  One process and one thread run one job at a time.  The seed
fixes the job stream: each pass draws one instance from each of
PASS_SIZE cost strata of the workload's universe (`bench/data`), plus the
workload's fixed jobs, in seeded order.  Every job's output is hashed and
compared with the digest recorded for that instance.

`--trace 0` runs passes until `--seconds` have passed and reports the
end-to-end metrics over the complete passes (the first pass always
completes; jobs of a pass cut at the deadline are only checked).  After
every job it times a fixed reference kernel, and it reports every time at
the reference speed: a job's wall time times REFERENCE_S over the kernel's
local median time (see `at_reference_speed`).  The raw wall-clock figures
are printed above the JSON line.  `--trace 1` runs the seed's first two
passes untraced, then the same two passes with every layer wrapped in
spans, and reports the per-layer metrics (so a seed's counts repeat
exactly).  The last line of standard output is one JSON object; the lines
above it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
TRACES = ROOT / ".bench_out"
SETUP_SAMPLES = 7
TRACE_PASSES = 2
# times are scaled to a machine where the reference kernel takes this
# long: a round figure near its median on a 2-core x86-64 VM (CPython 3.11)
REFERENCE_S = 0.0008
# kernel samples on each side of a job that make up its local median
KERNEL_WINDOW = 1

# BENCHMARK.json lists these metrics with the same names and units
END_TO_END = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
              "ok_ratio": "1", "setup_s": "s", "peak_rss_mib": "MiB"}


def use_checkout_src() -> None:
    """Import `edgeschur` from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "edgeschur" / "__init__.py").is_file():
        raise SystemExit(f"error: no edgeschur sources under {src}")
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import edgeschur
    if Path(edgeschur.__file__).resolve().parent != src / "edgeschur":
        raise SystemExit(f"error: edgeschur imported from {edgeschur.__file__}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_kernel() -> int:
    """A fixed piece of pure-Python work, timed between jobs to follow the
    machine's speed.  It mixes the library's two kinds of work, written out
    here so that no change to the library changes it: a sparse product of
    polynomials held as dicts of exponent tuples, and building, hashing and
    sorting many small tuples.  Either half alone follows the jobs' speed
    less closely than the two together."""
    a = {(i, j, k): i + 2 * j + 3 * k + 1
         for i in range(4) for j in range(4) for k in range(3)}
    b = {(i, j, k): i * j - k + 2
         for i in range(3) for j in range(3) for k in range(3)}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[key] = out.get(key, 0) + va * vb
    rows = {}
    for i in range(600):
        rows[(i % 7, i % 11, i % 13, i)] = [i, i + 1]
    order = sorted(rows, key=lambda t: (t[2], t[1], t[0]))
    return len(out) + len(order)


def time_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def at_reference_speed(seconds, kernel):
    """Scale each job's wall time to the reference speed.

    The machine's speed drifts (up to 2x on a shared host, over tens of
    seconds), and the kernel slows with it.  Job i is scaled by
    REFERENCE_S / the median of the kernel times measured after jobs
    i - KERNEL_WINDOW .. i + KERNEL_WINDOW."""
    out = []
    for i, dt in enumerate(seconds):
        local = statistics.median(
            kernel[max(0, i - KERNEL_WINDOW):i + KERNEL_WINDOW + 1])
        out.append(dt * REFERENCE_S / local)
    return out


class Context:
    """Per-process scratch: a temp dir inside the checkout with the input
    files the CLI jobs read."""

    def __init__(self, workload: str):
        import workloads
        self.tmp = str(ROOT / ".bench_tmp" / str(os.getpid()))
        os.makedirs(self.tmp, exist_ok=True)
        if workload == "cli":
            for name, text in workloads.cli_input_files().items():
                with open(os.path.join(self.tmp, name), "w") as fh:
                    fh.write(text)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass  # another run still uses it


def load(workload: str) -> dict:
    with open(DATA / f"{workload}.json") as fh:
        return json.load(fh)


def strata(n: int, size: int) -> list[tuple[int, int]]:
    """Bounds of `size` strata over n instances sorted by cost.  The
    n mod size cheapest strata hold one instance more, so the costly end,
    where one pick moves a pass's time most, is cut finest."""
    q, r = divmod(n, size)
    bounds, lo = [], 0
    for s in range(size):
        hi = lo + q + (s < r)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def passes(workload: str, seed: int, data: dict, size: int = 0):
    """The seed's endless stream of passes, each a list of instances."""
    rng = random.Random(f"{workload}/{seed}")
    sampled = sorted((e for e in data["instances"] if not e.get("fixed")),
                     key=lambda e: (e["cost_ms"], e["key"]))
    fixed = [e for e in data["instances"] if e.get("fixed")]
    bounds = strata(len(sampled), size or data["pass_size"])
    while True:
        jobs = list(fixed)
        for lo, hi in bounds:
            jobs.append(sampled[rng.randrange(lo, hi)])
        rng.shuffle(jobs)
        yield jobs


def run_pass(jobs, job, ctx, tracer=None, deadline=None, kernel=None):
    """Run jobs one at a time, starting none after `deadline`; return
    (entry, seconds, status, out digest) per job run.  With a `kernel`
    list, time the reference kernel after each job and append its time.

    status is "ok", "known_defect" (the output is the recorded output of a
    pinned defect), "mismatch" or "error" (the job raised)."""
    results = []
    for entry in jobs:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        span = tracer.begin("bench.job") if tracer else None
        t0 = time.perf_counter()
        try:
            out = digest(job(entry["spec"], ctx))
        except Exception as exc:  # a job that raises is a failed job
            out = f"error: {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
        if kernel is not None:
            kernel.append(time_kernel())
        if out == entry["digest"]:
            status = "ok"
        elif out == entry.get("defect_digest"):
            status = "known_defect"
        elif out.startswith("error"):
            status = "error"
        else:
            status = "mismatch"
        results.append((entry, dt, status, out))
    return results


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(len(s) * q) - 1)]


def band_percentile(values, q: float, half: float = 0.05) -> float:
    """Mean of the values between the q - half and q + half quantiles: a
    percentile that does not jump when q falls into a gap between the
    costs of neighbouring instances."""
    s = sorted(values)
    lo = int(len(s) * (q - half))
    hi = max(lo + 1, int(len(s) * (q + half)))
    return statistics.fmean(s[lo:hi])


def setup(workload: str, seed: int):
    """Everything before the first job: the pass stream, its first pass,
    the job function and the scratch context."""
    import workloads
    stream = passes(workload, seed, load(workload))
    first = next(stream)
    return stream, first, workloads.job_fn(workload), Context(workload)


def measure_setup(args) -> tuple[float, float]:
    """Median, over fresh processes, of process start to first job: at the
    reference speed (each process times the kernel after its set-up) and
    as wall time."""
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
            check=True)
        ready, kernel = map(float, proc.stdout.split()[-2:])
        wall.append(ready - t0)
        scaled.append(wall[-1] * REFERENCE_S / kernel)
    return statistics.median(scaled), statistics.median(wall)


def repeat_share(results) -> float:
    """Share of jobs whose instance an earlier job of the run computed."""
    seen = set()
    repeats = 0
    for e, *_ in results:
        repeats += e["key"] in seen
        seen.add(e["key"])
    return repeats / len(results)


def describe(results, passes_run: int) -> list[str]:
    """Human-readable lines: failures and workload properties."""
    lines = []
    bad = [(e["key"], status, out) for e, _, status, out in results
           if status != "ok"]
    for key, status, out in sorted(set(bad))[:10]:
        lines.append(f"  {status}: {key}" + (f" ({out})" if status == "error"
                                              else ""))
    n = len(results)
    lines.append(
        f"per pass: repeat share {repeat_share(results):.3f}, truncated share "
        f"{sum(e['trunc'] for e, *_ in results) / n:.3f}, tableaux "
        f"enumerated {sum(e['tableaux'] for e, *_ in results) / passes_run:.0f}"
        f", grid cells {sum(e['cells'] for e, *_ in results) / passes_run:.0f}")
    return lines


def summarize(results):
    """(failed, correct): failed counts the jobs that raised or whose output
    matches no record; the pinned defect, which gives exactly its recorded
    output, counts in `ok_ratio` only."""
    failed = sum(status in ("error", "mismatch")
                 for _, _, status, _ in results)
    return failed, failed == 0


def run_untraced(args) -> dict:
    stream, jobs, job, ctx = setup(args.workload, args.seed)
    kernel = []
    try:
        t_start = time.perf_counter()
        deadline = t_start + args.seconds
        # the first pass always completes; later ones stop at the deadline
        done = run_pass(jobs, job, ctx, kernel=kernel)
        complete = 1
        first_sha = digest("".join(f"{e['key']}\t{out}\n"
                                   for e, _, _, out in done))
        partial = []
        while time.perf_counter() < deadline:
            res = run_pass(next(stream), job, ctx, deadline=deadline,
                           kernel=kernel)
            if len(res) < len(jobs):
                partial = res
                break
            complete += 1
            done += res
        wall = time.perf_counter() - t_start
    finally:
        ctx.close()
    setup_s, setup_wall = measure_setup(args)
    # metrics come from complete passes, which all have the same cost
    # profile; a cut pass is a random subset and would shift percentiles
    n = len(done)
    wall_s = [dt for _, dt, _, _ in done]
    scaled = at_reference_speed(wall_s + [dt for _, dt, _, _ in partial],
                                kernel)[:n]
    size = len(jobs)
    rates = [size / sum(scaled[k:k + size]) for k in range(0, n, size)]
    wall_rates = [size / sum(wall_s[k:k + size]) for k in range(0, n, size)]
    lat = [dt * 1000 for dt in scaled]
    wall_lat = [dt * 1000 for dt in wall_s]
    failed, correct = summarize(done + partial)
    defects = sum(status == "known_defect" for _, _, status, _ in done)
    print(f"workload {args.workload} seed {args.seed}: {complete} complete "
          f"passes of {size} jobs and {len(partial)} jobs of a cut pass "
          f"in {wall:.2f} s (closed loop, 1 process, 1 thread)")
    print(f"reference kernel: median {statistics.median(kernel) * 1e3:.3f} ms"
          f" over {len(kernel)} samples (min {min(kernel) * 1e3:.3f}, max "
          f"{max(kernel) * 1e3:.3f}); reference {REFERENCE_S * 1e3:.3f} ms")
    print(f"latency samples {n}: p50 {band_percentile(lat, 0.5):.3f} ms, "
          f"p90 {band_percentile(lat, 0.9):.3f} ms at the reference speed "
          f"(wall: p50 {band_percentile(wall_lat, 0.5):.3f} ms, p90 "
          f"{band_percentile(wall_lat, 0.9):.3f} ms; nearest rank at the "
          f"reference speed: p50 {percentile(lat, 0.5):.3f} ms, p90 "
          f"{percentile(lat, 0.9):.3f} ms), {n - math.ceil(0.9 * n)} "
          f"samples beyond p90")
    print("pass rates (jobs/s) at the reference speed: "
          + " ".join(f"{r:.3f}" for r in rates))
    print("pass rates (jobs/s) wall: "
          + " ".join(f"{r:.3f}" for r in wall_rates))
    print(f"set-up: {setup_s:.4f} s at the reference speed, "
          f"{setup_wall:.4f} s wall (medians of {SETUP_SAMPLES} processes)")
    print(f"failed {failed} of {n + len(partial)}; correct={correct}; "
          f"pinned known defect ran {defects} times in complete passes")
    for line in describe(done, complete):
        print(line)
    print(f"first-pass output sha256 {first_sha}")
    values = {
        "jobs_per_s": statistics.median(rates),
        "job_p50_ms": band_percentile(lat, 0.5),
        "job_p90_ms": band_percentile(lat, 0.9),
        "ok_ratio": sum(status == "ok" for _, _, status, _ in done) / n,
        "setup_s": setup_s,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"correct": correct, "attempted": n + len(partial),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in values.items()}}


def layer_metrics(summ: dict, counts, traced_s: float, untraced_s: float,
                  results) -> dict:
    """Per-layer metrics (name -> (value, unit)) from a traced run."""
    from tracer import LAYERS

    def row(name):
        return summ.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def layer_self(layer):
        return sum(r["self_s"] for name, r in summ.items()
                   if name.startswith(layer + "."))

    out = {}
    for name in ("poly.mul", "poly.add", "shapes.strip_chains",
                 "tableaux.validate", "lattice.partition_function",
                 "crystal.f_elt", "uncrowding.uncrowd", "cli.main"):
        out[f"{name}.calls"] = (row(name)["calls"], "count")
    for name in ("poly.mul", "poly.add", "poly.truncate", "poly.series_inverse",
                 "poly.canonical_string", "tableaux.enumerate_elt",
                 "tableaux.weight_elt", "schur.edge_schur",
                 "schur.edge_schur_brute", "schur.variation",
                 "schur.dual_schur", "schur.schur_expand",
                 "lattice.partition_function", "lattice.commutation_check",
                 "lattice.cauchy_check", "crystal.f_elt", "crystal.e_elt",
                 "uncrowding.uncrowd", "uncrowding.crowd"):
        out[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for name in ("poly.mul.term_pairs", "poly.mul.terms_out",
                 "poly.add.terms_copied", "shapes.strip_chains.chains",
                 "tableaux.enumerate_elt.yielded",
                 "lattice.partition_function.cells"):
        out[name] = (counts[name], "count")
    yielded = counts["tableaux.enumerate_elt.yielded"]
    out["tableaux.validate.per_yield"] = (
        row("tableaux.validate")["calls"] / yielded if yielded else 0.0, "1")
    f_calls = row("crystal.f_elt")["calls"]
    out["crystal.f_elt.hit_ratio"] = (
        counts["crystal.f_elt.hits"] / f_calls if f_calls else 0.0, "1")
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = (layer_self(layer), "s")
    accounted = sum(r["self_s"] for r in summ.values())
    out["trace.accounted_ratio"] = (accounted / traced_s, "1")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "1")
    n = len(results)
    out["bench.jobs"] = (n, "count")
    out["bench.repeat_share"] = (repeat_share(results), "1")
    out["bench.trunc_share"] = (sum(e["trunc"] for e, *_ in results) / n, "1")
    return out


def trace(pass_list, job, ctx):
    """Run the passes untraced, then traced; return the per-layer metrics,
    the traced results and the tracer."""
    from tracer import Tracer
    t0 = time.perf_counter()
    for p in pass_list:
        run_pass(p, job, ctx)
    untraced_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        root = tracer.begin("bench.run")
        results = [r for p in pass_list for r in run_pass(p, job, ctx, tracer)]
        tracer.end(root)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.summary(), tracer.counts, traced_s,
                            untraced_s, results)
    return metrics, results, tracer


def run_traced(args) -> dict:
    stream, first, job, ctx = setup(args.workload, args.seed)
    try:
        pass_list = [first] + [next(stream) for _ in range(TRACE_PASSES - 1)]
        metrics, results, tracer = trace(pass_list, job, ctx)
    finally:
        ctx.close()
    os.makedirs(TRACES, exist_ok=True)
    spans = TRACES / f"spans-{args.workload}-{args.seed}.tsv.gz"
    tracer.write_spans(str(spans))
    failed, correct = summarize(results)
    print(f"workload {args.workload} seed {args.seed}: {TRACE_PASSES} passes, "
          f"{len(results)} jobs traced; {len(tracer.span_name)} spans written "
          f"to {spans.relative_to(ROOT)}")
    for line in describe(results, TRACE_PASSES):
        print(line)
    width = max(len(k) for k in metrics)
    for k, (v, unit) in metrics.items():
        print(f"  {k:<{width}} {v:>14.6g} {unit}")
    return {"correct": correct, "attempted": len(results), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["oracle", "grid", "uncrowd", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    use_checkout_src()
    if args.setup_only:
        ctx = setup(args.workload, args.seed)[-1]
        ready = time.monotonic()
        kernel = statistics.median(time_kernel() for _ in range(31))
        ctx.close()
        print(ready, kernel)
        return 0
    result = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
