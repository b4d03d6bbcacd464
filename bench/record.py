"""Record each workload's universe: output digest, cost and properties.

    python3 bench/record.py oracle grid uncrowd cli

Run at a commit whose outputs are trusted; it rewrites bench/data/*.json.
Every instance runs once untraced (its cost, which orders the strata a
pass draws from) and once traced (its work counts).  A job that raises, or
a CLI call that exits non-zero, stops the recording.  The one exception is
the pinned CLI defect: its recorded digest is the correct output, and its
current output is kept as `defect_digest`.
"""

from __future__ import annotations

import json
import sys
import time

import run


def record_instance(name: str, key: str, spec: dict, job, ctx) -> dict:
    from tracer import Tracer
    t0 = time.perf_counter()
    out = job(spec, ctx)
    cost_ms = (time.perf_counter() - t0) * 1000
    tracer = Tracer()
    tracer.install()
    try:
        traced = job(spec, ctx)
    finally:
        tracer.uninstall()
    if traced != out:
        raise AssertionError(f"{key}: traced output differs")
    entry = {"key": key, "spec": spec, "digest": run.digest(out),
             "cost_ms": round(cost_ms, 3),
             "tableaux": tracer.counts["tableaux.enumerate_elt.yielded"],
             "cells": tracer.counts["lattice.partition_function.cells"]}
    if name == "cli" and not out.startswith("exit 0\n"):
        import workloads
        if key != workloads.PINNED_DEFECT:
            raise AssertionError(f"{key}: {out.splitlines()[0]}")
        entry["defect_digest"] = entry["digest"]
        entry["digest"] = run.digest(pinned_expected(spec, ctx))
    return entry


def pinned_expected(spec: dict, ctx) -> str:
    """The pinned EBar call's correct output: the exact quotient (which the
    same call prints without --trunc) cut at the requested truncation."""
    import workloads
    from edgeschur import poly
    argv = spec["argv"]
    k = argv.index("--trunc")
    T = int(argv[k + 1])
    code, exact = workloads.run_cli(argv[:k] + argv[k + 2:], ctx.tmp)
    code_hi, exact_hi = workloads.run_cli(argv[:k + 1] + ["20"] + argv[k + 2:],
                                          ctx.tmp)
    if code or code_hi or exact != exact_hi:
        raise AssertionError("untruncated EBar routes disagree")
    cut = poly.parse(exact.strip()).truncate(T)
    return f"exit 0\n{poly.canonical_string(cut)}\n"


def record(name: str) -> None:
    import workloads
    sampled, fixed = workloads.candidates(name)
    job = workloads.job_fn(name)
    ctx = run.Context(name)
    entries = []
    t0 = time.perf_counter()
    try:
        for k, (key, spec) in enumerate(sampled + fixed):
            spec = json.loads(json.dumps(spec))  # as run.py will read it
            entry = record_instance(name, key, spec, job, ctx)
            entry["trunc"] = workloads.is_truncated(name, spec)
            if k >= len(sampled):
                entry["fixed"] = True
            entries.append(entry)
    finally:
        ctx.close()
    data = {"workload": name, "pass_size": workloads.PASS_SIZES[name],
            "instances": entries}
    with open(run.DATA / f"{name}.json", "w") as fh:
        fh.write(json.dumps({k: v for k, v in data.items()
                             if k != "instances"})[:-1])
        fh.write(', "instances": [\n')
        fh.write(",\n".join(json.dumps(e, sort_keys=True) for e in entries))
        fh.write("\n]}\n")
    total = sum(e["cost_ms"] for e in entries) / 1000
    worst = max(entries, key=lambda e: e["cost_ms"])
    print(f"{name}: {len(entries)} instances ({len(fixed)} fixed), "
          f"{total:.1f} s in total, slowest {worst['cost_ms']:.0f} ms "
          f"({worst['key']}); recorded in {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    run.use_checkout_src()
    import workloads
    for workload in sys.argv[1:] or list(workloads.WORKLOADS):
        record(workload)
