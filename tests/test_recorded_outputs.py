"""Every recorded benchmark output, recomputed in process.

`bench/data/<workload>.json` holds each instance's output digest, recorded
at a known-good commit.  These tests run every instance of the four
universes through its workload's job, as `bench/run.py` does, and compare
the SHA-256 of each output with the recorded one, so a change that alters
any result fails here.  They only read `bench/`.
"""

import hashlib
import importlib.util
import json
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

# 1,194 instances in all
SIZES = {"oracle": 471, "grid": 314, "uncrowd": 165, "cli": 244}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_instance_gives_its_recorded_digest(name, tmp_path):
    with open(BENCH / "data" / f"{name}.json") as fh:
        instances = json.load(fh)["instances"]
    # the files that `uncrowd --in` jobs read, as run.Context writes them
    for file_name, text in workloads.cli_input_files().items():
        (tmp_path / file_name).write_text(text)
    ctx = types.SimpleNamespace(tmp=str(tmp_path))
    job = workloads.job_fn(name)
    wrong = []
    for entry in instances:
        try:
            out = job(entry["spec"], ctx)
        except Exception as exc:  # a job raises when its routes disagree
            wrong.append(f"{entry['key']}: {type(exc).__name__}: {exc}")
            continue
        if hashlib.sha256(out.encode()).hexdigest() != entry["digest"]:
            wrong.append(entry["key"])
    assert len(instances) == SIZES[name]
    assert not wrong, f"{len(wrong)} of {len(instances)} {name} outputs " \
        f"differ from their recorded digests: {wrong[:10]}"
