"""Every value recorded for the benchmark workloads is reproduced in process.

The job files of the small-batch and big-sums workloads are regenerated for
seeds 0-10 by `perfbench/workloads.py`, run through `cli.run_one_job`, and
each row's value is compared with `perfbench/expected/<workload>.json`.
The job files of every workload pass validation, strict keys included.
Both files are only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from tautchi import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("seed", range(11))
@pytest.mark.parametrize("workload", ["small-batch", "big-sums"])
def test_recorded_values_reproduced(workload, seed):
    expected = json.loads((PERFBENCH / "expected" / f"{workload}.json")
                          .read_text(encoding="utf-8"))[str(seed)]
    jf = cli.parse_job_file(WORKLOADS[workload](seed).doc)
    got = {row.id: row.value for job in jf.jobs
           for row in cli.run_one_job(jf, job)}
    assert got == expected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_benchmark_job_file_is_accepted(workload):
    for seed in range(11):
        doc = WORKLOADS[workload](seed).doc
        jf = cli.parse_job_file(doc)
        assert [job.id for job in jf.jobs] == [job["id"] for job in doc["jobs"]]
