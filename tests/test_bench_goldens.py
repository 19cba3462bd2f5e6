"""The benchmark's golden digests, checked in the test suite.

Runs the default-seed job lists of the two in-process benchmark workloads
(``integer`` and ``rational``) once and compares each job's output digest
and its own verdict checks with ``bench/goldens.json``, so a change in any
report, matrix or job key shows here before a benchmark run.  The benchmark
module is loaded from its file without writing anything under ``bench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("workload", ["integer", "rational"])
def test_default_seed_jobs_match_the_golden_digests(workloads, workload):
    goldens = json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))
    seed = goldens["seed"]
    table = goldens["workloads"][workload]
    jobs = workloads.make_jobs(workload, seed)
    assert {job.key for job in jobs} == set(table)
    for job in jobs:
        results = job.run()
        assert job.check(results) == [], job.key
        assert workloads.digest(job.encode(results)) == table[job.key], job.key
