"""The benchmark's golden digests, checked in the test suite.

Runs the default-seed job lists of the three benchmark workloads and
compares each job's output digest and its own verdict checks with
``bench/goldens.json``, so a change in any report, matrix or job key shows
here before a benchmark run.  ``integer`` and ``rational`` run twice in this
process, as the benchmark's passes do, so state that survives a pass and
goes stale shows too; each ``cli`` job runs ``python -m cosimplex.cli`` once
in a fresh process, which also catches an import cycle or a missing import
that only a cold start shows.  Seeds beyond the default have no goldens; their
``integer`` and ``rational`` jobs must pass their own checks and give the
same digests in both passes.  The benchmark module is loaded from its file
without writing anything under ``bench/``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


class FreshProcesses:
    """Runs each CLI command in a new interpreter with ``PYTHONPATH=src``;
    an argument naming a file in ``work_dir`` becomes its path, as in the
    benchmark's own runner."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(self, argv):
        full = [str(self.work_dir / a) if (self.work_dir / a).is_file() else a for a in argv]
        result = subprocess.run(
            [sys.executable, "-m", "cosimplex.cli", *full], capture_output=True, env=self.env
        )
        return result.returncode, result.stdout


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


@pytest.mark.parametrize("workload", ["integer", "rational", "cli"])
def test_default_seed_jobs_match_the_golden_digests(workloads, workload, tmp_path):
    goldens = json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))
    seed = goldens["seed"]
    table = goldens["workloads"][workload]
    jobs = workloads.make_jobs(workload, seed, tmp_path, FreshProcesses(tmp_path))
    assert {job.key for job in jobs} == set(table)
    # the second pass reruns the towers built at set-up, whose matrices then
    # carry the integer rows cached in the first pass
    for _ in range(1 if workload == "cli" else 2):
        for job in jobs:
            results = job.run()
            assert job.check(results) == [], job.key
            assert workloads.digest(job.encode(results)) == table[job.key], job.key


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["integer", "rational"])
def test_other_seeds_pass_their_checks_with_the_same_digests_twice(workloads, workload, seed):
    jobs = workloads.make_jobs(workload, seed)
    first = []
    for attempt in range(2):
        for idx, job in enumerate(jobs):
            results = job.run()
            assert job.check(results) == [], job.key
            digest = workloads.digest(job.encode(results))
            if attempt == 0:
                first.append(digest)
            else:
                assert digest == first[idx], job.key
