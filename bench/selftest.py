"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Kept out of pytest's default file pattern on purpose, so the package's own
test suite and its count stay as they are.
"""

import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeCli:
    def run(self, argv):
        return 0, b"{}"


class SameSeedSameJobs(unittest.TestCase):
    def test_job_lists_repeat(self):
        for name in ("integer", "rational"):
            a = [job.key for job in workloads.make_jobs(name, 7)]
            b = [job.key for job in workloads.make_jobs(name, 7)]
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, [job.key for job in workloads.make_jobs(name, 8)], name)

    def test_cli_job_list_and_files_repeat(self):
        with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
            a = workloads.make_jobs("cli", 7, Path(d1), FakeCli())
            b = workloads.make_jobs("cli", 7, Path(d2), FakeCli())
            self.assertEqual([j.key for j in a], [j.key for j in b])
            files1 = {p.name: p.read_bytes() for p in Path(d1).iterdir()}
            files2 = {p.name: p.read_bytes() for p in Path(d2).iterdir()}
            self.assertEqual(files1, files2)

    def test_digests_repeat_and_match_goldens(self):
        goldens = run.load_goldens()
        for name in ("integer", "rational"):
            jobs = sorted(workloads.make_jobs(name, goldens["seed"]), key=lambda j: j.key)[:4]
            for job in jobs:
                first = workloads.digest(job.encode(job.run()))
                second = workloads.digest(job.encode(job.run()))
                self.assertEqual(first, second, job.key)
                self.assertEqual(first, goldens["workloads"][name][job.key], job.key)


class InstallRestore(unittest.TestCase):
    def test_restore_leaves_every_attribute_identical(self):
        import cosimplex.cli  # noqa: F401  (imports every module)
        from cosimplex import linalg, tower

        modules = {n: m for n, m in sys.modules.items() if n == "cosimplex" or n.startswith("cosimplex.")}
        before = {n: dict(vars(m)) for n, m in modules.items()}
        matrix_before = dict(vars(linalg.Matrix))
        original = linalg.span_basis
        t = tracer.Tracer()
        restore = t.install()
        try:
            self.assertIsNot(tower.span_basis, original)
            self.assertIs(tower.span_basis, linalg.span_basis)
            tower.span_basis([(1, 0), (0, 1)])
            linalg.Matrix.identity(2) * linalg.Matrix.identity(2)
        finally:
            restore()
        self.assertEqual(t.names, ["linalg.span_basis", "linalg.matmul"])
        self.assertEqual(t.counters["matmul_madds"], 8)
        for name, module in modules.items():
            after = vars(module)
            self.assertEqual(set(after), set(before[name]), name)
            for key, value in before[name].items():
                self.assertIs(after[key], value, f"{name}.{key}")
        for key, value in matrix_before.items():
            self.assertIs(vars(linalg.Matrix)[key], value, f"Matrix.{key}")


class Rollup(unittest.TestCase):
    def test_self_time_on_a_hand_built_tree(self):
        # job [0, 10] -> a [1, 6] -> b [2, 3], b [4, 5];  job -> c [7, 9]
        names = ["job", "a", "b", "b", "c"]
        starts = [0.0, 1.0, 2.0, 4.0, 7.0]
        ends = [10.0, 6.0, 3.0, 5.0, 9.0]
        parents = [-1, 0, 1, 1, 0]
        hidden = {1: 0.5}  # counting inside a took half a second
        roll = tracer.rollup(names, starts, ends, parents, hidden)
        self.assertEqual(roll["job"], {"calls": 1, "total_s": 10.0, "self_s": 3.0})
        self.assertEqual(roll["a"], {"calls": 1, "total_s": 5.0, "self_s": 2.5})
        self.assertEqual(roll["b"], {"calls": 2, "total_s": 2.0, "self_s": 2.0})
        self.assertEqual(roll["c"], {"calls": 1, "total_s": 2.0, "self_s": 2.0})

    def test_merged_child_spans_nest_under_the_open_span(self):
        child = tracer.Tracer()
        with child.span("cli.main"):
            with child.span("io_json.load"):
                pass
        parent = tracer.Tracer()
        parent.job = 3
        with parent.span("job"):
            parent.merge(child.dump(), parent.job)
        self.assertEqual(parent.parents, [-1, 0, 1])
        self.assertEqual(parent.jobs, [3, 3, 3])


class Tail(unittest.TestCase):
    def test_percentile_has_ten_jobs_beyond_it(self):
        self.assertIsNone(run.tail_percentile(19))
        expected = {20: 50, 39: 50, 40: 75, 99: 75, 100: 90, 199: 90, 200: 95, 1000: 99, 10000: 99.9}
        for n, p in expected.items():
            self.assertEqual(run.tail_percentile(n), p, n)
            self.assertGreaterEqual(n - run._rank(p, n), 10)
            higher = [q for q in run.PERCENTILES if q > p]
            if higher:
                self.assertLess(n - run._rank(higher[0], n), 10)

    def test_latency_metrics_use_per_job_minimums(self):
        # 40 jobs with latencies 1..40 ms; the second pass is slower throughout
        fast = [k / 1000 for k in range(1, 41)]
        slow = [2 * x for x in fast]
        lat = run.latency_metrics([slow, fast])
        self.assertEqual(lat["tail_percentile"], 75)
        self.assertAlmostEqual(lat["job_tail_ms"], 30.0)  # rank 30 of 40: ten jobs beyond
        self.assertAlmostEqual(lat["job_p50_ms"], 20.5)
        self.assertAlmostEqual(lat["wall_s"], sum(fast))


if __name__ == "__main__":
    unittest.main()
