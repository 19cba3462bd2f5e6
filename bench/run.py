#!/usr/bin/env python3
"""Benchmark of cosimplex: three seeded workloads, end-to-end metrics and a
traced per-layer breakdown.

    python3 bench/run.py --workload integer --seed 3 --seconds 36 --trace 0
    python3 bench/run.py --workload all              # every workload, one table
    python3 bench/run.py --workload integer --record-goldens

Run from the root of a checkout; the package is imported from ``src/`` and
never installed.  With ``--trace 0`` the job list is run in passes until
``--seconds`` have gone, every output is checked, and the last line of stdout
is a JSON object with the end-to-end metrics.  With ``--trace 1`` one pass
runs untraced and one traced, and the JSON carries the per-layer metrics.
Exit code 1 means an output failed its check, 2 a usage or checkout problem.
See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens.json"
WORKLOADS = ("integer", "rational", "cli")

MIN_PASSES = 2
SETUP_PROBES = 7
CLI_PROBES = 5
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

# Metric names and units are those declared in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


# -- statistics ------------------------------------------------------------------------


def _rank(p, n):
    """1-based nearest rank of percentile p among n sorted samples."""
    return max(1, math.ceil(round(p * n / 100, 9)))


def tail_percentile(n):
    """Highest percentile of PERCENTILES with at least ten of n samples
    beyond its nearest-rank value, or None when n < 20."""
    best = None
    for p in PERCENTILES:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def nearest_rank(sorted_values, p):
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def latency_metrics(passes):
    """passes: one list of per-job latencies (seconds) per pass, jobs in slot
    order.  Each job's latency is its minimum over the passes: on a shared
    machine the speed of a core can halve for seconds at a time, and the
    minimum keeps the passes that ran at full speed.  ``wall_s`` is the sum
    of those minimums, the time to finish the job list once.  p50 and the
    tail are taken over the jobs, so the percentile depends only on the
    length of the job list, not on how many passes fit into the run."""
    per_job = [min(lat) for lat in zip(*passes)]
    ranked = sorted(per_job)
    p = tail_percentile(len(ranked))
    return {
        "wall_s": sum(per_job),
        "job_p50_ms": statistics.median(ranked) * 1000,
        "job_tail_ms": nearest_rank(ranked, p) * 1000 if p is not None else ranked[-1] * 1000,
        "tail_percentile": p,
        "jobs": len(ranked),
    }


# -- child processes ---------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def spawn(argv, out_path, env):
    """Run one child to completion with stdout and stderr in files; return
    (exit code, seconds, peak RSS in KiB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out_path) + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    elapsed = perf_counter() - t0
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss


class Children:
    """Runs cosimplex CLI commands one child process at a time.

    With ``tracer`` set, each child runs under bench/cli_traced.py and its
    spans are merged into the tracer under the current job id.
    """

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.env = child_env()
        self.tracer = None
        self.peak_kib = 0

    def run(self, argv):
        full = [str(self.work_dir / a) if (self.work_dir / a).is_file() else a for a in argv]
        out_path = self.work_dir / "child.out"
        spans_path = self.work_dir / "child.spans.json"
        spans_path.unlink(missing_ok=True)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "cosimplex.cli", *full]
        else:
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path), *full]
        code, _, kib = spawn(cmd, out_path, self.env)
        self.peak_kib = max(self.peak_kib, kib)
        if self.tracer is not None:
            self.tracer.merge(json.loads(spans_path.read_text(encoding="utf-8")), self.tracer.job)
        return code, out_path.read_bytes()


def use_cpu(cpus, k):
    """Pin this process, and the children it starts next, to the k-th of
    ``cpus``, round robin.  The cores of a shared machine change speed
    independently; timing every job on each of them lets the per-job minimum
    find the fast one."""
    try:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
    except OSError:  # affinity not permitted here: time wherever the scheduler runs us
        pass


def probe_children(workload, seed, env, work_dir, cpus):
    """Median set-up time over SETUP_PROBES fresh processes, one at a time."""
    times = []
    for i in range(SETUP_PROBES):
        use_cpu(cpus, i)
        out = work_dir / f"probe{i}.out"
        argv = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
        code, _, _ = spawn(argv, out, env)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {(work_dir / f'probe{i}.out.err').read_text()}")
        times.append(json.loads(out.read_text())["setup_s"])
    return statistics.median(times)


def cli_start_metrics(env, work_dir):
    """Bare interpreter start and `import cosimplex.cli`, CLI_PROBES each."""
    code = (
        "import json, sys, time\n"
        "t = time.perf_counter()\n"
        "import cosimplex.cli\n"
        "print(json.dumps({'ms': (time.perf_counter() - t) * 1000, 'numpy': 'numpy' in sys.modules}))\n"
    )
    bare, imports, numpy = [], [], []
    out = work_dir / "start.out"
    for _ in range(CLI_PROBES):
        rc, seconds, _ = spawn([sys.executable, "-c", "pass"], out, env)
        bare.append(seconds * 1000)
        rc2, _, _ = spawn([sys.executable, "-c", code], out, env)
        if rc or rc2:
            raise RuntimeError("interpreter start probe failed")
        data = json.loads(out.read_text())
        imports.append(data["ms"])
        numpy.append(int(data["numpy"]))
    return {
        "cli.bare_python_ms": statistics.median(bare),
        "cli.import_ms": statistics.median(imports),
        "cli.numpy_imported": max(numpy),
    }


# -- running jobs ------------------------------------------------------------------------


def load_goldens():
    if GOLDENS.is_file():
        return json.loads(GOLDENS.read_text(encoding="utf-8"))
    return {"seed": None, "workloads": {}}


class Checker:
    """Digests every job output and compares it with the golden digest of
    the same inputs, the digest of earlier passes and the job's own
    verdict checks."""

    def __init__(self, workloads_mod, goldens, workload, seed):
        self.w = workloads_mod
        self.golden = goldens["workloads"].get(workload, {})
        self.require_golden = seed == goldens["seed"]
        self.seen = {}
        self.failed = 0
        self.attempted = 0
        self.messages = []

    def fail(self, slot, key, problems):
        self.failed += 1
        for message in problems:
            if len(self.messages) < 20:
                self.messages.append(f"job {slot} [{key}]: {message}")

    def run_pass(self, jobs, tracer=None):
        latencies = []
        for slot, job in enumerate(jobs):
            self.attempted += 1
            if tracer is not None:
                tracer.job = slot
            t0 = perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("job"):
                        results = job.run()
                else:
                    results = job.run()
            except Exception as exc:  # a job that raises is a failed job; keep measuring
                latencies.append(perf_counter() - t0)
                self.fail(slot, job.key, [f"raised {type(exc).__name__}: {exc}"])
                continue
            latencies.append(perf_counter() - t0)
            self.verify(slot, job, results)
        return latencies

    def verify(self, slot, job, results):
        try:
            d = self.w.digest(job.encode(results))
            problems = job.check(results)
        except Exception as exc:  # malformed output is a failed job
            self.fail(slot, job.key, [f"output check raised {type(exc).__name__}: {exc}"])
            return
        if job.key in self.golden and self.golden[job.key] != d:
            problems.append("digest differs from the golden digest")
        elif job.key not in self.golden and self.require_golden:
            problems.append("no golden digest recorded")
        if self.seen.setdefault(slot, d) != d:
            problems.append("digest differs between passes")
        if problems:
            self.fail(slot, job.key, problems)


def setup_jobs(workload, seed, work_dir):
    """Import cosimplex and build the seeded job list (the timed set-up)."""
    sys.path.insert(0, str(SRC))
    import workloads

    children = Children(work_dir) if workload == "cli" else None
    jobs = workloads.make_jobs(workload, seed, work_dir, children)
    return workloads, jobs, children


def layer_metrics(tracer, untraced_wall, traced_wall):
    from tracer import LAYER_SPANS, rollup

    roll = rollup(tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.hidden)
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = roll.get(name, {}).get("calls", 0)
        metrics[f"{name}.self_s"] = roll.get(name, {}).get("self_s", 0.0)
    metrics["linalg.rref.cells"] = tracer.counters["rref_cells"]
    metrics["linalg.matmul.madds"] = tracer.counters["matmul_madds"]
    metrics["io_json.bytes"] = tracer.counters["io_bytes"]
    jobs = sum(e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents) if p < 0)
    linalg_self = sum(v["self_s"] for k, v in roll.items() if k.startswith("linalg."))
    metrics["linalg.self_share"] = linalg_self / jobs if jobs else 0.0
    metrics["rational.max_bits"] = tracer.max_bits
    metrics["rational.nonint_share"] = tracer.nonint_results / tracer.results if tracer.results else 0.0
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return metrics


# -- modes -------------------------------------------------------------------------------


def probe(args):
    t0 = perf_counter()
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_jobs(args.workload, args.seed, work_dir)
        elapsed = perf_counter() - t0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def measure(args):
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args, work_dir):
    allowed = os.sched_getaffinity(0)
    try:
        return _measure_on(args, work_dir, sorted(allowed))
    finally:
        os.sched_setaffinity(0, allowed)


def _measure_on(args, work_dir, cpus):
    env = child_env()
    setup_s = None if args.trace else probe_children(args.workload, args.seed, env, work_dir, cpus)
    workloads, jobs, children = setup_jobs(args.workload, args.seed, work_dir)
    checker = Checker(workloads, load_goldens(), args.workload, args.seed)
    info = []

    if not args.trace:
        passes = []
        started = perf_counter()
        while True:
            use_cpu(cpus, len(passes))
            passes.append(checker.run_pass(jobs))
            elapsed = perf_counter() - started
            if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
                break
        lat = latency_metrics(passes)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if children is not None:
            peak_kib = max(peak_kib, children.peak_kib)
        values = {
            "wall_s": lat["wall_s"],
            "job_p50_ms": lat["job_p50_ms"],
            "job_tail_ms": lat["job_tail_ms"],
            "setup_s": setup_s,
            "peak_rss_mib": peak_kib / 1024,
            "ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
        }
        names = [m["name"] for m in SPEC["end_to_end"]]
        info.append(
            f"job_tail_ms is p{lat['tail_percentile']} over {lat['jobs']} jobs "
            f"(each the minimum of {len(passes)} passes); {checker.attempted} jobs run"
        )
    else:
        from tracer import Tracer

        untraced = sum(checker.run_pass(jobs))
        tracer = Tracer()
        restore = tracer.install()
        if children is not None:
            children.tracer = tracer
        try:
            traced = sum(checker.run_pass(jobs, tracer))
        finally:
            restore()
            if children is not None:
                children.tracer = None
        values = layer_metrics(tracer, untraced, traced)
        values.update(cli_start_metrics(env, work_dir))
        names = [m["name"] for m in SPEC["per_layer"]]
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        info.append(f"{len(tracer.names)} spans written to {trace_path.relative_to(ROOT)}")

    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in names}
    correct = checker.failed == 0
    for line in checker.messages:
        print(f"FAILED {line}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{args.workload:9s} {name:34s} {entry['value']:14.6g} {entry['unit']}")
    for line in info:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def record_goldens(args):
    """Digest every job of the default seed once and store the digests."""
    seed = args.seed
    goldens = {"seed": seed, "workloads": {}} if args.workload == "all" else load_goldens()
    goldens["seed"] = seed
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        work_dir = OUT / f"work-{os.getpid()}"
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            workloads, jobs, _children = setup_jobs(name, seed, work_dir)
            table = {}
            for job in jobs:
                results = job.run()
                problems = job.check(results)
                if problems:
                    raise SystemExit(f"{name} [{job.key}]: {problems}")
                table[job.key] = workloads.digest(job.encode(results))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        goldens["workloads"][name] = dict(sorted(table.items()))
        print(f"{name}: {len(table)} golden digests")
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def run_all(args):
    """Each workload in its own process, one after the other, and a table."""
    rows = {}
    status = 0
    for name in WORKLOADS:
        out = OUT / f"all-{os.getpid()}.out"
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code, _, _ = spawn(argv, out, dict(os.environ))
        lines = out.read_text().splitlines()
        out.unlink()
        Path(str(out) + ".err").unlink()
        status = status or code
        if lines:
            rows[name] = json.loads(lines[-1])
    for name, result in rows.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true",
                        help="store the digests of the default seed's jobs in bench/goldens.json")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cosimplex" / "__init__.py").is_file():
        print(f"error: {SRC.relative_to(ROOT)}/cosimplex not found; run from a cosimplex checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    if args.record_goldens:
        return record_goldens(args)
    if args.workload == "all":
        return run_all(args)
    if args.probe:
        return probe(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
