#!/usr/bin/env python3
"""Benchmark for stablulc: seeded workloads driven through the CLI.

Usage, from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

One client runs one job after another (a closed loop) in this single
process; each job calls ``stablulc.cli.main(argv)`` in-process on files
generated from ``--seed``.  The seeded block of jobs is repeated, whole,
until ``--seconds`` of job time have passed, so every run has the same
job mix.  Every job's exit code and stdout are checked (see workloads.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's layers (see tracing.py), alternates traced and untraced repeats
of the block to measure the tracing overhead, and prints the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_JOBS = 100            # executions: enough for 10 samples beyond p90
TAIL_LEVELS = (0.999, 0.99, 0.9, 0.5)
# The speed of a shared host drifts, in phases of seconds to minutes, by
# more than the changes the benchmark must resolve (the median speed of
# runs minutes apart differed by 1.6x on the machine this was written on).
# So every timed interval is bracketed by a fixed pure-Python integer loop,
# and times are reported in reference seconds: measured time / host
# factor, where the host factor is the loop's mean time before and after
# the interval divided by REF_LOOP_S.  Wall-clock figures are printed
# beside them.
CAL_ROUNDS = 6000
REF_LOOP_S = 0.001        # the loop's time at the reference speed
# Fresh interpreters timed for setup_s after each repeat of the block, so
# that they sample the same phases of the host's speed as the jobs.
SETUPS_PER_REPEAT = 2

SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")


def calibrate():
    """Time of the fixed calibration loop: the host's current speed."""
    start = time.perf_counter()
    x = 1
    for i in range(CAL_ROUNDS):
        x = ((x << 1) ^ (x >> 3) ^ i) & 0xFFFFFFFFFFFF
    return time.perf_counter() - start


def host_factor(before):
    """Host factor of an interval that the calibration ``before`` opened."""
    return (before + calibrate()) / (2 * REF_LOOP_S)


def metric_units(kind):
    """{name: unit} of the ``kind`` ("end_to_end" or "per_layer") metrics
    that BENCHMARK.json names."""
    with open(SPEC_FILE, encoding="ascii") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Runner:
    """Runs one seeded block of jobs in-process, repeatedly, checking each job.

    ``latencies[k]`` holds one wall-clock latency per repeat for the block's
    k-th job, and ``hosts[k]`` the host factor of each.
    """

    def __init__(self, workload, seed, work, checker, tiny):
        self.work = work
        self.checker = checker
        rng = random.Random(f"{workload}:{seed}")
        self.block = workloads.BLOCKS[workload](rng, work, tiny)
        self.jobs = [job for unit in self.block for job in unit]
        self.latencies = [[] for _ in self.jobs]
        self.hosts = [[] for _ in self.jobs]
        self.attempted = self.failed = 0
        self.errors = []
        from stablulc import cli, embedding, surface
        self.cli, self.embedding, self.surface = cli, embedding, surface

    def run(self, seconds, min_jobs, after_repeat):
        """Repeat the whole block, at least once, until ``seconds`` of job
        time have passed and at least ``min_jobs`` jobs have run; call
        ``after_repeat()`` after each repeat.  Returns (job time, repeats)."""
        busy, done = 0.0, 0
        while not done or busy < seconds or done * len(self.jobs) < min_jobs:
            busy += self.repeat()
            done += 1
            after_repeat()
        return busy, done

    def repeat(self, tracer=None):
        """Run the block once; returns its wall-clock job time."""
        busy = 0.0
        for k, job in enumerate(self.jobs):
            latency, host = self.run_job(job, tracer)
            self.latencies[k].append(latency)
            self.hosts[k].append(host)
            busy += latency
        return busy

    def run_job(self, job, tracer=None):
        for path, text in job.files.items():
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        # Start each job with empty young generations, so the garbage
        # collections a job pays for depend on the job alone.
        gc.collect()
        before = calibrate()
        latency, code, out, err = self.execute(job, tracer)
        host = host_factor(before)
        self.attempted += 1
        if code is None or not self.checker.ok(job, code, out):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{job.kind} {' '.join(job.argv)}: exit"
                                   f" {code}, stdout {out[:200]!r},"
                                   f" stderr {err[-300:]!r}")
        return latency, host

    def execute(self, job, tracer):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.library:
                call, root = (lambda: self.library(job)), None
            else:
                call, root = (lambda: self.cli.main(job.argv)), "cli.main"
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = call()
                else:
                    code = tracer.run_job(self.attempted, call, root)
            except SystemExit as exc:        # argparse rejects bad argv this way
                code = exc.code
            except Exception:                # counted as a failed job
                code = None
                err.write(traceback.format_exc())
            latency = time.perf_counter() - start
        return latency, code, out.getvalue(), err.getvalue()

    def library(self, job):
        """transversal_clifford_conclusion has no CLI subcommand."""
        with open(job.library[1], encoding="ascii") as fh:
            graph = self.embedding.parse_graph(fh.read())
        conclusion = self.surface.transversal_clifford_conclusion(
            self.surface.build_code(graph))
        print(conclusion.line())
        return 0 if conclusion.all_forced else 2


def percentile(sorted_values, q):
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_level(n):
    """Highest of TAIL_LEVELS with at least 10 samples beyond it."""
    return next((q for q in TAIL_LEVELS if n * (1 - q) >= 10), 0.5)


class FreshProcess:
    """Times fresh interpreters running the workload's smallest job."""

    def __init__(self, workload, work, checker):
        self.job = workloads.setup_job(workload, work)
        for path, text in self.job.files.items():
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.checker = checker
        self.times, self.hosts, self.failed = [], [], 0
        self.run()                # untimed: the first run compiles bytecode
        self.times.clear()
        self.hosts.clear()

    def run(self, count=1):
        for _ in range(count):
            before = calibrate()
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "stablulc.cli",
                                   *self.job.argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=120)
            self.times.append(time.perf_counter() - start)
            self.hosts.append(host_factor(before))
            if not self.checker.ok(self.job, proc.returncode, proc.stdout):
                self.failed += 1


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = sys.modules.get("numpy")
    return {"python": platform.python_version(),
            "numpy": getattr(numpy, "__version__", "absent"),
            "nproc": os.cpu_count(), "cpu": cpu}


def timings(latencies, setup):
    """jobs_per_s, latency_p50_s, latency_tail_s and setup_s from
    per-execution latencies and set-up times; every execution of a job is
    one latency sample."""
    executions = sorted(latencies)
    level = tail_level(len(executions))
    return level, {"jobs_per_s": len(executions) / sum(executions),
                   "latency_p50_s": percentile(executions, 0.5),
                   "latency_tail_s": percentile(executions, level),
                   "setup_s": statistics.median(setup)}


def end_to_end(runner, args, work, checker):
    """Times in reference seconds; set-up is timed in fresh interpreters
    between repeats of the block."""
    fresh = FreshProcess(args.workload, work, checker)
    busy, repeats = runner.run(args.seconds, 0 if args.tiny else MIN_JOBS,
                               after_repeat=lambda: fresh.run(SETUPS_PER_REPEAT))
    scaled = [[v / h for v, h in zip(lat, host)]
              for lat, host in zip(runner.latencies, runner.hosts)]
    wall = [v for lat in runner.latencies for v in lat]
    hosts = [h for host in runner.hosts for h in host]
    level, metrics = timings([v for job in scaled for v in job],
                             [v / h for v, h in zip(fresh.times, fresh.hosts)])
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    tail = metrics["latency_tail_s"]
    print(f"measured {busy:.2f} s of job time, {repeats} repeats of a block"
          f" of {len(runner.jobs)} jobs; host factor: median"
          f" {statistics.median(hosts):.3f}, range {min(hosts):.3f}"
          f"-{max(hosts):.3f}")
    print("wall clock: " + ", ".join(
        f"{name} {value:.6g}" for name, value in
        timings(wall, fresh.times)[1].items()))
    print(f"tail: p{level * 100:g} over {len(wall)} executions;"
          f" {sum(v > tail for job in scaled for v in job)} executions of"
          f" {sum(max(job) > tail for job in scaled)} distinct jobs lie"
          f" beyond it")
    print(f"failed_ratio: {runner.failed / runner.attempted:.4f}"
          f" ({runner.failed}/{runner.attempted} jobs)")
    print(f"setup_s: median of {len(fresh.times)} fresh interpreters,"
          f" {fresh.failed} wrong outputs")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"latencies-{args.workload}-s{args.seed}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"jobs": [" ".join(job.argv) or job.kind
                            for job in runner.jobs],
                   "latencies": runner.latencies, "hosts": runner.hosts,
                   "setup": fresh.times, "setup_hosts": fresh.hosts}, fh)
    return (metrics, runner.attempted + len(fresh.times),
            runner.failed + fresh.failed)


def per_layer(runner, args, env):
    """Traced repeats of the block, each followed by an untraced repeat, so
    the tracing overhead compares runs of the same jobs at the same phase of
    the host's speed.

    Counts and times are per repeat of the block, so they do not depend on
    how many repeats fit in ``--seconds``.
    """
    tracer = Tracer()
    traced_busy = untraced_busy = 0.0
    repeats = 0
    while not repeats or traced_busy < args.seconds / 2:
        tracer.install()
        try:
            traced_busy += runner.repeat(tracer)
        finally:
            tracer.uninstall()
        untraced_busy += runner.repeat()
        repeats += 1
    traced_busy /= repeats
    untraced_busy /= repeats
    units = metric_units("per_layer")
    metrics = {name: value if units.get(name) == "ratio" else value / repeats
               for name, value in tracer.metrics().items()}
    jobs = len(runner.jobs)
    metrics["trace.jobs_per_s_traced"] = jobs / traced_busy
    metrics["trace.jobs_per_s_untraced"] = jobs / untraced_busy
    print(f"tracing overhead: {traced_busy / untraced_busy:.2f}x"
          f" ({traced_busy:.2f} s traced vs {untraced_busy:.2f} s untraced"
          f" per repeat of the same {jobs} jobs; {repeats} repeats of each)")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.json")
    tracer.dump(path, env)
    print(f"spans: {path}")
    return metrics, runner.attempted, runner.failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.BLOCKS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes (smoke test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stablulc", "cli.py")):
        print(f"error: no stablulc sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("STABLULC_ENUM_CAP", None)
    sys.path.insert(0, SRC)
    checker = workloads.Checker()
    work_dir = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        def work(name):
            return os.path.join(work_dir, name)

        runner = Runner(args.workload, args.seed, work, checker, args.tiny)
        # Fill lazy caches (parsers, excluded_minor_catalog) before timing;
        # fresh-process cost is what setup_s measures.
        runner.run_job(workloads.setup_job(args.workload, work))
        runner.attempted = runner.failed = 0     # FreshProcess checks this job
        gc.freeze()
        env = environment()
        print(f"workload={args.workload} seed={args.seed} trace={args.trace}"
              f" env={json.dumps(env)}")
        if args.trace:
            metrics, attempted, failed = per_layer(runner, args, env)
            units = metric_units("per_layer")
        else:
            metrics, attempted, failed = end_to_end(runner, args, work,
                                                    checker)
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for e in runner.errors:
        print(f"FAILED JOB: {e}")
    report = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units.items()}
    for name, m in report.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
