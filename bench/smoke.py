#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 bench/smoke.py

It checks that
* every workload runs in both modes and emits exactly the metrics that
  BENCHMARK.json names, each with its unit, with every job correct;
* a deliberately wrong expected output counts as a failed job, for each
  of the three kinds of check (exact, FEASIBLE witness, recorded);
* the benchmark exits non-zero, printing no result, when the program's
  sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace",
                           str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(spec):
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(w["name"], trace)
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (w["name"], kind, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            print(f"ok: {w['name']} trace={trace}:"
                  f" {len(got)} metrics, {result['attempted']} jobs")


def check_wrong_expectations():
    sys.path.insert(0, run.SRC)
    work_dir = os.path.join(run.WORK_DIR, f"smoke-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        def work(name):
            return os.path.join(work_dir, name)

        for workload, how in (("certify", "exact"), ("decide", "feasible"),
                              ("screen", "recorded")):
            runner = run.Runner(workload, 7, work, workloads.Checker(), True)
            unit = next(u for u in runner.block
                        if any(j.check[0] == how for j in u))
            for job in unit:
                runner.run_job(job)
            assert runner.failed == 0, runner.errors
            job = next(j for j in unit if j.check[0] == how)
            if how == "exact":
                job.check = ("exact", job.check[1], "CERTIFIED wrong\n")
            elif how == "feasible":
                job.check = ("feasible", work("wrong.qf"))
                with open(work("wrong.qf"), "w", encoding="ascii") as fh:
                    fh.write("2\n10\n01\nq:\n1 2\n")      # CZ: not feasible
            else:
                rec = runner.checker.expected[job.check[1]]
                runner.checker.expected[job.check[1]] = dict(
                    rec, stdout="0" * 16)
            runner.run_job(job)
            assert runner.failed == 1, (workload, how)
            print(f"ok: a wrong {how} expectation counts as a failed job")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def check_refuses_without_sources():
    bare = os.path.join(run.WORK_DIR, f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("certify", 0, cwd=bare,
                     script=os.path.join(bare, "bench", "run.py"))
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok: without the sources the benchmark exits"
              f" {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_wrong_expectations()
    check_refuses_without_sources()
    print("smoke test passed")


if __name__ == "__main__":
    main()
