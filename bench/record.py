#!/usr/bin/env python3
"""Record the expected outputs of every pooled benchmark job.

Run from the repository root, only when a change to the program is meant
to change its output or a generator in workloads.py changed:

    python3 bench/record.py

Writes bench/expected.json: for each pooled job, the digest of its
canonical input, its exit code and the digest of its stdout.  The pools
themselves are fixed in workloads.py, so re-recording never changes which
jobs a workload runs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    work_dir = os.path.join(run.WORK_DIR, f"record-{os.getpid()}")
    os.makedirs(work_dir)
    checker = workloads.Checker(expected={})
    outputs, wrong = {}, 0
    try:
        runner = run.Runner("certify", 0, lambda n: os.path.join(work_dir, n),
                            checker, tiny=False)
        for unit in workloads.recorded_units(runner.work):
            for job in unit:
                for path, text in job.files.items():
                    with open(path, "w", encoding="ascii") as fh:
                        fh.write(text)
                _, code, out, err = runner.execute(job, None)
                if job.check[0] == "recorded":
                    outputs[job.check[1]] = {"input": job.ident, "code": code,
                                             "stdout": workloads.digest(out)}
                elif not checker.ok(job, code, out):
                    wrong += 1
                    print(f"wrong: {job.argv} -> {code} {out!r} {err[-300:]!r}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(workloads.EXPECTED_FILE, "w", encoding="ascii") as fh:
        json.dump(outputs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(outputs)} outputs, {wrong} theory checks failed")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
