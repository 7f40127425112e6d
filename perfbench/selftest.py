#!/usr/bin/env python3
"""The benchmark's own test: ``python3 perfbench/selftest.py``.

Runs all three workloads at a tiny scale (3,000 rows, 8 insert batches,
2 s phases), untraced and traced, and checks that

* every end-to-end metric of BENCHMARK.json prints with its unit, and
  every per-layer metric does in the traced runs;
* the runs answer correctly and exit 0;
* an injected wrong answer makes the run report ``correct: false`` and
  exit non-zero;
* in a directory holding only BENCHMARK.json and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Takes about two minutes; exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--seconds", "2", "--rows", "3000", "--batches", "8"]
#: Per-layer metrics a tiny run may leave at 0: no compaction within 8
#: batches, no re-search by design, and host noise that may not occur.
MAY_BE_ZERO = {"stream.compactions", "stream.compact_busy_s",
               "stream.researches", "serve.collapsed_ratio", "host.steal_s",
               "host.foreign_cpu_s", "trace.overhead_ratio"}


def bench(workload, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", *extra], cwd=cwd, capture_output=True, text=True,
        timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def expect(ok, message):
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = set()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = bench(workload, "--trace", str(trace), *TINY)
            got = result(proc)
            expect(proc.returncode == 0 and got and got["correct"]
                   and got["failed"] == 0 and got["attempted"] >= 1,
                   f"{workload} --trace {trace} runs clean "
                   f"{proc.stderr[-500:] if proc.returncode else ''}")
            printed = {name: m["unit"] for name, m in got["metrics"].items()}
            expect(printed == units,
                   f"{workload} --trace {trace} prints every {kind} metric "
                   "with its unit")
            expect(all(isinstance(m["value"], float)
                       for m in got["metrics"].values()),
                   f"{workload} --trace {trace} values are numbers")
            measured |= {n for n, m in got["metrics"].items() if m["value"]}
    silent = set(units) - measured - MAY_BE_ZERO
    expect(not silent, f"every per-layer metric is measured somewhere "
           f"{sorted(silent)}")

    proc = bench("serve_zipf", "--trace", "0", "--inject-wrong", *TINY)
    got = result(proc)
    expect(proc.returncode != 0 and got and not got["correct"]
           and got["failed"] == 1, "an injected wrong answer fails the run")

    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("fit_compas", "--trace", "0", *TINY, cwd=bare)
    finally:
        shutil.rmtree(bare.parent)
    expect(proc.returncode != 0 and result(proc) is None,
           "without the program's sources the run fails, no result")


if __name__ == "__main__":
    main()
