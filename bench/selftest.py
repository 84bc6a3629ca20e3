"""Self-test of the benchmark harness; runs in well under a minute.

Checks, at the tiny input size:
  * every workload passes its output checks, untraced and traced, and
    emits exactly the metrics BENCHMARK.json names, with their units;
  * a chain with a step that reads a missing input file counts that step
    (exit 3) as failed, so failed_frac is above zero and the run is not
    correct;
  * in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.

Usage, from the repository root: python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["--seed", "3", "--seconds", "1", "--size", "tiny"]


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            what = f"{workload['name']} --trace {trace}"
            proc = bench(ROOT, "--workload", workload["name"], "--trace", trace,
                         *RUN)
            result = result_of(proc)
            found = len(problems)
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{what}: not correct\n{proc.stdout[-2000:]}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{what}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
            print(f"{what}: {'ok' if len(problems) == found else 'FAIL'}",
                  flush=True)

    proc = bench(ROOT, "--workload", "zones", "--trace", "0", "--inject-failure",
                 *RUN)
    result = result_of(proc)
    record = json.loads((ROOT / ".bench_runs" / "result-zones-seed3-trace0.json")
                        .read_text())
    exits = [s["exit"] for c in record["chains"] for s in c["steps"]]
    if (proc.returncode == 0 or result["correct"] or result["failed"] != 1
            or result["attempted"] != 4 or exits[-1] != 3):
        problems.append(f"injected failure not counted: {result}, exits {exits}")
    print(f"injected failure: failed_frac {result['failed']}/{result['attempted']}, "
          f"last exit {exits[-1]}", flush=True)

    bare = ROOT / ".bench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "--workload", "zones", "--trace", "0", *RUN)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout[-500:]!r}")
    print(f"bare directory: exit {proc.returncode}", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL:", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
