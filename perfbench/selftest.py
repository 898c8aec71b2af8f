"""Self-test of the benchmark.

Runs the smallest form (`--smoke`) of every workload declared in
BENCHMARK.json, untraced and traced, and checks that each run passes its
own output checks and emits exactly the metric names, with the units,
that BENCHMARK.json declares.  Also checks that `interpolation.
re_builds_per_symbol.*` reads 4 for the interpolated receivers and 0 for
the others, and that the benchmark refuses to run, without a result,
from a directory holding only BENCHMARK.json and the benchmark.

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
INTERPOLATED = ("lms", "rls", "cmv-sg", "cmv-rls")


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        problems.append(f"{where}: metrics differ from BENCHMARK.json; "
                        f"missing {sorted(set(declared) - set(emitted))}, "
                        f"extra {sorted(set(emitted) - set(declared))}, "
                        f"unit mismatch {sorted(n for n in declared.keys() & emitted.keys() if declared[n] != emitted[n])}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} value {m['value']!r} is not a number")
        prefix = "interpolation.re_builds_per_symbol."
        if name.startswith(prefix):
            want = 4 if name[len(prefix):] in INTERPOLATED else 0
            if m["value"] != want:
                problems.append(f"{where}: {name} = {m['value']}, expected {want}")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    print("selftest passed" if not problems else f"selftest FAILED ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
