"""Smoke check of the benchmark itself, kept out of the test suite.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json at a tiny size (``run.py --smoke``),
untraced and traced, and asserts that each run exits 0 with a correct
result whose metrics are exactly the declared ones with their units, that
every metric also appears on its own named line with its unit, and that
the traced-run count invariants hold.  It also copies only BENCHMARK.json
and the benchmark's directories into a scratch directory and asserts that
the benchmark refuses to run there.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {result}")
    problems += [f"{where}: {line}" for line in lines if "trace invariant broken" in line]
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        problems.append(f"{where}: metrics {printed} differ from the declared {declared}")
    named = {tuple(line.split()[::2]) for line in lines[:-1] if not line.startswith("#")}
    for name, unit in declared.items():
        if (name, unit) not in named:
            problems.append(f"{where}: no line names {name} with unit {unit}")
    return problems


def check_refuses_without_program(bench: dict) -> list[str]:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        return [f"runs without the program: exit {proc.returncode}\n{proc.stdout}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_program(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            found = check(bench, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
