"""Check the benchmark's own steadiness across seeds.

    python3 perfbench/prove.py --workloads tandem_open,lossy_driver --seeds 1:10 [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, with
BENCHMARK.json's ``run_seconds`` and ``--trace 0``.  For every end-to-end
metric it prints the median and quartiles of the runs and their spread
(third minus first quartile, as a share of the median) next to the
metric's bound.  A metric other than ``setup_s`` whose spread exceeds its
bound fails the check; the aim is a spread below a third of the bound.
``--out`` writes the figures as JSON.  Exit code 1 if a run failed or a
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition(":")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1:10", metavar="LO:HI")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    machine = {"cores": os.cpu_count(), "python": platform.python_version(),
               "loadavg_at_start": os.getloadavg()[0], "run_seconds": bench["run_seconds"]}
    values = {}  # workload -> metric -> [value per seed]
    broken = False
    for seed in seeds:
        for workload in args.workloads.split(","):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            machine.update(w.split("=", 1) for line in lines[1:2] for w in line.split() if w.startswith("numpy="))
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
                broken = True
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for workload, metrics in values.items():
        for spec in bench["end_to_end"]:
            runs = metrics.get(spec["name"], [])
            if len(runs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= spec["bound"] / 3 else "within bound" if spread <= spec["bound"] else "TOO WIDE"
            if verdict == "TOO WIDE" and spec["name"] != "setup_s":
                broken = True
            summary.setdefault(workload, {})[spec["name"]] = {
                "unit": spec["unit"], "runs": len(runs), "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": spec["bound"],
            }
            print(f"{workload:16s} {spec['name']:14s} median {med:12.6g} {spec['unit']:4s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} bound {spec['bound']:.2f} {verdict}")
    if args.out is not None:
        args.out.write_text(json.dumps({"machine": machine, "seeds": args.seeds, "workloads": summary}, indent=1) + "\n")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
