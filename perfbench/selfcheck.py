"""Self-check: every metric is emitted by name with its unit, at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced with ``--tiny`` and checks that
each run ends with the result object, that its metrics are exactly the
``end_to_end`` (untraced) or ``per_layer`` (traced) metrics of
BENCHMARK.json with the units declared there, that every value is a
finite number, and that BENCHMARK.json agrees with run.py's own tables.
Exits 1 and lists the problems if any check fails. Tiny sizes are below
the sizes the correctness tolerances are stated for (e.g. 100 Monte Carlo
paths), so ``correct`` is printed but not required here.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def check_run(workload: str, trace: int, declared: dict) -> tuple[list[str], bool | None]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}: {done.stderr.strip()[-300:]}"], None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    emitted = result["metrics"]
    for name in sorted(set(declared) ^ set(emitted)):
        problems.append(f"{where}: metric {name} is {'missing' if name in declared else 'undeclared'}")
    for name, entry in emitted.items():
        value = entry.get("value")
        if name in declared and entry.get("unit") != declared[name]:
            problems.append(f"{where}: {name} has unit {entry.get('unit')!r}, declared {declared[name]!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: {name} value {value!r} is not a finite number")
    return problems, result["correct"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if end_to_end != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if per_layer != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in run.WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            found, correct = check_run(workload, trace, declared)
            print(f"{workload:<12} trace={trace}: {'ok' if not found else 'FAILED'}"
                  f" (correct={correct})", flush=True)
            problems += found
    for problem in problems:
        print(f"  {problem}")
    print(f"self-check {'passed' if not problems else 'failed'}: "
          f"{len(end_to_end)} end-to-end and {len(per_layer)} per-layer metrics")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
