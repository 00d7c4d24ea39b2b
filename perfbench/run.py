"""Benchmark entry point: one workload, one seed, traced or untraced.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from its
``src/``. An untraced run (``--trace 0``) splits ``--seconds`` between
WORKERS worker processes started one after another, pools their set-up
times and timed passes, then prints every end-to-end metric; a traced run
(``--trace 1``) uses one worker that wraps the library's public functions
and prints the per-layer metrics. The last stdout line is one JSON object
with keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full result, with provenance and every task outcome, is written to
``.bench_out/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

#: Worker processes of an untraced run; setup_s is the median of their
#: start-ups, the other metrics pool their passes. A process's speed
#: depends on its memory layout as well as on the host's load, so
#: samples from several processes spread over the run move less from
#: run to run than samples from one.
WORKERS = 3
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MiB",
    "cli_p50_s": "s",
    "cli_tail_s": "s",
}

PER_LAYER = {
    **{f"{name}.{kind}": unit for name in tracer.SPAN_NAMES
       for kind, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    **{name: unit for name, (unit, _) in tracer.COUNTERS.items()},
    "stochastic_engine.simulate_sde.normals_per_s": "1/s",
    "cli.report_bytes": "B",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "bench.top_span_coverage": "ratio",
    "bench.trace_overhead_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


def spawn_worker(args, out: Path, seconds: float) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--out", str(out), "--spawned-at", repr(time.monotonic()),
    ]
    if args.tiny:
        argv.append("--tiny")
    # own session, so a worker that overruns is killed with its CLI children
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(ROOT), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"benchmark worker overran {WORKER_TIMEOUT_S} s and was killed")
    if proc.returncode != 0:
        sys.exit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def p75(values):
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def pool(works: list) -> dict:
    """One worker result made of several: samples and outcomes joined,
    probe counts added, the largest peak RSS."""
    first = works[0]
    probes = [w["probe"] for w in works]
    return {
        **first,
        "setups": [w["setup_s"] for w in works],
        "walls": [x for w in works for x in w["walls"]],
        "outcomes": [row for w in works for row in w["outcomes"]],
        "peak_rss_mb": max(w["peak_rss_mb"] for w in works),
        "cli_times": [x for w in works for x in w["cli_times"]],
        "probe": {
            "runs": sum(p["runs"] for p in probes),
            "failed": sum(p["failed"] for p in probes),
            "wrong": sorted({m for p in probes for m in p["wrong"]}),
        },
    }


def summarize(args, work) -> dict:
    """Counts are per distinct task, not per execution: every pass repeats
    the same task list and the number of passes depends on the machine's
    speed, so a task counts once as attempted and once as failed if any of
    its executions failed. The CLI probe counts as one task."""
    rows = work["outcomes"]
    n_tasks = len(work["tasks"])
    failed_tasks = {name for row in rows for name, o in zip(work["tasks"], row) if o[0] in ("failed", "wrong")}
    notes = {f"{name}: {o[1]}": o[0] for row in rows for name, o in zip(work["tasks"], row) if o[0] != "ok"}
    summary = {
        "attempted": n_tasks,
        "failed": len(failed_tasks),
        "wrong": sorted(note for note, status in notes.items() if status == "wrong"),
        "notes": sorted(notes),
    }
    if args.trace:
        summary["metrics"] = {name: work["layers"][name] for name in PER_LAYER}
        return summary

    probe, cli_times, walls, setups = work["probe"], work["cli_times"], work["walls"], work["setups"]
    failed = sum(o[0] in ("failed", "wrong") for row in rows for o in row)
    if probe["runs"]:
        summary["attempted"] += 1
        summary["failed"] += bool(probe["failed"] or probe["wrong"])
        summary["wrong"] += probe["wrong"]
    summary["metrics"] = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        # add-half estimate of the share of failed tasks: never 0, so a new
        # failure on a failure-free workload is a finite regression
        "failed_frac": (len(failed_tasks) + 0.5) / (n_tasks + 1),
        "peak_rss_mb": work["peak_rss_mb"],
        "cli_p50_s": statistics.median(cli_times),
        "cli_tail_s": p75(cli_times),
    }
    summary["samples"] = {
        "setup_s": setups,
        "wall_s": walls,
        "wall_p75_s": p75(walls) if len(walls) > 1 else walls[0],
        "cli_s": cli_times,
        "failed_frac_raw": failed / (n_tasks * len(rows)),
        "cli_probe": probe,
    }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check")
    args = parser.parse_args(argv)
    for needed in ("src/redunquant/__init__.py", "configs/scalar_two_channel.json"):
        if not (ROOT / needed).is_file():
            sys.exit(f"error: {needed} not found; run from the root of a source checkout")

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.trace:
        work = spawn_worker(args, out, args.seconds)
    else:
        work = pool([spawn_worker(args, out, args.seconds / WORKERS) for _ in range(WORKERS)])
    summary = summarize(args, work)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": value, "unit": units[name]} for name, value in summary["metrics"].items()}
    result = {
        "correct": not summary["wrong"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(
        {**result, "provenance": work["provenance"], "tasks": work["tasks"],
         "notes": summary["notes"], "wrong": summary["wrong"],
         "samples": summary.get("samples"), "traced_walls": work.get("traced_walls")},
        indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for note in summary["notes"] + summary["wrong"]:
        print(f"  note: {note}")
    for name, entry in metrics.items():
        print(f"  {name:<58} {entry['value']:.6g} {entry['unit']}")
    samples = summary.get("samples")
    if samples:
        beyond = sum(t > metrics["cli_tail_s"]["value"] for t in samples["cli_s"])
        print(f"  samples: wall_s n={len(samples['wall_s'])} (p75 {samples['wall_p75_s']:.6g} s); "
              f"cli n={len(samples['cli_s'])}, {beyond} beyond cli_tail_s (p75); "
              f"setup_s n={len(samples['setup_s'])}")
    print(f"  result file: {out.relative_to(ROOT) / 'result.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
