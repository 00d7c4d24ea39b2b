"""One benchmark worker process: set up, run the timed passes, check.

Started by ``run.py`` (three times in a row for an untraced run, each for
a third of its seconds); prints one JSON object on its last stdout line.
All load of a run comes from this process: library calls in-process, or,
on the ``cli`` workload and the CLI probe, child processes run one at a
time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import provenance
import tracer as tracing
import workloads

#: Share of an in-process workload's timed window given to its CLI probe:
#: after each pass, probe processes run until they have taken this share
#: of the time so far, so both sample the whole window.
PROBE_SHARE = 0.3
#: Minimum CLI probe processes of an in-process workload, per worker.
PROBE_MIN = 3
#: Minimum untraced passes per workload and worker. On cli, three workers
#: make 3 x 2 x 7 = 42 processes, so at least ten lie beyond the 75th
#: percentile reported as cli_tail_s.
MIN_PASSES = {"closed_form": 1, "grid": 1, "monte_carlo": 1, "cli": 2}
#: Fresh processes per interpreter / import measurement in a traced run.
IMPORT_RUNS = 3


def run_pass(tasks, tracer=None):
    """Run the task list once; returns (wall seconds, [(result, error)])."""
    records = []
    started = time.perf_counter()
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = index
        try:
            records.append((task.run(), None))
        except Exception as exc:  # every failure is classified and counted
            records.append((None, exc))
    return time.perf_counter() - started, records


def check_pass(tasks, records) -> list:
    return [workloads.classify(t, res, err) for t, (res, err) in zip(tasks, records)]


def _median(values):
    return statistics.median(values) if values else 0.0


class CliProbe:
    """Fresh CLI processes of an in-process workload's own route, timed
    one at a time between passes."""

    def __init__(self, wl, root: Path, out: Path, seed: int):
        self.env = workloads.child_env(root)
        self.target = out / "probe"
        self.log = out / "probe-stderr.log"
        self.argv = [sys.executable, "-m", "redunquant", *wl.probe, "--out", str(self.target),
                     "--seed", str(seed)]
        self.command = wl.probe[0]
        self.times, self.failed, self.reports = [], 0, set()

    def run_once(self) -> None:
        seconds, code, _ = workloads.run_process(self.argv, self.env, self.log)
        self.times.append(seconds)
        report = self.target / "report.json"
        if code != 0 or not report.exists():
            self.failed += 1
            return
        self.reports.add(report.read_bytes())
        report.unlink()

    def summary(self) -> dict:
        wrong = ([f"CLI probe {self.command}: report.json differs between repeats"]
                 if len(self.reports) > 1 else [])
        return {"runs": len(self.times), "failed": self.failed, "wrong": wrong}


def import_probe(root: Path, out: Path) -> dict:
    env = workloads.child_env(root)
    log = out / "import-stderr.log"

    def median_of(code):
        return _median(
            [workloads.run_process([sys.executable, "-c", code], env, log)[0] for _ in range(IMPORT_RUNS)]
        )

    interpreter = median_of("pass")
    return {"cli.interpreter_s": interpreter, "cli.import_s": median_of("import redunquant.cli") - interpreter}


def layer_metrics(tr, first, wall, records) -> dict:
    out = tracing.summarize(tr.spans, first, wall)
    counts = tr.take_counts()
    for name in tracing.COUNTERS:
        out[name] = counts.get(name, 0)
    simulate_s = out["stochastic_engine.simulate_sde.s"]
    normals = out["stochastic_engine.simulate_sde.normals"]
    out["stochastic_engine.simulate_sde.normals_per_s"] = normals / simulate_s if simulate_s > 0 else 0.0
    out["cli.report_bytes"] = sum(len(res.report) for res, _ in records if isinstance(res, workloads.CliRun))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent

    # ---- set-up: import the library and build the workload's inputs ----
    import redunquant as rq

    wl = workloads.build(args.workload, rq, args.seed, root, args.out, args.tiny, bool(args.trace))
    setup_s = time.monotonic() - args.spawned_at

    run_pass(wl.warmup)
    tasks = wl.tasks
    outcomes, walls, traced_walls, layers, cli_times = [], [], [], [], []
    if args.tiny:
        min_passes = 1
    elif args.trace:
        min_passes = 2
    else:
        min_passes = MIN_PASSES[args.workload]
    tr = tracing.Tracer() if args.trace else None
    probe = None
    if not args.trace and args.workload != "cli":
        probe = CliProbe(wl, root, args.out, args.seed)
    min_probes = 1 if args.tiny else PROBE_MIN
    started = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - started < args.seconds:
        wall, records = run_pass(tasks)
        if not walls:
            # Peak of the warm-up and one pass. Each further pass adds heap
            # fragmentation (~15 MiB a pass on grid), so a peak taken at the
            # end would grow with the number of passes, which depends on speed.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        walls.append(wall)
        outcomes.append(check_pass(tasks, records))
        cli_times.extend(res.seconds for res, _ in records if isinstance(res, workloads.CliRun))
        if probe is not None:
            while sum(probe.times) < PROBE_SHARE / (1.0 - PROBE_SHARE) * sum(walls):
                probe.run_once()
        if tr is not None:
            tr.install()
            first = tr.mark()
            wall, records = run_pass(tasks, tr)
            tr.uninstall()
            traced_walls.append(wall)
            layers.append(layer_metrics(tr, first, wall, records))
            outcomes.append(check_pass(tasks, records))
    while probe is not None and len(probe.times) < min_probes:
        probe.run_once()
    peak_kib = wl.rss.get("max_kib") or peak_kib

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "tasks": [t.name for t in tasks],
        "outcomes": [[(o.status, o.note) for o in row] for row in outcomes],
        "peak_rss_mb": peak_kib / 1024.0,
        "provenance": provenance.collect(root, args),
    }
    if tr is not None:
        metrics = {name: _median([layer[name] for layer in layers]) for name in layers[0]}
        metrics.update(import_probe(root, args.out))
        overhead = _median(traced_walls) - _median(walls)
        metrics["bench.trace_overhead_s"] = overhead
        metrics["bench.trace_overhead_frac"] = overhead / _median(walls)
        result["layers"] = metrics
        result["traced_walls"] = traced_walls
        tr.dump(args.out / "spans.json")
    elif probe is None:
        result["cli_times"] = cli_times
        result["probe"] = {"runs": 0, "failed": 0, "wrong": []}
    else:
        result["cli_times"], result["probe"] = probe.times, probe.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
