"""Span tracer that wraps the library's public functions from outside.

``install`` replaces every module binding of each traced function (the
same function object is often imported into several modules, e.g.
``solve_lyapunov`` into ``reliable_gains`` and ``stochastic_engine``) with
a timing wrapper, and ``uninstall`` puts the originals back. Spans stay in
memory as ``[name, start, end, parent, task]`` lists; ``summarize`` turns
the spans of one pass into per-layer metrics and ``dump`` writes them all
out once at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

#: Traced public functions, by module of ``redunquant``.
FUNCTIONS = {
    "system_model": ("solve_lyapunov", "matrix_exponential", "spectral_abscissa"),
    "reliable_gains": ("verify_reliable", "solve_care_newton", "synthesize_gains"),
    "info_measures": ("gaussian_kl", "gaussian_entropy", "grid_kl", "grid_entropy"),
    "liouville_flow": ("pushforward_gaussian", "transported_pdf"),
    "stochastic_engine": (
        "stationary_gaussian",
        "simulate_sde",
        "sample_box",
        "empirical_density",
        "smoothed_empirical_density",
        "default_stationary_box",
        "solve_stationary_fp_grid",
        "fp_residual",
    ),
    "redundancy_analysis": (
        "systemic_redundancy",
        "epsilon_sweep",
        "time_sweep",
        "liouville_redundancy",
    ),
    "cli": ("parse_config", "run_command"),
    "reporting": ("emit_report",),
}

SPLU = "scipy.sparse.linalg.splu"

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns] + [SPLU]

#: Counters recorded at the wrapped boundaries, with their units. Those
#: marked computed are derived from argument shapes, not measured.
COUNTERS = {
    "reliable_gains.synthesize_gains.failed": ("count", "raised calls"),
    f"{SPLU}.fill_nnz": ("count", "nnz(L) + nnz(U) read from the SuperLU object"),
    "system_model.solve_lyapunov.kron_flops": ("flop", "computed: (2/3) (d^2)^3 per solve"),
    "system_model.solve_lyapunov.kron_n_max": ("count", "computed: largest Kronecker size d^2"),
    "stochastic_engine.simulate_sde.normals": ("count", "computed: n_paths * n_steps * m"),
    "stochastic_engine.solve_stationary_fp_grid.cells": ("count", "computed: grid cells solved"),
}


def _lyapunov_counts(counts, args, out):
    n = args["A_cl"].shape[0] ** 2
    counts["system_model.solve_lyapunov.kron_flops"] += 2.0 / 3.0 * n**3
    key = "system_model.solve_lyapunov.kron_n_max"
    counts[key] = max(counts[key], n)


def _simulate_counts(counts, args, out):
    n_steps = max(1, int(round(float(args["horizon"]) / float(args["dt"]))))
    counts["stochastic_engine.simulate_sde.normals"] += (
        int(args["n_paths"]) * n_steps * args["sys"].sigma.m
    )


def _grid_counts(counts, args, out):
    counts["stochastic_engine.solve_stationary_fp_grid.cells"] += int(out.box.n.prod())


def _splu_counts(counts, args, out):
    counts[f"{SPLU}.fill_nnz"] += int(out.L.nnz + out.U.nnz)


_HOOKS = {
    "system_model.solve_lyapunov": _lyapunov_counts,
    "stochastic_engine.simulate_sde": _simulate_counts,
    "stochastic_engine.solve_stationary_fp_grid": _grid_counts,
    SPLU: _splu_counts,
}


class Tracer:
    """Collects spans and boundary counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.task = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.task]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                counts[f"{name}.failed"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(counts, bound.arguments, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each traced function in ``redunquant``."""
        targets = []
        for mod_name, fns in FUNCTIONS.items():
            module = importlib.import_module(f"redunquant.{mod_name}")
            for fn_name in fns:
                targets.append((f"{mod_name}.{fn_name}", getattr(module, fn_name)))
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "redunquant"]
        for name, original in targets:
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        sparse_linalg = importlib.import_module("scipy.sparse.linalg")
        self._patch(sparse_linalg, "splu", self._wrap(SPLU, sparse_linalg.splu))

    def _patch(self, module, attr, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.spans)

    def take_counts(self) -> dict[str, float]:
        out = dict(self.counts)
        self.counts.clear()
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "task"], "spans": self.spans}, handle)


def summarize(spans: list[list], first: int, wall: float) -> dict[str, float]:
    """Per-function calls, inclusive and self seconds for spans[first:].

    Self time is a span's duration minus the time its direct children
    cover (children of one span never overlap: the library is called from
    one thread). Inclusive time skips spans nested inside a span of the
    same name, so recursion is not counted twice. Also returns the share
    of ``wall`` covered by top-level spans.
    """
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    child_time = defaultdict(float)
    for span in spans[first:]:
        if span[3] >= first:
            child_time[span[3]] += span[2] - span[1]
    top = 0.0
    for idx in range(first, len(spans)):
        name, start, end, parent, _ = spans[idx]
        duration = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += duration - child_time[idx]
        ancestor, nested = parent, False
        while ancestor >= first and not nested:
            nested = spans[ancestor][0] == name
            ancestor = spans[ancestor][3]
        if not nested:
            out[f"{name}.s"] += duration
        if parent < first:
            top += duration
    out["bench.top_span_coverage"] = top / wall if wall > 0 else 0.0
    return out
