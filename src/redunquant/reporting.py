"""Deterministic report serialization.

Reports are JSON with sorted keys and a fixed 17-significant-digit float
rendering, so identical inputs produce byte-identical files. Non-finite
values never appear as bare JSON numbers: they are converted to the
tagged sentinel strings "inf", "-inf" and "nan" before serialization
(infinite KL in particular is a reportable event, not a silent large
float). Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import numpy as np

from .errors import IoError
from .redundancy_analysis import RedundancyReport, SweepTable
from .reliable_gains import ReliabilityReport

SCHEMA_VERSION = "1"
TOOL_NAME = "redunquant"
TOOL_VERSION = "0.1.0"


def sanitize(obj):
    """Reduce a report value tree to plain JSON-serializable types."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out[key] = sanitize(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def format_float(value: float) -> str:
    """Fixed 17-significant-digit rendering (round-trips float64 exactly)."""
    return format(float(value), ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    pad = "  " * indent
    child = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{child}{json.dumps(key)}: {dumps_canonical(obj[key], indent + 1)}"
            for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        parts = [f"{child}{dumps_canonical(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise TypeError("non-finite float reached the serializer; sanitize first")
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def write_text_atomic(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def emit_report(report: dict, path) -> None:
    """Write a report to ``path`` as canonical JSON."""
    write_text_atomic(path, dumps_canonical(sanitize(report)) + "\n")


def parse_report(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoError(f"{path} is not a valid report: {exc}") from exc


def inputs_digest(raw_config: dict) -> str:
    canonical = dumps_canonical(sanitize(raw_config))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_report(command: str, options: dict, digest: str, outputs: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "command": command,
        "options": options,
        "inputs_digest": digest,
        "outputs": outputs,
    }


# --- converters from result dataclasses to plain report dictionaries ------


def reliability_to_dict(report: ReliabilityReport) -> dict:
    return {
        "abscissae": report.abscissae.tolist(),
        "margin": report.margin,
        "reliable": report.reliable,
    }


def redundancy_to_dict(report: RedundancyReport) -> dict:
    return {
        "epsilon": report.epsilon,
        "t": report.t,
        "kl_per_channel": list(report.kl_per_channel),
        "avg_term": report.avg_term,
        "entropy_term": report.entropy_term,
        "r": report.r,
        "method": report.method,
        "normalization": report.normalization,
        "provenance": report.provenance,
    }


def sweep_to_dict(table: SweepTable) -> dict:
    return {
        "parameter": table.parameter,
        "values": list(table.values),
        "rows": [redundancy_to_dict(rep) for rep in table.reports],
        "pair_annotations": list(table.pair_annotations),
        "notes": table.notes,
    }


def _csv_number(value) -> str:
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format_float(value)


def sweep_csv(table: SweepTable) -> str:
    """Flat table of (parameter, r, avg_term, entropy_term, per-channel KLs)."""
    n_channels = len(table.reports[0].kl_per_channel) if table.reports else 0
    header = [table.parameter, "r", "avg_term", "entropy_term"] + [
        f"kl_{i}" for i in range(1, n_channels + 1)
    ]
    lines = [",".join(header)]
    for value, rep in zip(table.values, table.reports):
        cells = [value, rep.r, rep.avg_term, rep.entropy_term, *rep.kl_per_channel]
        lines.append(",".join(_csv_number(cell) for cell in cells))
    return "\n".join(lines) + "\n"
