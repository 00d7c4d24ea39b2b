"""Deterministic report serialization.

Reports are ``json.dumps`` output with sorted keys and a two-space indent.
Floats are written in Python's shortest round-trip form, which is exact
and deterministic: identical inputs produce byte-identical files, an
integral float keeps its ``.0`` and -0.0 keeps its sign. Result
dataclasses go in as the dict of their fields. Non-finite values never
appear as bare JSON numbers: they are converted to the tagged sentinel
strings "inf", "-inf" and "nan" before serialization (infinite KL in
particular is a reportable event, not a silent large float). Files are
written atomically (temp file + rename).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import tempfile

import numpy as np

from .errors import IoError
from .redundancy_analysis import SweepTable

SCHEMA_VERSION = "1"
TOOL_NAME = "redunquant"
TOOL_VERSION = "0.1.0"


def sanitize(obj):
    """Reduce a report value tree to plain JSON-serializable types.

    A dataclass instance becomes the dict of its fields.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
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


def dumps_canonical(obj) -> str:
    """Sorted-key, two-space-indented JSON with shortest round-trip floats."""
    return json.dumps(sanitize(obj), indent=2, sort_keys=True, allow_nan=False)


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
    write_text_atomic(path, dumps_canonical(report) + "\n")


def parse_report(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoError(f"{path} is not a valid report: {exc}") from exc


def inputs_digest(raw_config: dict) -> str:
    canonical = dumps_canonical(raw_config)
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


def sweep_to_dict(table: SweepTable) -> dict:
    return {
        "parameter": table.parameter,
        "values": table.values,
        "rows": table.reports,
        "pair_annotations": table.pair_annotations,
        "notes": table.notes,
    }


def sweep_csv(table: SweepTable) -> str:
    """Flat table of (parameter, r, avg_term, entropy_term, per-channel KLs)."""
    n_channels = len(table.reports[0].kl_per_channel) if table.reports else 0
    header = [table.parameter, "r", "avg_term", "entropy_term"] + [
        f"kl_{i}" for i in range(1, n_channels + 1)
    ]
    lines = [",".join(header)]
    for value, rep in zip(table.values, table.reports):
        cells = [value, rep.r, rep.avg_term, rep.entropy_term, *rep.kl_per_channel]
        lines.append(",".join(str(sanitize(float(cell))) for cell in cells))
    return "\n".join(lines) + "\n"
