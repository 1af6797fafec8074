"""Helpers shared by ``run.py`` and the worker: artifact checks, digests, percentiles.

Standard library only, so ``run.py`` never imports vsheet.
"""

from __future__ import annotations

import hashlib
import math
import pathlib
import statistics


def digest(directory: pathlib.Path) -> str:
    """sha256 over the names and bytes of every file under ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_certificates(records: list) -> list:
    """Six certificates, each PASS."""
    problems = []
    if len(records) != 6:
        problems.append(f"expected 6 certificates, got {len(records)}")
    problems.extend(f"certificate {r.get('ratio_name')} FAIL" for r in records if r.get("pass") is not True)
    return problems


def check_sweep(payload: dict) -> list:
    """The sweep reports passed, and every ratio is present and finite."""
    problems = []
    if payload.get("passed") is not True:
        problems.append("sweep did not pass")
    for row in payload.get("rows", []):
        for key in ("front_aniso", "g_over_f", "front_plain"):
            val = row.get(key)
            if not (isinstance(val, float) and math.isfinite(val)):
                problems.append(f"sweep gamma={row.get('gamma')}: {key} = {val!r}")
    if not payload.get("rows"):
        problems.append("sweep returned no rows")
    return problems


def latency_block(samples: list) -> dict:
    """Median and p99 in ms, with the sample count; p99 only when at least ten samples lie beyond it."""
    out = {"samples": len(samples), "p50_ms": statistics.median(samples) * 1e3}
    if len(samples) >= 1000:
        out["p99_ms"] = statistics.quantiles(samples, n=100)[98] * 1e3
    return out
