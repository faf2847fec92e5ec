"""Per-layer counters read from outside the program, for the traced run.

The layers are the modules of ``sphere_trees``.  A cProfile pass, enabled
only around the benchmark's calls into the program, is aggregated by module
file into call counts and self times; a few functions that later changes are
expected to move are counted on their own.  The module-level ``lru_cache``
wrappers are read through ``cache_info()`` where they still exist.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pstats

# The layers that do work; ``errors`` only defines exceptions.
MODULES = ("gaussian", "projective", "rational", "laurent", "trees", "moduli",
           "limits", "plumbing", "covers", "dynamics", "serialize", "cli")

# Single functions whose bodies' executions are counted on their own; a cached
# function counts only the calls its cache did not answer.
COUNTED = {
    "laurent.poly_mul_calls": ("laurent", "LaurentPoly.__mul__"),
    "limits.chart_calls": ("limits", "_limit_chart"),
    "projective.moebius_calls": ("projective", "Moebius.make"),
    "trees.separating_vertex_calls": ("trees", "separating_vertex"),
    "rational.gcd_calls": ("rational", "Polynomial.gcd"),
    "moduli.embed_calls": ("moduli", "embed"),
}

CACHES = {
    "moduli.embed_cache": ("moduli", "embed"),
    "moduli.marking_map": ("moduli", "marking_map"),
    "trees.partition_at": ("trees", "partition_at"),
    "trees.adjacency": ("trees", "adjacency"),
}


def _resolve(module: str, path: str):
    """The named object of ``sphere_trees.<module>``, or None if it is gone."""
    obj = importlib.import_module(f"sphere_trees.{module}")
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def _code_key(module: str, path: str) -> tuple | None:
    """The profiler's key for a function's body, seen through any cache."""
    obj = _resolve(module, path)
    code = getattr(inspect.unwrap(getattr(obj, "__func__", obj)), "__code__", None)
    return None if code is None else (code.co_filename, code.co_firstlineno, code.co_name)


def profile_by_module(profiler) -> dict:
    """Calls and self seconds per module, plus the single-function counters."""
    stats = pstats.Stats(profiler).stats
    package_dir = pathlib.Path(importlib.import_module("sphere_trees").__file__).resolve().parent
    out = {f"{m}.calls": 0 for m in MODULES}
    out.update({f"{m}.self_s": 0.0 for m in MODULES})
    total_self = 0.0
    for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in stats.items():
        total_self += tt
        path = pathlib.Path(filename)
        if path.parent != package_dir or path.stem not in MODULES:
            continue
        out[f"{path.stem}.calls"] += nc
        out[f"{path.stem}.self_s"] += tt
    for name, (module, path) in COUNTED.items():
        key = _code_key(module, path)
        out[name] = stats[key][1] if key in stats else 0
    out["profile.self_s"] = total_self
    return out


def cache_counts() -> dict:
    """Hits and misses of each module-level cache; None where it is gone."""
    out = {}
    for name, (module, path) in CACHES.items():
        info = getattr(_resolve(module, path), "cache_info", None)
        out[name] = tuple(info()[:2]) if info is not None else None
    return out


def cache_delta(before: dict, after: dict) -> dict:
    """Hits and misses during the measured items only."""
    return {name: None if after[name] is None else
            {"hits": after[name][0] - before[name][0],
             "misses": after[name][1] - before[name][1]}
            for name in after}
