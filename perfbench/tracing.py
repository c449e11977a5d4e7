"""Name-level span tracing of dpsynth's public functions, from outside the package.

The package's modules import functions by name (``from .rng import
laplace_sample``), so patching only the defining module would miss most
calls. :func:`install` wraps every public function and every public method
of a public class defined in each layer module, then rebinds every
reference to a wrapped function found in any ``dpsynth`` module namespace,
and in module-level dicts of functions, to its wrapper. :func:`restore`
undoes all of it. Nothing under ``src/`` is edited.

Spans live in memory as four parallel lists (name id, start, end, parent
span) and are written out by :meth:`Tracer.save` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "harness", "rng", "simgen", "data", "synth", "stattests", "special", "dpmw", "report")

# ms_tail is the highest of these percentiles that leaves at least
# TAIL_BEYOND calls above it; below that the median is reported.
TAIL_LEVELS = (99.99, 99.9, 99.0, 90.0)
TAIL_BEYOND = 10

_TEST_FUNCTIONS = ("mann_whitney_u", "t_test", "chi_squared", "median_test")


class Tracer:
    """In-memory span recorder plus exact work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter_ns
        stack, ids, starts, ends, parents = self._stack, self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def arrays(self):
        """Spans as numpy arrays: name id, start ns, end ns, parent index (-1 = root)."""
        return (
            np.asarray(self.name_id, dtype=np.int64),
            np.asarray(self.start, dtype=np.int64),
            np.asarray(self.end, dtype=np.int64),
            np.asarray(self.parent, dtype=np.int64),
        )

    def save(self, path: Path) -> None:
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name_id=name_id, start_ns=start, end_ns=end, parent=parent)

    def layer_stats(self, passes: int) -> dict[str, dict]:
        """Per traced name: calls and self seconds per pass, inclusive ms p50 and tail.

        Self time is a span's duration minus its direct children's; spans on
        one thread nest, so the children never overlap.
        """
        name_id, start, end, parent = self.arrays()
        dur = end - start
        child = parent >= 0
        child_ns = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_ns = dur - child_ns
        stats = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            calls = int(mask.sum())
            if calls == 0:
                stats[name] = {"calls": 0, "self_s": 0.0, "ms_p50": 0.0, "ms_tail": 0.0, "tail_pct": 50.0}
                continue
            ms = dur[mask] / 1e6
            level = tail_level(calls)
            stats[name] = {
                "calls": calls // passes,
                "self_s": float(self_ns[mask].sum()) / 1e9 / passes,
                "ms_p50": float(np.percentile(ms, 50)),
                "ms_tail": float(np.percentile(ms, level)),
                "tail_pct": level,
            }
        return stats

    def self_seconds(self) -> float:
        """Total self time of all spans, which equals the total of root spans."""
        _, start, end, parent = self.arrays()
        return float((end - start)[parent < 0].sum()) / 1e9


def tail_level(calls: int) -> float:
    """Highest tabulated percentile with at least TAIL_BEYOND calls beyond it."""
    for level in TAIL_LEVELS:
        if math.floor(calls * (100.0 - level) / 100.0 + 1e-9) >= TAIL_BEYOND:
            return level
    return 50.0


def _count_dpmw(counts, arguments, result):
    elems = int(arguments["data"].groups.size) * int(arguments["cfg"].null_samples)
    counts["dpmw.null_elems"] += elems
    counts["dpmw.null_bytes_computed"] += 4 * elems  # int32 rank blocks


def _count_ipf(counts, arguments, result):
    table = arguments["table"]
    ndim = len(table.variables)
    marginals = arguments.get("marginals")
    counts["synth.ipf_joint_cells"] += int(np.prod(table.domains))
    counts["synth.ipf_marginals"] += len(marginals) if marginals else ndim + ndim * (ndim - 1) // 2


def _count_records(counts, arguments, result):
    counts["data.records_emitted"] += int(result.n)


def _count_outcome(counts, arguments, result):
    counts["stattests.outcomes"] += 1
    counts["stattests.feasible"] += bool(result.feasible)


_COUNTERS = {
    "dpmw.dp_mann_whitney": _count_dpmw,
    "synth.fit_marginal_joint": _count_ipf,
    "data.samples_from_counts": _count_records,
    **{f"stattests.{name}": _count_outcome for name in _TEST_FUNCTIONS},
}


def _public_callables(module, layer):
    """(traced name, owner, attribute, function) for each public function and method."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", None, name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{layer}.{name}.{attr}", obj, attr, member


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every public name of every layer; returns the undo list for :func:`restore`."""
    undo: list[tuple] = []
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"dpsynth.{layer}")
        for traced_name, owner, attr, fn in list(_public_callables(module, layer)):
            wrapper = tracer.wrap(traced_name, fn)
            if owner is None:
                wrappers[fn] = wrapper
            else:
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, fn))
    namespaces = [m for name, m in sys.modules.items() if name == "dpsynth" or name.startswith("dpsynth.")]
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                undo.append((module, attr, value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in wrappers:
                        value[key] = wrappers[item]
                        undo.append((value, key, item))
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


def write_summary(path: Path, stats: dict, counts: Counter) -> None:
    path.write_text(json.dumps({"layers": stats, "counts": dict(counts)}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
