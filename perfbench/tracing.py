"""The traced run: spans at public-function boundaries, a profile fold.

Nothing inside ``repro`` is edited.  :class:`SpanTracer` swaps each
public function in :data:`SPAN_POINTS` for a wrapper that records a
span (name, start, end, parent span) in memory, and restores the
originals afterwards.  A separate pass under :mod:`cProfile` gives the
self time of every function, folded into the ``repro`` package it
lives in, and deterministic call counts.  The two passes are kept
apart so the spans are not inflated by the profiler.
"""

from __future__ import annotations

import cProfile
import functools
import json
import pstats
import time
from collections import Counter
from pathlib import Path

import repro
from repro.core import runner, tenancy
from repro.core.system import System
from repro.exp import cell, diff, merge, report, sweep
from repro.exp.spec import CellConfig
from repro.exp.store import SqliteStore

#: (owner, attribute, span name).  Module-level functions are patched
#: in the module that calls them, because ``from x import f`` binds a
#: name the caller looks up at call time.
SPAN_POINTS = (
    (sweep, "run_sweep", "exp.sweep"),
    (sweep, "run_cell", "exp.run_cell"),
    (cell, "build_workload", "apps.build"),
    (cell, "build_tenant_workloads", "apps.build"),
    (cell, "run_software", "core.software"),
    (cell, "run_vim", "core.vim"),
    (cell, "run_tenants", "core.vim"),
    (runner.RunResult, "verify", "core.verify"),
    (tenancy, "verify_outputs", "core.verify"),
    (SqliteStore, "put", "exp.store.put"),
    (SqliteStore, "get", "exp.store.get"),
    (CellConfig, "key", "exp.spec.key"),
    (merge, "merge_into", "exp.merge"),
    (diff, "diff_stores", "exp.diff"),
    (diff, "render_diff", "exp.render_diff"),
    (report, "stream_report", "exp.report"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPAN_POINTS))

#: Layers the profile's self time is folded into: ``repro`` packages,
#: ``os.vim`` apart from the rest of ``os``, everything outside
#: ``repro`` (stdlib, builtins, sqlite3) and the remaining top-level
#: ``repro`` modules.
LAYERS = (
    "sim", "imu", "hw", "coproc", "os.vim", "os", "core", "apps", "trace",
    "exp", "stdlib", "other",
)

#: Per-pass call counts: metric -> (file suffix, function name).
CALL_COUNTS = {
    "calls.pending_unmasked": ("repro/hw/interrupts.py", "pending_unmasked"),
    "calls.signal_value": ("repro/sim/signal.py", "value"),
    "calls.imu_tick": ("repro/imu/imu.py", "tick"),
    "sim.edges_executed": ("repro/sim/clock.py", "_tick"),
}

#: Per-operation call counts (the row (de)serialisation hot spots).
CALLS_PER_OP = {
    "calls.asdict_per_op": ("dataclasses.py", "asdict"),
    "calls.deepcopy_per_op": ("copy.py", "deepcopy"),
}

EDGE_DOMAINS = ("fabric", "interface", "core")

_SRC = str(Path(repro.__file__).resolve().parent) + "/"


class SpanTracer:
    """Record spans around :data:`SPAN_POINTS` while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._domains: list = []
        self.edges: Counter = Counter()
        self.gets = self.hits = self.puts = 0

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "exp.store.get":
            self.gets += 1
            self.hits += result is not None
        elif name == "exp.store.put":
            self.puts += 1
        elif name == "core.vim":
            # Domains are read once their run has finished, then
            # dropped so no finished System stays alive.
            for domain in {id(d): d for d in self._domains}.values():
                self.edges[domain.name] += domain.cycles
            self._domains.clear()

    def _capture_domains(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            domains = func(*args, **kwargs)
            tracer._domains.extend(domains)
            return domains

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "SpanTracer":
        for owner, attr, name in SPAN_POINTS:
            self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
        self._patch(
            System, "build_clock_domains",
            self._capture_domains(System.build_clock_domains),
        )
        return self

    def __exit__(self, *_exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self, wall: float) -> dict[str, float]:
        """Inclusive share of *wall* per span name, plus store counts."""
        totals = Counter()
        for name, start, end, _parent in self.spans:
            totals[name] += end - start
        out = {
            f"span_pct.{name}": 100.0 * totals[name] / wall
            for name in SPAN_NAMES
        }
        out["exp.store.puts"] = self.puts
        out["exp.store.gets"] = self.gets
        out["exp.store.get_hit_ratio"] = self.hits / self.gets if self.gets else 0.0
        for name in EDGE_DOMAINS:
            out[f"sim.edges.{name}"] = self.edges[name]
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "start_s": start - origin, "end_s": end - origin,
                }) + "\n")


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    if not filename.startswith(_SRC):
        return "other" if "/perfbench/" in filename else "stdlib"
    parts = filename[len(_SRC):].split("/")
    if parts[:2] == ["os", "vim"]:
        return "os.vim"
    if len(parts) > 1 and parts[0] in LAYERS:
        return parts[0]
    return "other"


class Profiler:
    """A context manager running its body under :mod:`cProfile`."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()

    def __enter__(self) -> "Profiler":
        self.profile.enable()
        return self

    def __exit__(self, *_exc) -> None:
        self.profile.disable()

    def metrics(self, ops: int) -> dict[str, float]:
        """Self-time shares per layer and the deterministic call counts."""
        stats = pstats.Stats(self.profile).stats
        self_time = Counter()
        calls = Counter()
        counted = {**CALL_COUNTS, **CALLS_PER_OP}
        for (filename, _line, func), entry in stats.items():
            _cc, ncalls, tottime, _ct, _callers = entry
            self_time[layer_of(filename)] += tottime
            for metric, (suffix, name) in counted.items():
                if func == name and filename.endswith(suffix):
                    calls[metric] += ncalls
        total = sum(self_time.values()) or 1.0
        out = {
            f"self_pct.{layer}": 100.0 * self_time[layer] / total
            for layer in LAYERS
        }
        for metric in CALL_COUNTS:
            out[metric] = calls[metric]
        for metric in CALLS_PER_OP:
            out[metric] = calls[metric] / ops
        return out


def row_metrics(rows) -> dict[str, float]:
    """VIM, IMU and DP-RAM counters summed over one pass's rows."""
    return {
        "os.vim.page_faults": sum(r.page_faults for r in rows),
        "os.vim.evictions": sum(r.evictions for r in rows),
        "os.vim.writebacks": sum(r.writebacks for r in rows),
        "os.vim.steals": sum(r.steals for r in rows),
        "os.vim.tlb_refills": sum(r.tlb_refills for r in rows),
        "imu.tlb_hit_rate": (
            sum(r.tlb_hit_rate for r in rows) / len(rows) if rows else 0.0
        ),
        "hw.dpram_bytes_in": sum(r.bytes_to_dpram for r in rows),
        "hw.dpram_bytes_out": sum(r.bytes_from_dpram for r in rows),
        "hw.dma_transfers": sum(r.dma_transfers for r in rows),
    }
