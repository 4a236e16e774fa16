"""STORE — SQLite result-store throughput and per-row merge cost.

Times the store layer itself, not the simulator: synthetic rows under
real config hashing are written, read back, and rendered through the
streaming report at 1k and 10k cells, then merged into a fresh store.
Timings are ``wall_``-prefixed: store throughput is harness wall time
on shared CI runners, so ``tools/bench_diff.py`` reports these numbers
but never gates on them (the byte-identity and out-of-core guarantees
are gated by the tier-1 suite instead).

The merge's *mechanism* is gated instead, through two deterministic
call counts per merged row: ``dataclasses.asdict`` walks (0 — rows and
configs encode from precomputed field names) and source-row parses (1
— the merge is a single pass).  A regression to deep encoding or to a
second pass changes them, and the diff fails.
"""

import dataclasses
import io
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from conftest import emit

from repro.exp import cache
from repro.exp.merge import merge_into
from repro.exp.report import render_table, stream_report
from repro.exp.results import CellResult
from repro.exp.spec import SweepSpec
from repro.exp.store import open_store


def _fake_result(config) -> CellResult:
    seed = config.seed
    return CellResult(
        config=config,
        key=config.key(),
        label=config.label(),
        workload=f"synthetic-{seed}",
        sw_ms=10.0 + seed * 0.001,
        vim_ms=2.0 + seed * 0.0005,
        hw_ms=1.0,
        sw_dp_ms=0.5,
        sw_imu_ms=0.25,
        sw_other_ms=0.25 + seed * 0.0005,
        vim_speedup=(10.0 + seed * 0.001) / (2.0 + seed * 0.0005),
        page_faults=seed % 97,
        compulsory_loads=seed % 11,
        evictions=seed % 7,
        writebacks=seed % 5,
        prefetches=0,
        bytes_to_dpram=1024 * (seed % 13),
        bytes_from_dpram=512 * (seed % 13),
        tlb_hit_rate=0.9,
    )


def _rows(cells: int):
    spec = SweepSpec(
        apps=("synthetic",), input_bytes=(1024,), seeds=tuple(range(cells))
    )
    return [_fake_result(config) for config in spec.expand()]


def _exercise(path, rows):
    """One full store lifecycle; returns per-phase wall seconds."""
    timings = {}
    start = time.perf_counter()
    with open_store(path, create=True) as store:
        for row in rows:
            store.put(row)
    timings["store"] = time.perf_counter() - start
    start = time.perf_counter()
    with open_store(path) as store:
        loaded = sum(1 for _ in store.iter_rows())
    timings["load"] = time.perf_counter() - start
    assert loaded == len(rows)
    start = time.perf_counter()
    tracemalloc.start()
    with open_store(path) as store:
        stream_report(store, io.StringIO(), fmt="md")
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    timings["report"] = time.perf_counter() - start
    timings["report_peak_kb"] = peak / 1024
    return timings


@pytest.mark.parametrize("cells", [1000, 10000])
def test_store_throughput(benchmark, tmp_path, cells):
    rows = _rows(cells)
    path = tmp_path / "bench.sqlite"

    timings = benchmark.pedantic(
        _exercise, args=(path, rows), rounds=1, iterations=1
    )
    emit(
        f"STORE: SQLite store, {cells} cells",
        render_table(
            ["phase", "wall s"],
            [["store", f"{timings['store']:.3f}"],
             ["load", f"{timings['load']:.3f}"],
             ["report", f"{timings['report']:.3f}"],
             ["report peak KB", f"{timings['report_peak_kb']:.0f}"]],
        ),
    )
    benchmark.extra_info["wall_store_s"] = round(timings["store"], 4)
    benchmark.extra_info["wall_load_s"] = round(timings["load"], 4)
    benchmark.extra_info["wall_report_s"] = round(timings["report"], 4)
    benchmark.extra_info["wall_report_peak_kb"] = round(
        timings["report_peak_kb"], 1
    )


def _count_calls(func, *targets) -> Counter:
    """Run *func* and count the calls made to each of *targets*.

    Counted by code object through a profile hook, so a call is seen
    however the caller imported the function.
    """
    codes = {target.__code__: target.__name__ for target in targets}
    counts: Counter = Counter()

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        func()
    finally:
        sys.setprofile(None)
    return counts


def test_merge_row_cost(benchmark, tmp_path):
    rows = _rows(1000)
    source = tmp_path / "source.sqlite"
    with open_store(source, create=True) as store:
        for row in rows:
            store.put(row)

    def merge(dest):
        summary = merge_into(dest, [source])
        assert summary.written == len(rows)

    benchmark.pedantic(merge, args=(tmp_path / "timed.sqlite",),
                       rounds=1, iterations=1)
    calls = _count_calls(
        lambda: merge(tmp_path / "counted.sqlite"),
        dataclasses.asdict,
        cache.parse_entry,
    )
    asdict_per_row = calls["asdict"] / len(rows)
    parses_per_row = calls["parse_entry"] / len(rows)
    emit(
        f"STORE: merge of {len(rows)} rows into a fresh store",
        render_table(
            ["measure", "value"],
            [["asdict calls per row", f"{asdict_per_row:g}"],
             ["source-row parses per row", f"{parses_per_row:g}"]],
        ),
    )
    benchmark.extra_info["merge_asdict_per_row"] = asdict_per_row
    benchmark.extra_info["merge_parses_per_row"] = parses_per_row
