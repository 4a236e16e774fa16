"""The benchmark's workloads: seeded inputs, timed passes, checks.

Every workload is a class with the same steps:

* ``__init__(seed, workdir)`` builds the inputs from the seed: the
  set-up the ``setup_s`` metric times;
* ``prepare()`` writes the stores a pass reads, outside any timing;
* ``units(index)`` returns pass *index* as a list of zero-argument
  calls, together ``ops`` operations (cells or rows), the same units
  in the same order on every pass;
* ``check(index)`` verifies that pass's outputs outside the timed
  region and returns how many of its operations failed.

A unit is the smallest call the benchmark makes into the program: one
cell's sweep, one chunk of puts or point reads, one merge, diff or
report.  The runner times each unit on its own, so it can take a
median per unit across passes and gauge the host's speed between
units.

``rows`` holds the simulated rows of the last pass, for the per-layer
VIM counters; the store workloads simulate nothing and leave it empty.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import random
import shutil
import sqlite3
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.exp import diff, merge, report, store, sweep
from repro.exp.record import record_cell
from repro.exp.results import CellResult
from repro.exp.spec import CellConfig

#: The seed the committed row digests were taken at.
DEFAULT_SEED = 1

#: Rows in the store workloads' stores (the ROADMAP's 5k-row store).
STORE_ROWS = 5000

#: Rows per timed unit of puts or point reads.
CHUNK_ROWS = 500

#: Share of the rows perturbed in the copy ``store-read`` diffs against.
PERTURBED_SHARE = 0.01

EXPECTED_DIGESTS = Path(__file__).with_name("expected_digests.json")


def row_digest(row: CellResult) -> str:
    """Digest of a row's canonical JSON, blind to where its trace lives."""
    data = row.to_dict()
    data["config"]["trace_path"] = None
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def remove_store(path: Path) -> None:
    """Delete a SQLite store and its WAL side files."""
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Sweep workloads: cells simulated into a fresh SQLite store per pass
# ----------------------------------------------------------------------


def compute_cells(seed: int) -> list[CellConfig]:
    """The CI smoke grid, adpcm 8 KB, idea 16 KB and a 2-tenant cell."""
    cells = [
        CellConfig(
            app="adpcm", input_bytes=2048, seed=seed, policy=policy,
            page_bytes=page, transfer=transfer,
        )
        for policy in ("fifo", "lru")
        for page in (1024, 2048)
        for transfer in ("double", "dma")
    ]
    cells.append(CellConfig(app="adpcm", input_bytes=8192, seed=seed))
    cells.append(CellConfig(app="idea", input_bytes=16384, seed=seed))
    cells.append(CellConfig(
        app="adpcm", input_bytes=2048, seed=seed, tenants=2,
        tenant_mix="adpcm:2+idea", sched="priority",
    ))
    return cells


def record_paging_trace(seed: int, path: Path) -> None:
    """Record the synthetic 16 KB run the trace-replay cell replays."""
    record_cell(
        CellConfig(app="synthetic", input_bytes=16384, seed=seed),
        path, force=True,
    )


def paging_cells(seed: int, trace_path: Path) -> list[CellConfig]:
    """Fault-heavy cells: small pages, low locality, 4 tenants, a replay."""
    cells = [
        CellConfig(
            app="synthetic", input_bytes=32768, seed=seed, page_bytes=512,
            syn_locality_pct=20, policy=policy, transfer=transfer,
        )
        for policy in ("fifo", "lru")
        for transfer in ("double", "dma")
    ]
    cells.append(CellConfig(
        app="vadd", input_bytes=32768, seed=seed, page_bytes=512,
    ))
    cells.append(CellConfig(
        app="adpcm", input_bytes=2048, seed=seed, page_bytes=512,
        tenants=4, tenant_mix="adpcm+idea", sched="wrr",
    ))
    cells.append(CellConfig(app="trace", trace_path=str(trace_path)))
    return cells


class SweepWorkload:
    """Sweep a fixed cell list, cell by cell, into a fresh SQLite store."""

    op = "cell"
    alias = "cells_per_s"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.configs = self.build_configs()
        self.ops = len(self.configs)
        self.rows: tuple[CellResult, ...] = ()
        self.first_digests: dict[str, str] | None = None
        expected = json.loads(EXPECTED_DIGESTS.read_text())
        self.expected = expected[self.name] if seed == DEFAULT_SEED else None

    def build_configs(self) -> list[CellConfig]:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def units(self, index: int) -> list:
        path = self.workdir / f"{self.name}-{index}.sqlite"
        self.results = []

        def sweep_one(config: CellConfig) -> None:
            self.results.append(
                sweep.run_sweep([config], jobs=1, cache_dir=path)
            )

        return [functools.partial(sweep_one, config) for config in self.configs]

    def check(self, index: int) -> int:
        """Cells whose row differs from the committed or first pass's."""
        remove_store(self.workdir / f"{self.name}-{index}.sqlite")
        self.rows = tuple(row for result in self.results for row in result.rows)
        executed = sum(result.executed for result in self.results)
        if executed != len(self.configs):
            return len(self.configs)
        digests = {row.label: row_digest(row) for row in self.rows}
        if self.first_digests is None:
            self.first_digests = digests
        failed = 0
        for row in self.rows:
            want = self.first_digests.get(row.label)
            if self.expected is not None:
                want = self.expected.get(row.label)
            failed += digests[row.label] != want
        return failed


class SweepCompute(SweepWorkload):
    name = "sweep-compute"

    def build_configs(self) -> list[CellConfig]:
        return compute_cells(self.seed)


class SweepPaging(SweepWorkload):
    name = "sweep-paging"

    def build_configs(self) -> list[CellConfig]:
        trace_path = self.workdir / "paging-trace.gz"
        record_paging_trace(self.seed, trace_path)
        return paging_cells(self.seed, trace_path)


# ----------------------------------------------------------------------
# Store workloads: 5k generated rows, no simulation
# ----------------------------------------------------------------------

#: Rows of the repository's CI grids, written by ``corpus.py``.
CORPUS = Path(__file__).with_name("corpus.json")


def generate_rows(seed: int, count: int = STORE_ROWS) -> list[CellResult]:
    """*count* distinct rows, each a copy of a real CI-grid row.

    The rows of ``corpus.json`` are used in turn, in a seeded order, so
    the share of plain, multi-tenant, replicated and trace-replay rows
    is the CI grids' and every value is as long as a real one.  Each
    copy gets its own config key (the dataset seed is the row index; a
    replay gets its own trace digest) and its float columns a
    seeded jitter of up to 10%, rounded to the real value's decimals.
    """
    rng = random.Random(seed)
    corpus = [
        CellResult.from_dict(data) for data in json.loads(CORPUS.read_text())
    ]
    rng.shuffle(corpus)
    rows = []
    for index in range(count):
        template = corpus[index % len(corpus)]
        if template.config.app == "trace":
            digest = hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()
            config = replace(template.config, trace_digest=digest)
        else:
            config = replace(template.config, seed=index)
        jittered = {
            name: _jitter(value, rng)
            for name, value in vars(template).items()
            if isinstance(value, float)
            or (isinstance(value, tuple) and value and isinstance(value[0], float))
        }
        rows.append(replace(
            template, config=config, key=config.key(), label=config.label(),
            **jittered,
        ))
    return rows


def _jitter(value, rng: random.Random):
    if isinstance(value, tuple):
        return tuple(_jitter(item, rng) for item in value)
    jittered = value * rng.uniform(0.9, 1.1)
    mantissa, _, exponent = repr(value).partition("e")
    if exponent:
        return jittered
    # As many decimals as the real value, so it serialises as long.
    return round(jittered, len(mantissa.partition(".")[2]))


def chunks(items: list, size: int = CHUNK_ROWS) -> list[list]:
    return [items[start:start + size] for start in range(0, len(items), size)]


def put_rows(path: Path, rows) -> None:
    with store.open_store(path, kind="sqlite", create=True) as target:
        for row in rows:
            target.put(row)


def holds_rows(path: Path, expected: list[CellResult]) -> bool:
    """Whether the store holds exactly *expected*, sorted by key.

    The store is read one row at a time, so the check itself does not
    raise the process's peak memory.
    """
    with store.open_store(path) as source:
        stored = source.iter_rows()
        for want in expected:
            if next(stored, None) != want:
                return False
        return next(stored, None) is None


def count_rows(path: Path) -> int:
    with sqlite3.connect(path) as db:
        return db.execute("SELECT COUNT(*) FROM results").fetchone()[0]


class StoreWorkload:
    """Common set-up of the store workloads: the generated rows."""

    op = "row"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rows_in = generate_rows(seed)
        self.sorted_rows = sorted(self.rows_in, key=lambda row: row.key)
        self.ops = len(self.rows_in)
        self.rows: tuple[CellResult, ...] = ()

    def prepare(self) -> None:
        pass

    def populate(self, name: str, rows) -> Path:
        """A store holding *rows*, built outside any timed region."""
        path = self.workdir / f"{self.name}-{name}.sqlite"
        remove_store(path)
        put_rows(path, rows)
        return path

    def check_written(self, index: int, path: Path) -> int:
        """Read the store back on the first pass, count rows later."""
        try:
            if index == 0:
                ok = holds_rows(path, self.sorted_rows)
            else:
                ok = count_rows(path) == len(self.rows_in)
        finally:
            remove_store(path)
        return 0 if ok else len(self.rows_in)


class StorePut(StoreWorkload):
    """Writes: put every row into a fresh store, timed per chunk."""

    name = "store-put"
    alias = "rows_per_s.put"

    def units(self, index: int) -> list:
        self.dest = self.workdir / f"{self.name}-{index}.sqlite"
        target = store.open_store(self.dest, kind="sqlite", create=True)
        parts = chunks(self.rows_in)

        def put_chunk(number: int) -> None:
            for row in parts[number]:
                target.put(row)
            if number == len(parts) - 1:
                target.close()  # the closing checkpoint is put's cost

        return [functools.partial(put_chunk, n) for n in range(len(parts))]

    def check(self, index: int) -> int:
        return self.check_written(index, self.dest)


class StoreMerge(StoreWorkload):
    """Read + write: merge the store into a fresh destination."""

    name = "store-merge"
    alias = "rows_per_s.merge"

    def prepare(self) -> None:
        self.source = self.populate("source", self.rows_in)

    def units(self, index: int) -> list:
        self.dest = self.workdir / f"{self.name}-{index}.sqlite"

        def merge_all() -> None:
            self.summary = merge.merge_into(self.dest, [self.source])

        return [merge_all]

    def check(self, index: int) -> int:
        if self.summary.written != len(self.rows_in):
            remove_store(self.dest)
            return len(self.rows_in)
        return self.check_written(index, self.dest)


class StoreRead(StoreWorkload):
    """Point reads and scans of one store, nothing simulated or written.

    A pass re-sweeps the stored grid in chunks (every cell a store
    hit), diffs the store against a copy with a seeded 1% of rows
    perturbed and renders the diff, then streams an md report: three
    operations per row.
    """

    name = "store-read"
    alias = "rows_per_s.resweep+diff+report"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.config_chunks = chunks([row.config for row in self.rows_in])
        rng = random.Random(seed)
        count = round(len(self.rows_in) * PERTURBED_SHARE)
        chosen = set(rng.sample(range(len(self.rows_in)), count))
        self.perturbed = [
            replace(self.rows_in[i], vim_ms=self.rows_in[i].vim_ms * 1.25)
            for i in sorted(chosen)
        ]
        self.perturbed_keys = {row.key for row in self.perturbed}
        self.ops = 3 * len(self.rows_in)

    def prepare(self) -> None:
        # The copy appends a newer version of each perturbed row, which
        # is what every reader (diff included) serves.
        self.base = self.populate("base", self.rows_in)
        self.current = self.workdir / f"{self.name}-current.sqlite"
        shutil.copyfile(self.base, self.current)
        put_rows(self.current, self.perturbed)

    def units(self, index: int) -> list:
        self.swept = []

        def resweep(configs: list[CellConfig]) -> None:
            self.swept.append(
                sweep.run_sweep(configs, jobs=1, cache_dir=self.base)
            )

        def compare() -> None:
            self.diff = diff.diff_stores(self.base, self.current)
            self.diff_text = diff.render_diff(self.diff, fmt="md")

        def render() -> None:
            self.report = io.StringIO()
            with store.open_store(self.base) as source:
                self.reported = report.stream_report(source, self.report, fmt="md")

        return [
            *(functools.partial(resweep, part) for part in self.config_chunks),
            compare,
            render,
        ]

    def check(self, index: int) -> int:
        rows = len(self.rows_in)
        failed = 0
        resweep = [row for result in self.swept for row in result.rows]
        if (
            sum(result.executed for result in self.swept) != 0
            or resweep != self.rows_in
        ):
            failed += rows
        changed = {cell.key for cell in self.diff.changed_cells}
        perturbed = len(self.perturbed_keys)
        summary = (
            f"{rows} cell(s) compared: {perturbed} changed, "
            f"{perturbed} regression(s)"
        )
        if changed != self.perturbed_keys or summary not in self.diff_text:
            failed += rows
        lines = self.report.getvalue().count("\n") + 1
        if self.reported != rows or lines != rows + 2:
            failed += rows
        return failed


WORKLOADS = {
    cls.name: cls
    for cls in (SweepCompute, SweepPaging, StorePut, StoreMerge, StoreRead)
}


def make_workdir(root: Path) -> Path:
    """A fresh scratch directory for one run's stores and traces."""
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=root))


def drop_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
