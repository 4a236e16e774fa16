"""Regenerate ``corpus.json``: the rows the repository's CI grids produce.

The store workloads build their 5,000 rows from these rows (see
``workloads.generate_rows``), so the mix of plain, multi-tenant,
replicated and trace-replay rows, and the size of every value, are
those of real sweeps rather than guesses.  The grids are the ones
``.github/workflows/ci.yml`` sweeps: the smoke grid, its two extra
cells (strict-priority scheduling, a recorded-trace replay) and the
replication grid.

Run from the repository root (about 15 s)::

    python3 perfbench/corpus.py            # rewrite corpus.json
    python3 perfbench/corpus.py --compare  # real rows against generated

``--compare`` prints, for the corpus rows and for the store workloads'
generated rows, the mean serialised payload per row and the host time
per row of serialising it and of putting it into a fresh SQLite store
(best of several rounds, taken in turn).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
CORPUS = BENCH / "corpus.json"

#: The trace file's name in the corpus rows.  Rows carry the trace's
#: digest, which is what identifies the replay; the path is only kept
#: so a row serialises to the same size as a real one.
TRACE_NAME = "ci-trace.gz"

#: ``repro record`` flags of the trace the replay cell replays.
RECORD_FLAGS = "--app synthetic --kb 2"

#: ``repro sweep`` flag sets, one sweep invocation each.
GRIDS = (
    "--app adpcm --kb 2 --policy fifo lru --page 1024 2048 "
    "--transfer double dma",
    "--app adpcm --kb 2 --tenants 2 --tenant-mix adpcm:2+idea "
    "--sched priority",
    f"--app trace --trace {TRACE_NAME}",
    "--app synthetic --kb 32 --policy fifo lru --syn-locality 70 "
    "--syn-read 60 --syn-phases 2 --replicates 5",
)


def write_corpus() -> None:
    from repro.exp import store

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as tmp:
        def repro(*args: str) -> None:
            subprocess.run(
                [sys.executable, "-m", "repro", *args],
                cwd=tmp, env=env, check=True, stdout=subprocess.DEVNULL,
            )

        repro("record", TRACE_NAME, *RECORD_FLAGS.split())
        for flags in GRIDS:
            repro("sweep", *flags.split(), "--cache", "corpus.sqlite")
        with store.open_store(Path(tmp) / "corpus.sqlite") as source:
            rows = [row.to_dict() for row in source.iter_rows()]
    for row in rows:
        if row["config"]["trace_path"] is not None:
            row["config"]["trace_path"] = TRACE_NAME
    CORPUS.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {CORPUS}")


def compare(rounds: int = 15) -> None:
    from repro.exp import store
    from repro.exp.cache import CACHE_VERSION
    from repro.exp.results import CellResult

    import workloads

    def payload(row) -> str:  # what SqliteStore.put serialises
        return json.dumps(
            {"version": CACHE_VERSION, "result": row.to_dict()}, sort_keys=True
        )

    real = [CellResult.from_dict(data) for data in json.loads(CORPUS.read_text())]
    generated = workloads.generate_rows(workloads.DEFAULT_SEED)
    # The same number of rows from each, put into fresh stores one
    # corpus' worth at a time, since the corpus rows' keys repeat.
    size = len(real)
    batches = 500 // size
    sets = {
        "corpus": [real] * batches,
        "generated": [generated[i * size:(i + 1) * size] for i in range(batches)],
    }
    best = {name: [float("inf"), float("inf")] for name in sets}
    with tempfile.TemporaryDirectory() as tmp:
        for round_ in range(rounds):
            for name, batches in sets.items():
                rows = [row for batch in batches for row in batch]
                start = time.perf_counter()
                for row in rows:
                    payload(row)
                serialise = (time.perf_counter() - start) / len(rows)
                elapsed = 0.0
                for number, batch in enumerate(batches):
                    path = Path(tmp) / f"{name}-{round_}-{number}.sqlite"
                    with store.open_store(path, kind="sqlite", create=True) as target:
                        start = time.perf_counter()
                        for row in batch:
                            target.put(row)
                        elapsed += time.perf_counter() - start
                put = elapsed / len(rows)
                best[name] = [min(best[name][0], serialise), min(best[name][1], put)]
    for name, rows in (("corpus", real), ("generated", generated)):
        mean_bytes = statistics.mean(len(payload(row)) for row in rows)
        share = {
            "multi-tenant": sum(row.config.tenants > 1 for row in rows),
            "replicated": sum(row.config.replicates > 1 for row in rows),
            "replay": sum(row.config.app == "trace" for row in rows),
        }
        shares = ", ".join(f"{k} {v / len(rows):.1%}" for k, v in share.items())
        print(
            f"{name}: {len(rows)} rows ({shares}); {mean_bytes:.0f} B/row; "
            f"serialise {best[name][0] * 1e6:.0f} us/row; "
            f"put {best[name][1] * 1e6:.0f} us/row"
        )


def main() -> int:
    sys.path[:0] = [str(SRC), str(BENCH)]
    if sys.argv[1:] == ["--compare"]:
        compare()
    elif sys.argv[1:]:
        print(f"usage: {sys.argv[0]} [--compare]", file=sys.stderr)
        return 2
    else:
        write_corpus()
    return 0


if __name__ == "__main__":
    sys.exit(main())
