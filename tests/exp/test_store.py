"""Tests for the result-store layer (``repro.exp.store``).

:class:`~repro.exp.store.SqliteStore` is the one contract between the
sweep engine and everything that reads results back (merge, diff,
report, history).  Its invariants are pinned origin-parametrised:
whatever holds for a store a sweep wrote must hold for one imported
from a legacy JSON cache directory by ``repro migrate``, and the
import must preserve every payload, report byte and fingerprint.
"""

import json
import random
import sqlite3

import pytest

from repro.errors import ReproError
from repro.exp import run_sweep
from repro.exp.merge import migrate_store
from repro.exp.report import report_from_cache
from repro.exp.spec import CACHE_VERSION, SweepSpec, grid_fingerprint
from repro.exp.store import SqliteStore, is_sqlite_file, open_store
from tests.helpers import tag_stored_engine, write_legacy_cache

#: A fast 2-cell grid (1 KB vector-add, two policies).
GRID = SweepSpec(apps=("vadd",), input_bytes=(1024,), policies=("fifo", "lru"))


def _legacy_sweep(spec, root):
    """Run *spec* uncached and write it as a legacy JSON cache."""
    return write_legacy_cache(root, run_sweep(spec).rows)


@pytest.fixture(params=("json", "sqlite"))
def populated(request, tmp_path):
    """The 2-cell GRID in a SQLite store, plus its rows: written by a
    sweep (``sqlite``) or imported from a legacy JSON cache directory
    (``json``)."""
    path = tmp_path / "store.sqlite"
    if request.param == "json":
        rows = run_sweep(GRID).rows
        migrate_store(write_legacy_cache(tmp_path / "legacy", rows), path)
    else:
        rows = run_sweep(GRID, cache_dir=path).rows
    return path, request.param, rows


class TestProtocolConformance:
    def test_kind_and_len(self, populated):
        path, _origin, rows = populated
        with open_store(path) as store:
            assert isinstance(store, SqliteStore)
            assert len(store) == len(rows) == 2

    def test_get_hits_modulo_engine(self, populated):
        from dataclasses import replace

        path, _kind, rows = populated
        with open_store(path) as store:
            for row in rows:
                assert store.get(row.config) == row
        # A row written by the retired fast backend still serves.
        tag_stored_engine(path, rows[0].key, "fast")
        with open_store(path) as store:
            assert store.get(rows[0].config) == rows[0]
            assert store.get(replace(rows[0].config, input_bytes=4096)) is None

    def test_iter_classified_key_sorted(self, populated):
        path, _kind, _rows = populated
        with open_store(path) as store:
            entries = list(store.iter_classified())
        assert [status for _o, status, _r in entries] == ["ok", "ok"]
        keys = [result.key for _o, _s, result in entries]
        assert keys == sorted(keys)

    def test_iter_report_rows_label_key_sorted(self, populated):
        path, _kind, _rows = populated
        with open_store(path) as store:
            rows = list(store.iter_report_rows())
        assert [(r.label, r.key) for r in rows] == sorted(
            (r.label, r.key) for r in rows
        )

    def test_counts_and_identical_report(self, populated):
        path, _kind, _rows = populated
        with open_store(path) as store:
            counts = store.counts()
        assert (counts.ok, counts.stale, counts.invalid) == (2, 0, 0)
        assert counts.skipped == 0 and counts.total == 2

    def test_rerun_simulates_nothing(self, populated):
        path, _kind, _rows = populated
        result = run_sweep(GRID, cache_dir=path)
        assert result.executed == 0
        assert result.cached == 2


class TestLenCountsOnlyLoadableRows:
    """Regression: ``len`` used to count every ``*.json`` file.

    The old JSON cache counted directory entries, so a corrupt file or
    a stale-version row inflated the count past what any consumer
    could actually load.  Importing such a directory skips both, and
    the store counts only loadable rows.
    """

    def test_json_corrupt_and_stale_files_not_counted(self, tmp_path):
        legacy = _legacy_sweep(GRID, tmp_path / "legacy")
        (legacy / "0123456789abcdef.json").write_text("{not json")
        stale_payload = {
            "version": CACHE_VERSION - 1,
            "result": {"anything": True},
        }
        (legacy / "fedcba9876543210.json").write_text(
            json.dumps(stale_payload)
        )
        summary = migrate_store(legacy, tmp_path / "store.sqlite")
        assert (summary.written, summary.skipped) == (2, 2)
        with open_store(tmp_path / "store.sqlite") as store:
            assert len(store) == 2
            counts = store.counts()
        assert counts.ok == 2
        assert counts.skipped == 0

    def test_sqlite_stale_versions_not_counted(self, tmp_path):
        path = tmp_path / "store.sqlite"
        run_sweep(GRID, cache_dir=path)
        db = sqlite3.connect(path)
        db.execute(
            "UPDATE results SET cache_version = cache_version - 1 "
            "WHERE rowid = 1"
        )
        db.commit()
        db.close()
        with open_store(path) as store:
            assert len(store) == 1
            assert store.counts().stale == 1


class TestSqliteVersioning:
    def test_identical_reput_appends_nothing(self, tmp_path):
        path = tmp_path / "store.sqlite"
        rows = run_sweep(GRID, cache_dir=path).rows
        with open_store(path, create=True) as store:
            for row in rows:
                store.put(row)
            versions = [v for _k, _l, v, _r, _res in store.iter_versions()]
        assert versions == [1, 1]

    def test_changed_payload_appends_next_version(self, tmp_path):
        from dataclasses import replace

        path = tmp_path / "store.sqlite"
        rows = run_sweep(GRID, cache_dir=path).rows
        changed = replace(rows[0], vim_ms=rows[0].vim_ms + 1.0)
        with open_store(path) as store:
            store.put(changed)
            latest = store.get(rows[0].config)
            versions = {
                key: version
                for key, _l, version, _r, _res in store.iter_versions()
            }
        assert latest == changed  # reads serve the latest version
        assert versions[rows[0].key] == 2

    def test_each_writing_open_is_one_run(self, tmp_path):
        path = tmp_path / "store.sqlite"
        run_sweep(GRID, cache_dir=path)
        run_sweep(
            SweepSpec(apps=("vadd",), input_bytes=(2048,)), cache_dir=path
        )
        with open_store(path) as store:
            runs = store.runs()
        assert [run.rows for run in runs] == [2, 1]
        assert [run.run_id for run in runs] == [1, 2]

    def test_readonly_open_records_no_run(self, tmp_path):
        path = tmp_path / "store.sqlite"
        run_sweep(GRID, cache_dir=path)
        with open_store(path) as store:
            list(store.iter_report_rows())
        with open_store(path) as store:
            assert len(store.runs()) == 1

    def test_wal_mode_enabled(self, tmp_path):
        path = tmp_path / "store.sqlite"
        run_sweep(GRID, cache_dir=path)
        db = sqlite3.connect(path)
        assert db.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        db.close()

    def test_metric_columns_match_payload(self, tmp_path):
        path = tmp_path / "store.sqlite"
        rows = run_sweep(GRID, cache_dir=path).rows
        db = sqlite3.connect(path)
        by_key = {
            key: (vim_ms, faults)
            for key, vim_ms, faults in db.execute(
                "SELECT key, vim_ms, page_faults FROM results"
            )
        }
        db.close()
        for row in rows:
            assert by_key[row.key] == (row.vim_ms, row.page_faults)

    def test_json_store_has_no_history(self, tmp_path):
        # A legacy JSON cache keeps no run history, and history reads
        # only SQLite: opening the directory points at the import.
        legacy = _legacy_sweep(GRID, tmp_path / "cache")
        with pytest.raises(ReproError, match="repro migrate"):
            open_store(legacy)


class TestOpenStore:
    def test_detects_existing_backends(self, tmp_path):
        sqlite_path = tmp_path / "odd-name"  # magic, not the suffix
        run_sweep(GRID, cache_dir=sqlite_path)
        assert is_sqlite_file(sqlite_path)
        assert isinstance(open_store(sqlite_path), SqliteStore)
        legacy = _legacy_sweep(GRID, tmp_path / "cache")
        with pytest.raises(ReproError, match="is a directory"):
            open_store(legacy)

    def test_missing_path_infers_kind_from_suffix(self, tmp_path):
        # There is one kind: a missing path becomes a SQLite store
        # whatever its suffix.
        for name in ("x.sqlite", "x.sqlite3", "x.db", "x"):
            with open_store(tmp_path / name, create=True) as store:
                assert isinstance(store, SqliteStore)
            assert is_sqlite_file(tmp_path / name)

    def test_missing_path_without_create_raises(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            open_store(tmp_path / "missing")

    def test_kind_contradiction_is_an_error(self, tmp_path):
        legacy = _legacy_sweep(GRID, tmp_path / "cache")
        with pytest.raises(ReproError, match=f"repro migrate {legacy} "):
            open_store(legacy, kind="sqlite")

    def test_row_dump_is_not_a_store(self, tmp_path):
        dump = tmp_path / "rows.json"
        dump.write_text("[]")
        assert not is_sqlite_file(dump)
        with pytest.raises(ReproError, match="is not a result store"):
            open_store(dump)

    def test_unknown_kind_rejected(self, tmp_path):
        for kind in ("parquet", "json"):
            with pytest.raises(ReproError, match="unknown store kind"):
                open_store(tmp_path / "x", kind=kind, create=True)
        assert not (tmp_path / "x").exists()

    def test_sweep_store_contradiction_fails_before_simulating(
        self, tmp_path, monkeypatch
    ):
        import repro.exp.sweep as sweep_module

        legacy = _legacy_sweep(GRID, tmp_path / "cache")
        monkeypatch.setattr(
            sweep_module, "run_cell",
            lambda config: pytest.fail("simulated despite a refused store"),
        )
        with pytest.raises(ReproError, match="repro migrate"):
            run_sweep(GRID, cache_dir=legacy)


#: Seeded-random grids for the migration round-trip property (same
#: regression-corpus convention as test_property_invariants: append,
#: never reorder).
def _random_specs(count):
    rng = random.Random(0xC0FFEE)
    pools = {
        "apps": ("vadd", "synthetic"),
        "input_bytes": (1024, 2048),
        "policies": ("fifo", "lru"),
        "seeds": (1, 2),
    }
    for _ in range(count):
        yield SweepSpec(**{
            axis: tuple(
                rng.sample(values, rng.randint(1, len(values)))
            )
            for axis, values in pools.items()
        })


class TestMigrationRoundTrip:
    """Legacy JSON -> SQLite must be lossless to the byte."""

    @pytest.mark.parametrize(
        "spec", _random_specs(5), ids=lambda s: grid_fingerprint(s.expand())
    )
    def test_round_trip_property(self, tmp_path, spec):
        original = _legacy_sweep(spec, tmp_path / "original")
        sqlite_path = tmp_path / "migrated.sqlite"
        migrate_store(original, sqlite_path)
        # Every payload comes back exactly as the file held it.
        with open_store(sqlite_path) as store:
            for path in sorted(original.glob("*.json")):
                payload = json.loads(path.read_text(encoding="utf-8"))
                assert store.row(path.stem).to_dict() == payload["result"]
        # Same rows in, same report out — as a sweep straight into
        # SQLite renders — and the same fingerprint, so the CI cache
        # key is invariant under migration.
        direct = tmp_path / "direct.sqlite"
        run_sweep(spec, cache_dir=direct)
        assert report_from_cache(sqlite_path) == report_from_cache(direct)
        from repro.exp.spec import fingerprint_from_keys

        with open_store(sqlite_path) as store:
            keys = [r.key for r in store.iter_rows()]
        assert keys == sorted(keys)
        assert fingerprint_from_keys(keys) == grid_fingerprint(spec.expand())

    def test_migrated_fingerprint_matches(self, tmp_path):
        from repro.exp.spec import fingerprint_from_keys

        original = _legacy_sweep(GRID, tmp_path / "original")
        sqlite_path = tmp_path / "migrated.sqlite"
        migrate_store(original, sqlite_path)
        with open_store(sqlite_path) as store:
            keys = [row.key for row in store.iter_rows()]
        fingerprint = fingerprint_from_keys(keys)
        assert fingerprint == fingerprint_from_keys(
            path.stem for path in original.glob("*.json")
        ) == grid_fingerprint(GRID.expand())
