"""Tests for merging shard stores (``repro.exp.merge``).

The merge is what turns N per-machine shard stores back into the one
durable result store: merged rows must be identical to an unsharded
run's store (so re-runs simulate nothing and reports byte-match), and
two sources disagreeing about one config hash must fail loudly instead
of silently picking a winner.  The shards here are legacy JSON cache
directories — the one format whose entries a test can hand-edit — so
these tests also pin what ``repro migrate`` accepts and skips.
"""

import json
import sqlite3
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.exp import run_sweep
from repro.exp.merge import merge_into
from repro.exp.spec import CACHE_VERSION, SweepSpec, shard_cells
from repro.exp.results import CellResult
from repro.exp.store import SqliteStore, open_store
from tests.helpers import put_rows, tag_stored_engine, write_legacy_cache

#: A fast 2-cell grid (1 KB vector-add, two policies).
GRID = SweepSpec(apps=("vadd",), input_bytes=(1024,), policies=("fifo", "lru"))

#: A committed 4-row ``--json`` dump with distinct keys (no simulation).
ROWS_DUMP = Path(__file__).with_name("fixtures") / "report_rows.json"


def _files(path) -> list:
    """Every stored row's payload, in key order."""
    with open_store(path) as store:
        return [row.to_dict() for row in store.iter_rows()]


@pytest.fixture()
def shard_caches(tmp_path):
    """Two legacy shard caches plus the unsharded reference store."""
    cells = GRID.expand()
    rows = run_sweep(GRID, cache_dir=tmp_path / "full").rows
    by_key = {row.key: row for row in rows}
    for index in (1, 2):
        write_legacy_cache(
            tmp_path / f"shard{index}",
            [by_key[cell.key()] for cell in shard_cells(cells, index, 2)],
        )
    return tmp_path


class TestMerge:
    def test_merged_cache_is_byte_identical_to_unsharded(self, shard_caches):
        dest = shard_caches / "merged"
        summary = merge_into(
            dest, [shard_caches / "shard1", shard_caches / "shard2"]
        )
        assert summary.written == 2
        assert summary.identical == 0
        assert summary.skipped == 0
        assert _files(dest) == _files(shard_caches / "full")

    def test_rerun_against_merged_cache_simulates_nothing(self, shard_caches):
        dest = shard_caches / "merged"
        merge_into(dest, [shard_caches / "shard1", shard_caches / "shard2"])
        result = run_sweep(GRID, cache_dir=dest)
        assert result.executed == 0
        assert result.cached == 2

    def test_remerge_is_idempotent(self, shard_caches):
        dest = shard_caches / "merged"
        merge_into(dest, [shard_caches / "shard1", shard_caches / "shard2"])
        again = merge_into(
            dest, [shard_caches / "shard1", shard_caches / "shard2"]
        )
        assert again.written == 0
        assert again.identical == 2

    def test_duplicate_entries_across_sources_are_identical_not_conflicts(
        self, shard_caches
    ):
        # Both shards plus the full cache: every entry appears twice.
        summary = merge_into(
            shard_caches / "merged",
            [
                shard_caches / "full",
                shard_caches / "shard1",
                shard_caches / "shard2",
            ],
        )
        assert summary.written == 2
        assert summary.identical == 2

    def test_engine_differing_rows_merge_as_identical(self, tmp_path):
        # A store written by the retired fast backend holds rows that
        # differ from reference rows only in the recorded engine
        # field; the merge must treat them as the identical cells they
        # are, not as conflicts.
        run_sweep(GRID, cache_dir=tmp_path / "ref")
        rows = run_sweep(GRID, cache_dir=tmp_path / "fast").rows
        for row in rows:
            tag_stored_engine(tmp_path / "fast", row.key, "fast")
        summary = merge_into(
            tmp_path / "merged", [tmp_path / "ref", tmp_path / "fast"]
        )
        assert summary.written == 2
        assert summary.identical == 2
        assert _files(tmp_path / "merged") == _files(tmp_path / "ref")

    def test_rows_json_dump_is_a_valid_source(self, shard_caches, tmp_path):
        rows = run_sweep(GRID, cache_dir=shard_caches / "full").rows
        dump = tmp_path / "rows.json"
        dump.write_text(
            json.dumps([r.to_dict() for r in rows]), encoding="utf-8"
        )
        dest = tmp_path / "from-dump"
        summary = merge_into(dest, [dump])
        assert summary.written == 2
        assert _files(dest) == _files(shard_caches / "full")


class TestConflicts:
    def test_failed_merge_writes_nothing(self, shard_caches):
        # A conflicted merge must not leave a half-merged destination:
        # a later report over it would silently render the first-seen
        # copy of the contested hash.
        tampered = next((shard_caches / "shard2").glob("*.json"))
        payload = json.loads(tampered.read_text(encoding="utf-8"))
        payload["result"]["vim_ms"] += 1.0
        tampered.write_text(json.dumps(payload), encoding="utf-8")
        dest = shard_caches / "merged"
        with pytest.raises(ReproError, match="nothing was written"):
            merge_into(
                dest,
                [
                    shard_caches / "shard1",
                    shard_caches / "full",  # disagrees with shard2 now
                    shard_caches / "shard2",
                ],
            )
        assert not dest.exists()  # not even an empty store appears

    def test_conflicting_entry_for_same_hash_rejected(self, shard_caches):
        # Tamper one shard entry: same config hash, different numbers.
        tampered = next((shard_caches / "shard1").glob("*.json"))
        payload = json.loads(tampered.read_text(encoding="utf-8"))
        payload["result"]["vim_ms"] += 1.0
        tampered.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ReproError, match="conflict"):
            merge_into(
                shard_caches / "merged",
                [shard_caches / "full", shard_caches / "shard1"],
            )

    def test_conflict_message_names_the_hash(self, shard_caches):
        tampered = next((shard_caches / "shard1").glob("*.json"))
        payload = json.loads(tampered.read_text(encoding="utf-8"))
        payload["result"]["page_faults"] += 7
        tampered.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ReproError, match=tampered.stem):
            merge_into(
                shard_caches / "merged",
                [shard_caches / "full", shard_caches / "shard1"],
            )

    def test_dest_conflict_reported_once_across_duplicate_sources(
        self, shard_caches
    ):
        # The same diverging hash arriving from two source copies must
        # count as ONE contested hash, not one conflict per copy.
        dest = shard_caches / "full"
        entry = next((shard_caches / "shard1").glob("*.json"))
        payload = json.loads(entry.read_text(encoding="utf-8"))
        payload["result"]["vim_ms"] += 1.0
        entry.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ReproError, match="1 merge conflict"):
            merge_into(
                dest, [shard_caches / "shard1", shard_caches / "shard1"]
            )

    def test_source_vs_source_conflict_reported_once(self, shard_caches):
        # Same dedupe rule when the first copy came from a source
        # rather than a pre-existing destination entry.
        entry = next((shard_caches / "shard1").glob("*.json"))
        payload = json.loads(entry.read_text(encoding="utf-8"))
        payload["result"]["vim_ms"] += 1.0
        entry.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ReproError, match="1 merge conflict"):
            merge_into(
                shard_caches / "merged",
                [
                    shard_caches / "full",
                    shard_caches / "shard1",
                    shard_caches / "shard1",
                ],
            )

    def test_conflict_with_preexisting_destination_entry(self, shard_caches):
        # Merge into a destination that already holds a diverging row.
        dest = shard_caches / "full"
        tampered_src = shard_caches / "shard1"
        entry = next(tampered_src.glob("*.json"))
        payload = json.loads(entry.read_text(encoding="utf-8"))
        payload["result"]["evictions"] += 1
        entry.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ReproError, match="pre-existing"):
            merge_into(dest, [tampered_src])


class TestDegradation:
    def test_stale_version_entries_skipped(self, shard_caches):
        stale = next((shard_caches / "shard1").glob("*.json"))
        payload = json.loads(stale.read_text(encoding="utf-8"))
        payload["version"] = CACHE_VERSION - 1
        stale.write_text(json.dumps(payload), encoding="utf-8")
        summary = merge_into(
            shard_caches / "merged",
            [shard_caches / "shard1", shard_caches / "shard2"],
        )
        assert summary.skipped == 1
        assert summary.written == 1

    def test_corrupt_entry_skipped(self, shard_caches):
        broken = next((shard_caches / "shard2").glob("*.json"))
        broken.write_text("{not json", encoding="utf-8")
        summary = merge_into(
            shard_caches / "merged",
            [shard_caches / "shard1", shard_caches / "shard2"],
        )
        assert summary.skipped == 1

    def test_renamed_cache_entry_skipped(self, shard_caches):
        # A legacy entry must be named by its config hash; a
        # hand-renamed file is skipped, not re-keyed.
        entry = next((shard_caches / "shard1").glob("*.json"))
        entry.rename(entry.with_name("0000000000000000.json"))
        summary = merge_into(
            shard_caches / "merged",
            [shard_caches / "shard1", shard_caches / "shard2"],
        )
        assert summary.skipped == 1
        assert summary.written == 1

    def test_all_sources_unusable_rejected(self, shard_caches, tmp_path):
        # A merge that writes nothing usable (e.g. all shards predate a
        # CACHE_VERSION bump) must fail here, not downstream at report
        # time with a misleading "no loadable results".
        for source in ("shard1", "shard2"):
            for entry in (shard_caches / source).glob("*.json"):
                payload = json.loads(entry.read_text(encoding="utf-8"))
                payload["version"] = CACHE_VERSION - 1
                entry.write_text(json.dumps(payload), encoding="utf-8")
        dest = tmp_path / "dest"
        with pytest.raises(ReproError, match="nothing to merge"):
            merge_into(
                dest, [shard_caches / "shard1", shard_caches / "shard2"]
            )
        assert not dest.exists()

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            merge_into(tmp_path / "dest", [tmp_path / "nope"])

    def test_non_list_json_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        with pytest.raises(ReproError, match="row dump"):
            merge_into(tmp_path / "dest", [bad])

    def test_file_destination_rejected(self, shard_caches, tmp_path):
        # Swapping DEST with a dump source must be a clean error, not
        # a traceback from sqlite.
        dump = tmp_path / "rows.json"
        dump.write_text("[]", encoding="utf-8")
        with pytest.raises(ReproError, match="not a SQLite store"):
            merge_into(dump, [shard_caches / "shard1"])
        # A directory destination is a legacy cache: import it instead.
        with pytest.raises(ReproError, match="repro migrate"):
            merge_into(shard_caches / "shard2", [shard_caches / "shard1"])


class TestDryRun:
    """``merge --dry-run``: full validation, zero writes."""

    def test_dry_run_counts_without_writing(self, shard_caches):
        dest = shard_caches / "merged"
        summary = merge_into(
            dest,
            [shard_caches / "shard1", shard_caches / "shard2"],
            dry_run=True,
        )
        assert summary.dry_run
        assert summary.written == 2
        assert summary.identical == 0
        assert summary.conflicts == ()
        assert "dry-run: would merge" in str(summary)
        assert not dest.exists()

    def test_dry_run_counts_match_the_real_merge(self, shard_caches):
        dest = shard_caches / "merged"
        sources = [shard_caches / "shard1", shard_caches / "shard2"]
        dry = merge_into(dest, sources, dry_run=True)
        wet = merge_into(dest, sources)
        assert (dry.written, dry.identical, dry.skipped) == (
            wet.written, wet.identical, wet.skipped
        )

    def test_dry_run_collects_conflicts_instead_of_raising(
        self, shard_caches
    ):
        entry = next((shard_caches / "shard1").glob("*.json"))
        payload = json.loads(entry.read_text(encoding="utf-8"))
        payload["result"]["vim_ms"] *= 2
        entry.write_text(json.dumps(payload), encoding="utf-8")
        dest = shard_caches / "merged"
        summary = merge_into(
            dest,
            [shard_caches / "shard1", shard_caches / "full"],
            dry_run=True,
        )
        assert len(summary.conflicts) == 1
        assert "conflicting results for config" in str(summary.conflicts[0])
        assert not dest.exists()

    def test_dry_run_leaves_existing_destination_untouched(
        self, shard_caches
    ):
        dest = shard_caches / "merged"
        merge_into(dest, [shard_caches / "shard1"])
        before = _files(dest)
        summary = merge_into(
            dest, [shard_caches / "shard2"], dry_run=True
        )
        assert summary.written == 1
        assert _files(dest) == before


class TestAbortedMerge:
    """A merge that dies mid-write leaves the destination as it was."""

    @staticmethod
    def _fail_third_put(monkeypatch, error):
        real_put = SqliteStore.put
        calls = []

        def put(store, result):
            calls.append(result.key)
            if len(calls) == 3:
                raise error
            real_put(store, result)

        monkeypatch.setattr(SqliteStore, "put", put)
        return calls

    @staticmethod
    def _snapshot(path) -> tuple:
        """Every stored row version and run record, raw."""
        db = sqlite3.connect(path)
        try:
            return (
                db.execute(
                    "SELECT key, version, run_id, payload FROM results "
                    "ORDER BY key, version"
                ).fetchall(),
                db.execute("SELECT * FROM runs ORDER BY run_id").fetchall(),
            )
        finally:
            db.close()

    @pytest.mark.parametrize(
        "error", [ReproError("disk on fire"), KeyboardInterrupt()],
        ids=["error", "interrupt"],
    )
    def test_existing_destination_keeps_its_rows_and_runs(
        self, tmp_path, monkeypatch, error
    ):
        first = json.loads(ROWS_DUMP.read_text(encoding="utf-8"))[0]
        dest = put_rows(
            tmp_path / "dest.sqlite", [CellResult.from_dict(first)]
        )
        before = self._snapshot(dest)
        calls = self._fail_third_put(monkeypatch, error)
        with pytest.raises(type(error)):
            merge_into(dest, [ROWS_DUMP])
        assert len(calls) == 3  # the merge really was writing
        assert self._snapshot(dest) == before
        with open_store(dest) as store:
            assert [run.rows for run in store.runs()] == [1]

    @pytest.mark.parametrize(
        "name", ["merged.sqlite", "new/deeper/merged.sqlite"]
    )
    def test_missing_destination_is_not_left_behind(
        self, tmp_path, monkeypatch, name
    ):
        self._fail_third_put(monkeypatch, ReproError("disk on fire"))
        with pytest.raises(ReproError, match="disk on fire"):
            merge_into(tmp_path / name, [ROWS_DUMP])
        assert list(tmp_path.iterdir()) == []  # no store, side file or dir

    def test_dry_run_never_creates_a_nested_destination(self, tmp_path):
        dest = tmp_path / "new" / "deeper" / "merged.sqlite"
        summary = merge_into(dest, [ROWS_DUMP], dry_run=True)
        assert summary.written == 4
        assert list(tmp_path.iterdir()) == []
        assert merge_into(dest, [ROWS_DUMP]).written == 4
        assert len(_files(dest)) == 4
