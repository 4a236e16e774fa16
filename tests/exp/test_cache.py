"""Tests for the incremental result cache: a SQLite store as seen by a
sweep (put a row, get it back by config) and the payload gatekeeper.

Every defensive path degrades to a *miss*, never to a wrong row: a
corrupt payload, a stale ``CACHE_VERSION``, a config mismatch behind a
colliding key.  The legacy JSON-directory walk (``iter_classified``)
is still what ``repro migrate`` imports through, so its
classification is pinned here too.
"""

import json

from repro.exp import cache as cache_module
from repro.exp import spec as spec_module
from repro.exp import store as store_module
from repro.exp.cache import iter_classified
from repro.exp.cell import run_cell
from repro.exp.spec import CACHE_VERSION, CellConfig
from repro.exp.store import open_store
from tests.helpers import tag_stored_engine, tamper_store, write_legacy_cache

#: The smallest meaningful cell: a 64-element vector add.
TINY = CellConfig(app="vadd", input_bytes=256)


def _store(tmp_path):
    return open_store(tmp_path / "cache.sqlite", create=True)


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        result = run_cell(TINY)
        with _store(tmp_path) as store:
            store.put(result)
            assert store.get(TINY) == result

    def test_miss_on_empty_cache(self, tmp_path):
        with _store(tmp_path) as store:
            assert store.get(TINY) is None

    def test_miss_on_different_config(self, tmp_path):
        with _store(tmp_path) as store:
            store.put(run_cell(TINY))
            other = CellConfig(app="vadd", input_bytes=256, policy="lru")
            assert store.get(other) is None

    def test_row_serves_the_other_engine(self, tmp_path):
        # Rows written by the retired fast backend record
        # "engine": "fast"; they were byte-identical otherwise, so
        # they must still serve a sweep.
        result = run_cell(TINY)
        with _store(tmp_path) as store:
            store.put(result)
        tag_stored_engine(tmp_path / "cache.sqlite", TINY.key(), "fast")
        with _store(tmp_path) as store:
            assert store.get(TINY) == result

    def test_len_counts_entries(self, tmp_path):
        with _store(tmp_path) as store:
            assert len(store) == 0
            store.put(run_cell(TINY))
            assert len(store) == 1


class TestDefensiveLoads:
    def test_corrupt_file_degrades_to_miss(self, tmp_path):
        with _store(tmp_path) as store:
            store.put(run_cell(TINY))
        tamper_store(
            tmp_path / "cache.sqlite", TINY.key(), payload="{not json"
        )
        with _store(tmp_path) as store:
            assert store.get(TINY) is None

    def test_version_mismatch_degrades_to_miss(self, tmp_path):
        with _store(tmp_path) as store:
            store.put(run_cell(TINY))
        tamper_store(tmp_path / "cache.sqlite", TINY.key(), version=-1)
        with _store(tmp_path) as store:
            assert store.get(TINY) is None

    def test_config_mismatch_inside_file_degrades_to_miss(self, tmp_path):
        # A re-keyed or collided row whose stored config differs from
        # the requested one must never be returned.
        other = CellConfig(app="vadd", input_bytes=256, seed=9)
        payload = json.dumps(
            {"version": CACHE_VERSION, "result": run_cell(TINY).to_dict()},
            sort_keys=True,
        )
        with _store(tmp_path) as store:
            store.put(run_cell(other))
        tamper_store(tmp_path / "cache.sqlite", other.key(), payload=payload)
        with _store(tmp_path) as store:
            assert store.get(other) is None
            assert store.counts().invalid == 1

    def test_unknown_engine_degrades_to_miss(self, tmp_path):
        # Only "reference" and the retired "fast" were ever written.
        with _store(tmp_path) as store:
            store.put(run_cell(TINY))
        tag_stored_engine(tmp_path / "cache.sqlite", TINY.key(), "bogus")
        with _store(tmp_path) as store:
            assert store.get(TINY) is None
            assert store.counts().invalid == 1

    def test_creates_directory(self, tmp_path):
        path = tmp_path / "deep" / "cache.sqlite"
        open_store(path, create=True).close()
        assert path.is_file()

    def test_cache_version_bump_invalidates_everything(
        self, tmp_path, monkeypatch
    ):
        # A schema bump (e.g. 2 -> 3 for the dma axis and the
        # tlb_refills column) must turn every stored cell into a clean
        # miss: the hash moves (new key) *and* a row written under the
        # old version is refused even if found.
        old_key = TINY.key()
        with _store(tmp_path) as store:
            store.put(run_cell(TINY))
        bumped = spec_module.CACHE_VERSION + 1
        for module in (spec_module, cache_module, store_module):
            monkeypatch.setattr(module, "CACHE_VERSION", bumped)
        assert TINY.key() != old_key  # the hash covers the version
        with _store(tmp_path) as store:
            assert store.get(TINY) is None
            # Even a hash collision cannot resurrect it: re-key the old
            # row onto the new hash and the version check still refuses.
            store._db.execute(
                "UPDATE results SET key = ? WHERE key = ?",
                (TINY.key(), old_key),
            )
            assert store.get(TINY) is None
            assert store.counts().stale == 1


class TestIterClassified:
    def test_statuses_cover_ok_stale_and_invalid(self, tmp_path):
        ok_path = tmp_path / f"{TINY.key()}.json"
        other = CellConfig(app="vadd", input_bytes=256, seed=2)
        write_legacy_cache(tmp_path, [run_cell(TINY), run_cell(other)])
        stale_path = tmp_path / f"{other.key()}.json"
        payload = json.loads(stale_path.read_text(encoding="utf-8"))
        payload["version"] = CACHE_VERSION + 1
        stale_path.write_text(json.dumps(payload), encoding="utf-8")
        (tmp_path / "zz-corrupt.json").write_text("][", encoding="utf-8")
        by_status = {
            status: path.name
            for path, status, _result in iter_classified(tmp_path)
        }
        assert by_status == {
            "ok": ok_path.name,
            "stale-version": stale_path.name,
            "invalid": "zz-corrupt.json",
        }

    def test_renamed_entry_is_invalid_not_stale(self, tmp_path):
        write_legacy_cache(tmp_path, [run_cell(TINY)])
        (tmp_path / f"{TINY.key()}.json").rename(tmp_path / f"{'0' * 16}.json")
        [(_, status, result)] = list(iter_classified(tmp_path))
        assert status == "invalid" and result is None
