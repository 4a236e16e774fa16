"""Tests for cache-driven reporting (``repro.exp.report``).

Golden-output tests import the committed fixture rows
(``tests/exp/fixtures/report_rows.json``, written by
``tools/make_report_fixture.py``) into a SQLite store and compare the
rendered tables byte-for-byte against the committed golden files — if
``CACHE_VERSION`` is ever bumped, the fixture goes stale and these
tests fail until the regeneration script is re-run (one command; see
the tool's docstring).

The end-to-end class asserts that a report rendered from two merged
shard stores is byte-identical to the report of a single unsharded
run.
"""

import json
import random
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.exp import run_sweep
from repro.exp.merge import merge_into
from repro.exp.report import (
    FORMATS,
    load_cache_rows,
    render_report,
    render_table,
    report_from_cache,
)
from repro.exp.merge import migrate_store
from repro.exp.spec import CACHE_VERSION, SweepSpec, shard_cells
from tests.helpers import put_rows, store_keys, tamper_store

FIXTURES = Path(__file__).parent / "fixtures"


def _golden(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8").rstrip("\n")


def _fixture_store(path, name="report_rows"):
    """A SQLite store imported from one committed fixture dump."""
    migrate_store(FIXTURES / f"{name}.json", path)
    return path


@pytest.fixture(scope="module")
def report_cache(tmp_path_factory):
    return _fixture_store(tmp_path_factory.mktemp("report") / "report.sqlite")


@pytest.fixture(scope="module")
def baseline_cache(tmp_path_factory):
    return _fixture_store(
        tmp_path_factory.mktemp("baseline") / "baseline.sqlite",
        "baseline_rows",
    )


class TestGoldenOutputs:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_flat_report_matches_golden(self, fmt, report_cache):
        text = report_from_cache(report_cache, fmt=fmt)
        assert text == _golden(f"report.{fmt}")

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_grouped_report_matches_golden(self, fmt, report_cache):
        text = report_from_cache(report_cache, group_by=("policy",), fmt=fmt)
        assert text == _golden(f"report_by_policy.{fmt}")

    def test_rendering_order_is_canonical(self, report_cache):
        rows = list(load_cache_rows(report_cache).rows)
        shuffled = rows[:]
        random.Random(7).shuffle(shuffled)
        assert render_report(shuffled) == render_report(rows)

    def test_baseline_annotated_report_matches_golden(
        self, report_cache, baseline_cache
    ):
        text = report_from_cache(report_cache, baseline_dir=baseline_cache)
        assert text == _golden("report_vs_baseline.md")

    def test_no_baseline_is_byte_identical_to_pre_feature_output(
        self, report_cache
    ):
        # baseline=None must not perturb the historical golden bytes.
        assert report_from_cache(report_cache, fmt="md") == \
            _golden("report.md")


class TestCacheLoading:
    def test_rows_sorted_by_label_then_key(self, report_cache):
        loaded = load_cache_rows(report_cache)
        order = [(r.label, r.key) for r in loaded.rows]
        assert order == sorted(order)
        assert loaded.skipped == 0

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            load_cache_rows(tmp_path / "absent")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="no loadable"):
            load_cache_rows(put_rows(tmp_path / "cache.sqlite", []))
        # A directory is a legacy JSON cache: it has to be imported.
        (tmp_path / "cache").mkdir()
        with pytest.raises(ReproError, match="repro migrate"):
            load_cache_rows(tmp_path / "cache")

    def test_allow_empty_returns_no_rows(self, tmp_path):
        # The baseline loader's degradation path: an empty or all-stale
        # store means "nothing to compare", not a failed report.
        cache = put_rows(tmp_path / "cache.sqlite", [])
        loaded = load_cache_rows(cache, allow_empty=True)
        assert loaded.rows == () and loaded.skipped == 0

    def test_stale_and_corrupt_entries_skipped(self, tmp_path):
        cache = _fixture_store(tmp_path / "cache.sqlite")
        good = load_cache_rows(cache)
        # Break one entry's version and another's JSON.
        keys = store_keys(cache)
        tamper_store(cache, keys[0], version=CACHE_VERSION + 1)
        tamper_store(cache, keys[1], payload="][")
        degraded = load_cache_rows(cache)
        assert degraded.skipped == 2
        assert len(degraded.rows) == len(good.rows) - 2

    def test_strict_report_refuses_partial_cache(self, tmp_path):
        # The library path must not render a partial store as if it
        # were the whole grid (the CLI passes strict=False and warns).
        cache = _fixture_store(tmp_path / "cache.sqlite")
        tamper_store(cache, store_keys(cache)[0], version=CACHE_VERSION + 1)
        with pytest.raises(ReproError, match="stale/invalid"):
            report_from_cache(cache)
        assert report_from_cache(cache, strict=False)  # subset renders

    def test_renamed_entry_fails_hash_check(self, tmp_path):
        # A payload stored under another row's key is skipped, never
        # served under the wrong hash.
        cache = _fixture_store(tmp_path / "cache.sqlite")
        first, second = store_keys(cache)[:2]
        rows = {row.key: row for row in load_cache_rows(cache).rows}
        payload = json.dumps(
            {"version": CACHE_VERSION, "result": rows[second].to_dict()},
            sort_keys=True,
        )
        tamper_store(cache, first, payload=payload)
        assert load_cache_rows(cache).skipped == 1


def _synthetic_row(config, index=0):
    """A hand-written CellResult (no simulation) for rendering tests."""
    from repro.exp.results import CellResult

    return CellResult(
        config=config,
        key=config.key(),
        label=config.label(),
        workload="synthetic",
        sw_ms=10.0,
        vim_ms=1.0 + index,
        hw_ms=0.5,
        sw_dp_ms=0.3,
        sw_imu_ms=0.02,
        sw_other_ms=0.01,
        vim_speedup=10.0 / (1.0 + index),
        page_faults=index,
        compulsory_loads=1,
        evictions=0,
        writebacks=0,
        prefetches=0,
        bytes_to_dpram=1024,
        bytes_from_dpram=1024,
        tlb_hit_rate=1.0,
    )


class TestGrouping:
    def test_numeric_axes_group_in_numeric_order(self):
        from repro.exp.spec import CellConfig

        rows = [
            _synthetic_row(CellConfig(page_bytes=page), index)
            for index, page in enumerate((512, 1024, 2048))
        ]
        text = render_report(rows, group_by=("page_bytes",), fmt="md")
        positions = [text.index(f"page_bytes={p}") for p in (512, 1024, 2048)]
        assert positions == sorted(positions)

    def test_none_axis_values_group_first(self):
        from repro.exp.spec import CellConfig

        rows = [
            _synthetic_row(CellConfig(page_bytes=1024), 0),
            _synthetic_row(CellConfig(), 1),  # page_bytes=None (preset)
        ]
        text = render_report(rows, group_by=("page_bytes",), fmt="md")
        assert text.index("page_bytes=None") < text.index("page_bytes=1024")

    def test_baseline_annotations(self):
        from repro.exp.spec import CellConfig

        configs = [CellConfig(), CellConfig(policy="lru")]
        current = [_synthetic_row(configs[0], 0), _synthetic_row(configs[1], 1)]
        baseline = [_synthetic_row(configs[0], 2)]  # lru cell is new
        text = render_report(
            current, columns=("cell", "vim_ms"), fmt="csv", baseline=baseline
        )
        lines = text.splitlines()
        assert lines[1].endswith('"1.000 (-2.000, -66.7%)"')
        assert lines[2].endswith("2.000 (new)")

    def test_baseline_equal_cells_annotated_as_equal(self):
        from repro.exp.spec import CellConfig

        rows = [_synthetic_row(CellConfig())]
        text = render_report(
            rows, columns=("cell", "vim_ms"), fmt="md", baseline=rows
        )
        assert "1.000 (=)" in text

    def test_baseline_only_cells_listed_after_tables(self):
        from repro.exp.spec import CellConfig

        kept = _synthetic_row(CellConfig())
        gone = _synthetic_row(CellConfig(policy="lru"), 1)
        text = render_report([kept], fmt="md", baseline=[kept, gone])
        assert text.endswith(
            "1 baseline cell(s) absent from this cache: adpcm-8KB/lru"
        )

    def test_baseline_csv_stays_pure_records(self):
        # The prose trailer would corrupt a CSV consumer; annotations
        # ride inside quoted fields instead.
        import csv as csv_module
        import io

        from repro.exp.spec import CellConfig

        kept = _synthetic_row(CellConfig())
        gone = _synthetic_row(CellConfig(policy="lru"), 1)
        text = render_report([kept], fmt="csv", baseline=[kept, gone])
        assert "absent from this cache" not in text
        parsed = list(csv_module.reader(io.StringIO(text)))
        assert len(parsed) == 2  # header + the one current row
        assert all(len(row) == len(parsed[0]) for row in parsed)

    def test_typical_column_renders_dash_when_not_requested(self):
        from repro.exp.spec import CellConfig

        rows = [_synthetic_row(CellConfig())]  # typical_ms=None, fits=True
        text = render_report(
            rows, columns=("cell", "typical_ms"), fmt="csv"
        )
        assert text.splitlines()[1].endswith(",-")
        assert "None" not in text


class TestValidation:
    def test_unknown_format_rejected(self, report_cache):
        rows = load_cache_rows(report_cache).rows
        with pytest.raises(ReproError, match="format"):
            render_report(rows, fmt="pdf")

    def test_unknown_group_axis_rejected(self, report_cache):
        rows = load_cache_rows(report_cache).rows
        with pytest.raises(ReproError, match="axis"):
            render_report(rows, group_by=("colour",))

    def test_unknown_column_rejected(self, report_cache):
        rows = load_cache_rows(report_cache).rows
        with pytest.raises(ReproError, match="column"):
            render_report(rows, columns=("cell", "warp_factor"))

    def test_render_table_rejects_unknown_format(self):
        with pytest.raises(ReproError, match="format"):
            render_table(["a"], [[1]], fmt="html")

    def test_csv_grouping_is_flat_with_leading_axes(self, report_cache):
        rows = load_cache_rows(report_cache).rows
        text = render_report(rows, group_by=("policy",), fmt="csv")
        lines = text.splitlines()
        assert lines[0].startswith("policy,")
        assert len(lines) == 1 + len(rows)


class TestEndToEnd:
    #: Fast 2-cell grid for the real-simulation acceptance check.
    GRID = SweepSpec(
        apps=("vadd",), input_bytes=(1024,), policies=("fifo", "lru")
    )

    def test_sharded_merge_report_byte_identical_to_unsharded(self, tmp_path):
        cells = self.GRID.expand()
        for index in (1, 2):
            run_sweep(
                shard_cells(cells, index, 2),
                cache_dir=tmp_path / f"shard{index}",
            )
        run_sweep(self.GRID, cache_dir=tmp_path / "full")
        merge_into(
            tmp_path / "merged",
            [tmp_path / "shard1", tmp_path / "shard2"],
        )
        for fmt in FORMATS:
            merged = report_from_cache(tmp_path / "merged", fmt=fmt)
            unsharded = report_from_cache(tmp_path / "full", fmt=fmt)
            assert merged == unsharded, fmt
