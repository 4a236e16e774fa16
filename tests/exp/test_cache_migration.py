"""Cache migration behaviour across ``CACHE_VERSION`` bumps.

A version bump (v4 → v5 added the replication summary columns and the
synthetic-pattern fields) must degrade *loudly and legibly*: old
entries classify as ``"stale-version"`` — recognisably "re-run me",
never "corrupt" — and a merge fed nothing but stale entries fails with
an explicit error instead of writing an empty store that a later
report would misdiagnose.  The same classification decides what
``repro migrate`` imports from a legacy JSON cache directory.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.exp import run_sweep
from repro.exp.cache import iter_classified
from repro.exp.merge import merge_into
from repro.exp.spec import CACHE_VERSION, SweepSpec
from repro.exp.store import open_store
from tests.helpers import write_legacy_cache

#: The previous on-disk schema version, as real pre-bump caches have.
OLD_VERSION = CACHE_VERSION - 1

#: One cheap cell, used wherever a genuine current-version entry or a
#: downgraded copy of one is needed.
SPEC = SweepSpec(apps=("vadd",), input_bytes=(1024,))


def _entry_paths(root):
    return sorted(root.glob("*.json"))


def _legacy_cache(root):
    """A legacy cache directory holding one real current-version entry."""
    return write_legacy_cache(root, run_sweep(SPEC).rows)


@pytest.fixture()
def current_cache(tmp_path):
    """A real cache directory holding one current-version entry."""
    return _legacy_cache(tmp_path / "current")


def _downgrade(path) -> None:
    """Rewrite a real entry as its previous-version ancestor."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["version"] = OLD_VERSION
    # Strip the columns the bump introduced, as a real v4 file lacks
    # them (CellResult.from_dict must not be what saves us here —
    # classification happens before the row parse is trusted).
    for column in list(payload["result"]):
        if column.endswith(("_mean", "_cv")):
            del payload["result"][column]
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestClassification:
    def test_old_version_entry_is_stale_not_corrupt(self, current_cache):
        _downgrade(_entry_paths(current_cache)[0])
        [(path, status, result)] = iter_classified(current_cache)
        assert status == "stale-version"
        assert result is None

    def test_minimal_old_payload_is_stale(self, tmp_path):
        # Even a hand-written ancestor with an unparsable result body
        # counts as stale: the version field alone tells the story.
        (tmp_path / "deadbeefdeadbeef.json").write_text(
            json.dumps({"version": OLD_VERSION, "result": {}}),
            encoding="utf-8",
        )
        [(_, status, result)] = iter_classified(tmp_path)
        assert status == "stale-version"
        assert result is None

    def test_corrupt_json_is_invalid_not_stale(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
        [(_, status, result)] = iter_classified(tmp_path)
        assert status == "invalid"
        assert result is None

    def test_current_entry_is_ok(self, current_cache):
        [(_, status, result)] = iter_classified(current_cache)
        assert status == "ok"
        assert result is not None


class TestMergeDegradesLoudly:
    def test_all_stale_source_fails_with_explicit_error(
        self, current_cache, tmp_path
    ):
        _downgrade(_entry_paths(current_cache)[0])
        with pytest.raises(ReproError, match="nothing to merge"):
            merge_into(tmp_path / "merged", [current_cache])
        # A failed merge leaves no half-written destination behind.
        assert not (tmp_path / "merged").exists()

    def test_cli_merge_exits_nonzero_on_all_stale(
        self, current_cache, tmp_path, capsys
    ):
        _downgrade(_entry_paths(current_cache)[0])
        with pytest.raises(SystemExit) as excinfo:
            main(["merge", str(tmp_path / "merged"), str(current_cache)])
        assert excinfo.value.code == 2
        assert "nothing to merge" in capsys.readouterr().err

    def test_mixed_merge_skips_stale_and_reports_it(
        self, current_cache, tmp_path
    ):
        stale_dir = _legacy_cache(tmp_path / "stale")
        _downgrade(_entry_paths(stale_dir)[0])
        summary = merge_into(
            tmp_path / "merged", [current_cache, stale_dir]
        )
        assert summary.written == 1
        assert summary.skipped == 1
        # The merged store holds exactly the current-version entry.
        with open_store(tmp_path / "merged") as store:
            [(_, status, result)] = store.iter_classified()
        assert status == "ok"
        assert result is not None


class TestLegacyImport:
    """``repro migrate DIR NEW.sqlite`` imports a legacy JSON cache."""

    def _mixed_cache(self, tmp_path):
        """One ok, one stale-version and one invalid entry."""
        cache = _legacy_cache(tmp_path / "legacy")
        stale = _legacy_cache(tmp_path / "stale-src")
        _downgrade(_entry_paths(stale)[0])
        stale_entry = _entry_paths(stale)[0]
        stale_entry.rename(cache / "fedcba9876543210.json")
        (cache / "0123456789abcdef.json").write_text("][", encoding="utf-8")
        return cache

    def test_counts_match_the_directory_classification(
        self, tmp_path, capsys
    ):
        cache = self._mixed_cache(tmp_path)
        statuses = sorted(status for _p, status, _r in iter_classified(cache))
        assert statuses == ["invalid", "ok", "stale-version"]
        dest = tmp_path / "imported.sqlite"
        assert main(["migrate", str(cache), str(dest)]) == 0
        assert capsys.readouterr().out == (
            f"merged 1 source(s) into {dest}: 1 written, 0 identical, "
            "2 skipped\n"
        )
        with open_store(dest) as store:
            counts = store.counts()
        assert (counts.ok, counts.stale, counts.invalid) == (1, 0, 0)

    def test_imported_store_reports_like_a_sweep(self, tmp_path, capsys):
        cache = self._mixed_cache(tmp_path)
        dest = tmp_path / "imported.sqlite"
        assert main(["migrate", str(cache), str(dest)]) == 0
        direct = tmp_path / "direct.sqlite"
        run_sweep(SPEC, cache_dir=direct)
        capsys.readouterr()
        for fmt in ("md", "csv", "ascii"):
            outputs = []
            for path in (dest, direct):
                assert main(["report", "--cache", str(path),
                             "--format", fmt]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", [
        ["report", "--cache", "{dir}"],
        ["history", "vim_ms", "{dir}"],
        ["diff", "{dir}", "{dir}"],
        ["sweep", "--app", "vadd", "--kb", "1", "--cache", "{dir}"],
    ], ids=lambda command: command[0])
    def test_other_commands_refuse_the_directory(
        self, current_cache, command, capsys
    ):
        argv = [arg.format(dir=current_cache) for arg in command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro migrate {current_cache} {current_cache}.sqlite" in err
        assert "Traceback" not in err
