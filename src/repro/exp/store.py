"""The result store: every durable row lives in one SQLite file.

:class:`SqliteStore` is the one contract everything above the store
layer codes to — put/get by config hash, classified streaming
iteration in canonical order, loadable-row counts, run history — and
the consumers above it (sweep, merge, diff, report, history, the
sweep service) never touch files.  It is an append-only SQLite
database: one row per ``(key, version)`` with the full payload,
flattened metric columns for analytics, and an insertion timestamp /
run id.  WAL journaling keeps concurrent shard writers safe, and reads
stream straight off indexed cursors, so a 10k-cell report never
materialises 10k rows.

Two older formats stay readable as *sources*, never as stores:
``repro sweep --json`` row dumps (``repro diff`` and ``repro merge``
accept them) and the legacy per-cell JSON cache directories, which
only ``repro merge`` / ``repro migrate`` import.  :func:`open_source`
opens any of them as one key-sorted classified stream; every other
command refuses a directory with a pointer at ``repro migrate``.

Run identity (``run_id``, timestamps) deliberately lives *next to* the
payload, never inside it: :func:`~repro.exp.spec.config_hash` covers
what was computed, not when, so re-running an identical cell is a
no-op append-wise and reports stay byte-identical across migrations.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from repro.errors import ReproError
from repro.exp.cache import LegacyDir, RowDump, parse_entry
from repro.exp.results import CellResult
from repro.exp.spec import CACHE_VERSION, CellConfig

#: File suffixes under which an empty file still counts as a SQLite
#: store (a database another process has only just created).
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: The on-disk magic every SQLite database file starts with.
_SQLITE_MAGIC = b"SQLite format 3\x00"


@dataclass(frozen=True)
class StoreCounts:
    """Classified entry counts of one store (latest versions only)."""

    ok: int  #: loadable current-version rows
    stale: int  #: rows written under a different CACHE_VERSION
    invalid: int  #: corrupt / renamed / unparsable entries

    @property
    def skipped(self) -> int:
        """Rows a report or diff must leave out (stale + invalid)."""
        return self.stale + self.invalid

    @property
    def total(self) -> int:
        return self.ok + self.stale + self.invalid


@dataclass(frozen=True)
class RunRecord:
    """One recorded write session of a SQLite store."""

    run_id: int  #: monotonically increasing per store
    created: str  #: UTC timestamp of the run's first write
    rows: int  #: result versions appended by the run


class SqliteStore:
    """An append-only SQLite result store.

    One row per ``(config hash, version)``: the verified JSON payload
    (the exact bytes the JSON store would parse), flattened metric
    columns for SQL analytics, the writing run's id and a UTC
    timestamp.  A re-put of a byte-identical payload is a no-op; a
    *different* payload for a known key appends the next version —
    nothing is ever overwritten, which is what makes ``repro history``
    possible.  Reads serve the latest version per key.

    WAL journaling is enabled at creation so concurrent shard writers
    (and a reader rendering a report mid-sweep) do not block each
    other.

    Iteration methods are **streaming**: they yield one row at a time
    in a canonical order and never materialise the whole store, which
    is what lets merge/diff/report run out-of-core.  ``len(store)``
    counts only loadable current-version rows — a stale or corrupt
    entry is not an entry.
    """

    #: Result columns flattened into SQL columns (analytics can GROUP
    #: BY / aggregate without parsing payloads).  The payload stays the
    #: source of truth for reads.
    METRIC_COLUMNS = (
        "sw_ms", "vim_ms", "hw_ms", "sw_dp_ms", "sw_imu_ms",
        "vim_speedup", "page_faults", "tlb_hit_rate",
    )

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS store_meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    );
    CREATE TABLE IF NOT EXISTS runs (
        run_id INTEGER PRIMARY KEY AUTOINCREMENT,
        created_utc TEXT NOT NULL,
        rows INTEGER NOT NULL DEFAULT 0
    );
    CREATE TABLE IF NOT EXISTS results (
        key TEXT NOT NULL,
        version INTEGER NOT NULL,
        cache_version INTEGER NOT NULL,
        run_id INTEGER NOT NULL,
        created_utc TEXT NOT NULL,
        label TEXT NOT NULL,
        replicates INTEGER NOT NULL,
        payload TEXT NOT NULL,
        sw_ms REAL, vim_ms REAL, hw_ms REAL, sw_dp_ms REAL,
        sw_imu_ms REAL, vim_speedup REAL, page_faults INTEGER,
        tlb_hit_rate REAL,
        PRIMARY KEY (key, version)
    );
    CREATE INDEX IF NOT EXISTS results_label_key ON results (label, key);
    """

    #: Latest version per key — the read view every query builds on.
    _LATEST = (
        "FROM results AS r WHERE version = "
        "(SELECT MAX(version) FROM results WHERE key = r.key)"
    )

    def __init__(
        self,
        path: str | Path,
        create: bool = False,
        threadsafe: bool = False,
    ) -> None:
        self.location = str(path)
        self.path = Path(path)
        if not create and not self.path.exists():
            raise ReproError(f"result store {self.path} does not exist")
        try:
            # threadsafe drops sqlite3's same-thread check for callers
            # that serialise access themselves (the sweep service holds
            # one lock around every store operation but handles HTTP
            # requests on per-connection threads).
            self._db = sqlite3.connect(
                self.path,
                isolation_level=None,
                check_same_thread=not threadsafe,
            )
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA busy_timeout=30000")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.executescript(self._SCHEMA)
            self._db.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES "
                "('schema', '1')"
            )
        except sqlite3.Error as error:
            raise ReproError(f"cannot open SQLite store {self.path}: {error}")
        self._run_id: int | None = None  # one run row per writing open

    @staticmethod
    def _now() -> str:
        return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")

    def _current_run(self) -> int:
        if self._run_id is None:
            cursor = self._db.execute(
                "INSERT INTO runs (created_utc) VALUES (?)", (self._now(),)
            )
            self._run_id = cursor.lastrowid
        return self._run_id

    def put(self, result: CellResult) -> None:
        payload = json.dumps(
            {"version": CACHE_VERSION, "result": result.to_dict()},
            sort_keys=True,
        )
        key = result.key
        row = self._db.execute(
            "SELECT cache_version, payload FROM results WHERE key = ? "
            "ORDER BY version DESC LIMIT 1",
            (key,),
        ).fetchone()
        if row is not None and row[0] == CACHE_VERSION and row[1] == payload:
            return  # identical re-put (cache hit re-store, re-merge)
        run_id = self._current_run()
        metrics = tuple(
            getattr(result, column) for column in self.METRIC_COLUMNS
        )
        try:
            self._db.execute(
                "INSERT INTO results (key, version, cache_version, run_id, "
                "created_utc, label, replicates, payload, "
                + ", ".join(self.METRIC_COLUMNS)
                + ") SELECT ?, COALESCE((SELECT MAX(version) FROM results "
                "WHERE key = ?), 0) + 1, ?, ?, ?, ?, ?, ?"
                + ", ?" * len(self.METRIC_COLUMNS),
                (key, key, CACHE_VERSION, run_id, self._now(), result.label,
                 result.config.replicates, payload) + metrics,
            )
        except sqlite3.Error as error:
            raise ReproError(f"cannot write to store {self.path}: {error}")

    @contextmanager
    def transaction(self):
        """Make every write inside the block one atomic unit.

        The block's puts are committed together when it exits cleanly
        and rolled back together — run record included — when it
        raises, so an interrupted bulk write (``repro merge``) leaves
        the store exactly as it was.  The write lock is taken up
        front: a concurrent writer waits for the commit instead of
        failing mid-block.
        """
        try:
            self._db.execute("BEGIN IMMEDIATE")
        except sqlite3.Error as error:
            raise ReproError(f"cannot write to store {self.path}: {error}")
        try:
            yield self
            self._db.execute("COMMIT")
        except BaseException as error:
            if self._db.in_transaction:
                self._db.execute("ROLLBACK")
            self._run_id = None  # its run row was rolled back with it
            if isinstance(error, sqlite3.Error):
                raise ReproError(
                    f"cannot write to store {self.path}: {error}"
                ) from error
            raise

    def _parse(self, key: str, payload: str) -> CellResult | None:
        try:
            decoded = json.loads(payload)
        except ValueError:
            return None
        result = parse_entry(decoded)
        if result is not None and result.key != key:
            return None  # re-keyed row: skipped, never served under key
        return result

    def row(self, key: str) -> CellResult | None:
        """The latest stored row under config hash *key*, or ``None``
        if there is none or it does not load."""
        row = self._db.execute(
            "SELECT cache_version, payload FROM results WHERE key = ? "
            "ORDER BY version DESC LIMIT 1",
            (key,),
        ).fetchone()
        if row is None:
            return None
        return self._classify(key, *row)[1]

    def get(self, config: CellConfig) -> CellResult | None:
        """The stored row for *config*, or ``None`` on any miss.

        A stored row whose config differs from *config* is a collision
        or corruption — a miss.
        """
        result = self.row(config.key())
        if result is None or result.config != config:
            return None
        return result

    def _classify(self, key, cache_version, payload):
        if cache_version != CACHE_VERSION:
            return "stale-version", None
        result = self._parse(key, payload)
        if result is None:
            return "invalid", None
        return "ok", result

    def iter_classified(self):
        cursor = self._db.execute(
            f"SELECT key, cache_version, payload {self._LATEST} ORDER BY key"
        )
        for key, cache_version, payload in cursor:
            status, result = self._classify(key, cache_version, payload)
            yield f"{self.location}[{key}]", status, result

    def iter_rows(self):
        """Yield every loadable row, sorted by config hash."""
        for _origin, status, result in self.iter_classified():
            if status == "ok":
                yield result

    def iter_report_rows(self):
        """Yield every loadable row in report order: ``(label, key)``."""
        cursor = self._db.execute(
            f"SELECT key, cache_version, payload {self._LATEST} "
            "ORDER BY label, key"
        )
        for key, cache_version, payload in cursor:
            status, result = self._classify(key, cache_version, payload)
            if status == "ok":
                yield result

    def counts(self) -> StoreCounts:
        """Classified entry counts (one streaming pass)."""
        ok = stale = invalid = 0
        cursor = self._db.execute(
            f"SELECT key, cache_version, payload {self._LATEST}"
        )
        for key, cache_version, payload in cursor:
            status, _result = self._classify(key, cache_version, payload)
            if status == "ok":
                ok += 1
            elif status == "stale-version":
                stale += 1
            else:
                invalid += 1
        return StoreCounts(ok=ok, stale=stale, invalid=invalid)

    def any_replicated(self) -> bool:
        """Whether any loadable row was swept with ``--replicates``>1
        (selects the widened default report column set)."""
        row = self._db.execute(
            f"SELECT 1 {self._LATEST} AND cache_version = ? "
            "AND replicates > 1 LIMIT 1",
            (CACHE_VERSION,),
        ).fetchone()
        return row is not None

    def runs(self) -> tuple[RunRecord, ...]:
        """Recorded write sessions, oldest first.

        A run's row count is derived from the results it wrote, so a
        put is a single write; the ``runs.rows`` column stays in the
        schema, unused, for stores shared with older checkouts.
        """
        cursor = self._db.execute(
            "SELECT runs.run_id, runs.created_utc, COALESCE(written.n, 0) "
            "FROM runs LEFT JOIN (SELECT run_id, COUNT(*) AS n FROM results "
            "GROUP BY run_id) AS written ON written.run_id = runs.run_id "
            "ORDER BY runs.run_id"
        )
        return tuple(
            RunRecord(run_id=run_id, created=created, rows=rows)
            for run_id, created, rows in cursor
        )

    def iter_versions(self):
        """Yield every stored version for trend analytics.

        ``(key, label, version, run_id, CellResult | None)`` ordered
        by ``(label, key, version)``.
        """
        cursor = self._db.execute(
            "SELECT key, label, version, run_id, cache_version, payload "
            "FROM results ORDER BY label, key, version"
        )
        for key, label, version, run_id, cache_version, payload in cursor:
            result = None
            if cache_version == CACHE_VERSION:
                result = self._parse(key, payload)
            yield key, label, version, run_id, result

    def __len__(self) -> int:
        return self.counts().ok

    def close(self) -> None:
        """Release the database handle (idempotent)."""
        if self._db is not None:
            self._db.close()
            self._db = None

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def is_sqlite_file(path: str | Path) -> bool:
    """Whether an existing *path* is a SQLite store file.

    Sniffs the on-disk magic first (works for any filename), falling
    back to the suffix for empty just-created files.
    """
    path = Path(path)
    if not path.is_file():
        return False
    try:
        with path.open("rb") as handle:
            if handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC:
                return True
    except OSError:
        return False
    return path.stat().st_size == 0 and path.suffix in _SQLITE_SUFFIXES


def _legacy_directory(path: Path) -> ReproError:
    """The refusal every store-only command gives a directory."""
    return ReproError(
        f"{path} is a directory, not a SQLite result store; a legacy "
        "JSON cache directory is only read by `repro merge` and "
        f"`repro migrate` — import it first: repro migrate {path} "
        f"{path}.sqlite"
    )


def open_store(
    path: str | Path,
    kind: str = "sqlite",
    create: bool = False,
    threadsafe: bool = False,
) -> SqliteStore:
    """Open the SQLite result store at *path*.

    Parameters
    ----------
    path : str or Path
        A SQLite database file (any name: the on-disk magic is what
        identifies it).
    kind : str
        Must be ``"sqlite"``, the only store there is.
    create : bool
        Allow *path* not to exist yet: a missing path becomes a fresh
        SQLite store whatever its suffix, parent directories
        included.  With the default ``False`` a missing path raises —
        readers must not conjure empty stores.
    threadsafe : bool
        Allow the returned store to be used from threads other than
        the opening one, for callers that serialise access themselves
        (the sweep service).

    Raises
    ------
    ReproError
        On any *kind* but ``"sqlite"``, a directory (a legacy JSON
        cache: the message names ``repro migrate``), a missing path
        without *create*, or an existing file that is not a SQLite
        database.
    """
    path = Path(path)
    if kind != "sqlite":
        raise ReproError(
            f"unknown store kind {kind!r}; the only result store is 'sqlite'"
        )
    if path.is_dir():
        raise _legacy_directory(path)
    if path.exists():
        if not is_sqlite_file(path):
            raise ReproError(
                f"{path} exists but is not a result store (expected a "
                "SQLite file written by repro sweep, merge or migrate)"
            )
    elif not create:
        raise ReproError(f"result store {path} does not exist")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
    return SqliteStore(path, create=True, threadsafe=threadsafe)


def open_source(path: str | Path, legacy: bool = False):
    """Open *path* as a read-only, key-sorted row source.

    The one reader ``repro diff`` and ``repro merge`` share: a SQLite
    store, a ``repro sweep --json`` row dump, or — with *legacy*, for
    merge and migrate only — a legacy JSON cache directory.  Every
    source is a context manager with ``location``, an
    ``iter_classified()`` stream of ``(origin, status, CellResult |
    None)`` whose loadable rows arrive in config-hash order, and a
    point read ``row(key)``.

    Raises
    ------
    ReproError
        On a directory without *legacy* (naming ``repro migrate``), or
        a file that is neither a SQLite store nor a row dump.
    """
    path = Path(path)
    if path.is_dir():
        if not legacy:
            raise _legacy_directory(path)
        return LegacyDir(path)
    if is_sqlite_file(path):
        return open_store(path)
    return RowDump(path)
