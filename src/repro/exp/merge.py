"""Merge sharded sweep results into one result store, out-of-core.

A grid sharded with ``repro sweep --shard I/N`` leaves N partial
result stores (SQLite files, ``--json`` row dumps, or legacy JSON
cache directories) on N machines.  This module recombines them: every
entry lands in one SQLite destination under its config hash, holding
exactly the rows a single unsharded run would have written — which is
what makes a post-merge re-run report ``0 simulated`` and a post-merge
``repro report`` byte-match the unsharded report.  ``repro migrate SRC
DEST`` is the single-source special case and is how a legacy JSON
cache directory becomes a SQLite store.

Sources are consumed as **key-sorted streams** joined with a heap
merge, so the merge holds one row per source at a time — constant
memory in the store size — while keeping the original conflict
contract: two sources claiming the *same* config hash with *different*
results mean something is broken (non-deterministic cell, hand-edited
file, mixed-up directories); the merge refuses loudly instead of
silently picking a winner.

The merge is **one pass inside one transaction**: each key is checked
against the other sources and the destination, and its first-seen row
is written as soon as the key has been checked, so every source row is
decoded, verified, hashed and (if new) encoded exactly once.  The
writes commit together at the end; a conflict, an empty merge or any
exception — an interrupt included — rolls them all back, and a
destination the merge created is removed again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

from repro.errors import ReproError
from repro.exp.store import (
    SqliteStore,
    is_sqlite_file,
    open_source,
    open_store,
)

#: Files SQLite keeps beside a database: the WAL, its shared-memory
#: index, and a rollback journal.
_SIDE_FILES = ("-wal", "-shm", "-journal")


@dataclass(frozen=True)
class MergeConflict:
    """Two sources disagreeing about one config hash."""

    key: str  #: the contested config hash
    source: str  #: where the conflicting entry came from
    existing: str  #: where the previously-merged entry came from

    def __str__(self) -> str:
        return (
            f"conflicting results for config {self.key}: "
            f"{self.source} disagrees with {self.existing}"
        )


@dataclass(frozen=True)
class MergeSummary:
    """What one :func:`merge_into` call did (or, dry, would do).

    Parameters
    ----------
    dest : str
        The destination result store.
    written : int
        Entries newly written to the destination (with ``dry_run``:
        that *would have been* written).
    identical : int
        Entries that already existed with byte-equal meaning (same
        config hash, equal result) — duplicates across shards or
        re-merges; skipped.
    skipped : int
        Source entries that were not loadable current-version rows
        (stale :data:`~repro.exp.spec.CACHE_VERSION`, corrupt JSON,
        hash mismatch) and were ignored.
    sources : tuple of str
        The merged sources, in merge order.
    dry_run : bool
        ``True`` when nothing was written (``repro merge --dry-run``);
        conflicts are then *reported* on :attr:`conflicts` instead of
        raised.
    conflicts : tuple of MergeConflict
        Only populated under ``dry_run``; a non-dry merge raises on
        conflict instead.
    """

    dest: str
    written: int
    identical: int
    skipped: int
    sources: tuple[str, ...]
    dry_run: bool = False
    conflicts: tuple[MergeConflict, ...] = ()

    def __str__(self) -> str:
        if self.dry_run:
            return (
                f"dry-run: would merge {len(self.sources)} source(s) into "
                f"{self.dest}: {self.written} written, "
                f"{self.identical} identical, {self.skipped} skipped, "
                f"{len(self.conflicts)} conflict(s)"
            )
        return (
            f"merged {len(self.sources)} source(s) into {self.dest}: "
            f"{self.written} written, {self.identical} identical, "
            f"{self.skipped} skipped"
        )


def _keyed(path: Path, index: int, skip_counter: list[int]):
    """One source's loadable rows, key-sorted, decorated for the heap
    join; unloadable entries are counted as skips."""
    with open_source(path, legacy=True) as source:
        for origin, _status, result in source.iter_classified():
            if result is None:
                skip_counter[0] += 1
                continue
            yield result.key, index, origin, result


def _joined(sources: list[Path], skip_counter: list[int]):
    """All sources joined into one key-grouped sorted stream.

    Yields ``(key, group)`` where *group* iterates
    ``(key, source_index, origin, result)`` in source order — the
    heap keeps one pending row per source, never a full store.
    """
    merged = heapq.merge(
        *(
            _keyed(path, index, skip_counter)
            for index, path in enumerate(sources)
        ),
        key=lambda item: item[:2],
    )
    return groupby(merged, key=lambda item: item[0])


def merge_into(
    dest: str | Path,
    sources: list[str | Path],
    dry_run: bool = False,
) -> MergeSummary:
    """Merge *sources* (stores and/or row dumps) into the store *dest*.

    One streaming pass: every key is cross-checked against the other
    sources and the destination, and its first-seen row is written as
    soon as the key has been checked.  All writes share one
    transaction, committed only once every source has been read
    without a conflict.

    Parameters
    ----------
    dest : str or Path
        Destination SQLite store; created if missing, whatever its
        suffix.  May already hold entries (e.g. an earlier shard) —
        they participate in conflict detection like any source entry.
    sources : list of str or Path
        SQLite stores, ``repro sweep --json`` dump files and/or legacy
        JSON cache directories, merged in order.
    dry_run : bool
        Read and cross-check everything, write nothing (a missing
        destination is not even created).  Conflicts are returned on
        the summary instead of raised, so CI can pre-flight a shard
        recombination and report all problems at once.

    Returns
    -------
    MergeSummary
        Written / identical / skipped counts (plus would-be conflicts
        under *dry_run*).

    Raises
    ------
    ReproError
        If a source is missing or malformed, or (non-dry) if any two
        entries claim the same config hash with different results.
        All conflicts are collected and reported together.  On any
        failure — a conflict, nothing to merge, a write error, an
        interrupt — the transaction is rolled back, and a destination
        the merge created is removed along with any parent directories
        it created: a failed merge leaves the destination exactly as it
        was, so a later report cannot silently render a first-seen
        winner.
    """
    dest_path = Path(dest)
    if dest_path.is_file() and not is_sqlite_file(dest_path):
        raise ReproError(
            f"merge destination {dest_path} is not a SQLite store (did "
            "you swap DEST with a --json dump source?)"
        )
    paths = [Path(source) for source in sources]
    for path in paths:
        if not path.exists():
            raise ReproError(f"merge source {path} does not exist")
    if dry_run:
        if not dest_path.exists():
            return _merge(dest_path, None, paths, dry_run=True)
        with open_store(dest_path) as dest_store:
            return _merge(dest_path, dest_store, paths, dry_run=True)
    fresh = not dest_path.exists()
    created_dirs = [
        parent for parent in dest_path.parents if not parent.exists()
    ]
    try:
        with open_store(dest_path, create=True) as dest_store, \
                dest_store.transaction():
            return _merge(dest_path, dest_store, paths, dry_run=False)
    except BaseException:
        if fresh:
            _remove_store(dest_path, created_dirs)
        raise


def _merge(
    dest_path: Path,
    dest_store: SqliteStore | None,
    paths: list[Path],
    dry_run: bool,
) -> MergeSummary:
    """The single pass of :func:`merge_into`: stream-join every source,
    cross-check each key against the other sources and *dest_store*,
    and — unless *dry_run* — put its first-seen row if *dest_store*
    lacks it.  A missing *dest_store* (dry run into a new path) holds
    nothing."""
    skip_counter = [0]
    written = identical = 0
    usable = False
    conflicts: list[MergeConflict] = []
    for key, group in _joined(paths, skip_counter):
        usable = True
        _key, _index, first_origin, first_result = next(group)
        # By key, not by config: a loadable row's key is verified to
        # be its config's hash, so this is get() without re-hashing.
        existing = dest_store.row(key) if dest_store is not None else None
        conflicted = False
        if existing is not None and existing != first_result:
            conflicts.append(MergeConflict(
                key=key,
                source=first_origin,
                existing=f"{dest_path} (pre-existing)",
            ))
            conflicted = True
        elif existing is None:
            written += 1
        else:
            identical += 1
        for _key, _index, origin, result in group:
            if conflicted:
                # Already contested; duplicate source copies must not
                # inflate the conflict count.
                continue
            if result == first_result:
                identical += 1
            else:
                conflicts.append(MergeConflict(
                    key=key, source=origin, existing=first_origin,
                ))
                conflicted = True
        if existing is None and not conflicted and not dry_run:
            dest_store.put(first_result)
    if conflicts and not dry_run:
        detail = "\n  ".join(str(conflict) for conflict in conflicts)
        raise ReproError(
            f"{len(conflicts)} merge conflict(s) — nothing was written "
            f"to {dest_path}:\n  {detail}"
        )
    if not usable:
        # Nothing usable in any source (all-stale after a version bump,
        # or genuinely empty dirs): exiting green here would push the
        # failure downstream to a misleading "no loadable results".
        raise ReproError(
            f"nothing to merge: no usable entry in {len(paths)} "
            f"source(s) ({skip_counter[0]} stale/invalid file(s) skipped)"
        )
    return MergeSummary(
        dest=str(dest_path),
        written=written,
        identical=identical,
        skipped=skip_counter[0],
        sources=tuple(str(path) for path in paths),
        dry_run=dry_run,
        conflicts=tuple(conflicts),
    )


def _remove_store(path: Path, created_dirs: list[Path]) -> None:
    """Delete a store a failed merge created, with its SQLite side
    files and the (deepest-first) parent directories made for it."""
    for name in (path, *(f"{path}{suffix}" for suffix in _SIDE_FILES)):
        Path(name).unlink(missing_ok=True)
    for directory in created_dirs:
        try:
            directory.rmdir()
        except OSError:
            break  # no longer empty: someone else is using it


def migrate_store(source: str | Path, dest: str | Path) -> MergeSummary:
    """Copy one row source into a SQLite store — ``repro migrate``.

    A single-source :func:`merge_into`, which is exactly the right
    machinery: the copy streams row by row, inherits conflict
    detection against anything *dest* already holds, and accepts a
    legacy JSON cache directory, a SQLite store or a ``--json`` dump
    as its source.  Each row's payload is preserved exactly, so a
    report of the imported store is byte-identical to one of the
    original cache.
    """
    return merge_into(dest, [source])
