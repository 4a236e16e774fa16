"""The payload gatekeeper and the two JSON row sources.

Every stored row is a ``{"version": ..., "result": ...}`` payload
keyed by :func:`~repro.exp.spec.config_hash`, which covers every
config field plus :data:`~repro.exp.spec.CACHE_VERSION`.  Each payload
embeds the full config and is verified on load by :func:`parse_entry`
— a hash collision, a schema bump or a hand-edited entry degrades to
a miss, never to silently wrong numbers.

Besides the SQLite store (:mod:`repro.exp.store`), two JSON formats
stay readable, as sources only:

* ``repro sweep --json`` row dumps (:class:`RowDump`), which ``repro
  diff`` and ``repro merge`` accept;
* legacy cache directories of ``<config-hash>.json`` files
  (:class:`LegacyDir`), the result store before SQLite, which only
  ``repro merge`` / ``repro migrate`` import.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError
from repro.exp.results import CellResult
from repro.exp.spec import CACHE_VERSION


def parse_entry(payload) -> CellResult | None:
    """Verify one cache-entry payload; the single gatekeeper.

    Every reader of stored rows (the SQLite store, the row-dump and
    legacy-directory sources) funnels through this check so they
    cannot drift apart in what they accept.

    Parameters
    ----------
    payload : object
        A decoded cache-entry JSON payload
        (``{"version": ..., "result": ...}``).

    Returns
    -------
    CellResult or None
        The verified row, or ``None`` if the payload is not a dict,
        carries a different :data:`~repro.exp.spec.CACHE_VERSION`,
        fails :meth:`~repro.exp.results.CellResult.from_dict`, or
        stores a key that does not match its own config's hash.
    """
    if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
        return None
    try:
        result = CellResult.from_dict(payload["result"])
    except Exception:
        return None
    if result.key != result.config.key():
        return None
    return result


#: Entry statuses :func:`iter_classified` distinguishes: a loadable
#: row, a structurally sound entry written under a *different*
#: :data:`~repro.exp.spec.CACHE_VERSION`, or anything else (corrupt
#: JSON, failed round-trip, hand-renamed file).
ENTRY_STATUSES = ("ok", "stale-version", "invalid")


def iter_classified(root: str | Path):
    """Yield ``(path, status, CellResult | None)`` for a legacy cache
    directory *root*.

    The one walk over legacy JSON cache directories: entries are
    visited in sorted filename order — config-hash order for every
    loadable entry — and each payload goes through
    :func:`parse_entry`.  *status* is one of :data:`ENTRY_STATUSES`;
    the result is non-``None`` only for ``"ok"``.  A version mismatch
    is classified ``"stale-version"`` (it usually means a
    ``CACHE_VERSION`` bump, not corruption); a file whose name does
    not match its own config hash is ``"invalid"`` — a hand-renamed
    entry is skipped, never re-keyed.
    """
    for path in sorted(Path(root).glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            yield path, "invalid", None
            continue
        result = parse_entry(payload)
        if result is not None and result.key != path.stem:
            result = None
        if result is not None:
            yield path, "ok", result
        elif (
            isinstance(payload, dict)
            and "version" in payload
            and payload.get("version") != CACHE_VERSION
        ):
            yield path, "stale-version", None
        else:
            yield path, "invalid", None


def iter_dump_rows(path: str | Path):
    """Yield ``(origin, CellResult | None)`` for a ``--json`` row dump.

    The one reader of ``repro sweep --json`` dump files: the file
    must be a JSON list of bare result rows, each adopted under the
    current :data:`~repro.exp.spec.CACHE_VERSION` and verified through
    :func:`parse_entry` (an unparsable row yields ``None``).
    *origin* is ``"<path>[<index>]"`` for messages.

    Raises
    ------
    ReproError
        If the file is unreadable or not a JSON list.
    """
    path = Path(path)
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ReproError(f"unreadable row dump {path}: {error}")
    if not isinstance(rows, list):
        raise ReproError(
            f"{path} is not a SQLite result store or a "
            "`repro sweep --json` row dump"
        )
    for index, row in enumerate(rows):
        origin = f"{path}[{index}]"
        yield origin, parse_entry({"version": CACHE_VERSION, "result": row})


class _FileSource:
    """The read-only source lifecycle: nothing to release."""

    def __init__(self, path: str | Path) -> None:
        self.location = str(path)

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class RowDump(_FileSource):
    """A ``repro sweep --json`` dump as a key-sorted row source.

    A dump is an in-memory JSON list already, so sorting its rows by
    config hash costs no extra materialisation.  Unparsable rows are
    classified ``"invalid"`` and come first.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__(path)
        self._invalid: list[str] = []
        loaded: list[tuple[str, CellResult]] = []
        for origin, result in iter_dump_rows(path):
            if result is None:
                self._invalid.append(origin)
            else:
                loaded.append((origin, result))
        loaded.sort(key=lambda item: item[1].key)
        self._rows = loaded
        self._by_key = {result.key: result for _origin, result in loaded}

    def iter_classified(self):
        for origin in self._invalid:
            yield origin, "invalid", None
        for origin, result in self._rows:
            yield origin, "ok", result

    def row(self, key: str) -> CellResult | None:
        return self._by_key.get(key)


class LegacyDir(_FileSource):
    """A legacy JSON cache directory as a key-sorted row source."""

    def iter_classified(self):
        for path, status, result in iter_classified(self.location):
            yield str(path), status, result
