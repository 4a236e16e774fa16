"""Test helpers: a scriptable coprocessor core, interface rigs, and
result-store fixtures."""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.coproc.base import Behavior, Coprocessor
from repro.core import system as system_module
from repro.core.system import System
from repro.exp.spec import CACHE_VERSION
from repro.exp.store import open_store
from repro.hw.dpram import DualPortRam
from repro.hw.interrupts import InterruptController
from repro.imu.direct import DirectInterface
from repro.imu.imu import Imu
from repro.sim.clock import ClockDomain, link_peers
from repro.sim.engine import Engine
from repro.sim.time import mhz


class ScriptCore(Coprocessor):
    """A core that executes a scripted list of interface operations.

    Operations (tuples): ``("read", obj, addr[, size])``,
    ``("write", obj, addr, value[, size])``, ``("compute", cycles)``,
    ``("param", index)``, ``("release_params",)``.  Results and the
    core-cycle stamp of each completed op are recorded for assertions.
    """

    name = "script"

    def __init__(self, script: list[tuple]) -> None:
        super().__init__()
        self.script = script
        self.results: list[int | None] = []
        self.stamps: list[int] = []

    def behavior(self) -> Behavior:
        for op in self.script:
            kind = op[0]
            if kind == "read":
                obj, addr = op[1], op[2]
                size = op[3] if len(op) > 3 else 4
                value = yield from self.read(obj, addr, size)
                self.results.append(value)
            elif kind == "write":
                obj, addr, value = op[1], op[2], op[3]
                size = op[4] if len(op) > 4 else 4
                yield from self.write(obj, addr, value, size)
                self.results.append(None)
            elif kind == "compute":
                yield from self.compute(op[1])
                self.results.append(None)
            elif kind == "param":
                value = yield from self.read_param(op[1])
                self.results.append(value)
            elif kind == "release_params":
                yield from self.release_params()
                self.results.append(None)
            else:  # pragma: no cover - script author error
                raise ValueError(f"unknown op {kind!r}")
            self.stamps.append(self.cycles)


@dataclass
class ImuRig:
    """An IMU + scripted core on a single 40 MHz clock domain."""

    engine: Engine
    interrupts: InterruptController
    dpram: DualPortRam
    imu: Imu
    core: ScriptCore
    domain: ClockDomain
    extra_domains: list[ClockDomain] = field(default_factory=list)

    def run(self, until=None, max_cycles: int = 20_000) -> None:
        """Start the core and run until *until()* (default: finished)."""
        predicate = until or (lambda: self.core.finished)
        self.imu.start_coprocessor()
        for domain in [self.domain, *self.extra_domains]:
            if not domain.running:
                domain.start()
        self.engine.run_until(
            predicate, max_time_ps=self.engine.now + max_cycles * self.domain.period_ps
        )
        for domain in [self.domain, *self.extra_domains]:
            domain.stop()


def make_imu_rig(
    script: list[tuple],
    access_cycles: int = 4,
    pipelined: bool = False,
    sync_cycles: int = 0,
    core_mhz: float | None = None,
    imu_mhz: float = 40.0,
    tlb_capacity: int | None = None,
    core_factory=None,
    peers: bool = False,
) -> ImuRig:
    """Build an engine + IMU + scripted core rig.

    With ``core_mhz`` unset, core and IMU share one domain (IMU ticked
    first, as in the real single-domain designs); otherwise the core
    gets its own, slower domain, linked to the IMU's as peers if
    *peers* (as :meth:`System.build_clock_domains` links them).
    *core_factory* (default :class:`ScriptCore`) builds the core from
    the script.
    """
    engine = Engine()
    interrupts = InterruptController()
    dpram = DualPortRam()
    imu = Imu(
        dpram,
        interrupts,
        access_cycles=access_cycles,
        pipelined=pipelined,
        sync_cycles=sync_cycles,
        tlb_capacity=tlb_capacity,
    )
    core = (core_factory or ScriptCore)(script)
    core.bind(imu)
    domain = ClockDomain(engine, "imu", mhz(imu_mhz))
    domain.attach(imu.tick)
    extra = []
    if core_mhz is None:
        domain.attach(core.tick)
    else:
        core_domain = ClockDomain(engine, "core", mhz(core_mhz))
        core_domain.attach(core.tick)
        extra.append(core_domain)
        if peers:
            link_peers([domain, core_domain])
    return ImuRig(engine, interrupts, dpram, imu, core, domain, extra)


def make_direct_rig(
    script: list[tuple],
    access_cycles: int = 2,
) -> tuple[Engine, DualPortRam, DirectInterface, ScriptCore, ClockDomain]:
    """Build an engine + direct interface + scripted core rig."""
    engine = Engine()
    dpram = DualPortRam()
    iface = DirectInterface(dpram, access_cycles=access_cycles)
    core = ScriptCore(script)
    core.bind(iface)
    domain = ClockDomain(engine, "fabric", mhz(40.0))
    domain.attach(iface.tick)
    domain.attach(core.tick)
    return engine, dpram, iface, core, domain


def _no_op() -> None:
    """A plain edge handler: it declares nothing, so its domain never
    collapses an edge."""


def _leave_unlinked(domains: list[ClockDomain]) -> None:
    """Stand-in for :func:`link_peers`: the domains keep scheduling
    their own edges."""


@contextmanager
def clocked_runs(per_edge: bool = False):
    """Record every clock build of the runs inside the block.

    Wraps :meth:`System.build_clock_domains`; yields a list that gains
    one ``(domains, iface, core)`` triple per build.  With *per_edge*
    the build leaves a dual-domain design's two domains unlinked and
    attaches a no-op handler to each built domain, which turns
    inert-edge collapse off: every edge is its own engine event, in
    the order the engine's FIFO gives it.  That is the per-edge oracle
    a collapsed run must match exactly.
    """
    builds: list[tuple[list[ClockDomain], object, Coprocessor]] = []
    original = System.build_clock_domains
    original_link = system_module.link_peers

    def build(system, bitstream, iface_tick, core_tick):
        domains = original(system, bitstream, iface_tick, core_tick)
        if per_edge:
            for domain in domains:
                # Linked through another path than the patched name,
                # the oracle would share the plan it is to check.
                assert domain._group is None, "per-edge oracle got linked"
                domain.attach(_no_op)
        builds.append((domains, iface_tick.__self__, core_tick.__self__))
        return domains

    System.build_clock_domains = build
    if per_edge:
        system_module.link_peers = _leave_unlinked
    try:
        yield builds
    finally:
        System.build_clock_domains = original
        system_module.link_peers = original_link


def edge_counts(builds) -> list[dict[str, object]]:
    """Every counter a collapsed edge must leave at its per-edge value."""
    counts = []
    for domains, iface, core in builds:
        entry = {
            "domains": {domain.name: domain.cycles for domain in domains},
            "iface_ticks": iface.ticks,
            "core_cycles": core.cycles,
            "core_compute_left": core._compute_left,
        }
        if isinstance(iface, Imu):
            entry["translate_cycles"] = iface.translate_cycles
            entry["fault_stall_cycles"] = iface.fault_stall_cycles
        counts.append(entry)
    return counts


# ----------------------------------------------------------------------
# Result-store fixtures
# ----------------------------------------------------------------------


def write_legacy_cache(root, rows):
    """Write *rows* as a legacy JSON cache directory.

    The result-store format before SQLite: one ``<config-hash>.json``
    file per cell, byte for byte what the old directory writer
    produced.  Only ``repro merge`` / ``repro migrate`` still read it.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for row in rows:
        payload = {"version": CACHE_VERSION, "result": row.to_dict()}
        (root / f"{row.key}.json").write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
    return root


def put_rows(path, rows):
    """A SQLite store at *path* holding *rows* (created if missing)."""
    with open_store(path, create=True) as store:
        for row in rows:
            store.put(row)
    return path


def store_keys(path) -> list[str]:
    """Every config hash stored in the SQLite store *path*, sorted."""
    db = sqlite3.connect(path)
    try:
        return [
            key for (key,) in
            db.execute("SELECT DISTINCT key FROM results ORDER BY key")
        ]
    finally:
        db.close()


def tamper_store(path, key, version=None, payload=None):
    """Overwrite the stored cache version and/or raw payload of *key*
    in place — a stale-version or corrupt entry, as no writer makes."""
    db = sqlite3.connect(path)
    if version is not None:
        db.execute(
            "UPDATE results SET cache_version = ? WHERE key = ?",
            (version, key),
        )
    if payload is not None:
        db.execute(
            "UPDATE results SET payload = ? WHERE key = ?", (payload, key)
        )
    db.commit()
    db.close()


def tag_stored_engine(path, key, engine):
    """Rewrite *key*'s stored row to record ``"engine": engine`` — a
    row as written before the second engine backend was retired
    (``"fast"``), or one no writer makes (any other value)."""
    with open_store(path) as store:
        row = store.row(key).to_dict()
    row["config"]["engine"] = engine
    tamper_store(
        path, key,
        payload=json.dumps({"version": CACHE_VERSION, "result": row}),
    )


def scale_metric(path, key, field="vim_ms", factor=1.5):
    """Append a version of *key*'s row with *field* scaled by *factor*."""
    with open_store(path) as store:
        row = store.row(key)
        store.put(replace(row, **{field: getattr(row, field) * factor}))
