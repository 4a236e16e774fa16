"""Linked clock domains: inert-edge collapse across a dual-domain design.

The oracle is plain per-edge scheduling: the same rig with its domains
left unlinked and a no-op handler on each, so every edge is its own
engine event in the order the engine's FIFO gives it.  The linked,
collapsed rig must reach the same counters, results and cycle stamps.
"""

from dataclasses import replace

import pytest

from repro.coproc.kernels import idea as idea_kernel
from repro.core.drivers import idea_workload
from repro.core.runner import run_vim
from repro.core.soc import EPXA1
from repro.core.system import System
from repro.errors import SimulationError
from repro.os.vim.manager import TransferMode
from repro.sim.clock import ClockDomain, link_peers
from repro.sim.engine import Engine
from repro.sim.time import mhz
from repro.trace.timeline import WaveformProbe
from tests.helpers import ImuRig, clocked_runs, edge_counts, make_imu_rig

SCRIPT = [
    ("param", 0),
    ("release_params",),
    ("read", 0, 0),
    ("read", 0, 4),
    ("compute", 11),
    ("write", 1, 0, 0xDEAD),
    ("write", 1, 4, 0xBEEF, 2),
    ("read", 1, 4, 2),
    ("compute", 3),
    ("read", 1, 0),
]


def _domains(rig: ImuRig) -> list[ClockDomain]:
    return [rig.domain, *rig.extra_domains]


def _rigs(script, **kwargs) -> tuple[ImuRig, ImuRig]:
    """A linked rig and its unlinked per-edge oracle."""
    linked = make_imu_rig(script, peers=True, **kwargs)
    oracle = make_imu_rig(script, **kwargs)
    for domain in _domains(oracle):
        domain.attach(lambda: None)
    for rig in (linked, oracle):
        for obj in (0, 1, 0xFF):
            rig.imu.tlb.insert(obj, 0, obj & 3)
    return linked, oracle


def _outcome(rig: ImuRig):
    return (
        edge_counts([(_domains(rig), rig.imu, rig.core)]),
        rig.core.results,
        rig.core.stamps,
        rig.imu.translations,
        rig.engine.now,
    )


def _executed(rig: ImuRig) -> int:
    return sum(domain.executed for domain in _domains(rig))


@pytest.mark.parametrize(
    "clocks",
    [dict(core_mhz=10.0, imu_mhz=40.0), dict(core_mhz=6.0, imu_mhz=24.0)],
    ids=["coincident-10-40", "drifting-6-24"],
)
@pytest.mark.parametrize("sync_cycles", [0, 6])
def test_linked_rig_matches_unlinked_per_edge(clocks, sync_cycles):
    linked, oracle = _rigs(SCRIPT, sync_cycles=sync_cycles, **clocks)
    for rig in (linked, oracle):
        rig.run()
    assert _outcome(linked) == _outcome(oracle)
    assert _executed(linked) < _executed(oracle)


def test_events_inside_linked_windows():
    # No-op events every 37 ns cut windows at arbitrary points: inside
    # a deferred detection, a countdown, a compute token and a wait.
    script = SCRIPT + SCRIPT[2:] * 2
    linked, oracle = _rigs(script, core_mhz=6.0, imu_mhz=24.0, sync_cycles=6)
    for rig in (linked, oracle):
        for k in range(1, 400):
            rig.engine.schedule_at(37_000 * k, lambda: None)
        rig.run()
    assert _outcome(linked) == _outcome(oracle)


def test_observed_ports_keep_detection_edges():
    linked, oracle = _rigs(SCRIPT, core_mhz=6.0, imu_mhz=24.0, sync_cycles=6)
    watched = make_imu_rig(SCRIPT, peers=True, core_mhz=6.0, imu_mhz=24.0, sync_cycles=6)
    for obj in (0, 1, 0xFF):
        watched.imu.tlb.insert(obj, 0, obj & 3)
    ports = watched.imu.ports
    probe = WaveformProbe(watched.engine, [ports.cp_tlbhit])
    assert ports.observed == 1
    for rig in (linked, oracle, watched):
        rig.run()
    probe.detach()
    assert ports.observed == 0
    assert _outcome(watched) == _outcome(oracle) == _outcome(linked)
    # Every access's detection edge ran in the watched rig.
    accesses = watched.imu.translations
    assert _executed(watched) >= _executed(linked) + accesses
    hit = probe.trace("cp.cp_tlbhit")
    # Low at the start, then one fall per later access.
    assert hit.values.count(0) == accesses


def test_coincident_edges_run_slowest_domain_first():
    def order(linked: bool) -> list[tuple[int, str]]:
        engine = Engine()
        fast = ClockDomain(engine, "fast", mhz(40.0))
        slow = ClockDomain(engine, "slow", mhz(10.0))
        log: list[tuple[int, str]] = []
        fast.attach(lambda: log.append((engine.now, "fast")))
        slow.attach(lambda: log.append((engine.now, "slow")))
        if linked:
            link_peers([fast, slow])
        fast.start()
        slow.start()
        engine.advance(10 * slow.period_ps)
        fast.stop()
        slow.stop()
        return log

    log = order(linked=True)
    assert log == order(linked=False)
    assert [name for time, name in log if time == 100_000] == ["slow", "fast"]


def test_link_peers_validation():
    engine = Engine()
    a = ClockDomain(engine, "a", mhz(10.0))
    b = ClockDomain(Engine(), "b", mhz(40.0))
    with pytest.raises(SimulationError):
        link_peers([a, b])
    c = ClockDomain(engine, "c", mhz(40.0))
    d = ClockDomain(engine, "d", mhz(24.0))
    # Exactly two distinct, stopped domains.
    for domains in ([a], [a, c, d], [a, a]):
        with pytest.raises(SimulationError, match="two"):
            link_peers(domains)
    d.start()
    with pytest.raises(SimulationError):
        link_peers([a, d])
    d.stop()
    link_peers([a, c])
    with pytest.raises(SimulationError):
        link_peers([a, c])
    with pytest.raises(SimulationError):
        link_peers([c, d])


# ----------------------------------------------------------------------
# Whole runs: an IDEA-style core at 10 MHz behind a 40 MHz interface
# ----------------------------------------------------------------------


def _idea_run(per_edge: bool, transfer: TransferMode):
    workload = replace(
        idea_workload(1024, seed=3),
        bitstream=idea_kernel.bitstream(core_mhz=10.0, interface_mhz=40.0),
    )
    soc = replace(EPXA1, page_bytes=512, dpram_bytes=2048)
    with clocked_runs(per_edge=per_edge) as builds:
        result = run_vim(System(soc), workload, transfer_mode=transfer)
    return result, builds


@pytest.mark.parametrize("transfer", [TransferMode.DOUBLE, TransferMode.DMA])
def test_coincident_dual_domain_cell_matches_per_edge(transfer):
    per_edge, per_edge_builds = _idea_run(True, transfer)
    collapsed, builds = _idea_run(False, transfer)
    collapsed.verify()
    assert collapsed.measurement == per_edge.measurement
    assert collapsed.outputs == per_edge.outputs
    assert edge_counts(builds) == edge_counts(per_edge_builds)
    assert collapsed.measurement.counters.page_faults > 0
    # The oracle schedules each domain on its own; the run under test
    # plans them jointly.
    [(oracle_domains, _, _)] = per_edge_builds
    assert all(domain._group is None for domain in oracle_domains)
    [(domains, _, _)] = builds
    assert all(domain._group is not None for domain in domains)
    iface, core = domains
    # Every core edge coincides with an interface edge.
    assert core.period_ps == 4 * iface.period_ps
    for domain in domains:
        assert domain.executed < domain.cycles
