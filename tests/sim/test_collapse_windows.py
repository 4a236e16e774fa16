"""Window boundaries of inert-edge collapse.

Each scenario runs on two identical rigs: one collapsed, one kept
per-edge by a no-op handler on every domain.  Wherever the run is cut —
by ``engine.advance``, by an interrupt raised on an edge, by a DMA
completion inside a compute phase — the collapsed rig must hold exactly
the per-edge counts.
"""

import pytest

from repro.hw.bus import AhbBus
from repro.hw.dma import DmaDescriptor, DmaEngine
from repro.hw.dpram import DualPortRam
from repro.imu.direct import DirectInterface
from repro.imu.imu import INT_PLD_LINE, Imu, ImuState
from repro.sim.clock import UNBOUNDED, ClockDomain
from repro.sim.engine import Engine
from repro.sim.time import mhz
from repro.trace.timeline import WaveformProbe
from tests.helpers import ImuRig, edge_counts, make_direct_rig, make_imu_rig


def _domains(rig: ImuRig) -> list[ClockDomain]:
    return [rig.domain, *rig.extra_domains]


def _rigs(script, **kwargs) -> tuple[ImuRig, ImuRig]:
    collapsed = make_imu_rig(script, **kwargs)
    per_edge = make_imu_rig(script, **kwargs)
    for domain in _domains(per_edge):
        domain.attach(lambda: None)
    return collapsed, per_edge


def _counts(rig: ImuRig) -> tuple[list[dict[str, object]], int]:
    return edge_counts([(_domains(rig), rig.imu, rig.core)]), rig.engine.now


def _start(rig: ImuRig) -> None:
    rig.imu.start_coprocessor()
    for domain in _domains(rig):
        domain.start()


def _stop(rig: ImuRig) -> None:
    for domain in _domains(rig):
        domain.stop()


def _executed(rig: ImuRig) -> int:
    return sum(domain.executed for domain in _domains(rig))


class TestAdvanceInsideComputePhase:
    def test_stop_credits_exactly_the_passed_edges(self):
        collapsed, per_edge = _rigs([("compute", 50)])
        for rig in (collapsed, per_edge):
            _start(rig)
            # 20.5 periods: the cut falls between two skipped edges.
            rig.engine.advance(20 * rig.domain.period_ps + rig.domain.period_ps // 2)
            _stop(rig)
        assert _counts(collapsed) == _counts(per_edge)
        assert collapsed.domain.cycles == 20
        assert collapsed.core._compute_left == 50 - 20
        assert _executed(collapsed) < _executed(per_edge)

    def test_cut_on_a_skipped_edge_counts_that_edge(self):
        collapsed, per_edge = _rigs([("compute", 50)])
        for rig in (collapsed, per_edge):
            _start(rig)
            rig.engine.advance(7 * rig.domain.period_ps)
            _stop(rig)
        assert _counts(collapsed) == _counts(per_edge)
        assert collapsed.domain.cycles == 7

    def test_resuming_after_the_cut_finishes_identically(self):
        collapsed, per_edge = _rigs([("compute", 50), ("compute", 9)])
        for rig in (collapsed, per_edge):
            _start(rig)
            rig.engine.advance(13 * rig.domain.period_ps)
            _stop(rig)
            rig.engine.advance(3 * rig.domain.period_ps)  # the "OS" works
            rig.run()
        assert _counts(collapsed) == _counts(per_edge)
        assert collapsed.core.stamps == per_edge.core.stamps


class TestStopOnInterruptEdge:
    def test_single_domain_done_interrupt(self):
        collapsed, per_edge = _rigs([("compute", 30)])
        for rig in (collapsed, per_edge):
            rig.run(until=lambda rig=rig: rig.interrupts.pending_unmasked_mask != 0)
        assert _counts(collapsed) == _counts(per_edge)
        assert collapsed.interrupts.is_pending(INT_PLD_LINE)

    def test_dual_domain_window_opened_on_the_raising_edge(self):
        # The interface edge that raises the done interrupt is idle
        # afterwards and would open a window up to the next core edge;
        # stopping there must credit none of it.
        collapsed, per_edge = _rigs(
            [("compute", 5)], core_mhz=6.0, imu_mhz=24.0
        )
        for rig in (collapsed, per_edge):
            rig.run(until=lambda rig=rig: rig.interrupts.pending_unmasked_mask != 0)
        assert _counts(collapsed) == _counts(per_edge)
        # The idle 24 MHz interface edges between core edges collapsed.
        assert collapsed.domain.executed < per_edge.domain.executed


class TestEventsInsideWindow:
    """An event may change a handler's input: the edges after it run."""

    def _release_at(self, rig: ImuRig, time_ps: int) -> None:
        rig.engine.schedule_at(
            time_ps, lambda: rig.imu.ports.cp_param_done.set(1)
        )

    def test_event_between_edges_is_seen_by_the_next_edge(self):
        collapsed, per_edge = _rigs([("compute", 50)])
        for rig in (collapsed, per_edge):
            period = rig.domain.period_ps
            self._release_at(rig, 10 * period + period // 2)
            _start(rig)
            rig.engine.advance(11 * period)
            _stop(rig)
            assert rig.imu.sr.param_released
        assert _counts(collapsed) == _counts(per_edge)

    def test_event_on_an_edge_instant_runs_before_that_edge(self):
        collapsed, per_edge = _rigs([("compute", 50)])
        for rig in (collapsed, per_edge):
            period = rig.domain.period_ps
            self._release_at(rig, 10 * period)
            _start(rig)
            rig.engine.advance(10 * period)
            _stop(rig)
            assert rig.imu.sr.param_released
        assert _counts(collapsed) == _counts(per_edge)


class TestDmaCompletionInsideComputePhase:
    def test_completion_interrupt_cuts_the_window(self):
        collapsed, per_edge = _rigs([("compute", 400)])
        for rig in (collapsed, per_edge):
            dma = DmaEngine(rig.engine, AhbBus(), rig.interrupts, mhz(66.5))
            descriptor = dma.submit(
                DmaDescriptor(nbytes=512, move=lambda: None, irq=True)
            )
            rig.run(until=lambda rig=rig: rig.interrupts.pending_unmasked_mask != 0)
            assert rig.engine.now == descriptor.complete_ps
        assert _counts(collapsed) == _counts(per_edge)
        # The completion landed inside the 400-edge compute phase.
        assert 0 < collapsed.core._compute_left < 400
        assert _executed(collapsed) < _executed(per_edge)


class TestDeclarations:
    def test_plain_handler_disables_collapse(self):
        collapsed, per_edge = _rigs([("compute", 40)])
        for rig in (collapsed, per_edge):
            rig.run()
        assert per_edge.domain.executed == per_edge.domain.cycles
        assert collapsed.domain.executed < collapsed.domain.cycles
        assert _counts(collapsed) == _counts(per_edge)

    def test_domain_without_handlers_runs_per_edge(self, engine):
        domain = ClockDomain(engine, "clk", mhz(40.0))
        domain.start()
        engine.advance(5 * domain.period_ps)
        domain.stop()
        assert domain.executed == domain.cycles == 5

    def test_idle_imu_alone_does_not_run_ahead_of_nothing(self):
        # Inert "until an input changes", with no event left that could
        # change one: the domain keeps every edge, so a livelock guard
        # still sees each of them.
        rig = make_imu_rig([("compute", 1)])
        rig.domain.detach(rig.core.tick)
        assert rig.imu.inert_edges() == UNBOUNDED
        rig.domain.start()
        rig.engine.advance(6 * rig.domain.period_ps)
        rig.domain.stop()
        assert rig.domain.executed == rig.domain.cycles == 6
        assert rig.imu.ticks == 6


def _drive(ports, signal: str) -> None:
    """Put one pending input on an interface's port bundle."""
    if signal == "request":
        ports.issue(0, 0, write=False, size=4)
    else:
        getattr(ports, signal).set(1)


class TestInterfaceDeclarations:
    def test_idle_imu_is_inert_until_an_input_changes(self, imu: Imu):
        assert imu.inert_edges() == UNBOUNDED
        imu.credit_edges(5)
        assert imu.ticks == 5

    @pytest.mark.parametrize("signal", ["request", "cp_fin", "cp_param_done"])
    def test_imu_pending_input_is_not_inert(self, imu: Imu, signal):
        _drive(imu.ports, signal)
        if signal != "request":
            assert imu.inert_edges() == 0
            return
        # A new request declares its detection edge plus the countdown
        # (access_cycles - 2 + sync_cycles), unless a probe watches the
        # ports: then detection is an executed edge.
        assert imu.inert_edges() == imu.access_cycles - 2 + imu.sync_cycles
        probe = WaveformProbe(Engine(), [imu.ports.cp_din])
        assert imu.inert_edges() == 0
        probe.detach()
        assert imu.inert_edges() == imu.access_cycles - 2 + imu.sync_cycles

    @pytest.mark.parametrize("state", [ImuState.TRANSLATE, ImuState.FAULT])
    def test_busy_imu_is_not_inert(self, imu: Imu, state):
        imu.state = state
        if state is ImuState.FAULT:
            assert imu.inert_edges() == 0
            return
        # The countdown before the firing edge, never negative.
        for remaining, declared in ((5, 4), (2, 1), (1, 0)):
            imu._remaining = remaining
            assert imu.inert_edges() == declared

    def test_direct_interface_declarations(self):
        iface = DirectInterface(DualPortRam())
        assert iface.inert_edges() == UNBOUNDED
        for signal in ("request", "cp_fin"):
            probe = DirectInterface(DualPortRam())
            _drive(probe.ports, signal)
            assert probe.inert_edges() == 0
        iface._pending = True
        assert iface.inert_edges() == 0

    def test_direct_interface_declares_its_countdown(self):
        iface = DirectInterface(DualPortRam(), access_cycles=5)
        _drive(iface.ports, "request")
        assert iface.inert_edges() == 3
        iface.credit_edges(2)  # detection plus one countdown edge
        assert iface.ticks == 2 and iface.last_req == iface.ports.cp_req.value
        assert iface._pending and iface.inert_edges() == 1

    @pytest.mark.parametrize("access_cycles", [2, 3, 5])
    def test_direct_interface_accesses_collapse(self, access_cycles):
        script = [
            ("write", 0, 0, 0x1234),
            ("read", 0, 0),
            ("compute", 7),
            ("read", 0, 0, 2),
        ]
        runs = []
        for per_edge in (False, True):
            engine, dpram, iface, core, domain = make_direct_rig(
                script, access_cycles=access_cycles
            )
            if per_edge:
                domain.attach(lambda: None)
            iface.set_object_window(0, 0, 64)
            iface.start_coprocessor()
            domain.start()
            engine.run_until(lambda: iface.done, max_time_ps=10**9)
            domain.stop()
            runs.append(
                (domain.cycles, iface.ticks, core.cycles, core.results,
                 core.stamps, engine.now, domain.executed)
            )
        (*collapsed, executed), (*per_edge, per_edge_executed) = runs
        assert collapsed == per_edge
        assert collapsed[3] == [None, 0x1234, None, 0x1234]
        assert executed < per_edge_executed

    def test_fin_is_seen_with_a_distant_event_pending(self):
        # Core finished (inert for ever) and a far-off event to bound
        # the window: the IMU's pending FIN must still keep the next
        # edge, or the done interrupt would arrive late.
        collapsed, per_edge = _rigs([("compute", 5)])
        for rig in (collapsed, per_edge):
            rig.engine.schedule_at(1_000 * rig.domain.period_ps, lambda: None)
            rig.run(until=lambda rig=rig: rig.interrupts.pending_unmasked_mask != 0)
        assert _counts(collapsed) == _counts(per_edge)
