"""Unit tests for the coprocessor FSM base class."""

import pytest

from repro.coproc.base import Behavior, Coprocessor
from repro.errors import CoprocessorError
from tests.helpers import ScriptCore, make_direct_rig, make_imu_rig


class TestLifecycle:
    def test_core_idles_until_start(self):
        rig = make_imu_rig([("compute", 1)])
        rig.domain.start()
        rig.engine.advance(10 * rig.domain.period_ps)
        rig.domain.stop()
        assert not rig.core.started
        assert rig.core.cycles == 0

    def test_start_begins_behavior(self):
        rig = make_imu_rig([("compute", 3)])
        rig.run()
        assert rig.core.started
        assert rig.core.finished

    def test_finish_asserts_cp_fin(self):
        rig = make_imu_rig([("compute", 1)])
        rig.run()
        assert rig.imu.ports.cp_fin.value == 1

    def test_cycles_counted_per_tick(self):
        rig = make_imu_rig([("compute", 5)])
        rig.run()
        # 5 compute yields + the final generator return tick.
        assert rig.core.cycles == 6

    def test_reset_allows_rerun(self):
        rig = make_imu_rig([("compute", 2)])
        rig.run()
        rig.core.reset()
        assert not rig.core.started
        assert not rig.core.finished
        assert rig.core.cycles == 0

    def test_unbound_core_rejects_tick(self):
        core = ScriptCore([("compute", 1)])
        with pytest.raises(CoprocessorError):
            core.tick()

    def test_behavior_must_be_overridden(self):
        core = Coprocessor()
        with pytest.raises(NotImplementedError):
            next(core.behavior())

    def test_ticks_after_finish_are_noops(self):
        rig = make_imu_rig([("compute", 1)])
        rig.run()
        cycles = rig.core.cycles
        rig.core.tick()
        assert rig.core.cycles == cycles


class _BareYieldCore(ScriptCore):
    """The same script, but each compute phase spelt as bare yields."""

    def compute(self, cycles: int) -> Behavior:
        for _ in range(cycles):
            yield


class TestComputeTokens:
    def test_compute_zero_takes_no_edge(self):
        with_zero = make_imu_rig([("compute", 0), ("compute", 2)])
        without = make_imu_rig([("compute", 2)])
        with_zero.run()
        without.run()
        assert with_zero.core.cycles == without.core.cycles == 3
        assert with_zero.domain.cycles == without.domain.cycles
        # compute(0) returns on the very first edge.
        assert with_zero.core.stamps == [1, 3]

    def test_compute_yields_one_token(self):
        core = ScriptCore([])
        assert list(core.compute(7)) == [7]
        assert list(core.compute(0)) == []

    def test_bare_yield_core_is_cycle_identical(self):
        script = [("compute", 30), ("compute", 1), ("compute", 12)]
        token = make_imu_rig(script)
        bare = make_imu_rig(script, core_factory=_BareYieldCore)
        token.run()
        bare.run()
        assert bare.core.stamps == token.core.stamps
        assert bare.core.cycles == token.core.cycles
        assert bare.domain.cycles == token.domain.cycles
        assert bare.imu.ticks == token.imu.ticks
        # Only the token core's compute phases collapsed.
        assert bare.domain.executed == bare.domain.cycles
        assert token.domain.executed < token.domain.cycles


class TestParamHelpers:
    def test_read_param_via_imu_uses_param_page(self):
        from repro.coproc.ports import PARAM_OBJECT

        rig = make_imu_rig([("param", 2)])
        rig.imu.tlb.insert(PARAM_OBJECT, 0, 0)
        rig.dpram.write_word(8, 1234)
        rig.run()
        assert rig.core.results == [1234]

    def test_read_param_via_direct_registers(self):
        engine, _, iface, core, domain = make_direct_rig([("param", 1)])
        iface.param_regs = [5, 6]
        iface.start_coprocessor()
        domain.start()
        engine.run_until(
            lambda: core.finished, max_time_ps=1_000 * domain.period_ps
        )
        domain.stop()
        assert core.results == [6]

    def test_missing_direct_param_rejected(self):
        engine, _, iface, core, domain = make_direct_rig([("param", 3)])
        iface.param_regs = [1]
        iface.start_coprocessor()
        domain.start()
        with pytest.raises(CoprocessorError):
            engine.run_until(
                lambda: core.finished, max_time_ps=1_000 * domain.period_ps
            )
        domain.stop()

    def test_release_params_noop_on_direct(self):
        engine, _, iface, core, domain = make_direct_rig([("release_params",)])
        iface.param_regs = [0]
        iface.start_coprocessor()
        domain.start()
        engine.run_until(
            lambda: core.finished, max_time_ps=1_000 * domain.period_ps
        )
        domain.stop()
        assert core.finished
        assert iface.ports.cp_param_done.value == 0
