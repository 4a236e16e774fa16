"""Unit tests for traced signals."""

import pytest

from repro.errors import SimulationError
from repro.sim import signal as signals
from repro.sim.signal import Signal, SignalBundle


class TestSignal:
    def test_initial_value(self):
        assert Signal("s", width=8, init=5).value == 5

    def test_set_and_read(self):
        sig = Signal("s", width=8)
        sig.set(200)
        assert sig.value == 200

    def test_width_enforced_on_set(self):
        sig = Signal("s", width=4)
        with pytest.raises(SimulationError):
            sig.set(16)

    def test_width_enforced_on_init(self):
        with pytest.raises(SimulationError):
            Signal("s", width=2, init=4)

    def test_zero_width_rejected(self):
        with pytest.raises(SimulationError):
            Signal("s", width=0)

    def test_observer_fires_on_change(self):
        sig = Signal("s", width=8)
        seen = []
        sig.observe(lambda s, t, v: seen.append(v))
        sig.set(1)
        sig.set(2)
        assert seen == [1, 2]

    def test_observer_skipped_on_same_value(self):
        sig = Signal("s", width=8, init=7)
        seen = []
        sig.observe(lambda s, t, v: seen.append(v))
        sig.set(7)
        assert seen == []

    def test_unobserve(self):
        sig = Signal("s", width=8)
        seen = []
        observer = lambda s, t, v: seen.append(v)  # noqa: E731
        sig.observe(observer)
        sig.unobserve(observer)
        sig.set(3)
        assert seen == []

    def test_change_counter_moves_only_on_actual_changes(self):
        sig = Signal("s", width=8, init=7)
        before = signals.changes
        sig.set(7)
        assert signals.changes == before
        sig.set(8)
        sig.set(9)
        assert signals.changes == before + 2
        with pytest.raises(SimulationError):
            sig.set(256)
        assert signals.changes == before + 2

    def test_bool_conversion(self):
        assert not Signal("s")
        assert Signal("s", init=1)


class TestSignalBundle:
    def test_new_prefixes_names(self):
        bundle = SignalBundle("cp")
        sig = bundle.new("addr", width=32)
        assert sig.name == "cp.addr"

    def test_iteration_in_declaration_order(self):
        bundle = SignalBundle("cp")
        a = bundle.new("a")
        b = bundle.new("b")
        assert list(bundle) == [a, b]
        assert len(bundle) == 2

    def test_observed_counts_observers_on_member_signals(self):
        bundle = SignalBundle("cp")
        a = bundle.new("a")
        b = bundle.new("b")
        first = lambda s, t, v: None  # noqa: E731
        second = lambda s, t, v: None  # noqa: E731
        assert bundle.observed == 0
        a.observe(first)
        b.observe(first)
        b.observe(second)
        assert bundle.observed == 3
        b.unobserve(first)
        a.unobserve(first)
        assert bundle.observed == 1
        b.unobserve(second)
        assert bundle.observed == 0

    def test_adding_an_observed_signal_counts_its_observers(self):
        sig = Signal("s")
        sig.observe(lambda s, t, v: None)
        bundle = SignalBundle("cp")
        bundle.add(sig)
        assert bundle.observed == 1
