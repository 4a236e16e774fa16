"""Unit tests for the modelled DMA engine.

The engine's contract: bytes move at submit time (functional state),
bus time drains FIFO on the event queue, the AHB is held while a burst
is active, and one coalesced completion interrupt fires when a queue
containing an interrupt-requesting descriptor drains.
"""

import pytest

from repro.errors import HardwareError
from repro.hw.bus import AhbBus
from repro.hw.dma import INT_DMA_LINE, DmaDescriptor, DmaEngine
from repro.hw.interrupts import InterruptController
from repro.sim.engine import Engine
from repro.sim.time import mhz


def make_dma():
    engine = Engine()
    bus = AhbBus()
    interrupts = InterruptController()
    dma = DmaEngine(engine, bus, interrupts, mhz(66.5))
    return engine, bus, interrupts, dma


class TestSubmit:
    def test_bytes_move_at_submit(self):
        _, _, _, dma = make_dma()
        moved = []
        dma.submit(DmaDescriptor(nbytes=64, move=lambda: moved.append(64)))
        assert moved == [64]

    def test_completion_time_matches_bus_cost(self):
        engine, bus, _, dma = make_dma()
        descriptor = dma.submit(DmaDescriptor(nbytes=2048, move=lambda: None))
        expected = mhz(66.5).cycles_to_ps(bus.transfer_cycles(2048))
        assert descriptor.start_ps == 0
        assert descriptor.complete_ps == expected
        assert dma.busy
        assert dma.wait_ps() == expected
        engine.advance(expected)
        assert descriptor.done
        assert not dma.busy

    def test_fifo_queueing(self):
        engine, _, _, dma = make_dma()
        first = dma.submit(DmaDescriptor(nbytes=1024, move=lambda: None))
        second = dma.submit(DmaDescriptor(nbytes=1024, move=lambda: None))
        assert second.start_ps == first.complete_ps
        engine.advance(first.complete_ps)
        assert first.done and not second.done
        assert dma.in_flight == 1
        engine.advance(second.complete_ps - engine.now)
        assert second.done
        assert dma.descriptors_completed == 2

    def test_zero_byte_descriptor_rejected(self):
        _, _, _, dma = make_dma()
        with pytest.raises(HardwareError):
            dma.submit(DmaDescriptor(nbytes=0, move=lambda: None))

    def test_traffic_recorded_on_bus(self):
        _, bus, _, dma = make_dma()
        dma.submit(DmaDescriptor(nbytes=512, move=lambda: None))
        assert bus.bytes_transferred == 512
        assert bus.transactions == 1
        assert dma.bytes_moved == 512


class TestBusHold:
    def test_burst_holds_the_ahb(self):
        engine, bus, _, dma = make_dma()
        descriptor = dma.submit(DmaDescriptor(nbytes=2048, move=lambda: None))
        assert bus.grant_delay_ps(engine.now) == descriptor.complete_ps
        engine.advance(descriptor.complete_ps)
        assert bus.grant_delay_ps(engine.now) == 0

    def test_queue_extends_the_hold(self):
        engine, bus, _, dma = make_dma()
        dma.submit(DmaDescriptor(nbytes=1024, move=lambda: None))
        second = dma.submit(DmaDescriptor(nbytes=1024, move=lambda: None))
        assert bus.grant_delay_ps(engine.now) == second.complete_ps

    def test_contention_accounting(self):
        _, bus, _, _ = make_dma()
        bus.note_contention(500)
        bus.note_contention(0)  # a granted transfer is not a stall
        assert bus.contention_stalls == 1
        assert bus.contention_ps == 500


class TestCompletionInterrupt:
    def test_irq_raised_when_armed_queue_drains(self):
        engine, _, interrupts, dma = make_dma()
        dma.submit(DmaDescriptor(nbytes=256, move=lambda: None, irq=True))
        assert not interrupts.is_pending(INT_DMA_LINE)
        engine.drain()
        assert interrupts.is_pending(INT_DMA_LINE)
        assert dma.completion_irqs == 1

    def test_no_irq_without_request(self):
        engine, _, interrupts, dma = make_dma()
        dma.submit(DmaDescriptor(nbytes=256, move=lambda: None, irq=False))
        engine.drain()
        assert not interrupts.is_pending(INT_DMA_LINE)
        assert dma.completion_irqs == 0

    def test_irq_coalesced_per_burst(self):
        engine, _, interrupts, dma = make_dma()
        for _ in range(4):
            dma.submit(DmaDescriptor(nbytes=256, move=lambda: None, irq=True))
        engine.drain()
        # One queue-drained interrupt for the whole burst, not four.
        assert dma.completion_irqs == 1
        assert interrupts.raised_count[INT_DMA_LINE] == 1

    def test_irq_fires_at_queue_drain_not_first_completion(self):
        engine, _, interrupts, dma = make_dma()
        first = dma.submit(DmaDescriptor(nbytes=256, move=lambda: None, irq=True))
        second = dma.submit(DmaDescriptor(nbytes=256, move=lambda: None))
        engine.advance(first.complete_ps)
        assert not interrupts.is_pending(INT_DMA_LINE)
        engine.advance(second.complete_ps - engine.now)
        assert interrupts.is_pending(INT_DMA_LINE)
