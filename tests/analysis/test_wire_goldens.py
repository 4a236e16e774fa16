"""The CP_* wires keep their per-edge waveforms.

Inert edges collapse only where no probe could tell: the strings below
were captured from the per-edge simulator, and an attached
:class:`WaveformProbe` must still see every transition at its edge —
including the ``CP_TLBHIT`` fall on the detection edge of a request
issued while the line is high from the previous access.
"""

from repro.exp.api import figure7
from repro.trace.timeline import WaveformProbe, render_cycles
from tests.helpers import make_imu_rig

SIGNALS = ["cp.cp_addr", "cp.cp_access", "cp.cp_tlbhit", "cp.cp_din"]

FIGURE7 = (
    "edge             1     2     3     4     5     6\n"
    "cp.cp_addr       4     4     4     4     4     4\n"
    "cp.cp_access   ███   ███   ███   ▁▁▁   ▁▁▁   ▁▁▁\n"
    "cp.cp_tlbhit   ▁▁▁   ▁▁▁   ▁▁▁   ███   ███   ███\n"
    "cp.cp_din        0     0     0    2a    2a    2a"
)

FIGURE7_PIPELINED = (
    "edge             1     2     3     4     5     6\n"
    "cp.cp_addr       4     4     4     4     4     4\n"
    "cp.cp_access   ███   ▁▁▁   ▁▁▁   ▁▁▁   ▁▁▁   ▁▁▁\n"
    "cp.cp_tlbhit   ▁▁▁   ███   ███   ███   ███   ███\n"
    "cp.cp_din        0    2a    2a    2a    2a    2a"
)

TWO_READS = (
    "edge             1     2     3     4     5     6     7     8     9\n"
    "cp.cp_addr       4     4     4     8     8     8     8     8     8\n"
    "cp.cp_access   ███   ███   ███   ███   ███   ███   ▁▁▁   ▁▁▁   ▁▁▁\n"
    "cp.cp_tlbhit   ▁▁▁   ▁▁▁   ▁▁▁   ███   ▁▁▁   ▁▁▁   ███   ███   ███\n"
    "cp.cp_din        0     0     0    2a    2a    2a    3b    3b    3b"
)


def test_figure7_diagram():
    result = figure7()
    assert result.diagram == FIGURE7
    assert (result.data_ready_edge, result.value_read) == (4, 0x2A)


def test_figure7_pipelined_diagram():
    result = figure7(pipelined=True)
    assert result.diagram == FIGURE7_PIPELINED
    assert (result.data_ready_edge, result.value_read) == (2, 0x2A)


def test_second_read_drops_tlbhit_on_its_detection_edge():
    rig = make_imu_rig([("read", 0, 4), ("read", 0, 8)])
    frame = 2
    rig.imu.tlb.insert(0, 0, frame)
    base = rig.dpram.page_base(frame)
    rig.dpram.write_word(base + 4, 0x2A)
    rig.dpram.write_word(base + 8, 0x3B)
    ports = rig.imu.ports
    probe = WaveformProbe(
        rig.engine,
        [ports.cp_addr, ports.cp_access, ports.cp_tlbhit, ports.cp_din],
    )
    rig.run()
    probe.detach()
    period = rig.domain.period_ps
    hit = probe.trace("cp.cp_tlbhit")
    # High on edge 4 (first read's data), low again on edge 5 (the
    # second read, issued on edge 4, is detected), high on edge 7.
    assert [(t // period, v) for t, v in zip(hit.times, hit.values)] == [
        (0, 0), (4, 1), (5, 0), (7, 1),
    ]
    assert render_cycles(probe, period, period, 9, SIGNALS) == TWO_READS
    assert rig.core.results == [0x2A, 0x3B]
    assert rig.core.stamps == [4, 7]
