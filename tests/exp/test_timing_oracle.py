"""Hit-path timing against the paper, not against the simulator.

Figure 7 gives four rising edges from a coprocessor request to its
data: the request edge, the IMU's detection edge, ``access_cycles - 2``
translation edges, the last of which performs the access.  The
pipelined IMU overlaps translation with the request path, and §4.1's
dual-domain IDEA system adds the synchroniser handshake on top
(:attr:`Imu.CDC_SYNC_CYCLES`).  Every access the IMU takes therefore
spends ``max(1, translation + sync)`` translate cycles, and so does the
translation that faulted before its access was retried after the VIM
mapped the page — whatever the app, transfer mode or collapse of the
edges in between.
"""

import pytest

from repro.exp import CellConfig, run_cell
from repro.exp.record import record_cell
from repro.imu.imu import Imu
from tests.helpers import clocked_runs

#: Small EPXA1 variant that forces page traffic: 4 frames of 512 B.
_TIGHT = dict(page_bytes=512, dpram_bytes=2048)

CELLS = {
    "adpcm": dict(app="adpcm", input_bytes=1024, **_TIGHT),
    "idea": dict(app="idea", input_bytes=1024, **_TIGHT),
    "vadd": dict(app="vadd", input_bytes=1024, **_TIGHT),
    "synthetic": dict(app="synthetic", input_bytes=2048, **_TIGHT),
    "pipelined-imu": dict(app="adpcm", input_bytes=1024, pipelined_imu=True, **_TIGHT),
    "access-cycles-6": dict(app="adpcm", input_bytes=1024, access_cycles=6, **_TIGHT),
    "idea-access-cycles-6": dict(
        app="idea", input_bytes=1024, access_cycles=6, **_TIGHT
    ),
    "dma": dict(app="adpcm", input_bytes=1024, transfer="dma", **_TIGHT),
}


def _paper_cycles_per_access(config: CellConfig, imu: Imu) -> int:
    translate = 0 if config.pipelined_imu else config.access_cycles - 2
    dual_domain = config.app.startswith("idea")
    sync = Imu.CDC_SYNC_CYCLES if dual_domain else 0
    return max(1, translate + sync)


def _assert_paper_timing(config: CellConfig) -> None:
    with clocked_runs() as builds:
        run_cell(config)
    [(_, imu, _)] = builds
    assert isinstance(imu, Imu)
    accesses = imu.reads + imu.writes
    assert accesses > 0 and imu.faults > 0
    assert imu.translations == accesses
    assert imu.translate_cycles == (
        (accesses + imu.faults) * _paper_cycles_per_access(config, imu)
    )


@pytest.mark.parametrize("name", sorted(CELLS))
def test_translate_cycles_follow_the_paper(name):
    _assert_paper_timing(CellConfig(**CELLS[name]))


def test_trace_replay_follows_the_paper(tmp_path):
    recorded = record_cell(
        CellConfig(app="synthetic", input_bytes=4096), tmp_path / "t.gz"
    )
    _assert_paper_timing(
        CellConfig(app="trace", trace_path=str(recorded.path), **_TIGHT)
    )
