"""Inert-edge collapse leaves every cell exactly as per-edge runs do.

Each cell runs twice: once collapsed (the default) and once with a
no-op handler attached to every clock domain, which keeps each domain
per-edge.  The rows must be identical, and so must every counter a
collapsed edge is credited to: per-domain cycles, the interface's
ticks and stall counters, and the core's cycles and compute countdown.
"""

import pytest

from repro.exp import CellConfig, run_cell
from repro.exp.record import record_cell
from tests.helpers import clocked_runs, edge_counts

#: Small EPXA1 variant that forces page traffic: 4 frames of 512 B.
_TIGHT = dict(page_bytes=512, dpram_bytes=2048)

CELLS = {
    "adpcm-fifo-double": dict(app="adpcm", input_bytes=1024, **_TIGHT),
    "adpcm-lru-double": dict(app="adpcm", input_bytes=1024, policy="lru", **_TIGHT),
    "adpcm-fifo-dma": dict(app="adpcm", input_bytes=1024, transfer="dma", **_TIGHT),
    "adpcm-lru-dma": dict(
        app="adpcm", input_bytes=1024, policy="lru", transfer="dma", **_TIGHT
    ),
    "adpcm-enc": dict(app="adpcm-enc", input_bytes=1024, **_TIGHT),
    "idea": dict(app="idea", input_bytes=1024, **_TIGHT),
    "idea-dec": dict(app="idea-dec", input_bytes=512),
    "vadd": dict(app="vadd", input_bytes=1024, **_TIGHT),
    "synthetic": dict(app="synthetic", input_bytes=2048, **_TIGHT),
    "tenants2-priority": dict(
        app="adpcm", input_bytes=512, tenants=2, tenant_mix="adpcm:2+idea",
        sched="priority", **_TIGHT,
    ),
    "tenants4-wrr": dict(
        app="adpcm", input_bytes=512, tenants=4, tenant_mix="adpcm+idea",
        sched="wrr", **_TIGHT,
    ),
    "pipelined-imu": dict(app="adpcm", input_bytes=1024, pipelined_imu=True, **_TIGHT),
    "access-cycles-6": dict(app="idea", input_bytes=512, access_cycles=6, **_TIGHT),
    "overlapped-dma": dict(
        app="adpcm", input_bytes=1024, transfer="dma", prefetch="overlapped",
        **_TIGHT,
    ),
    "with-typical-adpcm": dict(app="adpcm", input_bytes=1024, with_typical=True),
    "with-typical-idea": dict(app="idea", input_bytes=512, with_typical=True),
}


def _run_both(config: CellConfig):
    with clocked_runs(per_edge=True) as builds:
        per_edge = run_cell(config)
    per_edge_counts = edge_counts(builds)
    with clocked_runs() as builds:
        collapsed = run_cell(config)
    return per_edge, per_edge_counts, collapsed, builds


#: Apps whose cores have no compute phase: a single-domain design
#: then has no edge every handler is inert on, and nothing collapses.
_NO_COMPUTE = {"vadd", "synthetic", "trace"}


def _assert_equivalent(config: CellConfig) -> None:
    per_edge, per_edge_counts, collapsed, builds = _run_both(config)
    assert collapsed.to_dict() == per_edge.to_dict()
    assert edge_counts(builds) == per_edge_counts
    # The collapsed run really skipped edges (a silent fallback to
    # per-edge would pass the equalities above trivially).
    executed = sum(d.executed for domains, _, _ in builds for d in domains)
    passed = sum(d.cycles for domains, _, _ in builds for d in domains)
    if config.app in _NO_COMPUTE:
        assert executed == passed
    else:
        assert executed < passed


@pytest.mark.parametrize("name", sorted(CELLS))
def test_collapsed_cell_matches_per_edge(name):
    _assert_equivalent(CellConfig(**CELLS[name]))


def test_trace_replay_matches_per_edge(tmp_path):
    recorded = record_cell(
        CellConfig(app="synthetic", input_bytes=1024), tmp_path / "t.gz"
    )
    _assert_equivalent(
        CellConfig(app="trace", trace_path=str(recorded.path), **_TIGHT)
    )


def test_no_op_handler_keeps_every_edge():
    with clocked_runs(per_edge=True) as builds:
        run_cell(CellConfig(app="adpcm", input_bytes=512))
    for domains, _, _ in builds:
        for domain in domains:
            assert domain.executed == domain.cycles > 0
