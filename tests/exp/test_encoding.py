"""Row and config encoding: the shallow encoders against a deep-walk
reference.

:meth:`CellConfig.to_dict`, :meth:`CellResult.to_dict`,
:func:`config_hash` and :func:`replica_hash` build their dicts from
precomputed field names.  The reference below is the ``asdict``-based
encoding they replaced; every stored payload, ``--json`` dump and
cache key was written by it, so the two must agree key for key, in
order, value for value — and the committed fixture rows must still
hash to their own keys.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp.results import _TUPLE_FIELDS, CellResult
from repro.exp.spec import (
    APPS,
    CACHE_VERSION,
    PREFETCHES,
    TRANSFERS,
    CellConfig,
    config_hash,
    replica_hash,
)
from repro.os.scheduler import SCHEDS

FIXTURES = Path(__file__).with_name("fixtures")


# ----------------------------------------------------------------------
# The deep-walk reference encoding
# ----------------------------------------------------------------------


def reference_config_dict(config: CellConfig) -> dict:
    data = asdict(config)
    data["engine"] = "reference"
    return data


def reference_result_dict(result: CellResult) -> dict:
    data = asdict(result)
    data["config"] = reference_config_dict(result.config)
    for name in _TUPLE_FIELDS:
        data[name] = list(data[name])
    return data


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def reference_config_hash(config: CellConfig) -> str:
    data = asdict(config)
    data.pop("trace_path", None)
    return _digest({"version": CACHE_VERSION, "config": data})


def reference_replica_hash(config: CellConfig) -> str:
    data = asdict(config)
    data.pop("trace_path", None)
    data.pop("seed", None)
    return _digest({"version": CACHE_VERSION, "replica": data})


# ----------------------------------------------------------------------
# Row strategies: solo, multi-tenant, replicated and trace-replay rows
# ----------------------------------------------------------------------

_MIX_APPS = [app for app in APPS if app != "trace"]
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_counts = st.integers(min_value=0, max_value=10**9)


@st.composite
def configs(draw) -> CellConfig:
    kind = draw(st.sampled_from(("solo", "tenants", "trace")))
    common = dict(
        soc=draw(st.sampled_from(("EPXA1", "EPXA4", "EPXA10"))),
        page_bytes=draw(st.none() | st.integers(1, 1 << 16)),
        dpram_bytes=draw(st.none() | st.integers(1, 1 << 20)),
        policy=draw(st.sampled_from(("fifo", "lru", "random"))),
        transfer=draw(st.sampled_from(TRANSFERS)),
        prefetch=draw(st.sampled_from(PREFETCHES)),
        prefetch_depth=draw(st.integers(1, 8)),
        tlb_capacity=draw(st.none() | st.integers(1, 64)),
        pipelined_imu=draw(st.booleans()),
        access_cycles=draw(st.integers(1, 8)),
        replicates=draw(st.integers(1, 5)),
    )
    if kind == "trace":
        return CellConfig(
            app="trace",
            trace_path=draw(st.text(min_size=1, max_size=20)),
            trace_digest=draw(st.text("0123456789abcdef", min_size=64,
                                      max_size=64)),
            **common,
        )
    app = draw(st.sampled_from(_MIX_APPS))
    synthetic = dict(
        syn_stride=draw(st.integers(1, 16)),
        syn_locality_pct=draw(st.integers(0, 100)),
        syn_read_pct=draw(st.integers(0, 100)),
        syn_phases=draw(st.integers(1, 4)),
    )
    if kind == "solo":
        return CellConfig(
            app=app,
            input_bytes=draw(st.integers(1, 1 << 20)),
            seed=draw(st.integers(0, 2**31)),
            with_typical=draw(st.booleans()),
            **synthetic,
            **common,
        )
    slots = draw(st.lists(
        st.tuples(st.sampled_from(_MIX_APPS), st.integers(1, 3)),
        min_size=1, max_size=3,
    ))
    return CellConfig(
        app=app,
        input_bytes=draw(st.integers(1, 1 << 20)),
        seed=draw(st.integers(0, 2**31)),
        tenants=draw(st.integers(2, 4)),
        tenant_mix=draw(st.just("same") | st.just(
            "+".join(f"{slot}:{prio}" for slot, prio in slots)
        )),
        tenant_repeats=draw(st.integers(1, 3)),
        sched=draw(st.sampled_from(SCHEDS)),
        **synthetic,
        **common,
    )


@st.composite
def results(draw) -> CellResult:
    config = draw(configs())
    width = config.tenants if config.tenants > 1 else 0
    tenant_ints = st.lists(_counts, min_size=width, max_size=width)
    replicated = {}
    if config.replicates > 1:
        for name in ("vim_ms", "hw_ms", "sw_dp_ms", "sw_imu_ms",
                     "vim_speedup", "page_faults"):
            replicated[f"{name}_mean"] = draw(_floats)
            replicated[f"{name}_cv"] = draw(_floats)
    return CellResult(
        config=config,
        key=config.key(),
        label=config.label(),
        workload=draw(st.text(max_size=20)),
        sw_ms=draw(_floats),
        vim_ms=draw(_floats),
        hw_ms=draw(_floats),
        sw_dp_ms=draw(_floats),
        sw_imu_ms=draw(_floats),
        sw_other_ms=draw(_floats),
        vim_speedup=draw(_floats),
        page_faults=draw(_counts),
        compulsory_loads=draw(_counts),
        evictions=draw(_counts),
        writebacks=draw(_counts),
        prefetches=draw(_counts),
        bytes_to_dpram=draw(_counts),
        bytes_from_dpram=draw(_counts),
        tlb_hit_rate=draw(_floats),
        typical_ms=draw(st.none() | _floats),
        typical_speedup=draw(st.none() | _floats),
        typical_fits=draw(st.booleans()),
        steals=draw(_counts),
        tlb_refills=draw(_counts),
        dma_transfers=draw(_counts),
        tenant_labels=tuple(draw(st.lists(
            st.text(max_size=8), min_size=width, max_size=width
        ))),
        tenant_ms=tuple(draw(st.lists(
            _floats, min_size=width, max_size=width
        ))),
        tenant_faults=tuple(draw(tenant_ints)),
        tenant_evictions=tuple(draw(tenant_ints)),
        tenant_steals=tuple(draw(tenant_ints)),
        tenant_pages_lost=tuple(draw(tenant_ints)),
        **replicated,
    )


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


class TestShallowEncoding:
    @given(config=configs())
    @settings(max_examples=200, deadline=None)
    def test_config_encoding_matches_the_reference(self, config):
        encoded = config.to_dict()
        assert list(encoded.items()) == list(
            reference_config_dict(config).items()
        )
        assert config_hash(config) == reference_config_hash(config)
        assert replica_hash(config) == reference_replica_hash(config)
        assert CellConfig.from_dict(encoded) == config

    @given(result=results())
    @settings(max_examples=200, deadline=None)
    def test_row_encoding_matches_the_reference(self, result):
        encoded = result.to_dict()
        reference = reference_result_dict(result)
        assert list(encoded.items()) == list(reference.items())
        assert json.dumps(encoded) == json.dumps(reference)
        assert CellResult.from_dict(encoded) == result

    @given(result=results())
    @settings(max_examples=50, deadline=None)
    def test_mutating_the_encoding_leaves_the_row_alone(self, result):
        before = json.dumps(result.to_dict())
        encoded = result.to_dict()
        encoded["vim_ms"] = "mutated"
        encoded["config"]["seed"] = -1
        for name in _TUPLE_FIELDS:
            encoded[name].append("mutated")
        assert json.dumps(result.to_dict()) == before
        assert all(isinstance(getattr(result, name), tuple)
                   for name in _TUPLE_FIELDS)
        config = result.config.to_dict()
        config["app"] = "mutated"
        assert result.config.to_dict()["app"] == result.config.app


@pytest.mark.parametrize(
    "fixture", sorted(FIXTURES.glob("*rows.json")), ids=lambda path: path.name
)
def test_fixture_rows_keep_their_keys_and_bytes(fixture):
    rows = json.loads(fixture.read_text(encoding="utf-8"))
    assert rows
    for row in rows:
        result = CellResult.from_dict(row)
        assert config_hash(result.config) == row["key"]
        assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            row, sort_keys=True
        )
