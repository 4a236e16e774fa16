"""Microbenchmarks of the simulation substrate itself.

Not a paper artefact — these track the cost of the reproduction's own
machinery (event dispatch, IMU translation, full small runs) so that
regressions in simulator performance are visible in CI.  Unlike the
figure benches these use real repeated timing rounds.
"""

from repro.core.system import System
from repro.exp import CellConfig, run_cell, run_sweep
from repro.sim.clock import ClockDomain
from repro.sim.engine import Engine
from repro.sim.time import mhz


def test_micro_event_dispatch(benchmark):
    def dispatch_10k():
        engine = Engine()
        state = {"count": 0}

        def tick():
            state["count"] += 1
            if state["count"] < 10_000:
                engine.schedule(10, tick)

        engine.schedule(10, tick)
        engine.drain()
        return state["count"]

    assert benchmark(dispatch_10k) == 10_000


def test_micro_clock_domain_ticks(benchmark):
    def tick_10k():
        engine = Engine()
        domain = ClockDomain(engine, "clk", mhz(40.0))
        domain.attach(lambda: None)
        domain.start()
        engine.run_until(lambda: domain.cycles >= 10_000)
        domain.stop()
        return domain.cycles

    assert benchmark(tick_10k) >= 10_000


def test_micro_full_vim_cell(benchmark):
    config = CellConfig(app="vadd", input_bytes=64 * 4, seed=1)

    def run():
        return run_cell(config)

    result = benchmark(run)
    assert result.vim_speedup > 0


def _run_capturing_domains(config, monkeypatch):
    """Run *config* once; return its row and every clock domain built."""
    domains = []
    build = System.build_clock_domains

    def capture(system, *args):
        built = build(system, *args)
        domains.extend(built)
        return built

    monkeypatch.setattr(System, "build_clock_domains", capture)
    expected = run_cell(config)
    monkeypatch.undo()
    return expected, domains


def test_micro_adpcm_cell(benchmark, monkeypatch):
    # adpcm 4 KB: most of its edges are inert compute-phase edges or
    # the detection and countdown edges of a TLB-hit access, so the
    # executed-edge count in extra_info gates the edge collapse — a
    # regression there changes a deterministic number, not just wall
    # time (20,492 executed of 200,718).
    config = CellConfig(app="adpcm", input_bytes=4 * 1024, seed=1)
    expected, domains = _run_capturing_domains(config, monkeypatch)
    benchmark.extra_info["edges"] = sum(d.cycles for d in domains)
    benchmark.extra_info["edges_executed"] = sum(d.executed for d in domains)
    assert benchmark(run_cell, config) == expected


def test_micro_idea_cell(benchmark, monkeypatch):
    # IDEA 2 KB: a 6 MHz core and a 24 MHz interface planned jointly,
    # so both domains collapse across an access and a compute token.
    # Per-domain executed edges are deterministic (interface 1,080 of
    # 24,196; core 1,335 of 6,049).
    config = CellConfig(app="idea", input_bytes=2 * 1024, seed=1)
    expected, domains = _run_capturing_domains(config, monkeypatch)
    for domain in domains:
        benchmark.extra_info[f"edges.{domain.name}"] = domain.cycles
        benchmark.extra_info[f"edges_executed.{domain.name}"] = domain.executed
    assert benchmark(run_cell, config) == expected


def test_micro_serial_sweep_dispatch(benchmark):
    # Cost of the sweep engine itself (expansion, hashing, dispatch) on
    # top of the two cells it runs.
    configs = [
        CellConfig(app="vadd", input_bytes=64 * 4, seed=seed) for seed in (1, 2)
    ]

    def run():
        return run_sweep(configs, jobs=1)

    result = benchmark(run)
    assert result.executed == len(configs)
