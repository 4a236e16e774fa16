"""The repository benchmark: host-time throughput of sweeps and stores.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-compute --seed 1 \\
        --seconds 10 --trace 0

``--workload all`` (the default) runs every workload in turn.  With
``--trace 0`` each run prints its end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics of a traced run instead.
The last line of standard output is always one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each workload loads and why.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed  # the script's own directory leads sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / ".work"
SPANS_DIR = BENCH / ".out"

#: Fresh interpreters whose set-up time ``setup_s`` is the median of.
SETUP_PROBES = 3

#: Fewest timed passes per run.
MIN_PASSES = 2

UNITS = {
    "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "trace.pass_s": "s", "trace.ops_per_pass": "count",
    "trace.overhead.spans": "x", "trace.overhead.profile": "x",
    "sim.edges_collapsed_ratio": "ratio", "imu.tlb_hit_rate": "ratio",
    "exp.store.get_hit_ratio": "ratio", "hw.dpram_bytes_in": "B",
    "hw.dpram_bytes_out": "B", "calls.asdict_per_op": "count/op",
    "calls.deepcopy_per_op": "count/op",
}

#: One fresh interpreter: import the CLI and build the workload's
#: inputs under a host-speed gauge.
_SETUP_PROBE = """
import sys
import hostspeed
with hostspeed.Gauge() as gauge:
    import repro.cli
    import workloads
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), workloads.Path(sys.argv[3]))
print(gauge.seconds, gauge.quiet_seconds)
"""


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "%" if name.startswith(("span_pct.", "self_pct.")) else "count"


def setup_seconds(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Median set-up time over :data:`SETUP_PROBES` fresh interpreters.

    Returns the raw median and the median normalised to a quiet host.
    """
    env = {**os.environ, "PYTHONPATH": f"{SRC}:{BENCH}"}
    raw = []
    normalised = []
    for index in range(SETUP_PROBES):
        probe_dir = workdir / f"probe-{index}"
        probe_dir.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, name, str(seed), str(probe_dir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: set-up probe exited {done.returncode}")
        seconds, quiet_seconds = map(float, done.stdout.split())
        raw.append(seconds)
        normalised.append(quiet_seconds)
    return statistics.median(raw), statistics.median(normalised)


def run_units(units, gauged: bool) -> tuple[list[float], list[float]]:
    """Each unit's time in host seconds and in quiet-host seconds.

    Without *gauged*, units are timed bare and both lists are the same.
    """
    raw = []
    normalised = []
    for unit in units:
        if gauged:
            with hostspeed.Gauge() as gauge:
                unit()
            raw.append(gauge.seconds)
            normalised.append(gauge.quiet_seconds)
        else:
            start = time.perf_counter()
            unit()
            raw.append(time.perf_counter() - start)
            normalised.append(raw[-1])
    return raw, normalised


class Tally:
    """Operations attempted and failed, and the unit times of each pass.

    End-to-end runs time units under a host-speed gauge; the traced run
    times them bare, so its overheads compare like with like.
    """

    def __init__(self, gauged: bool) -> None:
        self.gauged = gauged
        self.attempted = self.failed = 0
        self.passes: list[list[float]] = []
        self.normalised: list[list[float]] = []

    def run(self, workload, index: int, wrap=None) -> float | None:
        """One pass plus its check: the pass's wall time, None on failure.

        *wrap*, if given, is a context manager entered around the pass
        (the traced run's instrumentation); such a pass is timed whole,
        without reference loops, and kept out of the untraced passes.
        """
        self.attempted += workload.ops
        try:
            units = workload.units(index)
            start = time.perf_counter()
            if wrap is None:
                raw, normalised = run_units(units, self.gauged)
            else:
                with wrap:
                    for unit in units:
                        unit()
            elapsed = time.perf_counter() - start
            failed = workload.check(index)
        except Exception:  # a failing pass is counted, not fatal
            traceback.print_exc()
            self.failed += workload.ops
            return None
        self.failed += failed
        if failed:
            return None
        if wrap is None:
            self.passes.append(raw)
            self.normalised.append(normalised)
            return sum(raw)
        return elapsed

    @staticmethod
    def pass_seconds(passes: list[list[float]]) -> float:
        """Sum over units of each unit's median time across *passes*."""
        if not passes:
            return 0.0
        return sum(statistics.median(unit) for unit in zip(*passes))


def measure(workload, seconds: float, tally: Tally) -> None:
    """Run passes until *seconds* of pass time and :data:`MIN_PASSES`."""
    index = 0
    measured = 0.0
    while index < MIN_PASSES or measured < seconds:
        elapsed = tally.run(workload, index)
        # A failing pass still counts, so a broken workload ends too.
        measured += elapsed if elapsed is not None else seconds / MIN_PASSES
        index += 1


def end_to_end(name: str, workload, seconds: float, setup: tuple[float, float]) -> tuple[Tally, dict]:
    tally = Tally(gauged=True)
    measure(workload, seconds, tally)
    pass_s = Tally.pass_seconds(tally.normalised)
    raw_pass_s = Tally.pass_seconds(tally.passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": workload.ops / pass_s if pass_s else 0.0,
        "setup_s": setup[1],
        "peak_rss_mb": peak_kb / 1024,
    }
    print(
        f"{name}: {len(tally.passes)} passes of {workload.ops} "
        f"{workload.op}s; ops_per_s is {workload.alias}"
    )
    # The same figures in plain host seconds, to audit the gauge by.
    unnormalised = {
        "ops_per_s": workload.ops / raw_pass_s if raw_pass_s else 0.0,
        "setup_s": setup[0],
        "host_slowdown": raw_pass_s / pass_s if pass_s else 0.0,
    }
    print("unnormalised " + json.dumps(unnormalised))
    return tally, metrics


def traced(name: str, seed: int, workload, seconds: float) -> tuple[Tally, dict]:
    import tracing

    tally = Tally(gauged=False)
    measure(workload, seconds, tally)
    plain = Tally.pass_seconds(tally.passes)
    index = len(tally.passes)
    tracer = tracing.SpanTracer()
    spans_wall = tally.run(workload, index, wrap=tracer)
    rows = workload.rows
    tracer.write(SPANS_DIR / f"{name}-seed{seed}.spans.jsonl")
    profiler = tracing.Profiler()
    profile_wall = tally.run(workload, index + 1, wrap=profiler)
    metrics = {
        "trace.pass_s": plain,
        "trace.ops_per_pass": workload.ops,
        "trace.overhead.spans": (spans_wall or 0.0) / plain if plain else 0.0,
        "trace.overhead.profile": (profile_wall or 0.0) / plain if plain else 0.0,
    }
    metrics.update(tracer.metrics(spans_wall or 1.0))
    metrics.update(profiler.metrics(workload.ops))
    executed = metrics["sim.edges_executed"]
    edges = sum(metrics[f"sim.edges.{d}"] for d in tracing.EDGE_DOMAINS)
    metrics["sim.edges_collapsed_ratio"] = 1 - executed / edges if edges else 0.0
    metrics.update(tracing.row_metrics(rows))
    print(
        f"{name}: traced {workload.ops} {workload.op}s; untraced pass "
        f"{plain:.3f} s, overhead x{metrics['trace.overhead.spans']:.2f} "
        f"(spans), x{metrics['trace.overhead.profile']:.2f} (cProfile)"
    )
    return tally, metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workdir = workloads.make_workdir(WORK_ROOT)
    try:
        setup = (0.0, 0.0) if trace else setup_seconds(name, seed, workdir)
        workload = workloads.WORKLOADS[name](seed, workdir)
        workload.prepare()
        if trace:
            tally, metrics = traced(name, seed, workload, seconds)
        else:
            tally, metrics = end_to_end(name, workload, seconds, setup)
    finally:
        workloads.drop_workdir(workdir)
    for metric, value in metrics.items():
        print(f"  {metric:<28} {value:>14.6g} {unit_of(metric)}")
    ratio = tally.failed / tally.attempted
    print(f"  {'failed_ratio':<28} {ratio:>14.6g} ({tally.failed}/{tally.attempted})")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": value, "unit": unit_of(metric)}
            for metric, value in metrics.items()
        },
    }


def run_all(args, names) -> dict:
    """Every workload in its own interpreter; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument(
        "--seed", type=int, help="workload seed (default: workloads.DEFAULT_SEED)"
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.workload == "all":
        result = run_all(args, list(workloads.WORKLOADS))
    elif args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choices: all, "
            + ", ".join(workloads.WORKLOADS)
        )
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
