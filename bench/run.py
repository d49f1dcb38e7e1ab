#!/usr/bin/env python3
"""delcodes benchmark: one workload per process, one thread, closed loop.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads are sweep, certify and construct (see bench/README.md).  With
--trace 0 the run prints every end-to-end metric; with --trace 1 it runs the
loop once untraced and once traced and prints every per-layer metric, a
self-time report, and writes its spans to .bench_out/.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Exit status: 0 when every output was correct, 1 when a check
missed, 2 when the delcodes source tree is not there.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Cold set-ups per run, each in a fresh child process.  This process has
# already imported modules the package needs, so its own set-up is not cold.
SETUP_SAMPLES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# Every round runs this many times on the same inputs; an op's latency is
# its fastest run.  A host stall that slows one run rarely hits the other.
RUNS_PER_ROUND = 2


@dataclass
class Round:
    """Work and busy seconds of all runs of one round, and the busy seconds
    scaled to reference-host time (see host.py)."""

    work: int
    busy_s: float
    scaled_busy_s: float


def closed_loop(workload, seconds: float, tally, sampler: host.Sampler,
                tracer=None) -> list[Round]:
    """Run rounds until `seconds` have passed and a cycle is complete.

    Each run of a round is timed with the sampler's clock and scaled by the
    host's speed around and during it.  Afterwards tally.latencies holds
    one scaled latency per op: the fastest of its runs.
    """
    tally.clock = sampler.clock
    deadline = time.perf_counter() + seconds
    rounds: list[Round] = []
    while True:
        first, work, busy = len(tally.latencies), tally.work, tally.busy_s
        scaled_busy = 0.0
        runs = []
        for _ in range(RUNS_PER_ROUND):
            start, busy_before = len(tally.latencies), tally.busy_s
            _, scale = sampler.measure(workload.run_round, len(rounds),
                                       tally, tracer)
            scaled_busy += (tally.busy_s - busy_before) * scale
            runs.append([t * scale for t in tally.latencies[start:]])
        del tally.latencies[first:]
        tally.latencies.extend(map(min, *runs))
        rounds.append(Round(tally.work - work, tally.busy_s - busy,
                            scaled_busy))
        if (len(rounds) % workload.cycle == 0
                and time.perf_counter() >= deadline):
            return rounds


def scaled_rate(rounds: list[Round]) -> float:
    return (sum(r.work for r in rounds)
            / sum(r.scaled_busy_s for r in rounds))


def mean_scale(rounds: list[Round]) -> float:
    return (sum(r.scaled_busy_s for r in rounds)
            / sum(r.busy_s for r in rounds))


def probe_setup(workload) -> float:
    """Scaled import plus set-up seconds, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), workload.name,
         str(workload.seed)],
        capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1])


def nearest_rank(ordered, pct: float) -> float:
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(tally, rounds: list[Round], setup_samples,
               rss_kb: int) -> dict:
    lat = sorted(tally.latencies)
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "ops_per_s": _metric(scaled_rate(rounds), "1/s"),
        "op_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "op_p99_ms": _metric(nearest_rank(lat, 99) * 1e3, "ms"),
        "rss_peak_mb": _metric(rss_kb / 1024, "MB"),
    }


# Per-layer metrics of the traced loop, per op.  Each entry is a layer and
# the quantities reported for it.
LAYER_QUANTITIES = (
    ("seqkit.subseq", ("calls", "self_s")),
    ("seqkit.lcs", ("calls", "self_s")),
    ("seqkit.multi_lcs", ("calls", "self_s")),
    ("innercode.decode", ("calls", "self_s", "hit_ratio")),
    ("innercode.build", ("self_s", "accepted")),
    ("innercode.check", ("self_s",)),
    ("rsouter.decode", ("calls", "self_s", "fail_ratio")),
    ("rsouter.encode", ("self_s",)),
    ("rsouter.list_recover", ("self_s",)),
    ("gf", ("calls", "self_s")),
    *((f"{scheme}.{part}", quantities)
      for scheme in ("highnoise", "hirate", "listdec")
      for part, quantities in (("encode", ("self_s",)),
                               ("decode", ("calls", "self_s")),
                               ("split", ("self_s",)))),
    ("channel.attack", ("calls", "self_s")),
    ("channel.apply", ("self_s",)),
    ("channel.runner", ("self_s",)),
)


def per_layer(setup_stats, setup_scale: float, loop_stats, loop_scale: float,
              ops: int, overhead: float) -> dict:
    from tracer import Stat

    def stat(stats, layer):
        return stats.get(layer) or Stat()

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer, quantities in LAYER_QUANTITIES:
        st = stat(loop_stats, layer)
        values = {
            "calls": (st.calls / ops, "count/op"),
            "self_s": (st.self_s * loop_scale / ops, "s/op"),
            "hit_ratio": (ratio(st.extra.get("hits", 0), st.calls), "ratio"),
            "fail_ratio": (ratio(st.extra.get("failures", 0), st.calls),
                           "ratio"),
            "accepted": (st.extra.get("accepted", 0) / ops, "count/op"),
        }
        for q in quantities:
            out[f"{layer}.{q}"] = _metric(*values[q])
        if layer.endswith(".split"):
            scheme = layer.split(".")[0]
            decodes = stat(loop_stats, f"{scheme}.decode").calls
            out[f"{scheme}.units_per_decode"] = _metric(
                ratio(st.extra.get("units", 0), decodes), "count/call")
    for scheme in ("highnoise", "hirate", "listdec"):
        out[f"presets.make_spec.{scheme}_s"] = _metric(
            stat(setup_stats, f"presets.make_spec.{scheme}").total_s
            * setup_scale, "s")
    out["trace.overhead_frac"] = _metric(overhead, "ratio")
    return out


def timed_run(workload, seconds: float,
              setup_samples: int = SETUP_SAMPLES) -> dict:
    from workloads import Tally

    setup = [probe_setup(workload) for _ in range(setup_samples)]
    workload.setup()
    tally = Tally()
    workload.known_answer(tally)
    rounds = closed_loop(workload, seconds, tally, host.Sampler())
    # Read before the percentiles are worked out, which briefly holds every
    # latency as a Python float.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = end_to_end(tally, rounds, setup, rss_kb)
    notes = {
        "setup_s": f"median of {len(setup)} cold set-ups: "
                   + ", ".join(f"{s:.4f}" for s in setup),
        "ops_per_s": f"{workload.work_unit} per busy second; {tally.work} in "
                     f"{tally.busy_s:.3f} s over {len(rounds)} rounds, "
                     f"unscaled {tally.work / tally.busy_s:.6g}, "
                     f"mean host scale {mean_scale(rounds):.3f}",
        "op_p50_ms": f"n={len(tally.latencies)}",
        "op_p99_ms": f"n={len(tally.latencies)}",
        "rss_peak_mb": "peak resident set of this process",
    }
    for name, m in metrics.items():
        print(f"  {name:<12} = {m['value']:.6g} {m['unit']}  ({notes[name]})")
    return finish(tally, metrics)


def traced_run(workload, seconds: float, out_dir: Path = OUT) -> dict:
    from tracer import Tracer, self_time_report
    from workloads import Tally

    sampler = host.Sampler()
    tracer = Tracer(clock=sampler.clock)
    with tracer.installed():
        _, setup_scale = sampler.measure(tracer.run_op, "setup",
                                         workload.setup)
    setup_stats = tracer.take()
    tally = Tally()
    workload.known_answer(tally)
    plain = Tally()
    plain_rounds = closed_loop(workload, seconds, plain, sampler)
    traced = Tally()
    with tracer.installed():
        traced_rounds = closed_loop(workload, seconds, traced, sampler, tracer)
    loop_stats = tracer.take()
    silent = [layer for layer in workload.layers
              if layer not in setup_stats and layer not in loop_stats]
    if silent:
        raise RuntimeError(f"{workload.name}: traced run never called the "
                           f"layers {silent}")
    ops = RUNS_PER_ROUND * len(traced.latencies)
    overhead = 1 - scaled_rate(traced_rounds) / scaled_rate(plain_rounds)
    metrics = per_layer(setup_stats, setup_scale, loop_stats,
                        mean_scale(traced_rounds), ops, overhead)

    report = self_time_report(loop_stats, ops)
    print(f"  unscaled self time per op over {ops} traced ops "
          f"(tracing overhead {overhead:.1%}):")
    for line in report:
        print("    " + line)
    for name, m in metrics.items():
        print(f"  {name:<36} = {m['value']:.6g} {m['unit']}")
    path = out_dir / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(path, {"workload": workload.name, "seed": workload.seed,
                        "ops": ops, "self_time_report": report})
    print(f"  spans written to {path}")
    for t in (plain, traced):
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.digests.update(t.digests)
    return finish(tally, metrics)


def finish(tally, metrics) -> dict:
    for key, digest in sorted(tally.digests.items()):
        print(f"  digest {key} = {digest}")
    print(f"  failed_frac  = {tally.failed}/{tally.attempted}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delcodes" / "__init__.py").is_file():
        print(f"run.py: no delcodes source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; valid: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload {workload.name} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        result = traced_run(workload, args.seconds)
    else:
        result = timed_run(workload, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
