"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload seq-er100 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced, with every timing
in reference time (see :mod:`perfbench.hostspeed`).  ``--trace 1``
runs the workload once with the outside-in span wrappers of
:mod:`perfbench.tracer`, replays the same operations untraced to measure the
tracing overhead, reports the per-layer metrics, and writes the spans to
``.bench_out/``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro" / "__init__.py"
SPEC = ROOT / "BENCHMARK.json"

#: The tail percentile reported: the highest one that keeps at least ten
#: latency samples beyond it on every workload at the configured run length
#: (seq-er100 answers about five triggers a second).
TAIL = 90


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for the run:
    the per-layer ones when traced, else the end-to-end ones."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def samples_beyond(values: list[float], threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


def run_untraced(workload, seconds: float | None, count: int | None = None):
    """Set up ``setup_repeats`` times (the last runtime is kept), then run
    the timed phase.  Returns (set-up reference seconds, session, phase,
    problems)."""
    from perfbench import hostspeed
    from perfbench.tracer import NullTracer

    tracer = NullTracer()
    setups: list[float] = []
    problems: list[list[str]] = []
    repeats = workload.setup_repeats if count is None else 1
    for repeat in range(repeats):
        gc.collect()
        before = hostspeed.probe()
        start = perf_counter()
        session = workload.setup(tracer)
        took = perf_counter() - start
        setups.append(took * hostspeed.scale(before, hostspeed.probe()))
        if repeat < repeats - 1:
            problems += workload.check(session)
            del session
    phase = workload.timed(session, tracer, seconds=seconds, count=count)
    problems += workload.check(session)
    return setups, session, phase, problems


def reference_latencies(phase) -> list[float]:
    return [ms * w.scale for w in phase.windows for ms in w.latencies]


def reference_wall(phase) -> float:
    """The phase's host wall time in reference seconds, at the median
    scale of its windows."""
    return phase.wall * statistics.median(w.scale for w in phase.windows)


def end_to_end_metrics(setups, phase) -> dict[str, float]:
    """Every timing in reference time (see :mod:`perfbench.hostspeed`)."""
    latencies = reference_latencies(phase)
    return {
        "setup_s": statistics.median(setups),
        "triggers_per_s": len(latencies) / sum(w.reference_s for w in phase.windows),
        "trigger_ms_p50": statistics.median(latencies),
        f"trigger_ms_p{TAIL}": percentile(latencies, TAIL),
        "peak_rss_mb": phase.peak_rss_mb,
        "in_band_msgs_per_trigger": phase.in_band_per_trigger,
    }


def run_traced(workload, seconds: float, out_dir: Path, label: str):
    """The traced run: per-layer metrics from spans, then an untraced
    replay of exactly the same operations for the tracing overhead.  Both
    phases probe the host speed, so the overhead compares reference times;
    the layer times are host times."""
    from perfbench.tracer import Tracer

    tracer = Tracer()
    gc.collect()
    tracer.start()
    try:
        start = perf_counter()
        session = workload.setup(tracer)
        setup_traced = perf_counter() - start
        live_objects = len(gc.get_objects())
        counts_setup = dict(tracer.counts)
        mark = tracer.mark()
        phase = workload.timed(session, tracer, seconds=seconds)
    finally:
        tracer.stop()
    problems = workload.check(session)
    del session
    gc.collect()
    replay_setups, replay_session, replay, replay_problems = run_untraced(
        workload, None, count=phase.count
    )
    del replay_session
    problems += replay_problems
    tracer.write(out_dir / f"spans-{label}.tsv")

    own, total = tracer.times(mark)
    _own_all, total_all = tracer.times(0)
    counts = {k: tracer.counts[k] - counts_setup[k] for k in tracer.counts}
    counts["simulator.pending_peak"] = tracer.counts["simulator.pending_peak"]
    packets = counts["switch.packets"]
    events = counts["simulator.events"]
    traced_s, untraced_s = reference_wall(phase), reference_wall(replay)
    overhead_s = traced_s - untraced_s
    attributed = sum(own.values())
    metrics = {
        "compiler.busy_s": total_all["compiler"],
        "compiler.calls": tracer.counts["compiler.calls"],
        "compiler.rules": tracer.counts["compiler.rules"],
        "compiler.groups": tracer.counts["compiler.groups"],
        "fastpath.compile_s": total_all["fastpath"],
        "switch.busy_s": total["switch"],
        "switch.packets": packets,
        "switch.us_per_packet": total["switch"] / packets * 1e6 if packets else 0.0,
        "switch.drops": counts["switch.drops"],
        "packet.fields_per_packet": counts["packet.fields"] / packets if packets else 0.0,
        "simulator.self_s": own["simulator"],
        "simulator.events": events,
        "simulator.us_per_event": own["simulator"] / events * 1e6 if events else 0.0,
        "simulator.pending_peak": counts["simulator.pending_peak"],
        "trace.record_s": total["trace"],
        "trace.events": counts["trace.events"],
        "engine.self_s": own["engine"],
        "sink.self_s": own["sink"],
        "supervisor.attempts": phase.layer_counts.get("supervisor.attempts", 0),
        "supervisor.retries": phase.layer_counts.get("supervisor.retries", 0),
        "supervisor.degraded": phase.layer_counts.get("supervisor.degraded", 0),
        "supervisor.self_s": own["supervisor"],
        "readopt.busy_s": total["readopt"],
        "readopt.self_s": own["readopt"],
        "readopt.rounds": phase.layer_counts.get("readopt.rounds", 0),
        "readopt.reprogrammed": phase.layer_counts.get("readopt.reprogrammed", 0),
        "channel.packet_outs_lost": phase.layer_counts.get("channel.packet_outs_lost", 0),
        "bench.self_s": own["bench"],
        "gc.pause_s": tracer.gc_pause_ns / 1e9,
        "gc.gen2_collections": tracer.counts["gc.gen2_collections"],
        "heap.live_objects": live_objects,
        "tracing.timed_s": traced_s,
        "tracing.untraced_s": untraced_s,
        "tracing.overhead_s": overhead_s,
        "tracing.unattributed_s": phase.wall - attributed,
        "tracing.spans": len(tracer.names),
    }
    notes = [
        f"traced set-up {setup_traced:.3f} s; untraced replay set-up "
        f"{replay_setups[0]:.3f} s",
        f"timed phase: traced {phase.wall:.3f} host s = {traced_s:.3f} reference s, "
        f"untraced replay of the same {phase.count} operations "
        f"{replay.wall:.3f} host s = {untraced_s:.3f} reference s",
        f"per-layer self times sum to {attributed:.3f} s of the traced "
        f"{phase.wall:.3f} s; unattributed {phase.wall - attributed:.3f} s "
        f"vs tracing overhead {overhead_s:.3f} reference s",
    ]
    return metrics, problems, notes


def run_end_to_end(workload, seconds: float):
    """The untraced run: end-to-end metrics plus human-readable notes."""
    setups, _session, phase, problems = run_untraced(workload, seconds)
    setups += phase.setups
    values = end_to_end_metrics(setups, phase)
    latencies = reference_latencies(phase)
    tail = values[f"trigger_ms_p{TAIL}"]
    beyond = samples_beyond(latencies, tail)
    scales = [w.scale for w in phase.windows]
    notes = [
        f"{workload.loop} loop; reference set-up runs: "
        f"{', '.join(f'{s:.3f}' for s in setups)} s",
        f"timed phase {phase.elapsed:.3f} host s, {phase.triggers} answered "
        f"triggers ({phase.triggers / phase.elapsed:.3f} per host s), "
        f"{len(latencies)} latency samples, {beyond} beyond p{TAIL}",
        f"reference s per host s over {len(scales)} windows: median "
        f"{statistics.median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f}",
    ]
    if beyond < 10:
        highest = max(
            (p for p in range(1, 100)
             if samples_beyond(latencies, percentile(latencies, p)) >= 10),
            default=None,
        )
        notes.append(f"highest percentile with >=10 samples beyond it: p{highest}")
    if phase.repairs:
        notes.append(
            f"repair_ms_p50 {statistics.median(phase.repairs):.3f} host ms over "
            f"{len(phase.repairs)} readopt calls"
        )
    return values, problems, notes


def measure(workload, seconds: float, trace: bool, label: str) -> dict:
    """Run *workload* once and return the result object the last line
    prints; the human-readable lines go to standard output first."""
    if trace:
        values, problems, notes = run_traced(
            workload, seconds, ROOT / ".bench_out", label
        )
    else:
        values, problems, notes = run_end_to_end(workload, seconds)
    units = metric_units(trace)
    attempted = len(problems)
    failed = sum(1 for found in problems if found)
    for line in notes:
        print(f"# {label}: {line}")
    for found in problems:
        for problem in found:
            print(f"# FAIL {label}: {problem}")
    print(f"# {label}: failed_frac {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted} operations)")
    for name, value in values.items():
        print(f"# {label}: {name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for required in (SOURCE, SPEC):
        if not required.is_file():
            print(f"error: {required.relative_to(ROOT)} not found; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    label = f"{args.workload}-s{args.seed}"
    result = measure(workload, args.seconds, bool(args.trace), label)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
