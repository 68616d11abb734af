#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay_swf_easy --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs the workload with tracing off and prints its
end-to-end metrics; ``--trace 1`` runs the same untimed checks and
timed passes, then one more pass with the layer wrappers installed,
and prints the per-layer metrics (spans are written to
``.perfbench_out/``).  The run pins itself to one CPU and rescales its
times to a reference host speed, measured by calibration work
interleaved with the workload's own (see ``NOTES.md``).  Every run
checks the program's outputs and exits 1 if a check fails; the
last line of standard output is the result as one JSON object.
``NOTES.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import harness
import tracer as tracing

WORKLOADS = ("replay_swf_easy", "replay_uncertain", "serve_http", "paper_grid")

END_TO_END = ("setup_s", "jobs_per_s", "op_p50_ms", "peak_rss_mb")

#: Every span name the layer map can record (``<name>.calls``/``.self_s``).
SPANS = (
    "workloads.swf.iter_swf",
    "workloads.uncertainty.draw",
    "workloads.uncertainty.is_no_show",
    *(f"core.profiles.{fn}" for fn in tracing.PROFILE_FNS),
    "core.metrics.quantile",
    "core.bounds.lower_bound",
    "simulation.replay.ReplayEngine.run",
    *(f"simulation.scheduler_core.{fn}" for fn in tracing.SCHEDULER_CORE_FNS),
    "simulation.online_sim.simulate",
    "algorithms.lsrc.schedule",
    "algorithms.lsrc-lpt.schedule",
    "algorithms.backfill-cons.schedule",
    "run.Runner.execute_point",
    "run.store.JsonlStore.append",
    "durability.journal.Journal.append",
    "durability.journal.Journal.snapshot",
    "serve.api.parse_request",
    "serve.daemon.SchedulerService.handle",
    "serve.daemon.SchedulerService.snapshot",
)

#: Per-layer values beyond calls/self time, with their units.
EXTRA_LAYER = (
    ("core.profiles.fits.ok_ratio", "ratio"),
    ("core.profiles.try_reserve.ok_ratio", "ratio"),
    ("run.store.JsonlStore.append.bytes", "B"),
    ("durability.journal.Journal.append.bytes", "B"),
    ("durability.journal.Journal.snapshot.bytes", "B"),
    ("serve.daemon.SchedulerService.handle.p50_ms", "ms"),
    ("serve.daemon.SchedulerService.handle.p99_ms", "ms"),
    ("serve.transport_s", "s"),
    ("serve.ops_per_s", "1/s"),
    ("serve.op_p99_ms", "ms"),
    ("simulation.requeues", "count"),
    ("simulation.attempt_ok_ratio", "ratio"),
    ("simulation.peak_segments", "count"),
    ("simulation.peak_queue", "count"),
    ("tracing_overhead_frac", "ratio"),
)


def per_layer_names():
    names = []
    for span in SPANS:
        names += [f"{span}.calls", f"{span}.self_s"]
    return names + [name for name, _ in EXTRA_LAYER]


def fill_per_layer(report, aggs) -> None:
    """Turn merged span aggregates plus ``report.layer`` values into the
    per-layer metrics (0 where the workload never reaches a layer)."""
    empty = {"calls": 0, "self_s": 0.0, "ok": 0, "bytes": 0}
    for span in SPANS:
        a = aggs.get(span, empty)
        report.metric(f"{span}.calls", a["calls"], "count")
        report.metric(f"{span}.self_s", a["self_s"], "s")
    for fn in ("fits", "try_reserve"):
        a = aggs.get(f"core.profiles.{fn}", empty)
        report.metric(f"core.profiles.{fn}.ok_ratio",
                      a["ok"] / a["calls"] if a["calls"] else 0.0, "ratio")
    for span in ("run.store.JsonlStore.append",
                 "durability.journal.Journal.append",
                 "durability.journal.Journal.snapshot"):
        report.metric(f"{span}.bytes", aggs.get(span, empty)["bytes"], "B")
    for name, unit in EXTRA_LAYER:
        if name not in report.metrics:
            report.metric(name, report.layer.get(name, 0), unit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        harness.bootstrap()
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import w_grid
    import w_replay
    import w_serve

    runners = {
        "replay_swf_easy": w_replay.run_swf_easy,
        "replay_uncertain": w_replay.run_uncertain,
        "serve_http": w_serve.run_serve_http,
        "paper_grid": w_grid.run_grid,
    }
    nproc = harness.allowed_cpus()
    cpu = harness.pin_to_one_cpu()
    report = harness.Report(args.workload, args.seed, bool(args.trace))
    tracer = tracing.Tracer() if args.trace else None
    try:
        runners[args.workload](report, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(harness.work_path(args.workload), ignore_errors=True)
    report.header.update(nproc=nproc, pinned_cpu=cpu)
    if not args.trace:
        return report.emit(END_TO_END)
    aggs = tracer.dump_aggs()
    for name, agg in report.daemon_aggs.items():
        mine = aggs.setdefault(name, {"calls": 0, "self_s": 0.0, "ok": 0,
                                      "bytes": 0})
        for key in ("calls", "self_s", "ok", "bytes"):
            mine[key] += agg[key]
    fill_per_layer(report, aggs)
    spans_path = os.path.join(harness.OUT_DIR,
                              f"{args.workload}-seed{args.seed}-spans.jsonl")
    tracer.write_spans(spans_path, {"workload": args.workload,
                                    "seed": args.seed})
    report.notes["spans_file"] = os.path.relpath(spans_path, harness.ROOT)
    return report.emit(per_layer_names())


if __name__ == "__main__":
    sys.exit(main())
