"""Workloads ``replay_swf_easy`` and ``replay_uncertain``: trace replay.

Both generate a ``synth:steady`` arrival stream on ``m = 128`` from the
workload seed and replay it with the EASY policy, one full replay per
timed pass, repeated for the run's seconds; figures are medians over
passes.  Replay is driven only through defaults: ``replay_swf(path,
"easy", m=128, store=...)`` and ``ReplayEngine(m, policy,
uncertainty=...)``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, List, Sequence, Tuple

import auditor
import harness

M = 128
POLICY = "easy"
#: Jobs per timed pass.
SWF_JOBS = 120_000
UNCERTAIN_JOBS = 48_000
UNCERTAINTY = "lognormal:sigma=0.5"
#: Modules a fresh process imports during set-up.
IMPORTS = ("repro.simulation", "repro.workloads.swf")
#: Jobs replayed once during set-up, to warm caches and lazy imports.
WARMUP_JOBS = 2_000
#: Arrivals the uncertain replay pulls between two calibration chunks,
#: and jobs generated between two during set-up.
CHUNK_EVERY_JOBS = 500
SETUP_CHUNK_EVERY_JOBS = 5_000
#: Calibration chunks after each window row the SWF replay stores (a
#: row per 10,000 jobs): a single chunk can catch a preemption, so a
#: pass needs many for a steady mean.
CHUNKS_PER_ROW = 8
#: Distributional keys every window row must carry under uncertainty.
DIST_KEYS = ("p_slowdown_le", "wait_p50", "wait_p95", "wait_p99",
             "bsld_p50", "bsld_p95", "bsld_p99", "requeues")

#: Totals fields checked against the public core's counters.
TOTALS_FROM_CORE = (
    ("n_jobs", "arrived"), ("makespan", "last_completion"),
    ("total_work", "total_work"), ("max_wait", "max_wait"),
    ("events", "events"), ("peak_queue_length", "peak_queue"),
    ("peak_running", "peak_running"),
    ("peak_profile_segments", "peak_segments"),
    ("windows", "windows_emitted"),
)


def canonical(rows: Sequence[Dict]) -> List[Dict]:
    """Rows as JSON would store them, minus the wall-clock field."""
    out = []
    for row in rows:
        row = json.loads(json.dumps(row, sort_keys=True))
        row.pop("elapsed_seconds", None)
        out.append(row)
    return out


def read_jsonl(path: str) -> List[Dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def parse_swf(path: str) -> List[Tuple[int, int, int, int]]:
    """``(id, release, p, q)`` per data line — a reader of its own, so
    the checks never run the program's SWF ingest.  Releases count from
    the first submit time, as replay defines them."""
    jobs = []
    base = None
    with open(path) as fh:
        for line in fh:
            if not line.strip() or line.startswith(";"):
                continue
            f = line.split()
            if base is None:
                base = int(f[1])
            jobs.append((int(f[0]), int(f[1]) - base, int(f[3]), int(f[4])))
    return jobs


def drive_core(jobs, uncertainty=None):
    """Untimed reference: the same arrivals through the public
    ``SchedulerCore`` submit / advance_to / drain API."""
    from repro.simulation import SchedulerCore

    core = SchedulerCore(M, POLICY, record_starts=True, uncertainty=uncertainty)
    i, n = 0, len(jobs)
    while i < n:
        t = jobs[i].release
        while i < n and jobs[i].release == t:
            core.submit(jobs[i])
            i += 1
        if i < n:
            core.advance_to(t)
    core.drain()
    return core


def check_totals(report, totals: Dict, core) -> None:
    kw = core.totals_kwargs()
    bad = [k for k, c in TOTALS_FROM_CORE if totals.get(k) != kw[c]]
    n = kw["arrived"]
    if totals.get("mean_wait") != (float(kw["sum_wait"]) / n if n else 0.0):
        bad.append("mean_wait")
    report.check("totals row matches the public core's counters", not bad,
                 f"differing: {bad}" if bad else f"{len(TOTALS_FROM_CORE) + 1} fields")


def timed_phase(report, one_pass, seconds: float, jobs_per_pass: int):
    """Run the passes; record end-to-end metrics; return the passes."""
    passes = harness.timed_passes(one_pass, seconds, report.speed)
    ref = statistics.median(p.ref_s for p in passes)
    report.metric("jobs_per_s", jobs_per_pass / ref, "1/s")
    report.metric("op_p50_ms", ref * 1e3, "ms")
    report.metric("peak_rss_mb", harness.peak_rss_mb(), "MB")
    report.note_passes(passes, jobs_per_pass)
    return passes


def traced_pass(report, tracer, one_pass, passes):
    """One more pass with the layer wrappers installed; its time over
    the untraced passes' median is the tracing overhead."""
    from tracer import install_layers

    install_layers(tracer)
    try:
        traced = harness.timed_pass(one_pass, report.speed,
                                    interleave=False)
    finally:
        tracer.uninstall()
    report.metric("tracing_overhead_frac", traced.ref_s / statistics.median(
        p.ref_s for p in passes) - 1.0, "ratio")
    return traced.result


def paced(jobs, speed, every: int = CHUNK_EVERY_JOBS):
    """``jobs`` as a stream, with a calibration chunk every ``every``
    jobs its consumer pulls."""
    for i, job in enumerate(jobs):
        if i % every == 0:
            speed.tick()
        yield job


# ---------------------------------------------------------------------------
def run_swf_easy(report, seed: int, seconds: float, tracer) -> None:
    harness.bootstrap()
    from repro.run.store import JsonlStore
    from repro.simulation import replay_swf
    from repro.workloads.swf import save_swf_trace, synth_swf_jobs

    wd = harness.work_dir("replay_swf_easy")
    trace_path = os.path.join(wd, "trace.swf")

    def setup() -> None:
        jobs = synth_swf_jobs("steady", SWF_JOBS, m=M, seed=seed)
        save_swf_trace(trace_path, paced(jobs, report.speed,
                                         SETUP_CHUNK_EVERY_JOBS), M)
        replay_swf(trace_path, POLICY, m=M, max_jobs=WARMUP_JOBS)

    report.metric("setup_s", harness.median_setup(
        IMPORTS, setup, report.speed), "s")
    counter = iter(range(10**9))

    class PacedStore(JsonlStore):
        """The default store, with calibration chunks after each row."""

        def append(self, row):
            super().append(row)
            report.speed.tick(CHUNKS_PER_ROW)

    def one_pass():
        store = os.path.join(wd, f"rows-{next(counter)}.jsonl")
        result = replay_swf(trace_path, POLICY, m=M, store=PacedStore(store))
        return store, result.totals["n_jobs"]

    passes = timed_phase(report, one_pass, seconds, SWF_JOBS)
    report.ops(sum(p.result[1] for p in passes))
    rows = [canonical(read_jsonl(p.result[0])) for p in passes]
    report.check("every timed pass wrote the same rows",
                 all(r == rows[0] for r in rows), f"{len(rows)} passes")
    if tracer is not None:
        store, _ = traced_pass(report, tracer, one_pass, passes)
        report.check("traced pass wrote the same rows",
                     canonical(read_jsonl(store)) == rows[0])

    # oracles: our own SWF reader, the public core, the stream auditor
    from repro.core.job import Job

    swf = parse_swf(trace_path)
    report.check("trace holds the generated jobs", len(swf) == SWF_JOBS,
                 f"{len(swf)} jobs")
    core = drive_core([Job(id=i, p=p, q=q, release=r) for i, r, p, q in swf])
    windows, totals = rows[0][:-1], rows[0][-1]
    report.check("window rows equal the public SchedulerCore drive",
                 windows == canonical(core.emitted),
                 f"{len(windows)} windows")
    check_totals(report, totals, core)
    starts = core.starts
    sched = [(r, starts[i], starts[i] + p, q) for i, r, p, q in swf]
    try:
        audit = auditor.audit(M, sched, arrived=SWF_JOBS)
        report.check("stream audit (release, capacity, completions)", True,
                     f"peak {audit['peak_used']}/{M} processors")
    except auditor.AuditError as exc:
        report.check("stream audit (release, capacity, completions)", False,
                     str(exc))
    expect = auditor.window_rows(sched, core.window)
    got = [{k: w[k] for k in expect[0]} for w in windows]
    report.check("window waits equal the auditor's recomputation",
                 got == expect)
    report.header = harness.run_header(seed, _backend(totals))
    report.layer.update(_sim_counts(totals))


def run_uncertain(report, seed: int, seconds: float, tracer) -> None:
    harness.bootstrap()
    from repro.simulation import ReplayEngine
    from repro.workloads.swf import synth_swf_jobs

    spec = f"{UNCERTAINTY}:seed={seed}"
    holder: Dict = {}

    def setup() -> None:
        jobs = synth_swf_jobs("steady", UNCERTAIN_JOBS, m=M, seed=seed)
        holder["jobs"] = list(paced(jobs, report.speed,
                                    SETUP_CHUNK_EVERY_JOBS))
        ReplayEngine(M, POLICY, uncertainty=spec).run(
            iter(holder["jobs"][:WARMUP_JOBS]))

    report.metric("setup_s", harness.median_setup(
        IMPORTS, setup, report.speed), "s")
    jobs = holder["jobs"]

    def one_pass():
        result = ReplayEngine(M, POLICY, uncertainty=spec).run(
            paced(jobs, report.speed))
        return canonical(result.windows + [{"key": "totals", **result.totals}])

    passes = timed_phase(report, one_pass, seconds, UNCERTAIN_JOBS)
    report.ops(UNCERTAIN_JOBS * len(passes))
    rows = [p.result for p in passes]
    report.check("every timed pass produced the same rows",
                 all(r == rows[0] for r in rows), f"{len(rows)} passes")
    if tracer is not None:
        traced = traced_pass(report, tracer, one_pass, passes)
        report.check("traced pass produced the same rows", traced == rows[0])

    windows, totals = rows[0][:-1], rows[0][-1]
    core = drive_core(jobs, uncertainty=spec)
    report.check("rows equal an untimed rerun through the public core",
                 windows == canonical(core.emitted), f"{len(windows)} windows")
    check_totals(report, totals, core)
    status = core.status()
    report.check("completions balance arrivals",
                 status["completed"] == status["arrived"] == UNCERTAIN_JOBS
                 and len(core.starts) == UNCERTAIN_JOBS
                 and sum(w["jobs"] for w in windows) == UNCERTAIN_JOBS,
                 f"{status['completed']} of {status['arrived']}")
    missing = sorted({k for w in windows for k in DIST_KEYS if k not in w}
                     | {k for k in ("p_slowdown_le", "requeues") if k not in totals})
    report.check("distributional keys present", not missing,
                 f"missing {missing}" if missing else "")
    report.check("the uncertainty model is live (requeues happen)",
                 totals.get("requeues", 0) > 0, f"{totals.get('requeues')} requeues")
    report.header = harness.run_header(seed, _backend(totals))
    report.layer.update(_sim_counts(totals))


def _sim_counts(totals: Dict) -> Dict:
    """The per-layer counts the program reports in its totals row."""
    n = totals.get("n_jobs", 0)
    requeues = totals.get("requeues", 0)
    return {
        "simulation.requeues": requeues,
        "simulation.attempt_ok_ratio": n / (n + requeues) if n else 0.0,
        "simulation.peak_segments": totals.get("peak_profile_segments", 0),
        "simulation.peak_queue": totals.get("peak_queue_length", 0),
    }


def _backend(totals: Dict) -> str:
    """The profile backend replay's ``auto`` setting ran on: the int64
    array kernel, unless the totals row records a demotion."""
    return "list" if "demoted_to_list_at" in totals else "array"
