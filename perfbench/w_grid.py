"""Workload ``paper_grid``: offline LSRC on α-RESASCHEDULING instances.

The design of ``examples/paper_grid.json`` — ``lsrc``, ``lsrc-lpt``,
``backfill-cons`` and ``online:greedy`` on ``alpha-uniform`` with
α ∈ {0.25, 0.5, 0.75} and the list profile backend — scaled up in ``n``
and seeds, run in-process through ``repro.run.Runner`` with one worker.
One timed pass is one ``Runner.run`` of the whole grid (rows streamed to
a JSONL store); an op is one grid point.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction
from typing import Dict, List

import auditor
import harness

ALGORITHMS = ["lsrc", "lsrc-lpt", "backfill-cons", "online:greedy"]
ALPHAS = [0.25, 0.5, 0.75]
N_JOBS = 80
M = 64
SEEDS_PER_RUN = 16
#: Relative tolerance on float lower bounds: the instances' float
#: reservation times make the bound's sums depend on evaluation order.
FLOAT_TOL = 1e-9


def design(seed: int, n: int = N_JOBS, seeds: int = SEEDS_PER_RUN) -> Dict:
    """The scaled paper grid, its instance seeds derived from ``seed``."""
    return {
        "format": "repro-spec/1",
        "name": "paper-grid-bench",
        "algorithms": list(ALGORITHMS),
        "workloads": [{
            "name": "alpha-uniform",
            "params": {"n": n, "m": M, "reservations": 6, "horizon": 150.0},
            "grid": {"alpha": list(ALPHAS)},
        }],
        "seeds": [seed * 1000 + k for k in range(seeds)],
        "metrics": ["makespan", "lower_bound", "ratio_lb"],
        "profile_backends": ["list"],
    }


def run_grid(report, seed: int, seconds: float, tracer) -> None:
    harness.bootstrap()
    from repro.run import Runner
    from repro.run.spec import ExperimentSpec

    wd = harness.work_dir("paper_grid")
    store = os.path.join(wd, "rows.jsonl")
    holder = {}
    speed = report.speed

    def setup() -> None:
        holder["spec"] = ExperimentSpec.from_dict(design(seed))
        holder["spec"].validate()
        Runner(jobs=1).run(ExperimentSpec.from_dict(design(seed, n=10, seeds=1)))

    report.metric("setup_s", harness.median_setup(["repro.run"], setup, speed),
                  "s")
    spec = holder["spec"]
    n_points = len(ALGORITHMS) * len(ALPHAS) * SEEDS_PER_RUN
    jobs_per_pass = n_points * N_JOBS

    def one_pass():
        """One ``Runner.run`` of the grid, a calibration chunk after each
        point; returns the rows and each point's wall seconds with the
        index of the chunk run right before it."""
        points = []
        last = [time.perf_counter()]

        def progress(done, total, row):
            points.append((time.perf_counter() - last[0],
                           len(speed.samples) - 1))
            speed.tick()
            last[0] = time.perf_counter()

        result = Runner(jobs=1, store=store, progress=progress).run(
            spec, resume=False)
        return result.rows, points

    passes = harness.timed_passes(one_pass, seconds, speed)
    # a point is rescaled by the two chunks around it: the host's state
    # can change within a pass
    point_ms = [t * harness.REFERENCE_CHUNK_S * 2e3
                / (speed.samples[k] + speed.samples[k + 1])
                for p in passes for t, k in p.result[1]]
    report.metric("jobs_per_s", jobs_per_pass / statistics.median(
        p.ref_s for p in passes), "1/s")
    report.metric("op_p50_ms", statistics.median(point_ms), "ms")
    report.metric("peak_rss_mb", harness.peak_rss_mb(), "MB")
    report.note_passes(passes, jobs_per_pass)
    report.notes["points_per_pass"] = n_points
    report.notes["op_samples"] = len(point_ms)
    report.ops(n_points * len(passes))
    rows = [p.result[0] for p in passes]
    report.check("every timed pass produced the same rows",
                 all(r == rows[0] for r in rows), f"{len(rows)} passes")
    report.check("one row per grid point", len(rows[0]) == n_points,
                 f"{len(rows[0])} rows")
    if tracer is not None:
        from tracer import install_layers

        install_layers(tracer)
        try:
            traced = harness.timed_pass(one_pass, speed, interleave=False)
        finally:
            tracer.uninstall()
        report.metric("tracing_overhead_frac", traced.ref_s / statistics.median(
            p.ref_s for p in passes) - 1.0, "ratio")
        report.check("traced pass produced the same rows",
                     traced.result[0] == rows[0])
    check_points(report, spec, rows[0])
    report.header = harness.run_header(seed, "list")


def check_points(report, spec, rows: List[Dict]) -> None:
    """Rebuild every point's schedule untimed; each must pass ``verify()``,
    the stream audit, match its row, and respect the lower bound."""
    from repro.algorithms.base import get_scheduler
    from repro.core.bounds import lower_bound
    from repro.core.profiles import get_default_backend_name, set_default_backend
    from repro.errors import InfeasibleScheduleError
    from repro.run.runner import expand_points
    from repro.run.spec import ONLINE_PREFIX, decode_value
    from repro.simulation.online_sim import simulate
    from repro.workloads.registry import make_workload

    by_key = {row["key"]: row for row in rows}
    bad: List[str] = []
    previous = get_default_backend_name()
    for point in expand_points(spec):
        instance = make_workload(point.workload, seed=point.derived_seed,
                                 **point.params)
        set_default_backend(point.profile_backend)
        try:
            if point.algorithm.startswith(ONLINE_PREFIX):
                schedule = simulate(
                    instance, point.algorithm[len(ONLINE_PREFIX):],
                    profile_backend=point.profile_backend).schedule
            else:
                schedule = get_scheduler(point.algorithm).schedule(instance)
            lb = lower_bound(instance)
        finally:
            set_default_backend(previous)
        row = by_key.get(point.key, {})
        try:
            schedule.verify()
            jobs = [(j.release, schedule.starts[j.id],
                     schedule.starts[j.id] + j.p, j.q) for j in instance.jobs]
            holes = [(r.start, r.start + r.p, r.q)
                     for r in instance.reservations]
            auditor.audit(instance.m, jobs, holes)
        except (InfeasibleScheduleError, auditor.AuditError) as exc:
            bad.append(f"{point.key}: {exc}")
            continue
        makespan = schedule.makespan
        row_lb = decode_value(row.get("lower_bound"))
        if decode_value(row.get("makespan")) != makespan:
            bad.append(f"{point.key}: row makespan differs from the rebuilt schedule")
        elif not isinstance(row_lb, (int, float, Fraction)) \
                or abs(row_lb - lb) > FLOAT_TOL * abs(lb):
            bad.append(f"{point.key}: row lower bound {row_lb} is not {lb}")
        elif makespan < lb * (1 - FLOAT_TOL):
            bad.append(f"{point.key}: makespan {makespan} below lower bound {lb}")
    report.check("every point verifies, audits and respects makespan >= LB",
                 not bad, bad[0] if bad else f"{len(rows)} points")
