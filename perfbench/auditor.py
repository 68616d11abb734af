"""Independent schedule auditor: one O(n log n) sweep, no program code.

It reads a finished schedule as plain tuples — jobs as
``(release, start, end, q)`` and reservation holes as
``(start, end, q)`` — and checks the model's constraints from scratch:

* no job starts before its release;
* at every instant, the processors used by running jobs plus those
  held by reservations never exceed ``m``;
* every job that arrived and was not cancelled completed.

It shares nothing with the engine (no profile backend, no
``Schedule.verify()``, which is quadratic): the sweep sorts the
start/end events once and keeps a running sum, releasing capacity
before acquiring it at equal times (intervals are half-open).

:func:`window_rows` recomputes the replay engine's per-window waiting
figures from the same tuples, so window rows can be checked against an
oracle that never ran the engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


class AuditError(AssertionError):
    """The schedule violates a model constraint."""


def audit(m: int, jobs: Sequence[Tuple], holes: Iterable[Tuple] = (),
          arrived: int = None, cancelled: int = 0) -> Dict:
    """Check one schedule; returns summary counts or raises AuditError.

    ``jobs`` are the completed jobs ``(release, start, end, q)``;
    ``arrived`` (default ``len(jobs)``) and ``cancelled`` give the
    accounting the completions must balance."""
    events: List[Tuple] = []
    for release, start, end, q in jobs:
        if start < release:
            raise AuditError(f"job starts at {start} before its release {release}")
        if end <= start or q < 1 or q > m:
            raise AuditError(f"malformed job interval {(release, start, end, q)}")
        events.append((start, 1, q))
        events.append((end, 0, q))
    n_holes = 0
    for start, end, q in holes:
        if end <= start or q < 1 or q > m:
            raise AuditError(f"malformed reservation {(start, end, q)}")
        events.append((start, 1, q))
        events.append((end, 0, q))
        n_holes += 1
    events.sort()
    used = 0
    peak = 0
    for t, acquire, q in events:
        if acquire:
            used += q
            if used > m:
                raise AuditError(
                    f"capacity exceeded at t={t}: {used} of {m} processors "
                    "in use (jobs plus reservations)")
            if used > peak:
                peak = used
        else:
            used -= q
    if used != 0:
        raise AuditError(f"sweep ended with {used} processors still held")
    if arrived is None:
        arrived = len(jobs)
    if len(jobs) != arrived - cancelled:
        raise AuditError(
            f"{len(jobs)} jobs completed but {arrived} arrived and "
            f"{cancelled} were cancelled")
    return {"jobs": len(jobs), "holes": n_holes, "peak_used": peak}


def window_rows(jobs: Sequence[Tuple], window: int) -> List[Dict]:
    """Per-window ``jobs``/``t_start``/``t_end``/``max_wait``/``mean_wait``
    of jobs given in arrival order as ``(release, start, end, q)``."""
    rows = []
    for lo in range(0, len(jobs), window):
        chunk = jobs[lo:lo + window]
        waits = [start - release for release, start, _, _ in chunk]
        rows.append({
            "jobs": len(chunk),
            "t_start": min(release for release, _, _, _ in chunk),
            "t_end": max(end for _, _, end, _ in chunk),
            "max_wait": max(waits),
            "mean_wait": float(sum(waits)) / len(chunk),
        })
    return rows
