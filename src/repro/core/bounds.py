"""Lower bounds on the optimal makespan ``C*max``.

Exact optima are NP-hard (the paper recalls strong NP-hardness for
``m >= 5`` and the 3-PARTITION reduction for reservations), so experiments
compare algorithm makespans against *certified lower bounds*:

* :func:`work_bound` — the classical area argument ``W / m``
  (``W(I) <= m C*max`` in the appendix proof of Theorem 2);
* :func:`area_bound` — the reservation-aware refinement: the earliest time
  ``T`` at which the availability profile has offered ``W`` units of area;
* :func:`pmax_bound` — no job finishes before its own earliest possible
  completion given the reservations (``C*max >= pmax`` in the appendix);
* :func:`squashed_area_bound` — area refinement restricted to processors
  that wide jobs can actually use;
* :func:`lower_bound` — the max of all of the above.

Every function returns a value that is provably ``<= C*max``; the test
suite cross-checks them against the exact solver on small instances.
"""

from __future__ import annotations


from .instance import as_reservation_instance


def work_bound(instance) -> object:
    """``W / m``: total job work spread over the whole machine.

    Valid even with reservations (they only reduce capacity), but then
    :func:`area_bound` dominates it.
    """
    inst = as_reservation_instance(instance)
    if not inst.jobs:
        return 0
    return inst.total_work / inst.m


def area_bound(instance, profile_backend=None):
    """Earliest ``T`` such that the machine offers ``W`` area in ``[0, T]``.

    With no reservations this equals ``W / m``.  With reservations it is
    strictly stronger whenever reservations overlap the interval where the
    work must fit.  Always a valid lower bound: any feasible schedule
    finishing at ``C`` has processed ``W <= area(0, C)`` and area is
    non-decreasing in ``C``.
    """
    inst = as_reservation_instance(instance)
    if not inst.jobs:
        return 0
    profile = inst.availability_profile(profile_backend)
    t = profile.first_time_area_reaches(inst.total_work)
    return t if t is not None else 0


def pmax_bound(instance, profile_backend=None):
    """Max over jobs of the earliest completion the job could achieve alone.

    Without reservations this is the appendix's ``C*max >= pmax``.  With
    reservations a job may be unable to start at 0 (not enough free
    processors), so its solo earliest completion — computed with
    :meth:`~repro.core.profiles.ResourceProfile.earliest_fit` on the
    reservation-only profile — is a valid, stronger bound.
    """
    inst = as_reservation_instance(instance)
    if not inst.jobs:
        return 0
    profile = inst.availability_profile(profile_backend)
    best = 0
    for job in inst.jobs:
        start = profile.earliest_fit(job.q, job.p, after=job.release)
        if start is None:
            # No feasible placement ever: the instance cannot be scheduled;
            # treat as unbounded so callers notice.
            raise ValueError(
                f"job {job.id!r} (q={job.q}) never fits in the availability "
                "profile; instance is unschedulable"
            )
        best = max(best, start + job.p)
    return best


def squashed_area_bound(instance, profile_backend=None):
    """Area bound restricted to jobs wider than half the machine.

    Jobs with ``q > m / 2`` can never run concurrently with one another, so
    their processing times simply add up and must fit in the time the
    profile offers at least ``qmin`` processors, where ``qmin`` is the
    smallest width among them.  The bound is the earliest time by which the
    profile has offered ``sum p_i`` time units with capacity ``>= qmin``.
    """
    inst = as_reservation_instance(instance)
    wide = [job for job in inst.jobs if 2 * job.q > inst.m]
    if not wide:
        return 0
    qmin = min(job.q for job in wide)
    need = sum(job.p for job in wide)
    profile = inst.availability_profile(profile_backend)
    # Accumulate time (not area) over segments with capacity >= qmin.
    acc = 0
    for seg_start, seg_end, cap in profile.segments():
        if cap < qmin:
            continue
        if seg_end == float("inf"):
            return seg_start + (need - acc)
        length = seg_end - seg_start
        if acc + length >= need:
            return seg_start + (need - acc)
        acc += length
    return 0  # pragma: no cover - final segment is infinite


def release_bound(instance):
    """``max_i (release_i + p_i)``: no job finishes before its release + p."""
    inst = as_reservation_instance(instance)
    if not inst.jobs:
        return 0
    return max(job.release + job.p for job in inst.jobs)


def lower_bound(instance, profile_backend=None):
    """Best available lower bound: max of all bounds in this module."""
    inst = as_reservation_instance(instance)
    if not inst.jobs:
        return 0
    return max(
        area_bound(inst, profile_backend),
        pmax_bound(inst, profile_backend),
        squashed_area_bound(inst, profile_backend),
        release_bound(inst),
    )


def ratio_to_lower_bound(schedule) -> float:
    """``Cmax / lower_bound`` — an *upper bound* on the true approximation
    ratio achieved on this instance (since ``lower_bound <= C*max``)."""
    lb = lower_bound(schedule.instance)
    if lb == 0:
        return 1.0
    return schedule.makespan / lb
