"""Exact solvers: branch-and-bound and reference brute force.

The problems are (strongly) NP-hard — Section 2.1 recalls NP-hardness of
RIGIDSCHEDULING and Theorem 1 shows RESASCHEDULING is not even
approximable — so exact solving is only for *small* instances.  We use
exact optima to certify the worst-case constructions of
:mod:`repro.theory` and to measure true approximation ratios in the
benchmarks.

Completeness argument
---------------------
The solver enumerates job *sequences* and places each job at its earliest
feasible start given its predecessors (the serial schedule-generation
scheme).  For a regular objective such as the makespan this is exact:
take any optimal schedule, order its jobs by start time and re-place them
in that order with earliest-fit — by induction every job lands at or
before its original start (earlier jobs only move earlier and, within any
later job's original window, the moved jobs occupy a subset of the
capacity they occupied originally), so the generated schedule's makespan
is ``<= C*max``.  The argument is untouched by reservations because they
are static capacity, which is why the same enumeration is exact for
RESASCHEDULING.

Two independent implementations cross-check each other in the tests:

* :func:`branch_and_bound` — depth-first search with dominance rules and
  an area/earliest-completion pruning bound;
* :func:`exhaustive_optimal` — literally all ``n!`` sequences (tiny ``n``
  only), sharing no search code with the former;
* :func:`optimal_makespan_m1` — an ``O(2^n n)`` bitmask DP exact for
  ``m = 1``, used to verify the 3-PARTITION reduction of Theorem 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.bounds import lower_bound
from ..core.instance import ReservationInstance, as_reservation_instance
from ..core.profiles import ResourceProfile
from ..core.schedule import Schedule
from ..errors import SchedulingError, SearchBudgetExceeded
from .base import Scheduler, register


@dataclass
class OptimalResult:
    """Outcome of an exact search.

    Attributes
    ----------
    schedule:
        The best schedule found.
    makespan:
        Its makespan.
    nodes:
        Number of search nodes explored.
    proven_optimal:
        True when the search ran to completion (so ``makespan == C*max``).
    """

    schedule: Schedule
    makespan: object
    nodes: int
    proven_optimal: bool


def branch_and_bound(
    instance,
    node_limit: int = 2_000_000,
    upper_bound_hint=None,
    profile_backend=None,
) -> OptimalResult:
    """Exact branch-and-bound for (RESA)SCHEDULING makespan.

    Parameters
    ----------
    instance:
        Either instance flavour; job count should stay small (≈ 12).
    node_limit:
        Abort with :class:`~repro.errors.SearchBudgetExceeded` (carrying
        the incumbent) after this many nodes.
    upper_bound_hint:
        Optional known-feasible makespan used to seed pruning (for example
        an LSRC makespan); correctness does not depend on it.
    profile_backend:
        Availability-profile backend; ``None`` uses the module default.
    """
    inst = as_reservation_instance(instance)
    if not inst.jobs:
        return OptimalResult(Schedule(inst, {}), 0, 0, True)

    jobs = sorted(inst.jobs, key=lambda j: (-(j.p * j.q), -j.p, str(j.id)))
    n = len(jobs)
    global_lb = lower_bound(inst)

    # Seed the incumbent with a greedy sequence so pruning bites early.
    profile0 = inst.availability_profile(profile_backend)
    greedy_starts: Dict = {}
    for job in jobs:
        s = profile0.earliest_fit(job.q, job.p, after=job.release)
        if s is None:
            raise SchedulingError(
                f"job {job.id!r} (q={job.q}) never fits; instance unschedulable"
            )
        profile0.reserve(s, job.p, job.q)
        greedy_starts[job.id] = s
    best_starts = dict(greedy_starts)
    best_cmax = max(greedy_starts[j.id] + j.p for j in jobs)
    if upper_bound_hint is not None and upper_bound_hint < best_cmax:
        # hint is only used to tighten pruning; the search still verifies it
        best_cmax = upper_bound_hint
        best_starts = None  # type: ignore[assignment]

    nodes = 0
    profile = inst.availability_profile(profile_backend)
    starts: Dict = {}

    def remaining_lb(remaining: List, cur_cmax) -> object:
        if not remaining:
            return cur_cmax
        rem_work = sum(j.p * j.q for j in remaining)
        t_area = profile.first_time_area_reaches(rem_work)
        bound = max(cur_cmax, t_area if t_area is not None else cur_cmax)
        # the longest remaining job must still fit somewhere
        longest = max(remaining, key=lambda j: j.p)
        s = profile.earliest_fit(longest.q, longest.p, after=longest.release)
        if s is not None:
            bound = max(bound, s + longest.p)
        return bound

    def dfs(remaining: List, cur_cmax) -> None:
        nonlocal nodes, best_cmax, best_starts
        nodes += 1
        if nodes > node_limit:
            raise SearchBudgetExceeded(
                f"branch-and-bound exceeded {node_limit} nodes",
                incumbent=(best_cmax, dict(best_starts) if best_starts else None),
            )
        if not remaining:
            if cur_cmax < best_cmax or (
                best_starts is None and cur_cmax <= best_cmax
            ):
                best_cmax = cur_cmax
                best_starts = dict(starts)
            return
        lb = remaining_lb(remaining, cur_cmax)
        if best_starts is not None:
            if lb >= best_cmax:
                return
        elif lb > best_cmax:
            # hint-seeded incumbent without a schedule yet: keep equality
            # branches alive so the hinted makespan can be realised.
            return
        seen_shapes = set()
        for idx, job in enumerate(remaining):
            shape = (job.p, job.q, job.release)
            if shape in seen_shapes:
                continue  # identical job: same subtree (dominance)
            seen_shapes.add(shape)
            s = profile.earliest_fit(job.q, job.p, after=job.release)
            if s is None:
                continue
            profile.reserve(s, job.p, job.q)
            starts[job.id] = s
            rest = remaining[:idx] + remaining[idx + 1 :]
            dfs(rest, max(cur_cmax, s + job.p))
            del starts[job.id]
            profile.add(s, job.p, job.q)
            if best_cmax <= global_lb and best_starts is not None:
                return  # provably optimal already

    dfs(jobs, 0)
    if best_starts is None:
        raise SchedulingError(
            "upper_bound_hint was below the optimal makespan; no schedule found"
        )
    schedule = Schedule(inst, best_starts, algorithm="optimal-bnb")
    return OptimalResult(schedule, best_cmax, nodes, True)


def exhaustive_optimal(instance, profile_backend=None) -> OptimalResult:
    """All-permutations reference solver (use only for ``n <= 7``).

    Shares no code with :func:`branch_and_bound`; the tests compare the
    two on random small instances.
    """
    inst = as_reservation_instance(instance)
    jobs = list(inst.jobs)
    if len(jobs) > 8:
        raise SchedulingError(
            f"exhaustive_optimal is factorial; {len(jobs)} jobs is too many"
        )
    best_cmax = None
    best_starts: Optional[Dict] = None
    count = 0
    for perm in itertools.permutations(jobs):
        count += 1
        profile = inst.availability_profile(profile_backend)
        starts: Dict = {}
        cmax = 0
        ok = True
        for job in perm:
            s = profile.earliest_fit(job.q, job.p, after=job.release)
            if s is None:
                ok = False
                break
            profile.reserve(s, job.p, job.q)
            starts[job.id] = s
            cmax = max(cmax, s + job.p)
        if ok and (best_cmax is None or cmax < best_cmax):
            best_cmax = cmax
            best_starts = starts
    if best_starts is None:
        if not jobs:
            return OptimalResult(Schedule(inst, {}), 0, 1, True)
        raise SchedulingError("no feasible schedule found")
    schedule = Schedule(inst, best_starts, algorithm="optimal-exhaustive")
    return OptimalResult(schedule, best_cmax, count, True)


def optimal_makespan_m1(instance, profile_backend=None):
    """Exact optimal makespan for single-machine instances via bitmask DP.

    ``dp[mask]`` is the earliest completion time of the job subset
    ``mask`` processed in some order around the reservation holes.  The
    exchange argument is immediate on one machine: finishing a prefix set
    earlier never hurts the next placement because
    :meth:`~repro.core.profiles.ResourceProfile.earliest_fit` is monotone
    in its ``after`` argument.

    This is the verifier for the Theorem 1 reduction (Figure 1), where
    ``m = 1`` and the question is whether the makespan ``k(B+1) - 1`` is
    attainable.
    """
    inst = as_reservation_instance(instance)
    if inst.m != 1:
        raise SchedulingError("optimal_makespan_m1 requires m = 1")
    jobs = list(inst.jobs)
    n = len(jobs)
    if n == 0:
        return 0
    if n > 20:
        raise SchedulingError(f"bitmask DP over {n} jobs is too large")
    if any(job.release != 0 for job in jobs):
        raise SchedulingError("optimal_makespan_m1 assumes offline jobs")
    profile = inst.availability_profile(profile_backend)
    size = 1 << n
    dp = [None] * size
    dp[0] = 0
    for mask in range(size):
        cur = dp[mask]
        if cur is None:
            continue
        for j in range(n):
            bit = 1 << j
            if mask & bit:
                continue
            job = jobs[j]
            s = profile.earliest_fit(1, job.p, after=cur)
            if s is None:
                continue
            end = s + job.p
            nxt = mask | bit
            if dp[nxt] is None or end < dp[nxt]:
                dp[nxt] = end
    full = dp[size - 1]
    if full is None:
        raise SchedulingError("no feasible single-machine schedule exists")
    return full


def optimal_schedule(
    instance, node_limit: int = 2_000_000, profile_backend=None
) -> Schedule:
    """Convenience wrapper returning just the optimal schedule."""
    return branch_and_bound(
        instance, node_limit=node_limit, profile_backend=profile_backend
    ).schedule


class OptimalScheduler(Scheduler):
    """Registry adapter for the branch-and-bound solver."""

    name = "optimal"

    def __init__(self, node_limit: int = 2_000_000, profile_backend=None):
        self.node_limit = node_limit
        self.profile_backend = profile_backend

    def _run(self, instance: ReservationInstance) -> Schedule:
        return branch_and_bound(
            instance,
            node_limit=self.node_limit,
            profile_backend=self.profile_backend,
        ).schedule


register("optimal", OptimalScheduler)
