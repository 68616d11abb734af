"""In-memory span tracer installed around the program's public functions.

The benchmark never edits the program: in a traced run it replaces the
public functions and methods it measures with thin wrappers (module
attributes, or methods on the owning class) and restores them after.
Each call becomes a span ``(id, name, start, end, parent, request)``.
Aggregates per span name are exact for every call:

* ``calls`` — work done (for the batched ``*_many`` profile calls, the
  number of items, so they count under the scalar primitive's name);
* ``self_s`` — the span's duration minus the time its child spans cover;
* optional counters such as ``ok`` (useful outcomes) and ``bytes``.

Raw spans are kept up to a cap and written out when the run ends; the
aggregates do not depend on the cap.
"""

from __future__ import annotations

import json
import os
import sys
from importlib import import_module
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Raw spans kept in memory per process (aggregates are exact beyond it).
SPAN_CAP = 100_000


class Agg:
    """Exact per-name aggregates."""

    __slots__ = ("calls", "self_s", "ok", "bytes", "durations")

    def __init__(self, keep_durations: bool = False):
        self.calls = 0
        self.self_s = 0.0
        self.ok = 0
        self.bytes = 0
        self.durations: Optional[List[float]] = [] if keep_durations else None


class Tracer:
    """Span recorder plus the patch table that installs its wrappers."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.aggs: Dict[str, Agg] = {}
        self.spans: List[Tuple] = []
        self.dropped = 0
        self.request: Optional[int] = None
        self._stack: List[List] = []   # [child time, span id] per open span
        self._next_id = 0
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------
    def agg(self, name: str, keep_durations: bool = False) -> Agg:
        a = self.aggs.get(name)
        if a is None:
            a = self.aggs[name] = Agg(keep_durations)
        return a

    def span(self, name: str, fn: Callable, *, items: Optional[Callable] = None,
             ok: Optional[Callable] = None, nbytes: Optional[Callable] = None,
             keep_durations: bool = False) -> Callable:
        """Wrap ``fn`` so every call records one span named ``name``.

        ``items(args)`` gives the work count of one call (default 1);
        items already counted by nested calls under the same name (a
        batched call falling back to its scalar twin) are not counted
        twice.  ``ok(args, result)`` gives the useful outcomes;
        ``nbytes`` is a pair
        ``(before(args), after(args, token, result))`` evaluated outside
        the timed interval."""
        agg = self.agg(name, keep_durations)
        stack = self._stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            token = nbytes[0](args) if nbytes is not None else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [0.0, sid]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            calls_before = agg.calls
            ok_before = agg.ok
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                if items is None:
                    agg.calls += 1
                else:
                    nested = agg.calls - calls_before
                    agg.calls += max(0, items(args) - nested)
                agg.self_s += dur - frame[0]
                if agg.durations is not None:
                    agg.durations.append(dur)
                if len(spans) < tracer.span_cap:
                    spans.append((sid, name, t0, t1, parent, tracer.request))
                else:
                    tracer.dropped += 1
            if ok is not None:
                agg.ok += max(0, ok(args, result) - (agg.ok - ok_before))
            if nbytes is not None:
                agg.bytes += nbytes[1](args, token, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iter(self, name: str, iterator):
        """Yield from ``iterator``, one span per item pulled."""
        pull = self.span(name, iterator.__next__)
        while True:
            try:
                item = pull()
            except StopIteration:
                self.aggs[name].calls -= 1  # the end of the stream is no item
                return
            yield item

    # -- installation --------------------------------------------------------
    def patch_method(self, cls, attr: str, wrapper_factory: Callable) -> None:
        """Replace ``cls.attr`` (own or inherited) with a wrapper."""
        own = attr in cls.__dict__
        original = getattr(cls, attr)
        self._patches.append((cls, attr, cls.__dict__.get(attr), own))
        setattr(cls, attr, wrapper_factory(original))

    def patch_function(self, module, attr: str, wrapper_factory: Callable) -> None:
        """Replace a module-level function everywhere it is bound.

        ``from x import f`` copies the binding, so every loaded
        ``repro`` module holding the same object is patched too."""
        original = getattr(module, attr)
        wrapper = wrapper_factory(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, True))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- output --------------------------------------------------------------
    def write_spans(self, path: str, extra: Optional[Dict] = None) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            head = {"spans": len(self.spans), "dropped": self.dropped,
                    "fields": ["id", "name", "start", "end", "parent", "request"]}
            if extra:
                head.update(extra)
            fh.write(json.dumps(head) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def dump_aggs(self) -> Dict[str, Dict]:
        return {
            name: {"calls": a.calls, "self_s": a.self_s,
                   "ok": a.ok, "bytes": a.bytes,
                   "durations": a.durations if a.durations is not None else None}
            for name, a in self.aggs.items()
        }


# ---------------------------------------------------------------------------
# the layer map: which public functions become spans, under which names
# ---------------------------------------------------------------------------

#: Profile primitives measured per backend class, merged by name.
PROFILE_FNS = ("fits", "earliest_fit", "try_reserve", "reserve", "add",
               "min_capacity", "capacity_at", "prune_before")

SCHEDULER_CORE_FNS = ("submit", "advance_to", "drain", "reserve", "cancel")


def _truthy(args, result) -> int:
    return 1 if result else 0


def _segment_offset(args) -> int:
    """Write offset of the journal's open segment (0 if it has none)."""
    fh = getattr(args[0], "_fh", None)
    return fh.tell() if fh is not None else 0


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install_layers(tracer: Tracer, serve_side: bool = False) -> None:
    """Install every layer wrapper the workloads can reach.

    ``serve_side`` adds the daemon-only layers (request parsing, op
    handling, journal and snapshot)."""
    # import_module, not `import a.b as x`: packages re-export functions
    # under their submodules' names (repro.simulation.replay)
    algo_base = import_module("repro.algorithms.base")
    bounds = import_module("repro.core.bounds")
    metrics = import_module("repro.core.metrics")
    runner = import_module("repro.run.runner")
    online_sim = import_module("repro.simulation.online_sim")
    swf = import_module("repro.workloads.swf")
    from repro.core.profiles import ArrayProfile, ListProfile, TreeProfile
    from repro.run.store import JsonlStore
    from repro.simulation.replay import ReplayEngine
    from repro.simulation.scheduler_core import SchedulerCore
    from repro.workloads.uncertainty import UncertaintyModel

    sp = tracer.span

    # workloads: ingest is a stream, so each job pulled is one span
    def iter_swf_factory(orig):
        def iter_swf(*args, **kwargs):
            return _TracedStream(tracer, orig(*args, **kwargs))
        return iter_swf
    tracer.patch_function(swf, "iter_swf", iter_swf_factory)
    for fn in ("draw", "is_no_show"):
        tracer.patch_method(UncertaintyModel, fn,
                            lambda o, fn=fn: sp(f"workloads.uncertainty.{fn}", o))

    # core.profiles: the scalar primitives, plus the batched calls
    # counted item by item under the scalar names
    for cls in (ArrayProfile, ListProfile, TreeProfile):
        for fn in PROFILE_FNS:
            ok = _truthy if fn in ("fits", "try_reserve") else None
            tracer.patch_method(
                cls, fn, lambda o, fn=fn, ok=ok: sp(f"core.profiles.{fn}", o, ok=ok))
        # the batched calls may be removed by a later refactor; their
        # work then shows up under the scalar calls that replace them
        if hasattr(cls, "fits_many_at"):
            tracer.patch_method(cls, "fits_many_at", lambda o: sp(
                "core.profiles.fits", o, items=lambda a: len(a[2]),
                ok=lambda a, r: sum(1 for x in r if x)))
        if hasattr(cls, "earliest_fit_many"):
            tracer.patch_method(cls, "earliest_fit_many", lambda o: sp(
                "core.profiles.earliest_fit", o, items=lambda a: len(a[1])))
        if hasattr(cls, "try_reserve_many"):
            tracer.patch_method(cls, "try_reserve_many", lambda o: sp(
                "core.profiles.try_reserve", o, items=lambda a: len(a[2]),
                ok=lambda a, r: len(a[2]) if r else 0))

    # core.metrics / core.bounds
    tracer.patch_function(metrics, "quantile",
                          lambda o: sp("core.metrics.quantile", o))
    tracer.patch_function(bounds, "lower_bound",
                          lambda o: sp("core.bounds.lower_bound", o))

    # simulation
    tracer.patch_method(ReplayEngine, "run",
                        lambda o: sp("simulation.replay.ReplayEngine.run", o))
    for fn in SCHEDULER_CORE_FNS:
        tracer.patch_method(SchedulerCore, fn, lambda o, fn=fn: sp(
            f"simulation.scheduler_core.{fn}", o))
    tracer.patch_function(online_sim, "simulate",
                          lambda o: sp("simulation.online_sim.simulate", o))

    # algorithms: one span name per registered scheduler
    def get_scheduler_factory(orig):
        def get_scheduler(name):
            sched = orig(name)
            sched.schedule = sp(f"algorithms.{name}.schedule", sched.schedule)
            return sched
        return get_scheduler
    tracer.patch_function(algo_base, "get_scheduler", get_scheduler_factory)

    # run
    tracer.patch_function(runner, "execute_point",
                          lambda o: sp("run.Runner.execute_point", o))
    tracer.patch_method(JsonlStore, "append", lambda o: sp(
        "run.store.JsonlStore.append", o,
        nbytes=(lambda a: _file_size(a[0].path),
                lambda a, before, r: _file_size(a[0].path) - before)))

    if not serve_side:
        return
    api = import_module("repro.serve.api")
    from repro.durability.journal import Journal
    from repro.serve.daemon import SchedulerService

    tracer.patch_function(api, "parse_request",
                          lambda o: sp("serve.api.parse_request", o))
    tracer.patch_method(SchedulerService, "snapshot", lambda o: sp(
        "serve.daemon.SchedulerService.snapshot", o))
    tracer.patch_method(Journal, "append", lambda o: sp(
        "durability.journal.Journal.append", o,
        nbytes=(_segment_offset,
                lambda a, before, r: _segment_offset(a) - before)))
    tracer.patch_method(Journal, "snapshot", lambda o: sp(
        "durability.journal.Journal.snapshot", o,
        nbytes=(lambda a: None, lambda a, before, r: len(a[1]))))

    # each request the daemon handles gets the client's sequence number
    # (one closed-loop client: the n-th request handled is its n-th sent)
    def handle_factory(orig):
        inner = sp("serve.daemon.SchedulerService.handle", orig,
                   keep_durations=True)
        counter = [0]

        def handle(self, body):
            tracer.request = counter[0]
            counter[0] += 1
            try:
                return inner(self, body)
            finally:
                tracer.request = None
        return handle
    tracer.patch_method(SchedulerService, "handle", handle_factory)


class _TracedStream:
    """Proxy of an SWF stream whose iteration is traced job by job."""

    def __init__(self, tracer: Tracer, stream):
        self._tracer = tracer
        self._stream = stream

    def __iter__(self):
        return self._tracer.timed_iter("workloads.swf.iter_swf",
                                       iter(self._stream))

    def __getattr__(self, name):
        return getattr(self._stream, name)
