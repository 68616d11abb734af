"""Shared plumbing: locating the program, timing, the run header and the
result line every workload prints."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch inputs of one run (removed at exit) and kept trace output.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 5

#: Loop iterations of one calibration chunk, and the seconds a chunk
#: takes on the reference host every reported time is rescaled to.
CHUNK_ITEMS = 10_000
REFERENCE_CHUNK_S = 0.0025
#: Chunks run right before and right after each set-up step.
SETUP_CHUNKS = 10
#: A process start that runs none of the program's code — the
#: interpreter, plus imports of libraries the program loads — and the
#: seconds it takes on the reference host: the calibration of the
#: processes set-up starts, whose time the in-process chunk does not
#: track.
SPAWN_CALIBRATION = "import numpy, json, http.server"
REFERENCE_SPAWN_S = 0.15


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(
            f"no program sources at {SRC}/repro: run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def pin_to_one_cpu() -> Optional[int]:
    """Run this process, and every process it starts, on one CPU.

    The calibration chunks then measure the speed of the core the work
    runs on — for ``serve_http`` the client and the daemon alternate on
    it, as a closed loop with one client allows.  The highest-numbered
    CPU is taken: the first one usually serves more interrupts and
    kernel threads (on a 2-CPU shared VM it preempted the run about 40
    times a second, against about 23 for the other).  Returns the CPU,
    or ``None`` where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def child_env() -> Dict[str, str]:
    """Environment for subprocesses running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def work_path(workload: str) -> str:
    """This run's scratch directory (the caller removes it at exit)."""
    return os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")


def work_dir(workload: str) -> str:
    path = work_path(workload)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def spawn_s(code: str = SPAWN_CALIBRATION) -> float:
    """Wall seconds of a fresh interpreter running ``code`` (with the
    program importable)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def calibrated_spawn(start: Callable[[], object]) -> Tuple[float, object]:
    """Seconds ``start`` (which starts a process) takes on the reference
    host, rescaled by calibration spawns right before and after it, and
    what it returned."""
    before = spawn_s()
    t0 = time.perf_counter()
    result = start()
    wall = time.perf_counter() - t0
    return wall * REFERENCE_SPAWN_S * 2 / (before + spawn_s()), result


def calibration_chunk() -> float:
    """Seconds this host takes for a fixed ~2-ms pure-Python loop that
    shares no code with the program: small tuples stored into a dict,
    interpreter work that slows down with the program's own loops when
    the host's other tenants contend for the core."""
    t0 = time.perf_counter()
    table: Dict[int, tuple] = {}
    acc = 0
    for i in range(CHUNK_ITEMS):
        item = (i, i * 3)
        table[i & 4095] = item
        acc += item[1]
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration chunks of one run, interleaved with the work.

    A shared host switches between fast and slow states lasting a few
    seconds each (one core's speed differs by about 60% between them),
    so a time is only comparable across runs once divided by the speed
    the host had *while* that time was measured.  The workloads call
    :meth:`tick` between small units of work — after each grid point,
    each stored window row, each few hundred arrivals — and a timed
    interval is rescaled by the mean chunk time over that interval
    (NOTES.md gives the spreads measured each way)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: wall seconds spent inside :meth:`chunk`, bookkeeping included
        self.spent = 0.0
        #: whether :meth:`tick` runs chunks (off in traced passes, whose
        #: spans must not include them)
        self.interleave = True

    def chunk(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_chunk())
        self.spent += time.perf_counter() - t0

    def tick(self, count: int = 1) -> None:
        """The workloads' hook between two units of work: ``count``
        chunks, unless the current pass runs none."""
        if self.interleave:
            for _ in range(count):
                self.chunk()

    def factor(self, since: int = 0) -> float:
        """Reference seconds per wall second over the chunks from index
        ``since`` on: the mean weights each host state by how long the
        work spent in it."""
        return REFERENCE_CHUNK_S / statistics.fmean(self.samples[since:])


class Pass(NamedTuple):
    """One timed pass: its wall seconds without the calibration chunks
    run inside it, the host factor over it, and its result."""

    wall_s: float
    factor: float
    result: object

    @property
    def ref_s(self) -> float:
        """The pass's seconds on the reference host."""
        return self.wall_s * self.factor


def timed_pass(one_pass: Callable[[], object], speed: HostSpeed,
               interleave: bool = True, margin: int = 1) -> Pass:
    """Run ``one_pass`` between ``margin`` calibration chunks on either
    side; chunks its hooks run (unless ``interleave`` is off) are taken
    out of its time and count towards its factor."""
    since = len(speed.samples)
    for _ in range(margin):
        speed.chunk()
    spent = speed.spent
    speed.interleave = interleave
    t0 = time.perf_counter()
    try:
        result = one_pass()
    finally:
        speed.interleave = True
    wall = time.perf_counter() - t0 - (speed.spent - spent)
    for _ in range(margin):
        speed.chunk()
    return Pass(wall, speed.factor(since), result)


def median_setup(modules: Sequence[str], step: Callable[[], object],
                 speed: HostSpeed, reps: int = SETUP_REPS) -> float:
    """Median over ``reps`` set-ups: a fresh interpreter importing
    ``modules`` — the cost a user pays once per process before any work
    starts — then ``step`` in this process.  Each part is rescaled by
    its own calibration: the import by spawns, the step as a pass with
    chunks around it (and any its hooks run)."""
    code = "".join(f"import {name}\n" for name in modules)
    times = []
    for _ in range(reps):
        imports, _ = calibrated_spawn(lambda: spawn_s(code))
        step_s = timed_pass(step, speed, margin=SETUP_CHUNKS).ref_s
        times.append(imports + step_s)
    return statistics.median(times)


def timed_passes(one_pass: Callable[[], object], seconds: float,
                 speed: HostSpeed, min_passes: int = 3) -> List[Pass]:
    """Repeat ``one_pass`` until ``seconds`` have elapsed (and at least
    ``min_passes`` ran)."""
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < min_passes or time.perf_counter() < deadline:
        out.append(timed_pass(one_pass, speed))
    return out


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: an observed sample, no interpolation."""
    ordered = sorted(values)
    k = max(1, math.ceil(q * len(ordered)))
    return ordered[k - 1]


def allowed_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_header(seed: int, backend: str) -> Dict:
    """Host facts printed beside every number (the caller adds ``nproc``
    and the CPU the run pinned itself to)."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "profile_backend": backend,
        "seed": seed,
    }


class Report:
    """Metrics, output checks and operation counts of one run."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.header: Dict = {}
        self.metrics: Dict[str, Dict] = {}
        self.notes: Dict[str, object] = {}
        #: per-layer values computed outside the tracer (totals rows,
        #: untraced client figures)
        self.layer: Dict[str, float] = {}
        #: span aggregates recorded in another process (the daemon)
        self.daemon_aggs: Dict[str, Dict] = {}
        self.speed = HostSpeed()
        self.checks: List[tuple] = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one output check; a failed check is a failed operation."""
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        if not ok:
            self.failed += 1
        return bool(ok)

    def note_passes(self, passes: Sequence[Pass], jobs_per_pass: int) -> None:
        """Readable record of the timed passes, wall clock included."""
        self.notes["timed_passes"] = len(passes)
        self.notes["jobs_per_pass"] = jobs_per_pass
        self.notes["wall_jobs_per_s_median"] = statistics.median(
            jobs_per_pass / p.wall_s for p in passes)
        self.notes["host_factor_median"] = statistics.median(
            p.factor for p in passes)
        self.notes["calibration_chunks"] = len(self.speed.samples)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and self.failed == 0

    def emit(self, names: Sequence[str]) -> int:
        """Print the readable report, then the result as the last line.

        Returns the process exit code (1 when an output check failed)."""
        print(f"# workload {self.workload}  seed {self.seed}  "
              f"trace {int(self.trace)}")
        print("# header " + json.dumps(self.header, sort_keys=True))
        for name, ok, detail in self.checks:
            print(f"# check {'ok  ' if ok else 'FAIL'} {name}"
                  + (f"  ({detail})" if detail else ""))
        for key, value in self.notes.items():
            print(f"# note {key} = {value}")
        frac = self.failed / self.attempted if self.attempted else 1.0
        print(f"# failed_frac = {frac:.6g} ratio "
              f"({self.failed} of {self.attempted} operations)")
        out = {}
        for name in names:
            m = out[name] = self.metrics[name]
            print(f"{name:<58} {m['value']:>16.6g} {m['unit']}")
        print(json.dumps({
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": out,
        }, sort_keys=True))
        sys.stdout.flush()
        return 0 if self.correct else 1
