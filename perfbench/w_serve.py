"""Workload ``serve_http``: a journaled ``repro serve`` daemon over HTTP.

A fresh ``repro serve DIR -m 128 --window 500`` daemon (journal on,
fsync off, default snapshot interval) runs as a subprocess.  One
closed-loop client in this process sends it ``repro-serve/1`` ops made
by the ``repro.serve.api`` ``make_*`` functions, each after the previous
one was acknowledged:

* a ``submit`` per job of a seeded ``synth:steady`` trace, and an
  ``advance`` at each new release time;
* every ``RESERVE_EVERY`` jobs a maintenance ``reserve`` placed more
  than the trace's largest runtime past the clock, and only where the
  reservations already placed leave room, so it always fits;
* every ``CANCEL_EVERY`` jobs a ``cancel`` of the job just submitted,
  which is still staged;
* ``GET /v1/status`` and ``/v1/windows`` reads between the writes;
* when the run's seconds are up, at the next release-time boundary, a
  final ``drain``, ``/v1/windows`` and ``/v1/state``.

Every op must succeed.  The op log is then applied to an in-process
``SchedulerService`` without a journal; every answer and the final
state must match, and the resulting schedule goes through the stream
auditor.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import auditor
import harness

M = 128
WINDOW = 500
POLICY = "easy"
#: Trace jobs available to one session (more than any run consumes).
STREAM_JOBS = 30_000
CANCEL_EVERY = 50
RESERVE_EVERY = 100
RESERVE_P = 3_600
RESERVE_Q = 16
STATUS_EVERY = 25     # writes between /v1/status reads
WINDOWS_EVERY = 500   # writes between /v1/windows reads
SPAWN_TIMEOUT_S = 60.0

Op = Tuple[str, str, Optional[Dict]]   # (method, path, body)


def build_groups(seed: int) -> Tuple[List[List[Op]], Dict]:
    """The session's ops, grouped by release time (a run stops only at
    a group boundary, so every group ends with its ``advance``)."""
    from repro.serve.api import make_advance, make_cancel, make_reserve, make_submit
    from repro.workloads.swf import synth_swf_jobs

    jobs = list(synth_swf_jobs("steady", STREAM_JOBS, m=M, seed=seed))
    pmax = max(job.p for job in jobs)
    holes: List[Tuple[int, int, int]] = []
    groups: List[List[Op]] = []
    writes = 0
    i = k = 0
    while i < len(jobs):
        t = jobs[i].release
        group: List[Op] = []
        while i < len(jobs) and jobs[i].release == t:
            job = jobs[i]
            i += 1
            k += 1
            group.append(("POST", "/v1/op",
                          make_submit(job.id, job.p, job.q, job.release)))
            if k % CANCEL_EVERY == 0:
                group.append(("POST", "/v1/op", make_cancel(job.id)))
            if k % RESERVE_EVERY == 0:
                # every job running now ends by t + pmax; only earlier
                # reservations can overlap this one
                start = t + pmax + 1
                end = start + RESERVE_P
                held = sum(q for s, e, q in holes if s < end and start < e)
                if held + RESERVE_Q <= M:
                    holes.append((start, end, RESERVE_Q))
                    group.append(("POST", "/v1/op",
                                  make_reserve(start, RESERVE_P, RESERVE_Q)))
        group.append(("POST", "/v1/op", make_advance(t)))
        reads: List[Op] = []
        for _ in group:
            writes += 1
            if writes % STATUS_EVERY == 0:
                reads.append(("GET", "/v1/status", None))
            if writes % WINDOWS_EVERY == 0:
                reads.append(("GET", "/v1/windows", None))
        groups.append(group + reads)
    return groups, {"pmax": pmax}


class Client:
    """One closed-loop HTTP client; counts every request it sends, so
    its sequence numbers are the daemon's request ids."""

    def __init__(self, port: int, tracer=None):
        self.port = port
        self.seq = 0
        self.tracer = tracer
        self._send = self._exchange if tracer is None else tracer.span(
            "serve.client.op", self._exchange)

    def _exchange(self, method: str, path: str, body: Optional[Dict]):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def send(self, method: str, path: str, body: Optional[Dict] = None):
        """``(http status or None, envelope or error text, seconds)``."""
        if self.tracer is not None:
            self.tracer.request = self.seq
        self.seq += 1
        t0 = time.perf_counter()
        try:
            status, envelope = self._send(method, path, body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0
        return status, envelope, time.perf_counter() - t0


class Daemon:
    """One daemon subprocess and its journal directory."""

    def __init__(self, wd: str, name: str, launcher_out: Optional[str] = None):
        self.journal = os.path.join(wd, f"journal-{name}")
        self.port_file = os.path.join(wd, f"port-{name}")
        self.log = open(os.path.join(wd, f"daemon-{name}.log"), "w")
        if launcher_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", self.journal]
        else:
            cmd = [sys.executable,
                   os.path.join(harness.BENCH_DIR, "serve_launcher.py"),
                   self.journal, "--aggs", launcher_out + ".aggs.json",
                   "--spans", launcher_out + ".spans.jsonl"]
        cmd += ["-m", str(M), "--window", str(WINDOW),
                "--port-file", self.port_file]
        self.proc = subprocess.Popen(cmd, env=harness.child_env(),
                                     stdout=self.log, stderr=self.log)
        try:
            self.port = self._wait_for_port()
        except RuntimeError:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            raise

    def _wait_for_port(self) -> int:
        deadline = time.perf_counter() + SPAWN_TIMEOUT_S
        while time.perf_counter() < deadline:
            if os.path.exists(self.port_file):
                with open(self.port_file) as fh:
                    text = fh.read().strip()
                if text:
                    return int(text)
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            time.sleep(0.002)
        raise RuntimeError("daemon did not announce its port")

    def peak_rss_mb(self) -> float:
        return harness.proc_peak_rss_mb(self.proc.pid)

    def stop(self, client: Optional[Client] = None) -> None:
        """Shut down through the protocol, killing only as a fallback."""
        try:
            if client is not None and self.proc.poll() is None:
                client.send("POST", "/v1/shutdown")
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()


#: A plain stdlib HTTP server answering every POST with a fixed small
#: JSON body: the calibration target for serve figures.  It runs none of
#: the program's code.
ECHO_SERVER = """
import http.server, os, sys

class Echo(http.server.BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/stop":
            self.server.stop = True
        body = b'{"format": "echo", "ok": true, "result": {}}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

server = http.server.HTTPServer(("127.0.0.1", 0), Echo)
server.stop = False
with open(sys.argv[1] + ".tmp", "w") as fh:
    fh.write(str(server.server_address[1]))
os.replace(sys.argv[1] + ".tmp", sys.argv[1])
while not server.stop:
    server.handle_request()
"""

#: Round trips per transport calibration sample, and the seconds one
#: sample takes on the reference host every serve time is rescaled to.
ECHO_ROUND_TRIPS = 10
REFERENCE_ECHO_S = 0.005
#: Session seconds between two transport calibration samples: the
#: host's speed changes over a few seconds, so samples come often.
CALIBRATE_EVERY_S = 0.1


class TransportSpeed:
    """Loopback HTTP speed of this host, this run: round trips to an
    echo server pinned to the same CPU, with the same client code and a
    body of the same shape as the ops.  Serve op time is mostly this
    transport and the switches between two processes, which the
    in-process calibration loop does not track."""

    def __init__(self, wd: str):
        port_file = os.path.join(wd, "echo-port")
        self.proc = subprocess.Popen([sys.executable, "-c", ECHO_SERVER,
                                      port_file], stdout=subprocess.DEVNULL)
        deadline = time.perf_counter() + SPAWN_TIMEOUT_S
        while not os.path.exists(port_file):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("echo server did not start")
            time.sleep(0.002)
        with open(port_file) as fh:
            self.client = Client(int(fh.read()))
        self.samples: List[float] = []

    def sample(self) -> None:
        body = {"format": "echo", "op": "submit",
                "job": {"id": 1, "p": 100, "q": 4, "release": 0}}
        t0 = time.perf_counter()
        for _ in range(ECHO_ROUND_TRIPS):
            status, envelope, _ = self.client.send("POST", "/echo", body)
            if status != 200:
                raise RuntimeError(f"echo server failed: {envelope}")
        self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """Reference seconds per wall second of loopback transport; the
        mean weights each host state by the session time spent in it."""
        return REFERENCE_ECHO_S / statistics.fmean(self.samples)

    def ref_s(self, sent: "Sent") -> float:
        """One request's time on the reference host, rescaled by the two
        samples taken around it: the host's state changes within a
        session."""
        around = self.samples[sent.sample:sent.sample + 2]
        return sent.seconds * REFERENCE_ECHO_S / statistics.fmean(around)

    def stop(self) -> None:
        """Stop the echo server through its own request, killing only
        as a fallback."""
        if self.proc.poll() is None:
            self.client.send("POST", "/stop", {})
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Sent(NamedTuple):
    """One request of a session, as the client saw it."""

    method: str
    path: str
    body: Optional[Dict]
    status: Optional[int]
    envelope: object
    seconds: float     # client-side wall time of the request
    rid: int           # request sequence number (the daemon's request id)
    sample: int = 0    # index of the transport sample taken before it

    @property
    def acked(self) -> bool:
        return (self.status == 200 and isinstance(self.envelope, dict)
                and self.envelope.get("ok") is True)

    @property
    def op(self) -> Optional[str]:
        return self.body.get("op") if self.body else None


def run_session(client: Client, groups, seconds: Optional[float],
                speed: Optional[TransportSpeed] = None):
    """Send groups until ``seconds`` of session time pass (all of them
    when ``None``), then the closing ops.

    With ``speed``, a transport calibration sample is taken between
    groups every ``CALIBRATE_EVERY_S``, outside session time.  Returns the log
    and the session's wall seconds."""
    from repro.serve.api import make_drain

    log: List[Sent] = []
    spent = 0.0                       # session time before this stretch
    if speed is not None:
        speed.sample()
    t_stretch = time.perf_counter()
    tail = [("POST", "/v1/op", make_drain()), ("GET", "/v1/windows", None),
            ("GET", "/v1/state", None)]
    for group in groups + [tail]:
        if group is not tail and seconds is not None \
                and spent + time.perf_counter() - t_stretch >= seconds:
            continue
        for method, path, body in group:
            rid = client.seq
            status, envelope, dt = client.send(method, path, body)
            log.append(Sent(method, path, body, status, envelope, dt, rid,
                            len(speed.samples) - 1 if speed else 0))
            if not log[-1].acked:
                return log, spent + time.perf_counter() - t_stretch
        if speed is not None \
                and time.perf_counter() - t_stretch >= CALIBRATE_EVERY_S:
            spent += time.perf_counter() - t_stretch
            speed.sample()
            t_stretch = time.perf_counter()
    spent += time.perf_counter() - t_stretch
    if speed is not None:
        speed.sample()
    return log, spent


def run_serve_http(report, seed: int, seconds: float, tracer) -> None:
    harness.bootstrap()
    wd = harness.work_dir("serve_http")
    groups, info = build_groups(seed)
    daemons: List[Daemon] = []
    speed = TransportSpeed(wd)
    try:
        # set-up: spawn until the port file appears, plus one warm-up
        # read, rescaled by calibration spawns right before and after;
        # the last daemon spawned serves the timed session
        setup_times = []
        for rep in range(harness.SETUP_REPS):
            if daemons:
                daemons[-1].stop(client)

            def start():
                daemons.append(Daemon(wd, str(rep)))
                client = Client(daemons[-1].port)
                return client, client.send("GET", "/v1/status")

            took, (client, (status, envelope, _)) = \
                harness.calibrated_spawn(start)
            setup_times.append(took)
            if not (status == 200 and envelope.get("ok")):
                raise RuntimeError(f"warm-up status failed: {envelope}")
        daemon = daemons[-1]

        log, wall = run_session(client, groups, seconds, speed)
        report.metric("peak_rss_mb", daemon.peak_rss_mb(), "MB")
        daemon.stop(client)

        factor = speed.factor
        report.metric("setup_s", statistics.median(setup_times), "s")
        lat = [speed.ref_s(e) for e in log]
        acked = sum(1 for e in log if e.acked)
        submits = sum(1 for e in log if e.op == "submit")
        report.ops(len(log), len(log) - acked)
        report.metric("jobs_per_s", submits / (wall * factor), "1/s")
        report.metric("op_p50_ms", statistics.median(lat) * 1e3, "ms")
        report.layer["serve.ops_per_s"] = acked / (wall * factor)
        report.layer["serve.op_p99_ms"] = \
            harness.nearest_rank(lat, 0.99) * 1e3
        report.notes["ops"] = f"{acked} acked of {len(log)} sent in {wall:.3f} s wall"
        report.notes["ops_per_s"] = report.layer["serve.ops_per_s"]
        report.notes["op_p99_ms"] = report.layer["serve.op_p99_ms"]
        report.notes["op_latency_samples"] = len(lat)
        report.notes["jobs_submitted"] = submits
        report.notes["wall_ops_per_s"] = acked / wall
        report.notes["host_factor"] = factor

        final_state = log[-1].envelope["result"] if log[-1].acked else None
        if tracer is not None:
            traced_session(report, tracer, wd, log, wall, final_state)
        check_session(report, log, info)
        counters = (final_state or {}).get("counters", {})
        report.layer["simulation.peak_segments"] = counters.get("peak_segments", 0)
        report.layer["simulation.peak_queue"] = counters.get("peak_queue", 0)
        report.layer["simulation.attempt_ok_ratio"] = 1.0
        report.header = harness.run_header(
            seed, "list" if (final_state or {}).get("demoted") else "array")
    finally:
        speed.stop()
        for daemon in daemons:
            if daemon.proc.poll() is None:
                daemon.proc.kill()
                daemon.proc.wait()
            if not daemon.log.closed:
                daemon.log.close()


def traced_session(report, tracer, wd: str, log: List[Sent],
                   untraced_wall: float, final_state) -> None:
    """Replay the untraced session's ops against a traced daemon."""
    out = os.path.join(harness.OUT_DIR, f"serve_http-seed{report.seed}-daemon")
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    daemon = Daemon(wd, "traced", launcher_out=out)
    client = Client(daemon.port, tracer)
    try:
        client.send("GET", "/v1/status")
        groups = [[(e.method, e.path, e.body) for e in log[:-3]]]
        traced, traced_wall = run_session(client, groups, None)
    finally:
        daemon.stop(client)
    with open(out + ".aggs.json") as fh:
        aggs = json.load(fh)
    report.daemon_aggs = aggs
    handle = (aggs.get("serve.daemon.SchedulerService.handle") or {}).get(
        "durations") or []
    served = [(e.seconds, handle[e.rid]) for e in traced if e.rid < len(handle)]
    if served:
        report.layer["serve.daemon.SchedulerService.handle.p50_ms"] = \
            statistics.median(h for _, h in served) * 1e3
        report.layer["serve.daemon.SchedulerService.handle.p99_ms"] = \
            harness.nearest_rank([h for _, h in served], 0.99) * 1e3
        report.layer["serve.transport_s"] = sum(c - h for c, h in served)
    report.metric("tracing_overhead_frac", traced_wall / untraced_wall - 1.0,
                  "ratio")
    report.check("traced daemon reached the same final state",
                 traced[-1].acked and traced[-1].envelope["result"] == final_state)


def _strip_ops(result):
    """Query answers minus the journal's op counter, which a service
    without a journal does not keep."""
    if isinstance(result, dict) and "ops" in result:
        result = {k: v for k, v in result.items() if k != "ops"}
    return result


def check_session(report, log: List[Sent], info) -> None:
    """Apply the op log to an in-process service with no journal, compare
    every answer, then audit the schedule it produced."""
    from repro.serve.api import make_query
    from repro.serve.daemon import SchedulerService
    from repro.simulation import SchedulerCore

    failures = [(e.path, e.body, e.envelope) for e in log if not e.acked]
    report.check("every op acknowledged", not failures,
                 str(failures[0])[:200] if failures else f"{len(log)} ops")
    if failures:
        return
    service = SchedulerService(SchedulerCore(M, POLICY, window=WINDOW,
                                             record_starts=True))
    queries = {"/v1/status": "status", "/v1/windows": "windows",
               "/v1/state": "state"}
    mismatched = []
    writes = 0
    bad_op_counts = 0
    for e in log:
        if e.body is not None:
            request = e.body
            writes += 1
        else:
            request = make_query(queries[e.path])
        mine = json.loads(json.dumps(service.handle(request), sort_keys=True))
        got = e.envelope["result"]
        if isinstance(got, dict) and "ops" in got and got["ops"] != writes:
            bad_op_counts += 1
        if _strip_ops(mine["result"]) != _strip_ops(got):
            mismatched.append(e.op or e.path)
    report.check("every answer equals an in-process service without a journal",
                 not mismatched,
                 f"{len(mismatched)} differ, first {mismatched[:1]}"
                 if mismatched else f"{len(log)} answers")
    report.check("journaled op count matches the writes acknowledged",
                 bad_op_counts == 0)
    state = _strip_ops(log[-1].envelope["result"])
    report.check("final /v1/state equals the in-process state",
                 state == json.loads(json.dumps(service.core.describe_state(),
                                                sort_keys=True)))

    cancels = [e.envelope["result"] for e in log if e.op == "cancel"]
    report.check("every cancel hit a still-staged job",
                 all(c.get("was") == "staged" for c in cancels),
                 f"{len(cancels)} cancels")
    cancelled = {c["cancelled"] for c in cancels}
    submitted = [e.body["job"] for e in log if e.op == "submit"]
    holes = [(e.body["start"], e.body["start"] + e.body["p"], e.body["q"])
             for e in log if e.op == "reserve"]
    starts = service.core.starts
    live = [j for j in submitted if j["id"] not in cancelled]
    sched = [(j["release"], starts[j["id"]], starts[j["id"]] + j["p"], j["q"])
             for j in live if j["id"] in starts]
    name = ("stream audit (release, capacity with reservations, "
            "completions = arrivals - cancels)")
    try:
        audit = auditor.audit(M, sched, holes, arrived=len(submitted),
                              cancelled=len(cancelled))
        report.check(name, True,
                     f"{audit['jobs']} jobs, {audit['holes']} reservations")
    except auditor.AuditError as exc:
        report.check(name, False, str(exc))
    windows = [e for e in log if e.path == "/v1/windows"][-1].envelope[
        "result"]["rows"]
    expect = auditor.window_rows(sched, WINDOW)
    got = [{k: w[k] for k in expect[0]} for w in windows] if expect else []
    report.check("window waits equal the auditor's recomputation",
                 got == expect, f"{len(windows)} windows")
    report.notes["reservations"] = len(holes)
    report.notes["pmax"] = info["pmax"]
