"""Run one workload of the served-stack benchmark and print its metrics.

    python3 perfbench/run.py --workload hot_pages --seed 1 --seconds 20 --trace 0

Each run starts its own server process (``perfbench/server.py``) and
drives it from this process over two keep-alive connections.

Untraced (``--trace 0``), after a one-second warm-up:

1. set-up: the server is started ``SETUPS`` times; ``setup_s`` is the
   median time from process start to the first 200 response, and the
   last server is the one measured;
2. capacity (30% of ``--seconds``): closed loop, each connection sends
   its next request as soon as the last one returns; throughput and
   server CPU per request are summed over the quiet windows (below)
   of ``CAPACITY_WINDOWS`` windows;
3. serial (40%): one request outstanding at a time over the two
   connections, each sent as soon as the last one returned; ``p50_ms``
   takes the reads sent in the quiet windows of ``LATENCY_WINDOW_S``
   seconds.  Between requests neither process goes idle, so the figure
   is the stack's service time and not the time a halted virtual CPU
   takes to be woken;
4. open loop (20%): the workload's fixed offered rate with seeded
   Poisson arrivals, latency from each request's due time; its
   percentiles are printed, not gated (on a shared host they follow
   how long idle virtual CPUs take to wake);
5. writes (10%, and at least ``MIN_WRITES`` writes; hot_pages and
   cold_catalog): CreatePaper/DeletePaper pairs on the admin
   connection, each probed from the public one.  write_mix has no
   separate write phase: its writes are part of its mix, its serial
   phase takes the write phase's time as well, and its write latencies
   are those of the serial phase's writes.

A window is quiet when the host's steal share (CPU time the hypervisor
gave to other guests, from ``/proc/stat``) during it is at most the
median over the phase's windows.  Stolen windows slow every layer at
once; dropping them keeps a burst of host contention from moving the
result, while a change to the program moves every window alike.

In cold_catalog every phase starts with all three cache levels emptied,
so it does not depend on how far the phase before it got.

Traced (``--trace 1``): one server; an untraced capacity phase (15%),
then the tracer is installed for a traced capacity phase (15%) and the
serial and open-loop phases (no write phase: write_mix is traced on its
mix, the others on their reads alone); the per-layer metrics describe
the traced phases.

Every response is checked; the run exits 1 when any check failed.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for _path in (ROOT, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

# the perfbench modules import the program lazily, so a checkout without
# src/ still gets as far as the check in main()
from perfbench import dataset  # noqa: E402
from perfbench.client import (  # noqa: E402
    READ_KINDS,
    ClientError,
    LoadClient,
    Writer,
    login_op,
    parse_response,
    read_op,
    write_mix_arrivals,
    write_mix_source,
    write_only_source,
)
from perfbench.stats import (  # noqa: E402
    checked_percentile,
    percentile,
    quiet_windows,
    steal_share,
)
from perfbench.tracer import LAYERS  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    COLD_START,
    OFFERED_RATE,
    WORKLOADS,
    Site,
    arrivals,
    distinct_urls,
    read_stream,
)

#: servers started per untraced run; setup_s is their median
SETUPS = 5
WARMUP_S = 1.0
READY_TIMEOUT_S = 120.0
COMMAND_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
DISCONNECT_TIMEOUT_S = 5.0
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
CAPACITY_WINDOWS = 12
#: shares of --seconds: closed-loop capacity, serial latency, open loop,
#: closed-loop writes
CAPACITY_SHARE, SERIAL_SHARE, OPEN_SHARE, WRITE_SHARE = 0.3, 0.4, 0.2, 0.1
LATENCY_WINDOW_S = 1.0
#: the write phase runs on until p90 has ten samples beyond it
MIN_WRITES = 100
WRITE_KINDS = ("create", "delete")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: the result's metrics and units are BENCHMARK.json's; these tails are
#: printed with them but kept out of the JSON result: over ten seeds on
#: a 2-vCPU guest their quartile spread exceeded the 25% any bound may
#: allow (they follow host preemption)
PRINTED_ONLY_UNITS = {"p99_ms": "ms", "open_p50_ms": "ms",
                      "open_p99_ms": "ms", "write_p90_ms": "ms"}
#: a request's spans on one server thread may use at most this much
#: more CPU than the latency its client measured: the page-cache store
#: that follows a streamed page's last chunk may finish after the client
#: has the response
ATTRIBUTION_SLACK_S = 0.002


class ServerProcess:
    """One server child: JSON commands in, JSON lines out."""

    def __init__(self, seed: int, workdir: str):
        os.makedirs(workdir)
        self.workdir = workdir
        self.started = time.perf_counter()
        self._stderr = open(os.path.join(workdir, "server.err"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "server.py"),
             "--seed", str(seed), "--workdir", os.path.join(workdir, "db")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, cwd=ROOT,
        )
        self._buffer = bytearray()
        self.port = None
        self.setup_phases: dict = {}

    def _readline(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("server did not answer in time")
            ready, _w, _x = select.select([fd], [], [], left)
            if ready:
                data = os.read(fd, 1 << 20)
                if not data:
                    raise ConnectionError("server exited")
                self._buffer += data
        line, _sep, rest = bytes(self._buffer).partition(b"\n")
        self._buffer = bytearray(rest)
        return json.loads(line)

    def wait_ready(self, probe_target: str) -> float:
        """Seconds from process start to the first 200 response."""
        ready = self._readline(READY_TIMEOUT_S)
        self.port = ready["ready"]
        self.setup_phases = ready["setup"]
        first_200(("127.0.0.1", self.port), probe_target)
        return time.perf_counter() - self.started

    def cpu_seconds(self) -> float:
        """User + system CPU of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def command(self, **command) -> dict:
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        self.proc.stdin.flush()
        return self._readline(COMMAND_TIMEOUT_S)

    def stop(self) -> str | None:
        """Stop the child within a bounded time; returns a problem or None."""
        problem = None
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(b'{"cmd": "stop"}\n')
                self.proc.stdin.flush()
            self.proc.stdin.close()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
            if self.proc.returncode != 0:
                problem = f"server exited with {self.proc.returncode}"
        except (subprocess.TimeoutExpired, BrokenPipeError, OSError) as exc:
            problem = f"server did not stop cleanly: {exc!r}"
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self.proc.stdout.close()
            self._stderr.close()
        with open(os.path.join(self.workdir, "server.err"), "rb") as err:
            text = err.read().decode(errors="replace").strip()
        if text:
            sys.stderr.write(f"[server stderr]\n{text}\n")
        shutil.rmtree(self.workdir, ignore_errors=True)
        return problem


def first_200(address: tuple, target: str) -> None:

    with socket.create_connection(address, timeout=READY_TIMEOUT_S) as sock:
        sock.sendall(f"GET {target} HTTP/1.1\r\nHost: bench\r\n"
                     "Connection: close\r\n\r\n".encode())
        buffer = bytearray()
        while True:
            parsed = parse_response(buffer)
            if parsed is not None:
                break
            data = sock.recv(65536)
            if not data:
                raise ConnectionError("server closed before answering")
            buffer += data
    if parsed[0].status != 200:
        raise RuntimeError(f"first request answered {parsed[0].status}")


# -- fingerprint ----------------------------------------------------------------


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: recorded to explain noisy runs,
    never used to rescale a metric."""
    started = time.perf_counter()
    total = 0
    for value in range(1_500_000):
        total += value * value % 7
    return time.perf_counter() - started


def commit_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    (git would otherwise report some enclosing repository's HEAD)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_times() -> list[int]:
    """The machine's cumulative CPU times (user ... steal), in ticks."""
    with open("/proc/stat") as stat:
        return [int(field) for field in stat.readline().split()[1:9]]


def fingerprint(args, config: dict) -> dict:
    return {
        "commit": commit_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": config,
        "calibration_s": round(calibration_s(), 4),
    }


# -- phases ---------------------------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _delta(after: dict, before: dict) -> dict:
    """Recursive difference of two counter snapshots."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = _delta(value, before.get(key, {}))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Run:
    """One workload run against one server."""

    def __init__(self, args, site):

        self.args = args
        self.site = site
        self.workload = args.workload
        self.rate = OFFERED_RATE[args.workload]
        self.server: ServerProcess | None = None
        self.client: LoadClient | None = None
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.setup_times: list[float] = []
        self._servers = 0
        #: entries the phase-start flushes dropped (not write invalidations)
        self.flushed = 0
        #: (time, /proc/stat sample) marks of the last open-loop phase
        self.latency_marks: list[tuple] = []
        #: closed_loop windows of the last serial phase
        self.serial_windows: list[dict] = []

    # -- server lifecycle --------------------------------------------------------

    def start_server(self) -> float:
        self._servers += 1
        self.server = ServerProcess(
            self.args.seed, os.path.join(self.args.workdir,
                                         f"server-{self._servers}"))
        elapsed = self.server.wait_ready(self.site.home().target)
        self.setup_times.append(elapsed)
        return elapsed

    def stop_server(self) -> None:
        try:
            if self.client is not None:
                self.client.close()  # every connection closes before stop()
                self.client = None
                if self.server is not None:
                    self.await_disconnects()
        except (TimeoutError, ConnectionError, OSError) as exc:
            self.problems.append(f"no answer before stop: {exc}")
        finally:
            if self.server is not None:
                problem = self.server.stop()
                self.server = None
                if problem:
                    self.problems.append(problem)

    def await_disconnects(self) -> None:
        """Give the edge a bounded time to notice the closed connections;
        a connection still open at ``stop()`` is recorded as a problem."""
        deadline = time.monotonic() + DISCONNECT_TIMEOUT_S
        while True:
            open_connections = self.server.command(
                cmd="stats")["edge"]["open_connections"]
            if open_connections == 0:
                return
            if time.monotonic() > deadline:
                self.problems.append(
                    f"edge still had {open_connections} open connection(s) "
                    f"{DISCONNECT_TIMEOUT_S}s after the client closed them")
                return
            time.sleep(0.01)

    def connect(self) -> None:
        self.client = LoadClient(("127.0.0.1", self.server.port))
        self.writer = Writer(self.site, self.args.seed, admin=0, public=1)
        self.client.writer = self.writer

    # -- load ------------------------------------------------------------------------

    def begin_phase(self, phase: str):
        """The phase's read stream, after resetting what must not carry
        over from the phase before.

        For a cold-start workload every cache level is emptied, so the
        phase does not depend on how far the last one got; the others
        keep the warm caches their working set settles into.  The
        client's own garbage collector is run here and kept off until
        the next phase: its pauses would otherwise show up as server
        latency."""

        gc.enable()
        gc.collect()
        gc.disable()
        if self.workload in COLD_START:
            self.flushed += self.server.command(cmd="flush")["dropped"]
        self.client.phase = phase
        return read_stream(self.workload, self.site, self.args.seed, phase)

    def reads_source(self, stream):

        if self.workload == "write_mix":
            return write_mix_source(stream, self.writer)
        return lambda _index: read_op(next(stream))

    def login_admin(self) -> None:

        self.client.phase = "login"
        self.client.run_one(login_op(self.site, self.writer.admin))

    def warm_up(self) -> None:
        if self.workload == "write_mix":
            self.login_admin()
        self.client.closed_loop("warmup", WARMUP_S,
                                self.reads_source(self.begin_phase("warmup")))

    def capacity(self, phase: str, seconds: float) -> dict:
        """Closed-loop throughput and server CPU per request over the
        quiet half of CAPACITY_WINDOWS windows."""
        source = self.reads_source(self.begin_phase(phase))
        windows = self.client.closed_loop(
            phase, seconds, source, CAPACITY_WINDOWS,
            lambda: (self.server.cpu_seconds(), cpu_times()))
        steal = [steal_share(w["before"][1], w["after"][1]) for w in windows]
        kept = [windows[index] for index in quiet_windows(steal)]
        self.notes.append(_window_note(phase, steal, len(kept)))
        records = [r for r in self.client.records if r.phase == phase]
        completed = sum(w["completed"] for w in kept)
        return {
            "capacity_rps": completed / sum(w["seconds"] for w in kept),
            "server_cpu_ms_per_req": _ms(sum(
                w["after"][0] - w["before"][0] for w in kept)) / completed,
            "wire_bytes_per_req": sum(r.wire_bytes for r in records)
            / len(records),
        }

    def serial(self, phase: str, seconds: float) -> None:
        """One request outstanding at a time, each sent as soon as the
        last returned, in windows of LATENCY_WINDOW_S."""
        source = self.reads_source(self.begin_phase(phase))
        self.serial_windows = self.client.closed_loop(
            phase, seconds, source, max(1, round(seconds / LATENCY_WINDOW_S)),
            cpu_times, serial=True)

    def latency(self, phase: str, seconds: float) -> None:

        offsets = arrivals(self.rate, seconds, self.args.seed,
                           f"{self.workload}-{phase}-arrivals")
        stream = self.begin_phase(phase)
        if self.workload == "write_mix":
            make = write_mix_arrivals(stream, self.writer)
        else:
            def make():
                return read_op(next(stream))
        self.latency_marks = self.client.open_loop(
            phase, offsets, make, LATENCY_WINDOW_S, cpu_times)

    def writes(self, phase: str, seconds: float) -> None:

        self.login_admin()
        source = write_only_source(self.writer)
        self.client.closed_loop(phase, seconds, source)
        while sum(1 for r in self.client.records
                  if r.phase == phase and r.kind in WRITE_KINDS) < MIN_WRITES:
            self.client.closed_loop(phase, 0.5, source)

    def load_phases(self, prefix: str = "", writes: bool = True) -> None:
        """The serial, open-loop and (with ``writes``) write phases;
        write_mix's writes are part of its serial phase, which takes the
        write phase's time."""
        seconds = self.args.seconds
        serial_share = SERIAL_SHARE
        if self.workload == "write_mix":
            serial_share += WRITE_SHARE
        self.serial(prefix + "serial", seconds * serial_share)
        self.latency(prefix + "latency", seconds * OPEN_SHARE)
        if writes and self.workload != "write_mix":
            self.writes(prefix + "writes", seconds * WRITE_SHARE)

    # -- summaries ---------------------------------------------------------------------

    def latency_metrics(self, prefix: str = "") -> dict:
        """Read percentiles over the reads due in the quiet windows of the
        serial phase (gated) and of the open loop (printed); create and
        delete medians over every write of the write phase (write_mix: of
        its serial phase).  A create and a delete cost several times
        apart, so each kind has its own median: the median of both
        together would fall between them."""
        serial_phase = prefix + "serial"
        windows = self.serial_windows
        serial_marks = [(w["start"], w["before"]) for w in windows] + [
            (windows[-1]["start"] + windows[-1]["seconds"], windows[-1]["after"])]
        serial = self._quiet_reads(serial_phase, serial_marks)
        opened = self._quiet_reads(prefix + "latency", self.latency_marks)
        write_phase = (serial_phase if self.workload == "write_mix"
                       else prefix + "writes")
        records = self.client.records
        writes = {kind: [_ms(r.done - r.due) for r in records
                         if r.phase == write_phase and r.kind == kind]
                  for kind in WRITE_KINDS}
        return {
            "p50_ms": percentile(serial, 50),
            "p99_ms": checked_percentile(serial, 99, self.problems, "p99_ms"),
            "open_p50_ms": checked_percentile(opened, 50, self.problems,
                                              "open_p50_ms"),
            "open_p99_ms": checked_percentile(opened, 99, self.problems,
                                              "open_p99_ms"),
            "create_p50_ms": percentile(writes["create"], 50),
            "delete_p50_ms": percentile(writes["delete"], 50),
            "write_p90_ms": checked_percentile(
                writes["create"] + writes["delete"], 90, self.problems,
                "write_p90_ms"),
            "reads_measured": len(serial),
            "writes_measured": len(writes["create"]) + len(writes["delete"]),
        }

    def _quiet_reads(self, phase: str, marks: list[tuple]) -> list[float]:
        """Latencies (ms, from the due time) of the reads of ``phase`` due
        in a quiet window; ``marks`` are the ``(time, /proc/stat sample)``
        window bounds."""
        steal = [steal_share(a[1], b[1]) for a, b in zip(marks, marks[1:])]
        kept = set(quiet_windows(steal))
        self.notes.append(_window_note(phase, steal, len(kept)))
        starts = [at for at, _sample in marks]
        return [_ms(r.done - r.due) for r in self.client.records
                if r.phase == phase and r.kind in READ_KINDS
                and bisect.bisect_right(starts, r.due) - 1 in kept]


def _window_note(phase: str, steal: list[float], kept: int) -> str:
    return (f"{phase}: {kept} of {len(steal)} windows quiet; window steal "
            f"share {min(steal):.3f}-{max(steal):.3f}")


def run_untraced(run: Run) -> dict:
    for index in range(SETUPS):
        run.start_server()
        if index < SETUPS - 1:
            run.stop_server()
    run.connect()
    run.warm_up()
    metrics = run.capacity("capacity", run.args.seconds * CAPACITY_SHARE)
    run.load_phases()
    metrics.update(run.latency_metrics())
    metrics["server_rss_mb"] = run.server.command(cmd="stats")["rss_mb"]
    metrics["setup_s"] = statistics.median(run.setup_times)
    run.notes.append(
        f"reads measured {metrics.pop('reads_measured')}, writes measured "
        f"{metrics.pop('writes_measured')}; setup_s over "
        + ", ".join(f"{t:.3f}" for t in run.setup_times))
    return metrics


def run_traced(run: Run) -> dict:

    run.start_server()
    run.connect()
    run.warm_up()
    untraced = run.capacity("untraced-capacity",
                            run.args.seconds * CAPACITY_SHARE / 2)
    client, server = run.client, run.server
    first_record = len(client.records)
    flushed = run.flushed
    before = server.command(cmd="stats")
    client_cpu = time.process_time()
    server.command(cmd="trace", on=True)
    traced = run.capacity("traced-capacity",
                          run.args.seconds * CAPACITY_SHARE / 2)
    # no write phase: hot_pages and cold_catalog are traced on their
    # reads alone, write_mix on its mix
    run.load_phases("traced-", writes=False)
    server.command(cmd="trace", on=False)
    client_cpu = time.process_time() - client_cpu
    after = server.command(cmd="stats")
    spans = server.command(cmd="spans")
    delta = _delta(after, before)
    flushed = run.flushed - flushed

    records = client.records[first_record:]
    requests = len(records)
    writes = sum(1 for r in records if r.kind in WRITE_KINDS)
    wall = sum(r.done - r.sent for r in records)
    layers = spans["layers_s"]
    cpu = spans["layers_cpu_s"]
    span_self = spans["self_total_s"]
    unattributed = wall - span_self
    if unattributed < 0:
        run.problems.append(
            f"trace accounting: server spans ({span_self:.6f}s) exceed the "
            f"client-measured wall time ({wall:.6f}s)")
        client.failures.fail("trace accounting")
    check_attribution(run, records, spans["requests"])
    run.notes.append(
        f"traced requests {requests}, writes {writes}, spans "
        f"{spans['span_total']} ({spans['unassigned_spans']} without a "
        f"request id); wall {wall:.4f}s = layer self {span_self:.4f}s + "
        f"unattributed {unattributed:.4f}s; layer CPU self "
        f"{spans['cpu_total_s']:.4f}s")

    def per_req(seconds: float) -> float:
        return seconds * 1e6 / requests

    edge = delta["edge"]
    caches = delta["caches"]
    runtime = delta["runtime"]
    db = delta["db"]
    storage = delta["storage"]
    statements = db["selects"] + db["inserts"] + db["updates"] + db["deletes"]
    work = layers["services.self"] + layers["rdb.read"] + layers["rdb.write"] \
        + layers["presentation.self"]
    cpu_work = cpu["services.self"] + cpu["rdb.read"] + cpu["rdb.write"] \
        + cpu["presentation.self"]
    lags = [_ms(r.sent - r.due) for r in records
            if r.phase == "traced-latency" and r.kind in READ_KINDS]
    metrics = {
        "appserver.inline_ratio": _ratio(edge["inline_hits"],
                                         edge["requests_total"]),
        "appserver.streamed_ratio": _ratio(edge["streamed_responses"],
                                           edge["requests_total"]),
        "appserver.unattributed_us_per_req": per_req(unattributed),
        "httpcore.parse_us_per_req": per_req(layers["httpcore.parse"]),
        "httpcore.encode_us_per_req": per_req(layers["httpcore.encode"]),
        "httpcore.delivery_us_per_req": per_req(layers["httpcore.delivery"]),
        "mvc.probe_us_per_req": per_req(layers["mvc.probe"]),
        "mvc.self_us_per_req": per_req(layers["mvc.self"]),
        "caching.self_us_per_req": per_req(layers["caching.self"]),
        "caching.evictions_per_req": sum(
            c["evictions"] for c in caches.values()) / requests,
        "caching.dropped_per_write": _ratio(sum(
            c["invalidations"] for c in caches.values()) - flushed, writes),
        "services.self_us_per_req": per_req(layers["services.self"]),
        "services.units_per_page": _ratio(runtime["units_computed"],
                                          runtime["pages_computed"]),
        "services.queries_per_page": _ratio(runtime["queries_executed"],
                                            runtime["pages_computed"]),
        "rdb.self_us_per_req": per_req(layers["rdb.read"]
                                       + layers["rdb.write"]),
        "rdb.statements_per_req": statements / requests,
        "rdb.rows_read_per_req": db["rows_read"] / requests,
        "rdb.plan_reuse_ratio": _ratio(db["prepared_reuse"], db["selects"]),
        "rdb.write_us_per_write": _ratio(layers["rdb.write"] * 1e6, writes),
        "rdb.wal_fsyncs_per_write": _ratio(storage["wal_fsyncs"], writes),
        "rdb.wal_bytes_per_write": _ratio(storage["wal_bytes"], writes),
        "presentation.self_us_per_req": per_req(layers["presentation.self"]),
        "presentation.url_build_us_per_req": per_req(
            layers["presentation.url_build"]),
        "trace.work_share": _ratio(work, span_self),
        "trace.cpu_work_share": _ratio(cpu_work, spans["cpu_total_s"]),
        "appserver.span_wait_us_per_req": per_req(
            span_self - spans["cpu_total_s"]),
        "httpcore.cpu_us_per_req": per_req(
            cpu["httpcore.parse"] + cpu["httpcore.encode"]
            + cpu["httpcore.delivery"]),
        "mvc.cpu_us_per_req": per_req(cpu["mvc.probe"] + cpu["mvc.self"]),
        "caching.cpu_us_per_req": per_req(cpu["caching.self"]),
        "services.cpu_us_per_req": per_req(cpu["services.self"]),
        "rdb.cpu_us_per_req": per_req(cpu["rdb.read"] + cpu["rdb.write"]),
        "presentation.cpu_us_per_req": per_req(
            cpu["presentation.self"] + cpu["presentation.url_build"]),
        "trace.overhead_ratio": traced["capacity_rps"]
        / untraced["capacity_rps"],
        "client.us_per_req": client_cpu * 1e6 / requests,
        "client.lag_p99_ms": percentile(lags, 99) if lags else 0.0,
    }
    # a streamed page is a page-cache miss that PageCache.stats never
    # sees (the streaming path probes with peek, which counts hits only)
    page = caches["page"]
    metrics["caching.page.hit_ratio"] = _ratio(
        page["hits"],
        page["hits"] + page["misses"] + edge["streamed_responses"])
    for level in ("fragment", "bean"):
        counts = caches[level]
        metrics[f"caching.{level}.hit_ratio"] = _ratio(
            counts["hits"], counts["hits"] + counts["misses"])
    for phase, seconds in server.setup_phases.items():
        metrics[f"setup.{phase}"] = seconds
    missing = set(LAYERS) - set(layers)
    if missing:
        raise RuntimeError(f"tracer reported no {sorted(missing)}")
    return metrics


def check_attribution(run: Run, records: list, by_request: dict) -> None:
    """Count a failure for each traced request whose spans cannot all be
    its own: a span that started before the client sent the request (or
    carries an id the client never sent), or more CPU on one server
    thread than the request's client-measured latency allows.  The
    server and client clocks are the same (``perf_counter`` is
    CLOCK_MONOTONIC), and CPU time leaves out time the thread waited."""
    sent = {r.rid: r for r in records}
    early = overfull = 0
    for rid, spans in by_request.items():
        record = sent.get(int(rid))
        if record is None or spans["first_start"] < record.sent:
            early += 1
            run.client.failures.fail("trace attribution: span before send",
                                     f"request {rid}")
        elif spans["max_thread_cpu_s"] > (record.done - record.sent
                                          + ATTRIBUTION_SLACK_S):
            overfull += 1
            run.client.failures.fail("trace attribution: CPU over latency",
                                     f"request {rid}")
    run.notes.append(
        f"span attribution over {len(by_request)} requests: {early} with a "
        f"span before the request was sent, {overfull} with more CPU on one "
        "thread than their latency")


# -- main -------------------------------------------------------------------------------


def _describe(site, workload: str, seed: int) -> dict:
    from repro.caching import FragmentCache, PageCache, UnitBeanCache

    return {
        "rows": site.dataset.row_counts(),
        "distinct_urls": distinct_urls(workload, site, seed),
        "cache_capacity": {
            "page": PageCache().max_entries,
            "fragment": FragmentCache().max_entries,
            "bean": UnitBeanCache().max_entries,
        },
        "offered_rate_per_s": OFFERED_RATE[workload],
        "connections": 2,
        "edge_workers": 2,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Served-stack benchmark of the generated ACM application")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"no program to benchmark: {SRC}/repro is missing\n")
        return 2

    # a terminated run still stops its server and removes its directory
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    units = benchmark_units("per_layer" if args.trace else "end_to_end")
    site = Site(dataset.generate(args.seed))
    config = _describe(site, args.workload, args.seed)
    print("# fingerprint: " + json.dumps(fingerprint(args, config)))
    os.makedirs(WORK_DIR, exist_ok=True)
    args.workdir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    run = Run(args, site)
    machine_before = cpu_times()
    metrics: dict = {}
    try:
        metrics = run_traced(run) if args.trace else run_untraced(run)
    except (ClientError, TimeoutError, ConnectionError) as exc:
        run.problems.append(f"run aborted: {exc}")
        if run.client is not None and not run.client.failures.failed:
            run.client.failures.fail("aborted", str(exc))
    finally:
        failures = run.client.failures if run.client is not None else None
        run.stop_server()
        shutil.rmtree(args.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    attempted = failures.attempted if failures is not None else 0
    failed = failures.failed if failures is not None else 1
    stop_problems = [p for p in run.problems if p.startswith("server")]
    failed += len(stop_problems)
    run.notes.append(f"steal share during the run "
                     f"{steal_share(machine_before, cpu_times()):.3f}")
    for note in run.notes:
        print(f"# {note}")
    for problem in run.problems:
        print(f"# problem: {problem}")
    if failures is not None:
        for cause, count in sorted(failures.by_cause.items()):
            print(f"# failure: {cause} x{count} "
                  f"(e.g. {failures.examples[cause]})")
    print(f"error_rate {failed / attempted if attempted else 1.0:.6f} ratio "
          f"({failed} failed of {attempted} attempted)")
    printed = {}
    if metrics:
        printed = {name: (metrics[name], unit) for name, unit in units.items()}
        if not args.trace:
            printed.update((name, (metrics[name], unit)) for name, unit
                           in PRINTED_ONLY_UNITS.items())
    for name, (value, unit) in printed.items():
        gated = "" if name in units else " (not gated)"
        print(f"{name} {value:.6g} {unit}{gated}")
    correct = bool(metrics) and failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": printed[name][0], "unit": unit}
                    for name, unit in units.items() if name in printed},
    }))
    return 0 if correct else 1


def benchmark_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[section]}


if __name__ == "__main__":
    sys.exit(main())
