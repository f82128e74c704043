"""The load generator: two keep-alive connections driven from one thread.

A selector loop owns both sockets, so the client never waits on one
connection while the other has a response ready.  Requests are written
whole (they are small; at most one is outstanding per connection) and
responses are parsed incrementally, with either framing the server
uses: ``Content-Length`` or chunked.

Every response is checked as it completes (see :meth:`LoadClient._check`):
status, body markers, 304s only after ``If-None-Match``, and the
read-after-write probes.  A failure is counted, never retried.
"""

from __future__ import annotations

import gzip
import re
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field

from perfbench.stats import Failures
from perfbench.tracer import REQUEST_ID_HEADER
from perfbench.workloads import READS_PER_WRITE, Read, write_title

SESSION_COOKIE = "repro_session"

#: a request with no complete response after this long fails the run
REQUEST_TIMEOUT_S = 10.0

READ_KINDS = frozenset({"home", "volume", "paper", "browse", "search"})


class ClientError(Exception):
    """The run cannot continue (timeout, closed connection)."""


@dataclass
class Response:
    status: int
    headers: dict  # lower-case names
    body: bytes
    wire_bytes: int


def parse_response(buffer: bytearray):
    """One complete response from the front of ``buffer``, or None.

    Returns ``(Response, consumed_bytes)``.  Only the framings the
    edge produces are understood: Content-Length, chunked, bodyless."""
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    lines = bytes(buffer[:head_end]).decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    position = head_end + 4
    if status in (204, 304) or status < 200:
        return Response(status, headers, b"", position), position
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = bytearray()
        while True:
            line_end = buffer.find(b"\r\n", position)
            if line_end < 0:
                return None
            size = int(bytes(buffer[position:line_end]).split(b";")[0], 16)
            chunk_start = line_end + 2
            if len(buffer) < chunk_start + size + 2:
                return None
            if size == 0:
                end = chunk_start + 2
                return Response(status, headers, bytes(body), end), end
            body += buffer[chunk_start:chunk_start + size]
            position = chunk_start + size + 2
    length = int(headers.get("content-length", "0"))
    end = position + length
    if len(buffer) < end:
        return None
    return Response(status, headers, bytes(buffer[position:end]), end), end


@dataclass
class Op:
    """One request to send, and how to judge its response."""

    kind: str  # a READ_KINDS kind, or login | create | delete | probe
    target: str | None  # None: built at dispatch (a delete needs an oid)
    conn: int | None = None  # None: whichever connection is free
    markers: tuple = ()
    absent: str | None = None  # must NOT appear (after a delete)
    revalidate: bool = False
    due: float = 0.0
    #: callable(client, op, response, ok) once the checks have run
    on_done: object = None


@dataclass
class Record:
    phase: str
    kind: str
    rid: int
    due: float
    sent: float
    done: float
    wire_bytes: int


@dataclass
class _Conn:
    sock: socket.socket
    index: int
    buffer: bytearray = field(default_factory=bytearray)
    cookie: str | None = None
    op: Op | None = None
    rid: int = 0
    sent: float = 0.0
    revalidated: bool = False
    queue: deque = field(default_factory=deque)


_OID_PATTERN = r'\.oid=(\d+)">{}</a>'


class Writer:
    """CreatePaper / DeletePaper alternation on the admin connection,
    each followed by a keyword-search probe on the public one."""

    def __init__(self, site, seed: int, admin: int, public: int):
        self.site = site
        self.seed = seed
        self.admin = admin
        self.public = public
        self.count = 0
        self.created: tuple[int, str] | None = None  # (oid, title) to delete
        self.busy = False  # a write or its probe is outstanding

    @property
    def ready(self) -> bool:
        return not self.busy

    def next_write(self) -> Op:
        self.busy = True
        if self.created is None:
            self.count += 1
            title = write_title(self.seed, self.count)
            target = self.site.operation(
                "CreatePaper", {"title": title, "pages": 7})
            return Op("create", target, conn=self.admin,
                      on_done=self._after_create(title))
        oid, title = self.created
        target = self.site.operation("DeletePaper", {"oid": oid})
        return Op("delete", target, conn=self.admin,
                  on_done=self._after_delete(title))

    def _after_create(self, title: str):
        def done(client, _op, _response, ok):
            if not ok:
                self.busy = False
                return
            probe = self.site.search(title, title)
            client.push_front(Op("probe", probe.target, conn=self.public,
                                 markers=probe.markers,
                                 on_done=self._learn_oid(title)))
        return done

    def _learn_oid(self, title: str):
        def done(client, _op, response, ok):
            match = ok and re.search(_OID_PATTERN.format(re.escape(title)),
                                     client.text_of(response))
            if not match:
                if ok:  # a failed check was counted already
                    client.failures.fail("stale read", f"no oid for {title!r}")
                self.created = None
            else:
                self.created = (int(match.group(1)), title)
            self.busy = False
        return done

    def _after_delete(self, title: str):
        def done(client, _op, _response, ok):
            self.created = None
            if not ok:
                self.busy = False
                return
            probe = self.site.search(title)
            client.push_front(Op("probe", probe.target, conn=self.public,
                                 markers=probe.markers, absent=title,
                                 on_done=self._probe_done))
        return done

    def _probe_done(self, _client, _op, _response, _ok):
        self.busy = False


class LoadClient:
    """Owns the two connections, the checks and the records."""

    def __init__(self, address: tuple):
        self.address = address
        self.host = f"{address[0]}:{address[1]}"
        # select(2) takes a microsecond timeout; epoll rounds up to whole
        # milliseconds, which would make the open loop send late
        self.selector = selectors.SelectSelector()
        self.conns = [self._connect(index) for index in range(2)]
        self.failures = Failures()
        self.records: list[Record] = []
        self.etags: dict[str, str] = {}
        self._checked: dict[tuple, bytes] = {}
        self.next_rid = 1
        self.phase = "setup"
        self.shared: deque = deque()
        #: the connection a serial loop offers its next op to first
        self._turn = 0
        #: builds the open loop's write placeholders when it is ready
        self.writer: Writer | None = None

    # -- connections ------------------------------------------------------------

    def _connect(self, index: int) -> _Conn:
        sock = socket.create_connection(self.address, timeout=REQUEST_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock=sock, index=index)
        self.selector.register(sock, selectors.EVENT_READ, conn)
        return conn

    def close(self) -> None:
        for conn in self.conns:
            try:
                self.selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self.selector.close()

    # -- sending ------------------------------------------------------------------

    def _send(self, conn: _Conn, op: Op) -> None:
        rid = self.next_rid
        self.next_rid += 1
        lines = [f"GET {op.target} HTTP/1.1", f"Host: {self.host}",
                 "Accept-Encoding: gzip", f"{REQUEST_ID_HEADER}: {rid}"]
        if conn.cookie:
            lines.append(f"Cookie: {SESSION_COOKIE}={conn.cookie}")
        etag = self.etags.get(op.target) if op.revalidate else None
        if etag is not None:
            lines.append(f"If-None-Match: {etag}")
        conn.revalidated = etag is not None
        conn.op = op
        conn.rid = rid
        conn.sent = time.perf_counter()
        if not op.due:
            op.due = conn.sent
        self.failures.attempt()
        conn.sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))

    def push_front(self, op: Op) -> None:
        """Queue ``op`` ahead of everything else on its connection."""
        op.due = time.perf_counter()
        self.conns[op.conn].queue.appendleft(op)

    # -- receiving ----------------------------------------------------------------

    def poll(self, timeout: float) -> list[_Conn]:
        """Wait up to ``timeout`` s; returns connections that completed."""
        finished = []
        for key, _events in self.selector.select(timeout):
            conn = key.data
            data = conn.sock.recv(262144)
            if not data:
                raise ClientError(f"server closed connection {conn.index}")
            conn.buffer += data
            parsed = parse_response(conn.buffer)
            if parsed is None:
                continue
            response, consumed = parsed
            del conn.buffer[:consumed]
            self._complete(conn, response)
            finished.append(conn)
        if not finished:
            self._check_timeouts()
        return finished

    def _check_timeouts(self) -> None:
        now = time.perf_counter()
        for conn in self.conns:
            if conn.op is not None and now - conn.sent > REQUEST_TIMEOUT_S:
                self.failures.fail("timeout", conn.op.target)
                raise ClientError(f"timeout on {conn.op.target}")

    def _complete(self, conn: _Conn, response: Response) -> None:
        done = time.perf_counter()
        op = conn.op
        conn.op = None
        cookie = response.headers.get("set-cookie", "")
        name, _sep, value = cookie.split(";")[0].partition("=")
        if name == SESSION_COOKIE and value:
            conn.cookie = value
        self.records.append(Record(self.phase, op.kind, conn.rid, op.due,
                                   conn.sent, done, response.wire_bytes))
        ok = self._check(conn, op, response)
        if op.on_done is not None:
            op.on_done(self, op, response, ok)

    @staticmethod
    def text_of(response: Response) -> str:
        body = response.body
        if response.headers.get("content-encoding") == "gzip":
            body = gzip.decompress(body)
        return body.decode()

    def _check(self, conn: _Conn, op: Op, response: Response) -> bool:
        status = response.status
        if op.kind in ("login", "create", "delete"):
            if status not in (302, 303):
                self.failures.fail("unexpected status",
                                   f"{op.kind} {op.target} -> {status}")
                return False
            return True
        if status == 304:
            if not conn.revalidated:
                self.failures.fail("304 without If-None-Match", op.target)
                return False
            return True
        if status != 200:
            self.failures.fail("unexpected status", f"{op.target} -> {status}")
            return False
        etag = response.headers.get("etag")
        if etag is not None and op.absent is None:
            # a page-cache entry is the same bytes on every hit: bytes
            # already checked for this page need no second decompression
            if self._checked.get((op.target, etag)) == response.body:
                return True
        text = self.text_of(response)
        for marker in op.markers:
            if marker not in text:
                self.failures.fail("missing body marker",
                                   f"{op.target} lacks {marker!r}")
                return False
        if op.absent is not None and op.absent in text:
            self.failures.fail("stale read", f"{op.target} still shows "
                               f"{op.absent!r}")
            return False
        if etag is not None:
            self.etags[op.target] = etag
            self._checked[(op.target, etag)] = response.body
        return True

    # -- dispatch ------------------------------------------------------------------

    def _take(self, conn: _Conn, source) -> Op | None:
        if conn.queue:
            head = conn.queue[0]
            if head.target is None:  # an open-loop write placeholder
                if not self.writer.ready:
                    return None
                op = self.writer.next_write()
                op.due = head.due
                conn.queue.popleft()
                return op
            return conn.queue.popleft()
        if self.shared:
            return self.shared.popleft()
        return source(conn.index) if source is not None else None

    def _dispatch(self, source=None, serial: bool = False) -> None:
        """Send on every idle connection that has an op; ``serial``:
        send nothing while a request is outstanding, and offer the
        connection after the last one used first, so both stay busy
        (the edge closes a connection left idle for five seconds)."""
        if serial and self.busy():
            return
        turn = self._turn if serial else 0
        for conn in self.conns[turn:] + self.conns[:turn]:
            if conn.op is None:
                op = self._take(conn, source)
                if op is not None:
                    self._send(conn, op)
                    if serial:
                        self._turn = (conn.index + 1) % len(self.conns)
                        return

    def busy(self) -> bool:
        return any(conn.op is not None for conn in self.conns)

    def drain(self) -> None:
        """Finish every outstanding and queued request (counted, checked)."""
        while self.busy() or any(c.queue for c in self.conns) or self.shared:
            self._dispatch()
            self.poll(0.05)

    def run_one(self, op: Op) -> None:
        """Send ``op`` on its connection and wait for its response."""
        self.conns[op.conn or 0].queue.append(op)
        self.drain()

    # -- load shapes ------------------------------------------------------------------

    def closed_loop(self, phase: str, seconds: float, source,
                    windows: int = 1, sample=None,
                    serial: bool = False) -> list[dict]:
        """Each connection sends its next op as soon as the last one
        returns; ``source(conn_index)`` gives the op or None (idle).
        With ``serial`` one request at a time is outstanding over both
        connections: the next is sent as soon as the last returns.

        The phase is cut into ``windows`` equal windows; for each one the
        result lists the requests completed in it, its start and length,
        and the values of ``sample()`` (for instance CPU counters) at its
        start and end.
        """
        self.phase = phase
        started = time.perf_counter()
        results = []
        window_start = started
        mark = sample() if sample is not None else None
        for index in range(1, windows + 1):
            deadline = started + seconds * index / windows
            completed = 0
            while True:
                now = time.perf_counter()
                if now >= deadline:
                    break
                self._dispatch(source, serial)
                completed += len(self.poll(min(0.05, deadline - now)))
            now = time.perf_counter()
            value = sample() if sample is not None else None
            results.append({"completed": completed, "start": window_start,
                            "seconds": now - window_start,
                            "before": mark, "after": value})
            window_start, mark = now, value
        self.drain()
        return results

    def open_loop(self, phase: str, offsets: list[float], make_op,
                  window_s: float, sample) -> list[tuple]:
        """Send ``make_op()`` at each arrival offset (seconds from now).

        An op that finds its connection busy waits in a queue; its
        latency still counts from the time it was due.  The result is
        a list of ``(time, sample())`` marks taken at the start, about
        every ``window_s`` seconds, and at the end."""
        self.phase = phase
        started = time.perf_counter()
        marks = [(started, sample())]
        next_mark = started + window_s
        pending = deque(offsets)
        while pending or self.busy() or self.shared or any(
                c.queue for c in self.conns):
            now = time.perf_counter()
            if now >= next_mark:
                marks.append((now, sample()))
                next_mark += window_s
            while pending and started + pending[0] <= now:
                op = make_op()
                op.due = started + pending.popleft()
                if op.conn is None:
                    self.shared.append(op)
                else:
                    self.conns[op.conn].queue.append(op)
            self._dispatch()
            wait = 0.05
            if pending:
                wait = min(wait, started + pending[0] - time.perf_counter())
            self.poll(max(0.0, wait))
        marks.append((time.perf_counter(), sample()))
        return marks


def read_op(read: Read, conn: int | None = None) -> Op:
    return Op(read.kind, read.target, conn=conn, markers=read.markers,
              revalidate=read.revalidate)


def login_op(site, conn: int) -> Op:
    return Op("login", site.login(), conn=conn)


def write_mix_source(stream, writer: Writer):
    """Closed-loop source for write_mix: the public connection reads
    (its probes jump the queue); the admin connection writes once the
    public one has sent READS_PER_WRITE reads since the last write."""
    state = {"reads": 0}

    def source(index: int) -> Op | None:
        if index == writer.public:
            state["reads"] += 1
            return read_op(next(stream), conn=writer.public)
        if state["reads"] >= READS_PER_WRITE and writer.ready:
            state["reads"] = 0
            return writer.next_write()
        return None

    return source


def write_only_source(writer: Writer):
    """Closed-loop source for the write phase: one write at a time."""
    def source(index: int) -> Op | None:
        if index == writer.admin and writer.ready:
            return writer.next_write()
        return None
    return source


def write_mix_arrivals(stream, writer: Writer):
    """Open-loop op maker: every (READS_PER_WRITE + 1)-th arrival is a
    write on the admin connection, the rest public reads."""
    state = {"n": 0}

    def make() -> Op:
        state["n"] += 1
        if state["n"] % (READS_PER_WRITE + 1) == 0:
            return Op("write", None, conn=writer.admin)
        return read_op(next(stream), conn=writer.public)

    return make
