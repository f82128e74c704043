"""Per-layer self time for the traced run, recorded from outside ``src``.

The tracer patches the public entry points of each layer (class methods
and module-level names) with wrappers that record one span per call.
It is installed only in the server process of a traced run, and only
between the ``trace_on`` and ``trace_off`` control commands.

Accounting rules:

- each thread keeps its own span stack, so a span's *self* time is its
  duration minus the spans nested in it on the same thread.  Streamed
  pages render on worker threads while the loop thread writes chunks;
  those spans overlap in time but never nest, so nothing is counted
  twice;
- every span records wall-clock time (``perf_counter``) and the
  thread's CPU time (``thread_time``).  The loop thread and the two
  edge workers share one GIL, so a span's wall self time includes the
  time it waited for the GIL while another layer ran; its CPU self time
  does not, and is the figure to compare layers by;
- callbacks a cache runs on a miss (the page build, the bean compute,
  the fragment render) are spans of the layer doing that work, not of
  the cache;
- every span carries the request id the client sent in
  ``X-Request-Id``.  Worker-thread spans take it from the request the
  entry point received; loop-thread spans that see no request (chunk
  framing) take it from the connection task that sent the head.

Spans stay in memory (one tuple each) until :meth:`Tracer.summary`.
"""

from __future__ import annotations

import asyncio
import threading
import time

REQUEST_ID_HEADER = "X-Request-Id"

#: span layers; per-layer metrics are named after these
LAYERS = (
    "httpcore.parse", "httpcore.encode", "httpcore.delivery",
    "mvc.probe", "mvc.self", "caching.self", "services.self",
    "rdb.read", "rdb.write", "presentation.self", "presentation.url_build",
)


def _rid(request) -> int | None:
    value = request.headers.get(REQUEST_ID_HEADER)
    return int(value) if value is not None else None


class _ThreadState(threading.local):
    def __init__(self):
        #: per open span: [wall, cpu] seconds of its direct children
        self.stack: list[list[float]] = []
        self.rid: int | None = None
        self.ident = threading.get_ident()


class _TracedIterator:
    """Times each ``next()`` of a lazily rendered body as ``layer``."""

    def __init__(self, tracer: "Tracer", layer: str, inner, rid):
        self._tracer = tracer
        self._layer = layer
        self._inner = inner
        self._rid = rid

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        state, start, cpu = tracer._enter()
        state.rid = self._rid
        try:
            return next(self._inner)
        finally:
            tracer._exit(state, self._layer, start, cpu)

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is None:
            return
        tracer = self._tracer
        state, start, cpu = tracer._enter()
        state.rid = self._rid
        try:
            close()
        finally:
            tracer._exit(state, self._layer, start, cpu)


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._state = _ThreadState()
        self._patches: list[tuple] = []
        self._task_rid: dict[int, int | None] = {}

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self):
        state = self._state
        state.stack.append([0.0, 0.0])
        return state, time.perf_counter(), time.thread_time()

    def _exit(self, state, layer: str, start: float, cpu_start: float) -> None:
        cpu = time.thread_time() - cpu_start
        duration = time.perf_counter() - start
        stack = state.stack
        child_wall, child_cpu = stack.pop()
        if stack:
            stack[-1][0] += duration
            stack[-1][1] += cpu
        self.spans.append((state.rid, layer, state.ident, start,
                           duration - child_wall, cpu - child_cpu))

    def bind(self, layer: str, fn):
        """``fn`` timed as a span of ``layer`` (for miss callbacks)."""
        def traced(*args, **kwargs):
            state, start, cpu = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(state, layer, start, cpu)
        return traced

    # -- wrappers -------------------------------------------------------------

    def _wrapper(self, original, layer: str, request_at=None,
                 callback=None, result=None):
        tracer = self

        def traced(*args, **kwargs):
            state, start, cpu = tracer._enter()
            try:
                if request_at is not None:
                    state.rid = _rid(args[request_at])
                if callback is not None:
                    index, callback_layer = callback
                    args = list(args)
                    args[index] = tracer.bind(callback_layer, args[index])
                value = original(*args, **kwargs)
                if result == "requests":
                    state.rid = _rid(value[-1]) if value else None
                elif result == "stream" and value is not None:
                    value.chunks = _TracedIterator(tracer, "mvc.self",
                                                   value.chunks, state.rid)
                elif result == "iterator":
                    value = _TracedIterator(tracer, layer, value, state.rid)
                return value
            finally:
                tracer._exit(state, layer, start, cpu)

        return traced

    def _send_response_wrapper(self, original):
        """The head of every response: also remembers which request the
        connection task is answering, for the chunks that follow."""
        tracer = self

        def traced(conn, request, *args, **kwargs):
            state, start, cpu = tracer._enter()
            try:
                state.rid = _rid(request)
                tracer._task_rid[id(asyncio.current_task())] = state.rid
                return original(conn, request, *args, **kwargs)
            finally:
                tracer._exit(state, "httpcore.encode", start, cpu)

        return traced

    def _encode_chunk_wrapper(self, original):
        tracer = self

        def traced(data):
            state, start, cpu = tracer._enter()
            try:
                state.rid = tracer._task_rid.get(id(asyncio.current_task()))
                return original(data)
            finally:
                tracer._exit(state, "httpcore.encode", start, cpu)

        return traced

    # -- install / uninstall -----------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        from repro.appserver import async_edge
        from repro.caching.bean_cache import UnitBeanCache
        from repro.caching.bus import InvalidationBus
        from repro.caching.fragment_cache import FragmentCache
        from repro.caching.page_cache import PageCache
        from repro.httpcore.connection import HttpConnection
        from repro.mvc import dispatcher
        from repro.mvc.dispatcher import FrontController
        from repro.presentation import jsp, tags
        from repro.presentation.renderer import PresentationRenderer
        from repro.rdb.database import Database
        from repro.services.base import RuntimeContext
        from repro.services.generic import GenericOperationService
        from repro.services.page_service import GenericPageService

        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrap = self._wrapper
        plan = [
            (HttpConnection, "receive_bytes",
             wrap(HttpConnection.receive_bytes, "httpcore.parse",
                  result="requests")),
            (HttpConnection, "send_response",
             self._send_response_wrapper(HttpConnection.send_response)),
            (async_edge, "encode_chunk",
             self._encode_chunk_wrapper(async_edge.encode_chunk)),
            (dispatcher, "finalize_delivery",
             wrap(dispatcher.finalize_delivery, "httpcore.delivery",
                  request_at=0)),
            (dispatcher, "entry_response",
             wrap(dispatcher.entry_response, "httpcore.delivery",
                  request_at=1)),
            (FrontController, "probe_cached",
             wrap(FrontController.probe_cached, "mvc.probe", request_at=1)),
            (FrontController, "handle",
             wrap(FrontController.handle, "mvc.self", request_at=1)),
            (FrontController, "handle_streaming",
             wrap(FrontController.handle_streaming, "mvc.self",
                  request_at=1, result="stream")),
            (PageCache, "get_or_build",
             wrap(PageCache.get_or_build, "caching.self",
                  callback=(2, "mvc.self"))),
            (FragmentCache, "get_or_render",
             wrap(FragmentCache.get_or_render, "caching.self",
                  callback=(2, "presentation.self"))),
            (UnitBeanCache, "get_or_compute",
             wrap(UnitBeanCache.get_or_compute, "caching.self",
                  callback=(2, "services.self"))),
            (GenericPageService, "compute_page",
             wrap(GenericPageService.compute_page, "services.self")),
            (GenericOperationService, "execute",
             wrap(GenericOperationService.execute, "services.self")),
            (RuntimeContext, "query",
             wrap(RuntimeContext.query, "rdb.read")),
            (RuntimeContext, "query_statement",
             wrap(RuntimeContext.query_statement, "rdb.read")),
            (RuntimeContext, "execute",
             wrap(RuntimeContext.execute, "rdb.write")),
            (PresentationRenderer, "__call__",
             wrap(PresentationRenderer.__call__, "presentation.self")),
            (PresentationRenderer, "stream_chunks",
             wrap(PresentationRenderer.stream_chunks, "presentation.self",
                  result="iterator")),
            (jsp, "build_url",
             wrap(jsp.build_url, "presentation.url_build")),
            (tags, "build_url",
             wrap(tags.build_url, "presentation.url_build")),
            (dispatcher, "build_url",
             wrap(dispatcher.build_url, "presentation.url_build")),
        ]
        for name in ("peek", "make_entry", "begin_flight", "finish_flight",
                     "put_if_current"):
            plan.append((PageCache, name,
                         wrap(getattr(PageCache, name), "caching.self")))
        plan.append((InvalidationBus, "invalidate_writes",
                     wrap(InvalidationBus.invalidate_writes, "caching.self")))
        for name in ("begin", "commit", "rollback"):
            plan.append((Database, name,
                         wrap(getattr(Database, name), "rdb.write")))
        for owner, name, replacement in plan:
            self._patch(owner, name, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict:
        """Wall and CPU self time per layer, and per request id what the
        attribution checks need: when its first span started, and its
        CPU self time on each thread."""
        layers = {layer: 0.0 for layer in LAYERS}
        layers_cpu = {layer: 0.0 for layer in LAYERS}
        requests: dict[int, dict] = {}
        self_total = 0.0
        cpu_total = 0.0
        unassigned = 0
        for rid, layer, thread, start, self_time, self_cpu in self.spans:
            layers[layer] += self_time
            layers_cpu[layer] += self_cpu
            self_total += self_time
            cpu_total += self_cpu
            if rid is None:
                unassigned += 1
                continue
            entry = requests.setdefault(rid, {"first_start": start,
                                              "cpu_by_thread": {}})
            entry["first_start"] = min(entry["first_start"], start)
            by_thread = entry["cpu_by_thread"]
            by_thread[thread] = by_thread.get(thread, 0.0) + self_cpu
        return {
            "layers_s": layers,
            "layers_cpu_s": layers_cpu,
            "span_total": len(self.spans),
            "unassigned_spans": unassigned,
            "self_total_s": self_total,
            "cpu_total_s": cpu_total,
            "requests": {
                rid: {"first_start": entry["first_start"],
                      "max_thread_cpu_s": max(entry["cpu_by_thread"].values())}
                for rid, entry in requests.items()
            },
        }
