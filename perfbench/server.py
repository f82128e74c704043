"""The server process of one benchmark run.

``python3 perfbench/server.py --seed N --workdir DIR`` builds the ACM
application (codegen, templates, durable database under ``DIR``, seeded
dataset), serves it with ``AsyncAppServer(workers=2)`` on a loopback
port, and then obeys one JSON command per line on standard input,
answering each with one JSON line on standard output:

- ``{"cmd": "stats"}`` — counters of every layer plus process CPU and RSS;
- ``{"cmd": "flush"}`` — empty every cache level; answers the entries dropped;
- ``{"cmd": "trace", "on": true|false}`` — install or remove the tracer;
- ``{"cmd": "spans"}`` — the tracer's summary (:meth:`Tracer.summary`);
- ``{"cmd": "stop"}`` — stop the edge, close the database, exit.

End of input is a stop too, so the server never outlives its client.
The first line it prints is ``{"ready": port, "setup": {...}}`` with the
time of each set-up phase.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

EDGE_WORKERS = 2


def build_application(seed: int, workdir: str):
    """The system under test; returns ``(app, setup_phase_seconds)``."""
    from repro.app import WebApplication
    from repro.caching import FragmentCache, PageCache, UnitBeanCache
    from repro.codegen import generate_project
    from repro.presentation import PresentationRenderer
    from repro.presentation.renderer import default_stylesheet
    from repro.rdb import Database
    from repro.workloads.acm import build_acm_model

    from perfbench import dataset

    phases = {}
    started = time.perf_counter()
    model = build_acm_model()
    # as in E15: every non-entry unit is cacheable and every unit rule
    # caches its fragment, so all three cache levels take part
    for unit in model.all_units():
        if unit.kind != "entry":
            unit.cacheable = True
    project = generate_project(model)
    phases["codegen_s"] = time.perf_counter() - started

    started = time.perf_counter()
    stylesheet = default_stylesheet("ACM")
    for rule in stylesheet.unit_rules:
        rule.set_attrs["fragment"] = "cache"
    renderer = PresentationRenderer(project.skeletons, stylesheet,
                                    fragment_cache=FragmentCache())
    phases["compile_s"] = time.perf_counter() - started

    started = time.perf_counter()
    app = WebApplication(
        model, view_renderer=renderer, bean_cache=UnitBeanCache(),
        page_cache=PageCache(), database=Database.open(workdir),
    )
    phases["schema_s"] = time.perf_counter() - started

    started = time.perf_counter()
    dataset.load(app, dataset.generate(seed))
    app.ctx.stats.reset()
    app.database.stats.reset()
    phases["seed_s"] = time.perf_counter() - started
    return app, phases


def _rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def snapshot(app, edge) -> dict:
    """Cumulative counters; the client differences two of them."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    edge_stats = edge.stats()
    edge_stats.pop("ttfb", None)
    caches = {"page": app.page_cache.stats,
              "fragment": app.front.view_renderer.fragment_cache.stats,
              "bean": app.ctx.bean_cache.stats}
    db = app.database.stats
    storage = app.database.storage_stats()
    runtime = app.ctx.stats
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": _rss_mb(),
        "edge": edge_stats,
        "caches": {
            level: {"hits": s.hits, "misses": s.misses,
                    "evictions": s.evictions,
                    "invalidations": s.invalidations}
            for level, s in caches.items()
        },
        "runtime": {
            "pages_computed": runtime.pages_computed,
            "units_computed": runtime.units_computed,
            "queries_executed": runtime.queries_executed,
            "operations_executed": runtime.operations_executed,
        },
        "db": {
            "selects": db.selects, "inserts": db.inserts,
            "updates": db.updates, "deletes": db.deletes,
            "rows_read": db.rows_read, "prepared_reuse": db.prepared_reuse,
        },
        "storage": {
            "commits": storage["commits"],
            "wal_fsyncs": storage["wal_fsyncs"],
            "wal_bytes": storage["wal_bytes"],
        },
    }


def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def serve(seed: int, workdir: str) -> None:
    from repro.appserver import AsyncAppServer

    from perfbench.tracer import Tracer

    app, phases = build_application(seed, workdir)
    started = time.perf_counter()
    edge = AsyncAppServer(app, workers=EDGE_WORKERS)
    _host, port = edge.listen()
    phases["listen_s"] = time.perf_counter() - started
    tracer = None
    try:
        _emit({"ready": port, "setup": phases})
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "stop":
                break
            if name == "stats":
                _emit(snapshot(app, edge))
            elif name == "flush":
                _emit({"dropped": sum(
                    app.ctx.invalidation_bus.flush().values())})
            elif name == "trace":
                if command["on"]:
                    tracer = tracer or Tracer()
                    tracer.install()
                elif tracer is not None:
                    tracer.uninstall()
                _emit({"trace": bool(command["on"])})
            elif name == "spans":
                _emit(tracer.summary() if tracer is not None else {})
            else:
                _emit({"error": f"unknown command {name!r}"})
    finally:
        if tracer is not None:
            tracer.uninstall()
        edge.stop()
        app.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    serve(args.seed, args.workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
