"""Tests of the benchmark itself: seeding, arithmetic, parsing, tracing,
and one short run per workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import dataset, workloads
from perfbench.client import parse_response
from perfbench.stats import (
    Failures,
    checked_percentile,
    percentile,
    quiet_windows,
    steal_share,
    tail_samples,
)
from perfbench.tracer import Tracer, _TracedIterator

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- seeding ------------------------------------------------------------------


def test_same_seed_same_dataset_other_seed_other_dataset():
    first, again, other = dataset.generate(7), dataset.generate(7), dataset.generate(8)
    assert first == again
    assert [p.title for p in first.papers] != [p.title for p in other.papers]
    assert first.row_counts() == {
        "volumes": 20, "issues": 120, "papers": 1200, "authors": 400,
        "authorships": first.row_counts()["authorships"], "users": 1,
    }


def test_dataset_shape_serves_the_pages_the_checks_expect():
    data = dataset.generate(3)
    assert len({p.title for p in data.papers}) == len(data.papers)
    assert all(1 <= len(set(p.authors)) == len(p.authors) <= 4
               for p in data.papers)
    lengths = {len(p.abstract.split()) for p in data.papers}
    assert min(lengths) >= 40 and max(lengths) <= 160 and len(lengths) > 50
    text = " ".join([p.title for p in data.papers] + data.authors
                    + [v["title"] for v in data.volumes])
    assert not set(text) & set("&<>\"'")  # markers survive HTML escaping


def _targets(workload: str, seed: int, count: int = 300) -> list[str]:
    site = workloads.Site(dataset.generate(seed))
    stream = workloads.read_stream(workload, site, seed, "latency")
    return [read.target for read in itertools.islice(stream, count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_urls_other_seed_other_urls(workload):
    assert _targets(workload, 5) == _targets(workload, 5)
    assert _targets(workload, 5) != _targets(workload, 6)


def test_arrival_schedule_is_seeded_poisson():
    schedule = workloads.arrivals(200.0, 20.0, seed=4)
    assert schedule == workloads.arrivals(200.0, 20.0, seed=4)
    assert schedule != workloads.arrivals(200.0, 20.0, seed=9)
    assert schedule == sorted(schedule) and schedule[-1] < 20.0
    assert 3600 < len(schedule) < 4400


def test_workload_sizes_against_cache_capacities():
    site = workloads.Site(dataset.generate(2))
    hot = workloads.distinct_urls("hot_pages", site, 2)
    cold = workloads.distinct_urls("cold_catalog", site, 2)
    mix = workloads.distinct_urls("write_mix", site, 2)
    assert hot == 25  # fits the 512-entry page cache
    assert 2800 <= cold <= 3200  # outgrows page (512) and fragment (1,024)
    assert 150 <= mix <= 220


def test_cold_catalog_walks_each_kind_before_repeating():
    site = workloads.Site(dataset.generate(2))
    stream = workloads.read_stream("cold_catalog", site, 2, "capacity")
    papers = [r.target for r in itertools.islice(stream, 3000)
              if r.kind == "paper"][:1200]
    assert len(set(papers)) == len(papers)


# -- arithmetic -----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_needs_ten_samples_beyond_it():
    assert tail_samples(1000, 99) == 10
    assert tail_samples(999, 99) == 9
    problems: list[str] = []
    checked_percentile(list(range(1000)), 99, problems, "p99")
    assert problems == []
    checked_percentile(list(range(500)), 99, problems, "p99")
    assert len(problems) == 1 and "p99" in problems[0]
    assert math.isnan(checked_percentile([], 50, problems, "p50"))
    assert problems[-1] == "p50: only 0 of 0 samples beyond p50"


def test_failure_accounting():
    failures = Failures()
    for _ in range(8):
        failures.attempt()
    failures.fail("stale read", "/x")
    failures.fail("stale read", "/y")
    failures.fail("timeout", "/z")
    assert failures.attempted == 8 and failures.failed == 3
    assert failures.by_cause == {"stale read": 2, "timeout": 1}
    assert failures.examples["stale read"] == "/x"
    assert Failures().failed == 0


def test_quiet_windows_drop_the_stolen_half():
    #  /proc/stat fields: user nice system idle iowait irq softirq steal
    before = [100, 0, 10, 500, 0, 0, 0, 20]
    after = [180, 0, 20, 560, 0, 0, 0, 70]
    assert steal_share(before, after) == pytest.approx(50 / 200)
    assert steal_share(before, before) == 0.0
    assert quiet_windows([0.02, 0.30, 0.01, 0.25, 0.03]) == [0, 2, 4]
    assert quiet_windows([0.0, 0.0, 0.0, 0.4]) == [0, 1, 2]
    assert quiet_windows([0.1, 0.2]) == [0]


# -- wire parsing -------------------------------------------------------------------


def test_parse_response_framings():
    fixed = bytearray(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nETag: \"a\"\r\n"
                      b"\r\nhelloHTTP/1.1")
    response, used = parse_response(fixed)
    assert (response.status, response.body, response.headers["etag"]) == (
        200, b"hello", '"a"')
    assert fixed[used:] == b"HTTP/1.1"
    chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" \
              b"3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n"
    assert parse_response(bytearray(chunked))[0].body == b"abcde"
    assert parse_response(bytearray(chunked[:-3])) is None
    bodyless = b"HTTP/1.1 304 Not Modified\r\nETag: \"a\"\r\n\r\n"
    assert parse_response(bytearray(bodyless))[0].status == 304
    assert parse_response(bytearray(b"HTTP/1.1 200 OK\r\nContent-Le")) is None


# -- tracing ------------------------------------------------------------------------


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_excludes_nested_spans_in_wall_and_cpu_time():
    tracer = Tracer()
    inner = tracer._wrapper(lambda: (_spin(0.004), time.sleep(0.004)),
                            "rdb.read")
    outer = tracer._wrapper(lambda: (inner(), _spin(0.002)), "services.self")
    outer()
    summary = tracer.summary()
    assert summary["span_total"] == 2
    wall, cpu = summary["layers_s"], summary["layers_cpu_s"]
    assert wall["rdb.read"] >= 0.008
    assert 0.002 <= wall["services.self"] < 0.004
    # the sleep is wall time only: CPU self time leaves out waiting
    assert 0.003 <= cpu["rdb.read"] < 0.007
    assert 0.0015 <= cpu["services.self"] < 0.004
    assert summary["cpu_total_s"] < summary["self_total_s"]


def test_callbacks_and_iterators_are_spans_of_their_layer():
    tracer = Tracer()
    get_or_build = tracer._wrapper(lambda key, build: build(), "caching.self",
                                   callback=(1, "mvc.self"))
    get_or_build("k", lambda: time.sleep(0.002))
    before = time.perf_counter()
    chunks = _TracedIterator(tracer, "presentation.self", iter(["a", "b"]), 41)
    assert list(chunks) == ["a", "b"]
    chunks.close()
    summary = tracer.summary()
    assert summary["layers_s"]["mvc.self"] >= 0.002
    assert summary["layers_s"]["caching.self"] < 0.002
    request = summary["requests"][41]
    assert request["first_start"] >= before
    assert request["max_thread_cpu_s"] == pytest.approx(
        summary["layers_cpu_s"]["presentation.self"])


def test_span_attribution_counts_spans_that_cannot_be_the_requests():
    from types import SimpleNamespace

    from perfbench.client import Record
    from perfbench.run import ATTRIBUTION_SLACK_S, check_attribution

    run = SimpleNamespace(client=SimpleNamespace(failures=Failures()),
                          notes=[])
    records = [Record("latency", "paper", rid, 0.0, sent, sent + 0.010, 100)
               for rid, sent in ((1, 10.0), (2, 11.0), (3, 12.0))]
    check_attribution(run, records, {
        "1": {"first_start": 10.001, "max_thread_cpu_s": 0.009},
        "2": {"first_start": 10.999, "max_thread_cpu_s": 0.001},
        "3": {"first_start": 12.001,
              "max_thread_cpu_s": 0.010 + ATTRIBUTION_SLACK_S + 0.001},
        "4": {"first_start": 13.0, "max_thread_cpu_s": 0.001},
    })
    assert run.client.failures.by_cause == {
        "trace attribution: span before send": 2,  # request 2; unsent 4
        "trace attribution: CPU over latency": 1,  # request 3
    }


def test_install_and_uninstall_restore_every_entry_point():
    from repro.httpcore.connection import HttpConnection
    from repro.mvc import dispatcher

    original = (HttpConnection.__dict__["receive_bytes"],
                dispatcher.finalize_delivery)
    tracer = Tracer()
    tracer.install()
    try:
        assert HttpConnection.__dict__["receive_bytes"] is not original[0]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert (HttpConnection.__dict__["receive_bytes"],
            dispatcher.finalize_delivery) == original


# -- end to end -----------------------------------------------------------------------


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "4", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _benchmark_metrics(section: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"] for metric in json.load(handle)[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    done = _run(workload, trace=0)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == _benchmark_metrics("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate 0.000000" in done.stdout
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))


def test_smoke_traced_run_reports_every_per_layer_metric():
    done = _run("write_mix", trace=1)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(result["metrics"]) == _benchmark_metrics("per_layer")
    assert metrics["caching.dropped_per_write"] > 0
    assert metrics["rdb.wal_fsyncs_per_write"] >= 1


def test_without_the_program_the_run_fails_fast(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("hot_pages", trace=0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
