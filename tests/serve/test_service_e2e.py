"""End-to-end tests of the HTTP service over a real worker fleet.

The service runs in a background thread with its own asyncio loop and
real forked workers; tests talk to it over real sockets through the
stdlib client.  A stub executor (sleep-by-spec) keeps the concurrency
tests fast and deterministic; one test runs the real cached runner to
pin the acceptance property — streamed results digest-identical to a
direct ``repro run``.
"""

import asyncio
import gc
import hashlib
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.service import ReproService, ServeConfig

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SPEC = {
    "framework": "atos-standard-persistent",
    "app": "bfs",
    "dataset": "hollywood-2009",
    "machine": "daisy",
    "n_gpus": 1,
}


@dataclass
class FakeResult:
    """Stub RunResult: enough surface for the service's summaries."""

    value: str
    time_ms: float = 1.0
    cache_hits: int = 0
    cache_misses: int = 1
    counters: dict = field(default_factory=dict)

    def digest(self) -> str:
        return hashlib.sha256(self.value.encode()).hexdigest()


#: Directory stub executions mark; set per-test via the environment so
#: forked workers inherit it.
_MARK_ENV = "REPRO_TEST_EXEC_DIR"


def stub_run(spec, trace=False):
    """Deterministic stub executor: sleep spec.seed ms, mark, return.

    Module-level so forked fleet workers resolve it; the execution
    marker file is how tests count *actual* executions (the dedup
    proof: N submits, one marker).
    """
    time.sleep(spec.seed / 1000.0)
    mark_dir = os.environ.get(_MARK_ENV)
    if mark_dir:
        label = spec.label().replace("/", "_")
        with open(
            os.path.join(mark_dir, f"{label}.{os.getpid()}.{time.time_ns()}"),
            "w",
        ):
            pass
    trace_doc = {"traceEvents": [{"name": spec.label()}]} if trace else None
    return FakeResult(value=spec.label()), trace_doc


class ServiceThread:
    """A live service on an ephemeral port, in a background loop."""

    def __init__(self, config: ServeConfig, run_fn=stub_run):
        self.config = config
        self.run_fn = run_fn
        self.service = None
        self.port = None
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())
        # Python 3.11's asyncio can orphan a connection accepted just as
        # the server closes, held only by a reference cycle.  A real
        # server process exits here, which closes it; collect it so its
        # client gets EOF instead of waiting out its timeout.
        gc.collect()

    async def _main(self):
        self.loop = asyncio.get_running_loop()
        self.service = ReproService(self.config, run_fn=self.run_fn)
        _, self.port = await self.service.start()
        self._ready.set()
        await self.service._stopped.wait()

    def client(self, timeout_s: float = 30.0) -> ServeClient:
        return ServeClient(port=self.port, timeout_s=timeout_s)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(30), "service did not start"
        return self

    def __exit__(self, *exc):
        try:
            self.loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.service.drain())
            )
        except RuntimeError:
            pass  # loop closed: the test already drained the service
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "service did not stop"


def _config(**overrides) -> ServeConfig:
    defaults = dict(port=0, workers=2, max_queue=16, drain_grace_s=10.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


# ----------------------------------------------------------- concurrency
def test_eight_concurrent_requests_all_served():
    with ServiceThread(_config(workers=4, max_queue=32)) as live:
        client = live.client()
        jobs, errors = [], []

        def submit(i):
            try:
                body = {"spec": dict(SPEC, seed=100 + i)}
                jobs.append(client.submit(body)["job_id"])
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(jobs)) == 8
        for job_id in jobs:
            final = client.wait(job_id)
            assert final["state"] == "done"
            assert final["results"][0]["status"] == "ok"
        counters = client.stats()["counters"]
        assert counters["service_requests"] == 8
        assert counters["service_completed"] == 8


def test_identical_concurrent_cells_execute_once():
    with tempfile.TemporaryDirectory() as marks:
        os.environ[_MARK_ENV] = marks
        try:
            # seed=300 -> each execution takes 300 ms, so all five
            # submits land while the first is still in flight.
            with ServiceThread(_config(workers=2)) as live:
                client = live.client()
                body = {"spec": dict(SPEC, seed=300)}
                jobs = [client.submit(body)["job_id"] for _ in range(5)]
                digests = set()
                for job_id in jobs:
                    final = client.wait(job_id)
                    assert final["state"] == "done"
                    digests.add(final["results"][0]["digest"])
                assert len(digests) == 1
                counters = client.stats()["counters"]
                assert counters["service_cells"] == 5
                assert counters["service_deduped"] == 4
                assert counters["service_completed"] == 1
        finally:
            del os.environ[_MARK_ENV]
        executions = os.listdir(marks)
        assert len(executions) == 1  # the single-flight proof


def test_admission_control_full_queue_answers_429():
    # One worker, queue bound 2: a slow cell occupies the worker, two
    # more fill the queue, the next submit must be refused with a
    # Retry-After hint — and succeed after the backlog drains.
    with ServiceThread(_config(workers=1, max_queue=2)) as live:
        client = live.client()
        slow = [client.submit({"spec": dict(SPEC, seed=500 + i)})
                for i in range(3)]
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if client.stats()["live"]["queued"] >= 2:
                break
            time.sleep(0.02)
        with pytest.raises(ServeError) as excinfo:
            client.submit({"spec": dict(SPEC, seed=900)})
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_s >= 1
        assert client.stats()["counters"]["service_rejected"] == 1
        for accepted in slow:
            client.wait(accepted["job_id"])
        retried = client.submit({"spec": dict(SPEC, seed=900)})
        assert client.wait(retried["job_id"])["state"] == "done"


def test_sweep_request_backpressure_window():
    # A 6-cell sweep through a 1-worker service with a tiny queue:
    # the per-request in-flight window feeds cells as space frees,
    # so the whole sweep completes without a rejection.
    config = _config(workers=1, max_queue=2, max_inflight_per_request=2)
    with ServiceThread(config) as live:
        client = live.client()
        body = {
            "specs": [dict(SPEC, seed=200 + i) for i in range(6)],
            "priority": "bulk",
        }
        accepted = client.submit(body)
        assert accepted["cells"] == 6
        final = client.wait(accepted["job_id"])
        assert final["state"] == "done"
        assert final["cells_done"] == 6
        assert client.stats()["counters"].get("service_rejected", 0) == 0


# ------------------------------------------------------------- streaming
def test_stream_replays_history_for_late_watchers():
    with ServiceThread(_config()) as live:
        client = live.client()
        accepted = client.submit(
            {"specs": [dict(SPEC, seed=150 + i) for i in range(3)]}
        )
        first = list(client.watch(accepted["job_id"]))
        # The job is long done; a late watcher still gets every event.
        second = list(client.watch(accepted["job_id"]))
        assert first == second
        assert [e["event"] for e in first].count("cell") == 3
        assert first[-1]["event"] == "done"


def test_priority_rejected_and_status_endpoints():
    with ServiceThread(_config()) as live:
        client = live.client()
        with pytest.raises(ServeError) as excinfo:
            client.submit({"spec": SPEC, "priority": "urgent"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.submit({"nope": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.status("j99999")
        assert excinfo.value.status == 404
        assert client.healthz()["status"] == "ok"


def test_trace_flag_round_trip():
    with ServiceThread(_config()) as live:
        client = live.client()
        accepted = client.submit({"spec": dict(SPEC, seed=1), "trace": True})
        final = client.wait(accepted["job_id"])
        assert final["results"][0].get("trace") is True
        doc = client.trace(accepted["job_id"], 0)
        assert doc["traceEvents"]
        untraced = client.submit({"spec": dict(SPEC, seed=2)})
        client.wait(untraced["job_id"])
        with pytest.raises(ServeError) as excinfo:
            client.trace(untraced["job_id"], 0)
        assert excinfo.value.status == 404


# ----------------------------------------------------------------- drain
def test_drain_writes_stats_and_refuses_new_work():
    stats_path = os.path.join(tempfile.mkdtemp(), "stats.json")
    with ServiceThread(_config(stats_path=stats_path)) as live:
        client = live.client()
        accepted = client.submit({"spec": dict(SPEC, seed=5)})
        client.wait(accepted["job_id"])
        client.drain()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                if client.healthz()["status"] == "draining":
                    break
            except (ConnectionError, OSError):
                break
            time.sleep(0.02)
        try:
            client.submit({"spec": dict(SPEC, seed=6)})
        except (ServeError, ConnectionError, OSError) as exc:
            if isinstance(exc, ServeError):
                assert exc.status == 503
        deadline = time.monotonic() + 20.0
        while not os.path.exists(stats_path):
            assert time.monotonic() < deadline, "stats never written"
            time.sleep(0.05)
    from repro.serve.stats import ServiceStats

    stats = ServiceStats.read(stats_path)
    assert stats.counters["service_completed"] >= 1
    assert stats.config["workers"] == 2
    assert any(r.status == "completed" for r in stats.arrivals)


# ------------------------------------------------------- the real runner
def test_real_runner_digest_matches_direct_run(tmp_path, monkeypatch):
    """Acceptance: streamed result digest == direct ``repro run``."""
    from repro.harness import runner
    from repro.serve.service import execute_serve_cell

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    direct = runner.run(
        SPEC["framework"], SPEC["app"], SPEC["dataset"],
        SPEC["machine"], SPEC["n_gpus"],
    )
    with ServiceThread(
        _config(workers=2), run_fn=execute_serve_cell
    ) as live:
        client = live.client(timeout_s=120.0)
        first = client.wait(client.submit({"spec": SPEC})["job_id"])
        assert first["state"] == "done"
        assert first["results"][0]["digest"] == direct.digest()
        # Same cell again: served from cache, digest-identical.
        second = client.wait(client.submit({"spec": SPEC})["job_id"])
        assert second["results"][0]["digest"] == direct.digest()
        assert second["results"][0]["cache_hit"] is True
        assert client.stats()["counters"]["service_cache_hits"] >= 1
