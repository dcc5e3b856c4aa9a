"""Concurrent same-key writes to the run cache.

``RunCache.store`` writes through a temp file and ``os.replace``, so
simultaneous writers of one key must leave exactly one intact entry
and no stray temp file.
"""

import threading

from repro.harness.cache import RunCache


def _barrier_run(n_threads, target):
    """Run ``target(i)`` on n threads released as simultaneously as
    possible (a barrier right before the call)."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def runner(i):
        barrier.wait()
        try:
            target(i)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors


def test_simultaneous_writers_one_entry(tmp_path):
    cache = RunCache(tmp_path)
    key = RunCache.key({"cell": "shared"})

    _barrier_run(8, lambda i: cache.store(key, {"writer": i}))

    assert len(cache.entries()) == 1
    assert not list(tmp_path.glob(".tmp-*"))  # no stray temp files
    loaded = cache.load(key)
    assert isinstance(loaded, dict) and "writer" in loaded
