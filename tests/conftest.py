"""Suite-wide test settings: a private run cache and a per-test watchdog.

The suite is hermetic: a session fixture points ``REPRO_CACHE_DIR`` at
a fresh temporary directory and clears ``REPRO_JOBS``, so no test
reads or writes the user's ``~/.cache/repro-atos`` and the suite's
wall time does not depend on earlier runs or the caller's environment.

A test that hangs — a deadlocked pipe, a future nobody resolves —
would otherwise stall the whole run until an outer timeout kills it
with no clue where.  Instead every test gets ``DEFAULT_TIMEOUT_S``
seconds (setup and teardown included).  At the deadline a ``SIGALRM``
handler dumps every thread's stack to stderr and raises
:class:`WatchdogTimeout` in the main thread, so the hang becomes one
failed test and the run goes on.  If the main thread is stuck where
Python code cannot run, the handler never runs; ``faulthandler`` then
dumps the stacks and exits the run ``BACKSTOP_S`` seconds later.

Override per test, or per module through ``pytestmark``, with
``@pytest.mark.timeout(seconds)``; ``timeout(0)`` disables the
watchdog for that test.
"""

from __future__ import annotations

import faulthandler
import os
import signal
import sys

import pytest

#: Ample for tier-1: its slowest test takes a few seconds.
DEFAULT_TIMEOUT_S = 120.0
#: Grace after the deadline before faulthandler ends the whole run.
BACKSTOP_S = 30.0

#: faulthandler writes to a raw descriptor; this one is a copy of the
#: session's stderr, so it outlives any per-test redirection.
_STDERR_FD = pytest.StashKey[int]()


@pytest.fixture(scope="session", autouse=True)
def private_run_cache(tmp_path_factory):
    """Run the whole session against an empty cache, serially by default."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        mp.delenv("REPRO_JOBS", raising=False)
        yield


class WatchdogTimeout(Exception):
    """A test ran past its watchdog deadline."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test watchdog deadline in seconds "
        f"(default {DEFAULT_TIMEOUT_S:g}; 0 disables it)",
    )
    config.stash[_STDERR_FD] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    marker = item.get_closest_marker("timeout")
    seconds = float(marker.args[0]) if marker else DEFAULT_TIMEOUT_S
    if seconds <= 0:
        return (yield)

    stderr_fd = item.config.stash[_STDERR_FD]

    def on_alarm(signum, frame):
        # Dumped here, holding the interpreter lock, so no other thread
        # changes its frames mid-walk.
        faulthandler.dump_traceback(file=stderr_fd)
        raise WatchdogTimeout(
            f"{item.nodeid} exceeded its {seconds:g} s watchdog "
            "(every thread's stack is on stderr)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    faulthandler.dump_traceback_later(
        seconds + BACKSTOP_S, exit=True, file=stderr_fd
    )
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGALRM, previous)
