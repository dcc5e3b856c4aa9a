"""The per-test watchdog in ``tests/conftest.py`` turns a hang into a failure."""

import shutil
import subprocess
import sys
from pathlib import Path

HANGING_TESTS = '''
import threading

import pytest


@pytest.mark.timeout(1)
def test_hangs():
    threading.Event().wait()


def test_runs_after_the_hang():
    pass
'''


def test_hang_fails_one_test_with_every_stack(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_hang.py").write_text(HANGING_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "test_hang.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout
    assert "WatchdogTimeout" in proc.stdout
    assert "most recent call first" in proc.stderr  # faulthandler dump
