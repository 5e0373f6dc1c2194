"""The mutant run of ``scripts/mutants.py``: its list of sites, and its end on a SIGTERM."""

import contextlib
import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS_SCRIPT = ROOT / "scripts" / "mutants.py"


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants_script", MUTANTS_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_names_one_site():
    # a site that moves or doubles fails here, without the whole mutant run
    mutants = _load_mutants()
    for m in mutants.MUTANTS:
        source = (mutants.ROOT / mutants.PACKAGE / m.module).read_text()
        assert mutants.mutated_source(m, source) != source, m.name


def _children(pid: int) -> set[int]:
    """The processes whose parent is ``pid``, read from /proc/*/stat."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # the fields after the parenthesised command: state, ppid, ...
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            found.add(int(entry))
    return found


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process table in /proc")
def test_a_sigterm_ends_the_mutant_run_with_its_tests_and_its_copy(tmp_path):
    # The run's own session holds every process it starts, so the finally
    # clause can end whatever a test of the killed pytest had started.
    run = subprocess.Popen(
        [sys.executable, str(MUTANTS_SCRIPT)],
        env=dict(os.environ, TMPDIR=str(tmp_path)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (children := _children(run.pid)):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=60) == 128 + signal.SIGTERM
        assert not [pid for pid in children if _alive(pid)]
        assert not list(tmp_path.glob("toric-cox-mutants-*"))
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(run.pid, signal.SIGKILL)
        run.wait()
