"""The mutant run of ``scripts/mutants.py``: its list of sites, and its end on a SIGTERM;
the paired benchmark record of ``scripts/bench_pairs.py``: its arguments, what a stopped
run keeps, and its end on a SIGTERM; and the errors of ``scripts/graded_dimension_table.py``."""

import contextlib
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS_SCRIPT = ROOT / "scripts" / "mutants.py"
BENCH_PAIRS_SCRIPT = ROOT / "scripts" / "bench_pairs.py"
TABLE_SCRIPT = ROOT / "scripts" / "graded_dimension_table.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_mutants():
    return _load(MUTANTS_SCRIPT, "mutants_script")


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


def _command_line(pid: int) -> str:
    try:
        return Path("/proc", str(pid), "cmdline").read_bytes().replace(b"\0", b" ").decode()
    except OSError:
        return ""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process table in /proc")
@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(), reason="archives revisions of a git checkout"
)
def test_a_sigterm_ends_the_bench_pairs_run_with_its_benchmark_and_its_copy(tmp_path):
    # as for the mutant run: its own session, so that the finally clause can end
    # whatever the killed benchmark run had started
    out = tmp_path / "r.json"
    run = subprocess.Popen(
        [sys.executable, str(BENCH_PAIRS_SCRIPT), "--parent", "HEAD", "--change", "HEAD",
         "--run", "cli-corpus:1-1", "--out", str(out)],
        env=dict(os.environ, TMPDIR=str(tmp_path)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (benchmark := [pid for pid in _children(run.pid) if "bench/run.py" in _command_line(pid)]):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=60) == 128 + signal.SIGTERM
        assert not [pid for pid in benchmark if _alive(pid)]
        assert not list(tmp_path.glob("bench-pairs-*"))
        assert not out.exists()
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(run.pid, signal.SIGKILL)
        run.wait()


@pytest.fixture
def bench_pairs_git(monkeypatch):
    """``scripts/bench_pairs.py`` loaded as a module, with its SIGTERM handler left uninstalled."""
    module = _load(BENCH_PAIRS_SCRIPT, "bench_pairs_script")
    monkeypatch.setattr(module.signal, "signal", lambda *args: None)
    return module


@pytest.fixture
def bench_pairs(bench_pairs_git, monkeypatch):
    """As ``bench_pairs_git``, with revisions read as themselves, not looked up in git."""
    monkeypatch.setattr(bench_pairs_git, "revision", lambda rev: (rev, f"{rev}-tree"))
    return bench_pairs_git


def _run_bench_pairs(module, monkeypatch, *argv: str) -> int:
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "p", "--change", "c", *argv])
    return module.main()


def test_a_stopped_bench_pairs_run_keeps_the_pairs_it_measured(bench_pairs, monkeypatch, tmp_path):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = []

    def run_once(sha, workload, seed, seconds, scratch):
        runs.append((sha, seed))
        if len(runs) == 3:  # the second pair's first run
            raise SystemExit(143)
        return {"metrics": {name: {"value": float(len(runs))} for name in names}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit):
        _run_bench_pairs(bench_pairs, monkeypatch, "--run", "euler-algebra:7-9", "--out", str(out))
    [record] = json.loads(out.read_text())["workloads"]["euler-algebra"]
    assert record["seeds"] == [7, 8, 9]
    assert [(pair["seed"], pair["first"]) for pair in record["pairs"]] == [(7, "parent")]
    assert record["pairs"][0]["parent"]["metrics"]["ops_per_s"]["value"] == 1.0
    assert record["summary"]["ops_per_s"]["pairs"] == 1
    assert record["summary"]["ops_per_s"]["change_wins"] == 1


@pytest.mark.parametrize(
    "run, message",
    [("euler-algebra:30-21", "holds no seed"), ("nosuch:1-2", "names no workload 'nosuch'")],
)
def test_bench_pairs_checks_every_run_before_it_runs_one(bench_pairs, monkeypatch, tmp_path, capsys, run, message):
    def run_once(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exit_info:
        _run_bench_pairs(bench_pairs, monkeypatch, "--run", "euler-algebra:1-2", "--run", run, "--out", str(out))
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bench_pairs_refuses_an_out_in_a_missing_directory(bench_pairs, monkeypatch, tmp_path, capsys):
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    out = tmp_path / "missing" / "pairs.json"
    with pytest.raises(SystemExit) as exit_info:
        _run_bench_pairs(bench_pairs, monkeypatch, "--run", "euler-algebra:1-2", "--out", str(out))
    assert exit_info.value.code == 2
    assert "is not a directory" in capsys.readouterr().err
    assert runs == []
    assert list(tmp_path.iterdir()) == []


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def test_bench_pairs_records_each_side_s_commit_and_tree(bench_pairs_git, monkeypatch, tmp_path):
    # a tree hash outlives a squash of its commit
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = []

    def run_once(sha, workload, seed, seconds, scratch):
        runs.append(sha)
        return {"metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(bench_pairs_git, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "HEAD~0", "--change", "HEAD",
                                      "--run", "euler-algebra:1-1", "--out", str(tmp_path / "r.json")])
    assert bench_pairs_git.main() == 0
    record = json.loads((tmp_path / "r.json").read_text())
    commit, tree = _git("rev-parse", "HEAD"), _git("rev-parse", "HEAD^{tree}")
    assert record["revisions"] == {"parent": commit, "change": commit}
    assert record["trees"] == {"parent": tree, "change": tree}
    assert runs == [commit, commit]


@pytest.mark.parametrize("side", ["parent", "change"])
def test_bench_pairs_rejects_an_unknown_revision_before_any_run(
    bench_pairs_git, monkeypatch, tmp_path, capsys, side
):
    runs = []
    monkeypatch.setattr(bench_pairs_git, "run_once", lambda *args: runs.append(args))
    revisions = {"parent": "HEAD", "change": "HEAD", side: "nosuchrev"}
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", revisions["parent"], "--change",
                                      revisions["change"], "--run", "euler-algebra:1-2", "--out", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs_git.main()
    assert exit_info.value.code == 2
    assert f"git knows no commit 'nosuchrev' (--{side})" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def _run_table(monkeypatch, *argv: str) -> int:
    module = _load(TABLE_SCRIPT, "graded_dimension_table_script")
    monkeypatch.setattr(sys, "argv", ["graded_dimension_table.py", *argv])
    return module.main()


@pytest.mark.parametrize(
    "fan, content, code, error",
    [
        # the bundled non-examples are looked up by name, and rejected by the package
        ("singular_cone", None, 1, "NotSmooth"),
        ("incomplete_a2", None, 1, "NotComplete"),
        ("missing.json", None, 2, "FileNotFoundError"),
        ("truncated.json", b'{"dim": 2, ', 2, "JSONDecodeError"),
        ("latin1.json", b"\xff", 2, "UnicodeDecodeError"),
        # smooth and facet-paired, but a fold, not a fan
        ("fold.json", b'{"dim": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
         3, "MalformedFan"),
    ],
    ids=["singular_cone", "incomplete_a2", "missing", "truncated", "latin1", "fold"],
)
def test_the_table_script_reports_a_fan_it_cannot_tabulate_in_one_line(
    monkeypatch, tmp_path, capsys, fan, content, code, error
):
    if fan.endswith(".json"):
        path = tmp_path / fan
        if content is not None:
            path.write_bytes(content)
        fan = str(path)
    assert _run_table(monkeypatch, fan) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{fan}: {error}: ") and err.count("\n") == 1, err


def test_the_table_script_rejects_a_negative_radius(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _run_table(monkeypatch, "p1", "--radius", "-1")
    assert exit_info.value.code == 2
    assert "radius -1 is negative" in capsys.readouterr().err


def test_the_table_script_reports_out_of_memory_in_one_line(monkeypatch, capsys):
    # the CLI's error map ends the run: exit 1 and one stderr line, not a traceback
    module = _load(TABLE_SCRIPT, "graded_dimension_table_script")

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(module, "print_table", exhausted)
    monkeypatch.setattr(sys, "argv", ["graded_dimension_table.py", "delpezzo6"])
    assert module.main() == 1
    assert capsys.readouterr() == ("", "delpezzo6: MemoryError: out of memory\n")
