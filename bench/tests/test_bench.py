"""Tests of the benchmark itself: inputs, expectations, accounting and tracing.

Run with: python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import workloads
from workloads import FAILED, OK, WRONG

from toric_cox.fans import fan_from_json, validate_fan
from toric_cox.cox import cox_data
from toric_cox.euler import build_euler_module, graded_piece_dim

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
WORKLOADS = sorted(workloads.WHY)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert workloads.build(workload, 7, 3) == workloads.build(workload, 7, 3)


def test_seed_changes_the_generated_surfaces():
    surfaces = {gen.to_json(gen.blowup_surface(seed, 4)) for seed in range(8)}
    assert len(surfaces) > 1


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_every_generated_fan_is_smooth_and_complete(workload, seed):
    files, _ = workloads.build(workload, seed, 2)
    for name, text in files.items():
        data = json.loads(text)
        if "Q" in data:
            continue
        report = validate_fan(fan_from_json(text))
        expected = name[:-5] not in gen.NON_EXAMPLES
        assert (report.smooth and report.complete) == expected, name


def test_oracle_surfaces_differ_by_seed_only_in_placement():
    fans = [gen.mixed_blowup(seed, 4, 1) for seed in range(8)]
    assert len({gen.to_json(fan) for fan in fans}) > 1
    assert all(gen.grading(fan) == gen.grading(fans[0]) for fan in fans)


def test_blowup_has_requested_rank():
    for rank in (2, 3, 4, 5):
        fan = gen.blowup_surface(3, rank)
        assert cox_data(fan_from_json(gen.to_json(fan))).cl_rank == rank


@pytest.mark.parametrize("name", sorted(gen.CORPUS))
def test_grading_is_a_relation_basis(name):
    fan = gen.make_fan(*gen.CORPUS[name])
    g = gen.grading(fan)
    assert len(g["Q"]) == len(fan["rays"]) - fan["dim"]
    for row in g["Q"]:
        for c in range(fan["dim"]):
            assert sum(q * ray[c] for q, ray in zip(row, fan["rays"])) == 0
    assert g["w"] == [sum(row) for row in g["Q"]]


@pytest.mark.parametrize("name, degree", workloads.EULER_DEGREES)
def test_closed_form_matches_the_package(name, degree):
    cd = cox_data(fan_from_json(gen.to_json(gen.product(*workloads.PRODUCTS[name]))))
    em = build_euler_module(cd)
    expected = workloads.product_module_dim(workloads.PRODUCTS[name], em.basis_degrees, degree)
    assert expected == graded_piece_dim(em, degree)


def _report(code, entries, ok=True, status_code=""):
    status = {"ok": True} if ok else {"ok": False, "code": status_code, "message": ""}
    return json.dumps({"command": "x", "input_digest": "", "status": status,
                       "sections": [{"title": "t", "entries": entries}]})


def test_exit_one_on_a_valid_fan_is_a_failed_operation():
    op = {"cmd": "verify", "file": "f.json", "expect": 0}
    passed = _report(0, [["fan validation", "pass: ..."]])
    assert workloads.check_cli(op, 0, passed)[0] == OK
    wrong = _report(1, [["euler identity", "FAIL: 3 failures"]], ok=False, status_code="verification")
    assert workloads.check_cli(op, 1, wrong)[0] == WRONG
    gave_up = _report(1, [["round trip", "FAIL: no ample divisor with coefficients <= 2"]],
                      ok=False, status_code="verification")
    assert workloads.check_cli(op, 1, gave_up)[0] == FAILED
    assert workloads.check_cli(op, 1, "Traceback (most recent call last):")[0] == WRONG
    assert workloads.check_cli(op, None, "")[0] == FAILED


def test_wrong_euler_dimension_is_a_failed_operation():
    op = {"cmd": "euler", "file": "p2.json", "degree": [2], "factors": [2]}
    entries = [["basis degrees", "(1); (1); (1)"], ["dimension", "9"]]
    assert workloads.check_cli(op, 0, _report(0, entries))[0] == OK
    entries[1][1] = "10"
    assert workloads.check_cli(op, 0, _report(0, entries))[0] == WRONG
    assert workloads.check_cli(op, 0, _report(0, entries[1:]))[0] == WRONG


def test_reconstruct_on_a_non_ample_grading_must_exit_one():
    op = {"cmd": "reconstruct", "file": "g.json", "expect": 1}
    assert workloads.check_cli(op, 1, _report(1, [], ok=False, status_code="NotSmooth"))[0] == OK
    assert workloads.check_cli(op, 0, _report(0, []))[0] == WRONG


def test_dimension_off_by_one_is_a_failed_operation(monkeypatch):
    import worker
    from toric_cox import cox

    fan = fan_from_json(gen.to_json(gen.blowup_surface(0, 2)))
    item = {"rank": 2, "radius": 1}
    honest = worker.Pass(None)
    worker.oracle_rank(honest, [(fan, item)], {})
    assert honest.attempted == 9 and honest.failed == 0

    real = cox.graded_dimension
    monkeypatch.setattr(cox, "graded_dimension", lambda cd, lam: real(cd, lam) + 1)
    broken = worker.Pass(None)
    worker.oracle_rank(broken, [(fan, item)], {})
    assert broken.attempted == 9 and broken.failed >= 1 and broken.wrong == broken.failed


def test_warm_cache_is_detected():
    import worker

    validate_fan(fan_from_json(gen.to_json(gen.make_fan(*gen.CORPUS["p2"]))))
    with pytest.raises(RuntimeError, match="not empty"):
        worker.cold_caches()


def test_tracer_rebinds_copies_and_reports_absent_functions():
    script = """
import json, spans
import toric_cox.lattice, toric_cox.polyhedral as poly
del toric_cox.lattice.solve_integer
tracer = spans.Tracer()
tracer.install()
assert poly.solve_rational is toric_cox.lattice.solve_rational
p = poly.RationalPolytope.from_inequalities([((1, 0), 0), ((0, 1), 0), ((-1, -1), 2)], 2)
points = poly.polytope_lattice_points(p)
print(json.dumps({"points": len(points), "summary": tracer.summary(), "spans": len(tracer.spans)}))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": f"{BENCH}:{ROOT / 'src'}", "PATH": ""})
    result = json.loads(out.stdout)
    summary = result["summary"]
    under = {(c, p): n for c, p, n in summary["under"]}
    assert result["points"] == 6
    assert under[("lattice.solve_rational", "polyhedral.polytope_vertices")] == 3
    assert under[("polyhedral.RationalPolytope.satisfies", "polyhedral.polytope_lattice_points")] == 9
    assert "lattice.solve_integer" in summary["absent"]
    assert result["spans"] == sum(summary["calls"].values())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_and_untraced_runs_count_the_same_operations():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for trace in ("0", "1"):
        out = _run("--workload", "euler-algebra", "--seed", "3", "--seconds", "1", "--trace", trace)
        assert out.returncode == 0, out.stderr
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    plain, traced = results
    assert plain["correct"] and traced["correct"]
    assert (plain["attempted"], plain["failed"]) == (traced["attempted"], traced["failed"])
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert traced["metrics"]["euler.derivation.calls"]["value"] >= plain["attempted"] - 30


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "oracle-rank", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
