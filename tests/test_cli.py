"""Command line behaviour: reports, exit codes, determinism."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest
from fan_strategies import small_fans, smooth_cycles
from hypothesis import given, settings
from hypothesis import strategies as st

import toric_cox
from toric_cox import cli
from toric_cox import euler as euler_module
from toric_cox import reconstruction as reconstruction_module
from toric_cox import verify as verify_module
from toric_cox.cli import main
from toric_cox.corpus import NON_EXAMPLES, SMOOTH_COMPLETE, corpus_path, load_fan
from toric_cox.cox import cox_data
from toric_cox.euler import build_euler_module, check_euler_identity
from toric_cox.fans import anticanonical, fan_to_json, is_ample
from toric_cox.lattice import IntegerMatrix

try:
    import resource
except ImportError:  # no address-space limit to set on this platform
    resource = None
needs_rlimit = pytest.mark.skipif(resource is None, reason="needs the resource module")

SRC = Path(__file__).resolve().parent.parent / "src"


# The corpus fans, in corpus order, whose anticanonical divisor is ample.
FANO_CORPUS = ("p1", "p2", "p1xp1", "hirzebruch_0", "hirzebruch_1", "delpezzo6")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def _vector(text: str) -> list[int]:
    """The integers of a report vector such as ``(1, -1, 0)``."""
    return [int(x) for x in text.strip("()").split(", ")]


class TestValidate:
    def test_p2_passes(self, capsys):
        code, out = run(capsys, "validate", str(corpus_path("p2")))
        assert code == 0
        assert "smooth      True" in out

    def test_incomplete_fan_exits_one(self, capsys):
        code, out = run(capsys, "validate", str(corpus_path("incomplete_a2")))
        assert code == 1
        assert "complete    False" in out

    def test_singular_cone_flags(self, capsys):
        code, out = run(capsys, "validate", str(corpus_path("singular_cone")))
        assert code == 1
        assert "smooth      False" in out

    @pytest.mark.parametrize("command", ["validate", "verify"])
    def test_non_simplicial_fan_exits_one(self, capsys, tmp_path, command):
        square = tmp_path / "square.json"
        square.write_text('{"dim": 3, "rays": [[1,0,1],[0,1,1],[-1,0,1],[0,-1,1]], "max_cones": [[0,1,2,3]]}')
        assert main([command, str(square)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if command == "validate":
            assert "simplicial  False" in captured.out
        else:
            fails = [line.strip() for line in captured.out.splitlines() if "FAIL" in line]
            assert fails == ["fan validation  FAIL: simplicial: False; smooth: False; complete: False"]

    def test_truncated_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "rays": [[1, 0]')
        code, out = run(capsys, "validate", str(bad))
        assert code == 2
        assert "error(parse)" in out

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _ = run(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 2

    def test_malformed_fan_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "nonprimitive.json"
        bad.write_text('{"dim": 2, "rays": [[2, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}')
        code, out = run(capsys, "validate", str(bad))
        assert code == 3
        assert "error(malformed)" in out and "ray 0" in out


class TestCox:
    def test_p2_report(self, capsys):
        code, out = run(capsys, "cox", str(corpus_path("p2")))
        assert code == 0
        assert "(1, 1, 1)" in out  # degree matrix row
        assert "x0" in out and "x1" in out and "x2" in out
        assert "class         (3)" in out

    def test_singular_input_rejected(self, capsys):
        code, out = run(capsys, "cox", str(corpus_path("singular_cone")))
        assert code == 1
        assert "error(NotSmooth)" in out

    def test_json_format(self, capsys):
        code, out = run(capsys, "cox", str(corpus_path("p2")), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "cox"
        assert payload["status"] == {"ok": True}


class TestEuler:
    def test_p2_degree_one(self, capsys):
        code, out = run(capsys, "euler", str(corpus_path("p2")), "--degree", "1")
        assert code == 0
        assert "dimension             3" in out

    def test_default_degree_is_zero(self, capsys):
        code, out = run(capsys, "euler", str(corpus_path("p2")))
        assert code == 0
        assert "degree                (0)" in out
        assert "dimension             0" in out

    def test_p2_degree_zero(self, capsys):
        code, out = run(capsys, "euler", str(corpus_path("p2")), "--degree", "0")
        assert code == 0
        assert "dimension             0" in out

    def test_hirzebruch_summed_pieces(self, capsys):
        code, out = run(capsys, "euler", str(corpus_path("hirzebruch_1")), "--degree", "1,1")
        assert code == 0
        assert "dimension             5" in out

    def test_negative_first_entry_needs_the_equals_form(self, capsys):
        code, out = run(capsys, "euler", str(corpus_path("p1xp1")), "--degree=-1,1")
        assert code == 0
        assert "degree                (-1, 1)" in out
        # written apart, argparse takes -1,1 for an option: a usage error, not a crash
        result = subprocess.run(
            [sys.executable, "-m", "toric_cox.cli", "euler", str(corpus_path("p1xp1")), "--degree", "-1,1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert "expected one argument" in result.stderr and "Traceback" not in result.stderr

    def test_every_variable_heavier_than_the_sample_bound(self, capsys, tmp_path):
        # P^2 blown up seven times: its lightest variable has weight 5, above
        # the identity check's bound of 4, which left no class to draw from
        blowup = tmp_path / "blowup_rank8.json"
        blowup.write_text(
            '{"dim": 2, "rays": [[1,0],[0,1],[-1,-1],[-1,0],[1,1],[1,2],[-2,-1],[2,3],[-3,-2],[0,-1]],'
            ' "max_cones": [[0,4],[0,9],[1,3],[1,5],[2,8],[2,9],[3,6],[4,7],[5,7],[6,8]]}'
        )
        assert main(["euler", str(blowup)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "samples          20" in captured.out
        assert "counterexamples  0" in captured.out

    def test_a_counterexample_fails_the_identity(self, capsys, monkeypatch):
        # a constant added to every contraction breaks the identity on every sample
        contract = euler_module._contraction_sum
        monkeypatch.setattr(
            euler_module, "_contraction_sum",
            lambda em, terms, form: {**contract(em, terms, form), (0,) * em.cox.num_vars: 1},
        )
        code, out = run(capsys, "euler", str(corpus_path("p2")))
        assert code == 1
        assert "  samples          20\n  counterexamples  20\n" in out
        assert out.endswith("status: error(euler_identity): euler identity failed\n")
        cd = cox_data(load_fan("p1"))
        report = check_euler_identity(build_euler_module(cd), cd.weight_form, trials=1)
        assert report.counterexamples == (
            "class (4,): got 1 - 4*x0*x1^3 + 12*x0^2*x1^2 - 12*x0^3*x1 - 8*x0^4, "
            "expected -4*x0*x1^3 + 12*x0^2*x1^2 - 12*x0^3*x1 - 8*x0^4",
        )

    def test_ring_piece_is_counted_not_listed(self, capsys):
        # the ring piece of (10, 10, 10, 10) has 121 monomials among about
        # 1.2 million exponent vectors of its weight; listing them took ~10 s
        start = time.process_time()
        code, out = run(capsys, "euler", str(corpus_path("delpezzo6")), "--degree", "10,10,10,10")
        elapsed = time.process_time() - start
        assert code == 0
        assert "ring piece dimension  121" in out
        assert elapsed < 3.0


class TestReconstruct:
    def test_p2_grading(self, capsys, tmp_path):
        grading = tmp_path / "p2_grading.json"
        grading.write_text('{"Q": [[1, 1, 1]], "w": [1]}')
        code, out = run(capsys, "reconstruct", str(grading))
        assert code == 0
        assert '"rays": [[1, 0], [0, 1], [-1, -1]]' in out

    def test_non_primitive_grading(self, capsys, tmp_path):
        grading = tmp_path / "bad_grading.json"
        grading.write_text('{"Q": [[1, 2]], "w": [1]}')
        code, out = run(capsys, "reconstruct", str(grading))
        assert code == 1
        assert "error(NotSmooth): kernel row 0 is not primitive" in out

    def test_boundary_class(self, capsys, tmp_path):
        grading = tmp_path / "boundary.json"
        grading.write_text('{"Q": [[1, 1, 0, 0], [0, 0, 1, 1]], "w": [1, 0]}')
        code, out = run(capsys, "reconstruct", str(grading))
        assert code == 1
        assert "error(NotAmpleLift)" in out

    def test_fano_corpus_is_the_round_trip_list(self):
        fano = [name for name in SMOOTH_COMPLETE if is_ample(load_fan(name), anticanonical(load_fan(name)))]
        assert fano == list(FANO_CORPUS)

    @pytest.mark.parametrize("name", FANO_CORPUS)
    def test_cox_report_reconstructs_the_fan(self, capsys, tmp_path, name):
        # the degree matrix and anticanonical class that cox prints, fed back to reconstruct
        code, out = run(capsys, "cox", str(corpus_path(name)), "--json")
        assert code == 0
        sections = {section["title"]: dict(section["entries"]) for section in json.loads(out)["sections"]}
        q = [_vector(row) for row in sections["class group"]["degree matrix rows"].split("; ")]
        w = _vector(sections["anticanonical"]["class"])
        grading = tmp_path / f"{name}_grading.json"
        grading.write_text(json.dumps({"Q": q, "w": w}))
        code, out = run(capsys, "reconstruct", str(grading), "--json")
        assert code == 0
        (section,) = json.loads(out)["sections"]
        assert dict(section["entries"])["fan json"] == fan_to_json(load_fan(name))


class TestVerify:
    def test_p2_all_pass(self, capsys):
        code, out = run(capsys, "verify", str(corpus_path("p2")))
        assert code == 0
        assert "FAIL" not in out

    def test_hirzebruch_2_all_pass(self, capsys):
        code, out = run(capsys, "verify", str(corpus_path("hirzebruch_2")))
        assert code == 0

    def test_incomplete_fan_fails(self, capsys):
        code, out = run(capsys, "verify", str(corpus_path("incomplete_a2")))
        assert code == 1
        assert "FAIL" in out

    def test_an_oracle_disagreement_fails_the_dual_oracle_line(self, capsys, monkeypatch):
        fiber_dimension = toric_cox.cox._fiber_dimension
        monkeypatch.setattr(toric_cox.cox, "_fiber_dimension", lambda cd, lam: fiber_dimension(cd, lam) + 1)
        code, out = run(capsys, "verify", str(corpus_path("p2")))
        assert code == 1
        assert (
            "  dual oracle dimensions              FAIL: "
            "fiber count 1 != polytope count 0 at (-2,) (lifted divisor (-2, 0, 0))\n"
        ) in out
        assert out.endswith("status: error(verification): some checks failed\n")

    def test_a_wrong_kernel_fails_the_exactness_line(self, capsys, monkeypatch):
        # doubling the kernel's first column leaves the kernel of the degree
        # matrix, so the basis no longer spans the divisor image
        kernel_basis = verify_module.kernel_basis
        monkeypatch.setattr(
            verify_module,
            "kernel_basis",
            lambda a: IntegerMatrix.from_rows([[2 * row[0], *row[1:]] for row in kernel_basis(a).entries]),
        )
        code, out = run(capsys, "verify", str(corpus_path("p2")))
        assert code == 1
        assert (
            "  class group exactness               FAIL: degrees kill principal divisors: True; "
            "kernel spans divisor image: False; rank 1 = 3 rays - dim 2: True\n"
        ) in out
        assert out.endswith("status: error(verification): some checks failed\n")

    def test_a_wrong_contracted_basis_fails_the_generation_transfer_line(self, capsys, monkeypatch):
        # the first image of the module basis becomes 2 * w_0 * x_0
        generators = verify_module.induced_algebra_generators
        monkeypatch.setattr(
            verify_module,
            "induced_algebra_generators",
            lambda em, form: (lambda first, *rest: (2 * first, *rest))(*generators(em, form)),
        )
        code, out = run(capsys, "verify", str(corpus_path("p2")))
        assert code == 1
        assert (
            "  generation transfer                 FAIL: "
            "contracted module basis gives 3 positive multiples of the variables\n"
        ) in out
        assert out.endswith("status: error(verification): some checks failed\n")

    def test_a_wrong_rebuilt_fan_fails_the_round_trip_line(self, capsys, monkeypatch):
        # the rebuilt fan loses a maximal cone, so it no longer equals the input
        rebuild = reconstruction_module._normal_fan
        monkeypatch.setattr(
            reconstruction_module,
            "_normal_fan",
            lambda *args: (lambda fan: fan._replace(max_cones=fan.max_cones[1:]))(rebuild(*args)),
        )
        code, out = run(capsys, "verify", str(corpus_path("p2")))
        assert code == 1
        assert (
            "  round trip                          FAIL: rebuilt from grading with divisor [1, 1, 1]: False\n"
        ) in out
        assert out.endswith("status: error(verification): some checks failed\n")

    def test_json_runs_are_byte_identical(self, capsys):
        _, first = run(capsys, "verify", str(corpus_path("p2")), "--json")
        _, second = run(capsys, "verify", str(corpus_path("p2")), "--json")
        assert first == second
        payload = json.loads(first)
        assert payload["status"] == {"ok": True}

    def test_determinism_across_interpreter_hash_seeds(self):
        import os
        import subprocess
        import sys

        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            result = subprocess.run(
                [sys.executable, "-m", "toric_cox.cli", "verify",
                 str(corpus_path("hirzebruch_1")), "--json"],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


# gen.blowup_surface(2, 8): P^2 blown up seven times, class-group rank 8.
BLOWUP_SURFACE_R8 = (
    '{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1], [-1, 0], [1, 1], [1, 2], [-2, -1], [2, 3], [-3, -2], [0, -1]],'
    ' "max_cones": [[0, 4], [0, 9], [1, 3], [1, 5], [2, 8], [2, 9], [3, 6], [4, 7], [5, 7], [6, 8]]}'
)
# gen.mixed_blowup(0, 6, 0): P^2 blown up five times, class-group rank 6, with classes of weight 82 in [-2, 2]^6.
MIXED_BLOWUP_R6 = (
    '{"dim": 2, "rays": [[0, 1], [-1, -1], [1, 0], [1, 1], [2, 1], [1, 2], [-1, 0], [2, 3]],'
    ' "max_cones": [[0, 5], [0, 6], [1, 2], [1, 6], [2, 4], [3, 4], [3, 7], [5, 7]]}'
)


def _address_space_of_one_gigabyte() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _address_space_of_300_megabytes() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))


@needs_rlimit
@pytest.mark.parametrize(
    "fan, flags, digest",
    [
        (BLOWUP_SURFACE_R8, (), "f5817cb7e7cba96ccfc68b6b6efd343f4413d5f090154951862e3393d4591843"),
        (BLOWUP_SURFACE_R8, ("--json",), "56edd75e5288cb483721bb58d918308da8deb39d90e3288d1f72c27a354fa31a"),
        (MIXED_BLOWUP_R6, (), "ad3989b41986eea4bfdbf147bcee0684310356997acdc36eac1f07ebe1bf4edd"),
        (MIXED_BLOWUP_R6, ("--json",), "0939e78a671538d3d722abd2a7874cf76f3df4b000dd2a802c556225de417057"),
    ],
    ids=["text", "json", "mixed-r6-text", "mixed-r6-json"],
)
def test_verify_at_rank_eight_fits_in_one_gigabyte(tmp_path, fan, flags, digest):
    # The fiber tables count only the classes of the box that the effective
    # cone's facets cut out of the window's cube: on blowup_surface(2, 8),
    # 2,763 classes of [-2, 2]^8 lie in the cone and the tables hold 22,616
    # entries; on mixed_blowup(0, 6, 0) they hold 188,722, where the tables
    # of every class up to weight 82 took 2.6 GB.  So each report, pinned by
    # its digest (taken before the box, without a cap), fits.
    path = tmp_path / "fan.json"
    path.write_text(fan)
    result = subprocess.run(
        [sys.executable, "-m", "toric_cox.cli", "verify", str(path), *flags],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=_address_space_of_one_gigabyte,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert hashlib.sha256(result.stdout).hexdigest() == digest


# gen.product(1, 1, 1, 1, 1): (P^1)^5, ten variables, class-group rank 5.
PRODUCT_P1_5 = (
    '{"dim": 5, "rays": [[1, 0, 0, 0, 0], [-1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, -1, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, -1]],'
    ' "max_cones": [[0, 2, 4, 6, 8], [0, 2, 4, 6, 9], [0, 2, 4, 7, 8], [0, 2, 4, 7, 9], [0, 2, 5, 6, 8], '
    '[0, 2, 5, 6, 9], [0, 2, 5, 7, 8], [0, 2, 5, 7, 9], [0, 3, 4, 6, 8], [0, 3, 4, 6, 9], '
    '[0, 3, 4, 7, 8], [0, 3, 4, 7, 9], [0, 3, 5, 6, 8], [0, 3, 5, 6, 9], [0, 3, 5, 7, 8], '
    '[0, 3, 5, 7, 9], [1, 2, 4, 6, 8], [1, 2, 4, 6, 9], [1, 2, 4, 7, 8], [1, 2, 4, 7, 9], '
    '[1, 2, 5, 6, 8], [1, 2, 5, 6, 9], [1, 2, 5, 7, 8], [1, 2, 5, 7, 9], [1, 3, 4, 6, 8], '
    '[1, 3, 4, 6, 9], [1, 3, 4, 7, 8], [1, 3, 4, 7, 9], [1, 3, 5, 6, 8], [1, 3, 5, 6, 9], '
    '[1, 3, 5, 7, 8], [1, 3, 5, 7, 9]]}'
)
# gen.product(2, 2, 2): (P^2)^3, nine variables, class-group rank 3.
PRODUCT_P2_3 = (
    '{"dim": 6, "rays": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [-1, -1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, -1, -1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, -1, -1]],'
    ' "max_cones": [[0, 1, 3, 4, 6, 7], [0, 1, 3, 4, 6, 8], [0, 1, 3, 4, 7, 8], [0, 1, 3, 5, 6, 7], '
    '[0, 1, 3, 5, 6, 8], [0, 1, 3, 5, 7, 8], [0, 1, 4, 5, 6, 7], [0, 1, 4, 5, 6, 8], [0, 1, 4, 5, 7, 8], '
    '[0, 2, 3, 4, 6, 7], [0, 2, 3, 4, 6, 8], [0, 2, 3, 4, 7, 8], [0, 2, 3, 5, 6, 7], [0, 2, 3, 5, 6, 8], '
    '[0, 2, 3, 5, 7, 8], [0, 2, 4, 5, 6, 7], [0, 2, 4, 5, 6, 8], [0, 2, 4, 5, 7, 8], [1, 2, 3, 4, 6, 7], '
    '[1, 2, 3, 4, 6, 8], [1, 2, 3, 4, 7, 8], [1, 2, 3, 5, 6, 7], [1, 2, 3, 5, 6, 8], [1, 2, 3, 5, 7, 8], '
    '[1, 2, 4, 5, 6, 7], [1, 2, 4, 5, 6, 8], [1, 2, 4, 5, 7, 8]]}'
)


@pytest.mark.parametrize(
    "fan, command, digest",
    [
        (PRODUCT_P1_5, ("verify", "--json"), "ef03fc6cf9c3e10b9209d79e77179d6f5dae900966d312a3d44094a6617dfc31"),
        (PRODUCT_P1_5, ("euler",), "3ef51509d8a992915d8ddceef0f7882605fb62a6265664e2b8b68170b9a7186d"),
        (PRODUCT_P2_3, ("verify", "--json"), "f1036a7877633f1b5c0964080d81199a349cef2ec36cf8288cc336a6a8911c64"),
        (PRODUCT_P2_3, ("euler",), "dc7d69aded9d3ae7b67d0a62539b79da30ab8bd95b9f05c99f1ded8589223fcb"),
    ],
    ids=["p1-5-verify-json", "p1-5-euler", "p2-3-verify-json", "p2-3-euler"],
)
def test_reports_at_nine_and_ten_variables_are_pinned(tmp_path, fan, command, digest):
    # The identity line of verify lists every monomial of weight <= 4: 1,001
    # on (P^1)^5 and 715 on (P^2)^3, where the enumerator splits its
    # variables into two halves of five or of four and five.  The euler
    # report draws its samples from the same listing.
    path = tmp_path / "fan.json"
    path.write_text(fan)
    result = subprocess.run(
        [sys.executable, "-m", "toric_cox.cli", command[0], str(path), *command[1:]],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert hashlib.sha256(result.stdout).hexdigest() == digest


@needs_rlimit
def test_out_of_memory_ends_in_a_report_without_a_traceback():
    # P^1 in degree 10**40 grows the fiber tables until the cap stops them;
    # the report must still be built once their frames are released
    result = subprocess.run(
        [sys.executable, "-m", "toric_cox.cli", "euler", str(corpus_path("p1")), "--degree=1" + "0" * 40],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=_address_space_of_300_megabytes,
        timeout=120,
    )
    assert result.returncode == 1
    assert result.stdout.decode().endswith("status: error(MemoryError): out of memory\n")
    assert b"Traceback" not in result.stderr, result.stderr[-2000:]


def test_out_of_memory_frees_the_frames_of_every_error_in_the_context(monkeypatch):
    # Near the cap, the traceback entry of a MemoryError may fail to be made:
    # CPython then raises a second one, whose context holds the first one and
    # its frames.  The tables in those frames must be freed before the report's
    # failure is built, while the error is still being handled.
    class Tables:
        pass

    held = []

    def cmd_euler(*args):
        tables = Tables()
        held.append(weakref.ref(tables))
        try:
            raise MemoryError
        except MemoryError:
            raise MemoryError  # its __context__ is the first one

    def failure(*args):
        assert held[0]() is None, "the tables outlived their frames"
        return real(*args)

    real = cli.Failure
    monkeypatch.setitem(cli.COMMANDS, "euler", (cmd_euler, cli.COMMANDS["euler"][1]))
    monkeypatch.setattr(cli, "Failure", failure)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["euler", str(corpus_path("p1"))]) == 1
    assert out.getvalue().endswith("status: error(MemoryError): out of memory\n")


class TestInputBoundary:
    """Bad input ends in a structured error with a documented exit code."""

    @pytest.mark.parametrize(
        "command, content, code",
        [
            pytest.param("validate", b'\xff\xfe{"dim": 2}', 2, id="fan-not-utf8"),
            pytest.param("reconstruct", b'\xff{"Q": [[1, 1, 1]], "w": [1]}', 2, id="grading-not-utf8"),
            pytest.param("reconstruct", b'{"Q": [[1, 1, 1], [1, 0]], "w": [1, 1]}', 3, id="ragged-Q"),
            pytest.param("reconstruct", b'{"Q": [], "w": []}', 3, id="empty-Q"),
            pytest.param("reconstruct", b'{"Q": [[]], "w": [1]}', 3, id="empty-Q-row"),
            pytest.param("reconstruct", b'{"Q": [[1, 1, 1]], "w": [1, 2]}', 3, id="w-too-long"),
            pytest.param("reconstruct", b'{"Q": [[1, 1, 1]], "w": []}', 3, id="w-too-short"),
            pytest.param("reconstruct", b'{"Q": [[1, 1, true]], "w": [1]}', 3, id="bool-in-Q"),
            pytest.param("reconstruct", b'{"Q": [[1, 1, 1]], "w": [true]}', 3, id="bool-in-w"),
            pytest.param("validate", b'{"dim": true, "rays": [[1], [-1]], "max_cones": [[0], [1]]}',
                         3, id="bool-dim"),
            pytest.param("verify", b'{"dim": 1, "rays": [[true], [-1]], "max_cones": [[0], [1]]}',
                         3, id="bool-ray-entry"),
            pytest.param("cox", b'{"dim": 1, "rays": [[1], [-1]], "max_cones": [[false], [1]]}',
                         3, id="bool-cone-index"),
            pytest.param("validate", b'[1, 2]', 3, id="fan-not-an-object"),
            pytest.param("cox", b'{"rays": [[1], [-1]], "max_cones": [[0], [1]]}', 3, id="missing-dim"),
            pytest.param("verify", b'{"dim": 2, "rays": [[1, 0], [0, 1, 0], [-1, -1]], '
                         b'"max_cones": [[0, 1], [1, 2], [0, 2]]}', 3, id="ray-of-wrong-length"),
            pytest.param("euler", b'{"dim": 2, "rays": [[1, 0], [0, 0], [-1, -1]], '
                         b'"max_cones": [[0, 1], [1, 2], [0, 2]]}', 3, id="zero-ray"),
            pytest.param("validate", b'{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": []}',
                         3, id="no-maximal-cones"),
        ],
    )
    def test_exit_code_and_no_traceback(self, capsys, tmp_path, command, content, code):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert main([command, str(path)]) == code
        captured = capsys.readouterr()
        assert ("error(parse)" if code == 2 else "error(malformed)") in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "command, content",
        [
            *(pytest.param(command, "[" * 100_000 + "]" * 100_000, id=f"{command}-fan-nested-too-deep")
              for command in ("validate", "cox", "euler", "verify")),
            pytest.param("validate", '{"dim": 1' + "0" * 5000 + '}', id="validate-fan-integer-too-long"),
            pytest.param("reconstruct", '{"Q": ' + "[" * 100_000 + "]" * 100_000 + ', "w": [1]}',
                         id="reconstruct-grading-nested-too-deep"),
            pytest.param("reconstruct", '{"Q": [[1, 1, 1]], "w": [1' + "0" * 5000 + "]}",
                         id="reconstruct-grading-integer-too-long"),
        ],
    )
    def test_json_beyond_the_decoder_limits_is_a_parse_error(self, tmp_path, command, content):
        # json.loads raises RecursionError on the nesting and a plain ValueError
        # on an integer of more than 4,300 digits
        path = tmp_path / "input.json"
        path.write_text(content)
        result = subprocess.run(
            [sys.executable, "-m", "toric_cox.cli", command, str(path)],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        assert result.returncode == 2, result.stderr[-2000:]
        assert result.stdout.decode().splitlines()[-1].startswith("status: error(parse): ")
        assert b"Traceback" not in result.stderr

    @pytest.mark.parametrize("content", [b"[]", b'{"Q": [[1]]}'], ids=["grading-not-an-object", "missing-w"])
    def test_a_grading_is_an_object_with_q_and_w(self, capsys, tmp_path, content):
        path = tmp_path / "grading.json"
        path.write_bytes(content)
        assert main(["reconstruct", str(path)]) == 3
        assert capsys.readouterr().out.endswith(
            "status: error(malformed): grading file must be an object with keys 'Q' and 'w'\n"
        )

    @pytest.mark.parametrize(
        "argv, content, code, status",
        [
            pytest.param(["euler", "--degree", "1,1"],
                         b'{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
                         3, "error(malformed): degree must have 1 coordinates", id="degree-of-wrong-length"),
            # the kernel of this onto grading has a zero first row
            pytest.param(["reconstruct"], b'{"Q": [[1, 0, 0], [0, 1, 1]], "w": [1, 1]}', 1,
                         "error(DegenerateRay): kernel row 0 is zero", id="zero-kernel-row"),
        ],
    )
    def test_status_line_and_no_traceback(self, capsys, tmp_path, argv, content, code, status):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert main([argv[0], str(path), *argv[1:]]) == code
        captured = capsys.readouterr()
        assert captured.out.endswith(f"status: {status}\n")
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("option", ["--degree=", "--degree=x"])
    def test_unparsable_degree_is_a_usage_error(self, capsys, option):
        with pytest.raises(SystemExit) as exited:
            main(["euler", str(corpus_path("p2")), option])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "error: argument --degree" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("command", ["validate", "cox", "euler", "reconstruct", "verify"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_memory_error_is_a_structured_error(self, capsys, monkeypatch, command, as_json):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setitem(cli.COMMANDS, command, (exhausted, cli.COMMANDS[command][1]))
        argv = [command, str(corpus_path("p2"))] + (["--json"] if as_json else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if as_json:
            status = json.loads(captured.out)["status"]
            assert status == {"ok": False, "code": "MemoryError", "message": "out of memory"}
        else:
            assert captured.out.endswith("status: error(MemoryError): out of memory\n")


@st.composite
def fan_documents(draw):
    """The JSON of a drawn fan, or of one malformed by a single mutation: a
    dim that is not an integer, a cone index out of range or an empty cone."""
    fan = draw(small_fans() | smooth_cycles())
    doc = {"dim": fan.dim, "rays": [list(r) for r in fan.rays], "max_cones": [list(c) for c in fan.max_cones]}
    mutation = draw(st.sampled_from(["dim", "index", "empty_cone"])) if draw(st.booleans()) else None
    if mutation == "dim":
        doc["dim"] = draw(st.sampled_from([True, False, 2.0, 1.5, "2", None]))
    elif mutation == "index":
        cone = draw(st.sampled_from(doc["max_cones"]))
        cone[draw(st.integers(0, len(cone) - 1))] = draw(st.sampled_from([-1, fan.n_rays, fan.n_rays + 3]))
    elif mutation == "empty_cone":
        doc["max_cones"].insert(draw(st.integers(0, len(doc["max_cones"]))), [])
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(document=fan_documents(), command=st.sampled_from(["validate", "cox"]))
def test_fuzzed_fans_end_in_a_documented_exit_code(tmp_path_factory, document, command):
    path = tmp_path_factory.getbasetemp() / "fuzzed_fan.json"
    path.write_text(document)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in out.getvalue() + err.getvalue()


@st.composite
def grading_documents(draw):
    """Small gradings: rank 1-3, up to rank + 3 columns, Q in [-2, 3] and w in [-1, 4]."""
    rank = draw(st.integers(1, 3))
    cols = draw(st.integers(1, rank + 3))
    q = draw(st.lists(st.lists(st.integers(-2, 3), min_size=cols, max_size=cols), min_size=rank, max_size=rank))
    w = draw(st.lists(st.integers(-1, 4), min_size=rank, max_size=rank))
    return json.dumps({"Q": q, "w": w})


@settings(max_examples=150, deadline=None)
@given(document=grading_documents())
def test_fuzzed_gradings_end_in_a_documented_exit_code(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "fuzzed_grading.json"
    path.write_text(document)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reconstruct", str(path)])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in out.getvalue() + err.getvalue()


class TestSingleRead:
    @pytest.mark.parametrize("command", ["validate", "cox", "euler", "verify"])
    def test_each_command_reads_its_input_once(self, capsys, monkeypatch, command):
        reads = []
        original = cli._read_file
        monkeypatch.setattr(cli, "_read_file", lambda path: reads.append(path) or original(path))
        assert main([command, str(corpus_path("p2"))]) == 0
        assert len(reads) == 1

    @staticmethod
    def count_calls(monkeypatch, names) -> Counter:
        """Calls of each named function, wherever a package module binds it, from here on."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("toric_cox"):
                for name in names:
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return calls

    def test_verify_builds_the_fan_context_once(self, capsys, monkeypatch):
        names = ("cox_data", "class_group", "smith_normal_form", "generators_from_inequalities", "solve_integer")
        calls = self.count_calls(monkeypatch, names)
        assert main(["verify", str(corpus_path("delpezzo6"))]) == 0
        # cox_data's own class group; roundtrip_check reads its degree matrix.
        # The one Smith form is the class section's, and the round trip reuses its lift; the two
        # double descriptions are the effective cone's normals and the rebuilt polytope's vertices.
        assert calls == Counter(cox_data=1, class_group=1, smith_normal_form=1, generators_from_inequalities=2)

    def test_reconstruct_takes_one_smith_form(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "p2xp1_grading.json"
        path.write_text('{"Q": [[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], "w": [1, 1]}')
        calls = self.count_calls(monkeypatch, ("smith_normal_form", "cokernel"))
        assert main(["reconstruct", str(path)]) == 0
        # the lift's: the onto check and the kernel are Hermite eliminations
        assert calls == Counter(smith_normal_form=1)


def _fresh_python(*args: str) -> str:
    """The standard output of a new interpreter that sees the package source."""
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    return result.stdout


# Runs toric_cox.cli.main on its arguments, then prints the modules that the
# import and the command each loaded: the package's, and hashlib's.
LOADED_MODULES_PROBE = """
import contextlib, io, json, sys
watched = lambda names: sorted(n for n in names if n.startswith("toric_cox") or n in ("hashlib", "_hashlib"))
before = set(sys.modules)
import toric_cox.cli
imported = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    toric_cox.cli.main(sys.argv[1:])
print(json.dumps([watched(imported - before), watched(set(sys.modules) - imported)]))
"""

# The package modules that each command loads beyond toric_cox.cli's own.
COMMAND_MODULES = {
    "validate": ["fans", "lattice", "polyhedral"],
    "cox": ["cox", "fans", "lattice", "polyhedral"],
    "euler": ["cox", "euler", "fans", "lattice", "polyhedral"],
    "reconstruct": ["fans", "lattice", "polyhedral", "reconstruction"],
    "verify": ["cox", "euler", "fans", "lattice", "polyhedral", "reconstruction", "verify"],
}


class TestColdStart:
    """A CLI run is mostly interpreter start and import, so the import stays lean."""

    @pytest.mark.parametrize("module", ["toric_cox", "toric_cox.cli"])
    def test_import_loads_neither_dataclasses_nor_inspect(self, module):
        probe = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.stdout == "[]\n", result.stdout

    @pytest.mark.parametrize("command", list(COMMAND_MODULES))
    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path, command):
        path = corpus_path("delpezzo6")
        if command == "reconstruct":
            path = tmp_path / "p2_grading.json"
            path.write_text('{"Q": [[1, 1, 1]], "w": [1]}')
        imported, loaded = json.loads(_fresh_python("-c", LOADED_MODULES_PROBE, command, str(path)))
        # the lists watch hashlib too, which would map OpenSSL for one digest
        assert imported == ["toric_cox", "toric_cox.cli", "toric_cox.errors"]
        assert loaded == [f"toric_cox.{name}" for name in COMMAND_MODULES[command]]


# toric_cox.__all__, pinned: the 59 exports and the seven submodules they come
# from, as dir() listed them when __init__ imported every submodule.
PACKAGE_ALL = [
    "AbelianGroupPresentation", "CoxData", "DegenerateRay", "EulerModule",
    "EulerModuleElement", "Fan", "FanReport", "GradedPolynomial", "GradingInput",
    "InhomogeneousInput", "IntegerMatrix", "MalformedFan", "NotAmpleLift", "NotComplete",
    "NotSmooth", "NotSurjective", "OracleMismatch", "PolytopeFamily",
    "RationalCone", "RaysDontSpan", "ToricCoxError",
    "TorusInvariantDivisor", "UnboundedPolytope", "WeightForm", "anticanonical",
    "basis_element", "build_euler_module",
    "check_euler_identity", "class_group", "cokernel", "cone_contains", "cone_from_generators",
    "cox", "cox_data", "derivation", "divisor_in_class", "effective_weight_form", "errors",
    "euler", "euler_contract", "fan_from_json", "fan_to_json", "fans",
    "generators_from_inequalities", "graded_dimension", "graded_generation_check",
    "graded_piece_dim", "grading_from_json", "hermite_basis", "induced_algebra_generators",
    "irrelevant_ideal", "is_ample", "kernel_basis", "lattice", "make_polynomial",
    "monomial_basis", "monomials_of_weight_at_most", "polyhedral", "polytope_family",
    "reconstruct_fan", "reconstruction", "roundtrip_check", "section_dimension_report",
    "smith_normal_form", "solve_integer",
    "validate_fan",
]
SUBMODULES = ["cox", "errors", "euler", "fans", "lattice", "polyhedral", "reconstruction"]


class TestPackageNamespace:
    """The exports resolve on first use, to the submodules' own objects."""

    def test_all_is_unchanged(self):
        assert toric_cox.__all__ == PACKAGE_ALL

    def test_every_export_is_the_submodules_own_object(self):
        for name in PACKAGE_ALL:
            value = getattr(toric_cox, name)
            if name in SUBMODULES:
                assert value is importlib.import_module(f"toric_cox.{name}")
            else:
                assert value is getattr(importlib.import_module(value.__module__), name)
                assert value.__module__.startswith("toric_cox.")
        assert toric_cox.cox_data is toric_cox.cox.cox_data
        assert set(PACKAGE_ALL) <= set(dir(toric_cox))

    def test_a_submodule_resolves_without_its_own_import(self):
        probe = "import sys, toric_cox; print(toric_cox.fans.__name__, 'toric_cox.cox' in sys.modules)"
        assert _fresh_python("-c", probe) == "toric_cox.fans False\n"

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from toric_cox import *", namespace)
        assert set(PACKAGE_ALL) <= set(namespace)
        assert namespace["Fan"] is toric_cox.fans.Fan

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'toric_cox' has no attribute 'no_such_name'$"):
            toric_cox.no_such_name


class TestDigest:
    @pytest.mark.parametrize("name", ("",) + SMOOTH_COMPLETE + NON_EXAMPLES)
    def test_matches_hashlib(self, name):
        data = corpus_path(name).read_bytes() if name else b""
        assert cli._digest(data) == hashlib.sha256(data).hexdigest()
