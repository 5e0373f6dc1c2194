"""Command line behaviour: reports, exit codes, determinism."""

import json
import subprocess
import sys
import time
from collections import Counter

import pytest

from toric_cox import cli
from toric_cox.cli import main
from toric_cox.corpus import corpus_path


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


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
        ],
    )
    def test_exit_code_and_no_traceback(self, capsys, tmp_path, command, content, code):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert main([command, str(path)]) == code
        captured = capsys.readouterr()
        assert ("error(parse)" if code == 2 else "error(malformed)") in captured.out
        assert "Traceback" not in captured.out + captured.err


    @pytest.mark.parametrize("command", ["validate", "cox", "euler", "reconstruct", "verify"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_memory_error_is_a_structured_error(self, capsys, monkeypatch, command, as_json):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, f"cmd_{command}", exhausted)
        argv = [command, str(corpus_path("p2"))] + (["--json"] if as_json else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if as_json:
            status = json.loads(captured.out)["status"]
            assert status == {"ok": False, "code": "MemoryError", "message": "out of memory"}
        else:
            assert captured.out.endswith("status: error(MemoryError): out of memory\n")


class TestSingleRead:
    @pytest.mark.parametrize("command", ["validate", "cox", "euler", "verify"])
    def test_each_command_reads_its_input_once(self, capsys, monkeypatch, command):
        reads = []
        original = cli._read_file
        monkeypatch.setattr(cli, "_read_file", lambda path: reads.append(path) or original(path))
        assert main([command, str(corpus_path("p2"))]) == 0
        assert len(reads) == 1

    def test_verify_builds_the_fan_context_once(self, capsys, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("toric_cox"):
                for name in ("cox_data", "class_group"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        assert main(["verify", str(corpus_path("delpezzo6"))]) == 0
        # cox_data's own class group, then roundtrip_check and splitting_certificate.
        assert calls == Counter(cox_data=1, class_group=3)
