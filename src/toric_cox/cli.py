"""Command line front end.

``toric-cox validate|cox|euler|reconstruct|verify <file> [--degree d] [--json]``

Exit codes: 0 pass, 1 semantic failure, 2 I/O or parse error, 3 malformed
input.  Reports are deterministic: identical input and flags give byte
identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass

from .cox import cox_data, graded_dimension, irrelevant_ideal
from .errors import MalformedFan, ToricCoxError
from .euler import (
    build_euler_module,
    check_euler_identity,
    graded_piece_dim,
)
from .fans import anticanonical, fan_from_json, fan_to_json, validate_fan
from .reconstruction import grading_from_json, reconstruct_fan
from .verify import run_verification

Section = tuple[str, tuple[tuple[str, str], ...]]


@dataclass(frozen=True)
class Report:
    command: str
    input_digest: str
    sections: tuple[Section, ...]
    status_ok: bool
    status_code: str = ""
    status_message: str = ""

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "input_digest": self.input_digest,
            "status": (
                {"ok": True}
                if self.status_ok
                else {"ok": False, "code": self.status_code, "message": self.status_message}
            ),
            "sections": [
                {"title": title, "entries": [[k, v] for k, v in entries]}
                for title, entries in self.sections
            ],
        }
        return json.dumps(payload, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [f"toric-cox {self.command}", f"input digest: {self.input_digest}"]
        for title, entries in self.sections:
            lines.append("")
            lines.append(f"[{title}]")
            width = max((len(k) for k, _ in entries), default=0)
            for key, value in entries:
                lines.append(f"  {key.ljust(width)}  {value}")
        lines.append("")
        if self.status_ok:
            lines.append("status: ok")
        else:
            lines.append(f"status: error({self.status_code}): {self.status_message}")
        return "\n".join(lines)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_file(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _error_report(command: str, digest: str, code: str, message: str) -> Report:
    return Report(
        command=command,
        input_digest=digest,
        sections=(),
        status_ok=False,
        status_code=code,
        status_message=message,
    )


def _vector_str(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def cmd_validate(text: str, digest: str) -> tuple[Report, int]:
    report = validate_fan(fan_from_json(text))
    section: Section = (
        "validation",
        (
            ("simplicial", str(report.simplicial)),
            ("smooth", str(report.smooth)),
            ("complete", str(report.complete)),
        ),
    )
    ok = report.smooth and report.complete
    return (
        Report("validate", digest, (section,), status_ok=ok,
               status_code="" if ok else "not_smooth_complete",
               status_message="" if ok else "fan is not smooth and complete"),
        0 if ok else 1,
    )


def cmd_cox(text: str, digest: str) -> tuple[Report, int]:
    fan = fan_from_json(text)
    cd = cox_data(fan)
    form = cd.weight_form
    eff = cd.effective_cone
    ideal_monomials = ", ".join(str(cd.monomial(e)) for e in irrelevant_ideal(cd))
    sections: tuple[Section, ...] = (
        (
            "class group",
            (
                ("rank", str(cd.cl_rank)),
                ("torsion", "none"),
                ("degree matrix rows", "; ".join(_vector_str(r) for r in cd.degree_map.matrix.entries)),
            ),
        ),
        (
            "effective cone",
            (
                ("generators", "; ".join(_vector_str(g) for g in eff.generators)),
                ("facet normals", "; ".join(_vector_str(h) for h in eff.facet_normals)),
            ),
        ),
        (
            "weight form",
            (
                ("coefficients", _vector_str(form.coefficients)),
                ("defining inequalities", "nonnegative on the effective cone, >= 1 on its nonzero lattice points"),
                ("values on variable degrees", _vector_str(cd.variable_weights)),
            ),
        ),
        (
            "irrelevant ideal",
            (("generators", ideal_monomials),),
        ),
        (
            "anticanonical",
            (
                ("coefficients", _vector_str(anticanonical(fan).coefficients)),
                ("class", _vector_str(cd.degree_map(anticanonical(fan).coefficients))),
            ),
        ),
    )
    return Report("cox", digest, sections, status_ok=True), 0


def cmd_euler(text: str, digest: str, degree: tuple[int, ...] | None) -> tuple[Report, int]:
    cd = cox_data(fan_from_json(text))
    em = build_euler_module(cd)
    if degree is None:
        degree = (0,) * cd.cl_rank
    if len(degree) != cd.cl_rank:
        raise MalformedFan(f"degree must have {cd.cl_rank} coordinates")
    dim = graded_piece_dim(em, degree)
    identity = check_euler_identity(em, cd.weight_form, trials=20)
    sections: tuple[Section, ...] = (
        (
            "module",
            (
                ("rank", str(em.rank)),
                ("basis degrees", "; ".join(_vector_str(d) for d in em.basis_degrees)),
            ),
        ),
        (
            "graded piece",
            (
                ("degree", _vector_str(degree)),
                ("dimension", str(dim)),
                ("ring piece dimension", str(graded_dimension(cd, degree))),
            ),
        ),
        (
            "euler identity spot check",
            (
                ("samples", str(identity.checked)),
                ("counterexamples", str(len(identity.counterexamples))),
            ),
        ),
    )
    ok = identity.ok
    return Report("euler", digest, sections, status_ok=ok,
                  status_code="" if ok else "euler_identity",
                  status_message="" if ok else "euler identity failed"), (0 if ok else 1)


def cmd_reconstruct(text: str, digest: str) -> tuple[Report, int]:
    fan = reconstruct_fan(grading_from_json(text))
    sections: tuple[Section, ...] = (
        (
            "reconstructed fan",
            (
                ("dim", str(fan.dim)),
                ("rays", "; ".join(_vector_str(r) for r in fan.rays)),
                ("max cones", "; ".join("{" + ", ".join(map(str, c)) + "}" for c in sorted(fan.max_cones))),
                ("fan json", fan_to_json(fan)),
            ),
        ),
    )
    return Report("reconstruct", digest, sections, status_ok=True), 0


def cmd_verify(text: str, digest: str) -> tuple[Report, int]:
    results = run_verification(fan_from_json(text))
    entries = tuple(
        (result.name, ("pass: " if result.passed else "FAIL: ") + result.detail)
        for result in results
    )
    ok = all(result.passed for result in results)
    return Report("verify", digest, (("checks", entries),), status_ok=ok,
                  status_code="" if ok else "verification",
                  status_message="" if ok else "some checks failed"), (0 if ok else 1)


def _parse_degree(text: str) -> tuple[int, ...]:
    cleaned = text.strip().strip("()")
    if not cleaned:
        raise argparse.ArgumentTypeError("empty degree")
    try:
        return tuple(int(part) for part in cleaned.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-cox",
        description="Exact Cox ring and Euler sequence computations on fans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("validate", "structural validation and smooth/complete flags"),
        ("cox", "class group, grading, effective cone, weight form, irrelevant ideal"),
        ("euler", "module rank, basis degrees, graded piece dimensions"),
        ("reconstruct", "rebuild the fan from grading data"),
        ("verify", "run the full invariant suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file", help="input JSON file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if name == "euler":
            p.add_argument(
                "--degree",
                type=_parse_degree,
                default=None,
                help="class vector, comma separated (e.g. 2 or 1,1); "
                "one whose first entry is negative is written --degree=-1,1",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        raw = _read_file(args.file)
    except OSError as exc:
        report = _error_report(command, "", "io", str(exc))
        print(report.to_json() if args.json else report.to_text())
        return 2
    digest = _digest(raw)
    try:
        text = raw.decode("utf-8")
        if command == "validate":
            report, code = cmd_validate(text, digest)
        elif command == "cox":
            report, code = cmd_cox(text, digest)
        elif command == "euler":
            report, code = cmd_euler(text, digest, args.degree)
        elif command == "reconstruct":
            report, code = cmd_reconstruct(text, digest)
        else:
            report, code = cmd_verify(text, digest)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        report, code = _error_report(command, digest, "parse", str(exc)), 2
    except MalformedFan as exc:
        report, code = _error_report(command, digest, "malformed", str(exc)), 3
    except ToricCoxError as exc:
        report, code = _error_report(command, digest, type(exc).__name__, str(exc)), 1
    except MemoryError as exc:
        report, code = _error_report(command, digest, "MemoryError", str(exc) or "out of memory"), 1
    print(report.to_json() if args.json else report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
