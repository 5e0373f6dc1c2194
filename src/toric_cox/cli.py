"""Command line front end.

``toric-cox validate|cox|euler|reconstruct|verify <file> [--degree d] [--json]``

Exit codes: 0 pass, 1 semantic failure, 2 I/O or parse error, 3 malformed
input; :func:`error_status` maps an error to them, here and in the table
script.  Reports are deterministic: identical input and flags give byte
identical output.

Each ``cmd_*`` imports the functions it calls, so a run loads only the
modules of its own command, and returns its sections and its failure
(``None`` when its checks pass); :func:`main` alone builds the report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from .errors import MalformedFan, ToricCoxError

# The built-in SHA-256 gives hashlib's digest without loading OpenSSL.
try:
    from _sha256 import sha256  # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

Section = tuple[str, tuple[tuple[str, str], ...]]


class Failure(NamedTuple):
    code: str
    message: str


class Report(NamedTuple):
    command: str
    input_digest: str
    sections: tuple[Section, ...]
    failure: Failure | None = None

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "input_digest": self.input_digest,
            "status": {"ok": True} if self.failure is None else {"ok": False, **self.failure._asdict()},
            "sections": [
                {"title": title, "entries": [[k, v] for k, v in entries]}
                for title, entries in self.sections
            ],
        }, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [f"toric-cox {self.command}", f"input digest: {self.input_digest}"]
        for title, entries in self.sections:
            lines += ["", f"[{title}]"]
            width = max((len(k) for k, _ in entries), default=0)
            lines += (f"  {key.ljust(width)}  {value}" for key, value in entries)
        lines += ["", "status: ok" if self.failure is None else "status: error({}): {}".format(*self.failure)]
        return "\n".join(lines)


# The errors that end a run in a report, not a traceback.
ERRORS = (OSError, UnicodeDecodeError, json.JSONDecodeError, ToricCoxError, MemoryError)


def error_status(exc: BaseException) -> tuple[Failure, int]:
    """The failure and exit code of an error of ``ERRORS``: 2 for a file that cannot be read
    (io) or decoded (parse), 3 for malformed input, 1 for other rejections and out of memory."""
    if isinstance(exc, OSError):
        return Failure("io", str(exc)), 2
    if isinstance(exc, (UnicodeDecodeError, json.JSONDecodeError)):
        return Failure("parse", str(exc)), 2
    if isinstance(exc, MalformedFan):
        return Failure("malformed", str(exc)), 3
    if isinstance(exc, MemoryError):
        error: BaseException | None = exc  # free the frames that hold the tables first: those of exc
        while error is not None:  # and of the errors in its context, raised as its traceback grew
            error.__traceback__, error = None, error.__context__
        return Failure("MemoryError", str(exc) or "out of memory"), 1
    return Failure(type(exc).__name__, str(exc)), 1


def _digest(data: bytes) -> str:
    return sha256(data).hexdigest()


def _read_file(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _vector(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _vectors(vs) -> str:
    return "; ".join(map(_vector, vs))


Outcome = tuple[tuple[Section, ...], Failure | None]


def cmd_validate(text: str, args: argparse.Namespace) -> Outcome:
    from .fans import fan_from_json, validate_fan

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
    return (section,), None if ok else Failure("not_smooth_complete", "fan is not smooth and complete")


def cmd_cox(text: str, args: argparse.Namespace) -> Outcome:
    from .cox import cox_data, irrelevant_ideal
    from .fans import anticanonical, fan_from_json

    fan = fan_from_json(text)
    cd = cox_data(fan)
    minus_k = anticanonical(fan).coefficients
    return (
        (
            "class group",
            (
                ("rank", str(cd.cl_rank)),
                ("torsion", "none"),
                ("degree matrix rows", _vectors(cd.degree_matrix.entries)),
            ),
        ),
        (
            "effective cone",
            (
                ("generators", _vectors(cd.effective_cone.generators)),
                ("facet normals", _vectors(cd.effective_cone.facet_normals)),
            ),
        ),
        (
            "weight form",
            (
                ("coefficients", _vector(cd.weight_form.coefficients)),
                ("defining inequalities", "nonnegative on the effective cone, >= 1 on its nonzero lattice points"),
                ("values on variable degrees", _vector(cd.variable_weights)),
            ),
        ),
        (
            "irrelevant ideal",
            (("generators", ", ".join(str(cd.monomial(e)) for e in irrelevant_ideal(cd))),),
        ),
        (
            "anticanonical",
            (
                ("coefficients", _vector(minus_k)),
                ("class", _vector(cd.degree_of_exponent(minus_k))),
            ),
        ),
    ), None


def cmd_euler(text: str, args: argparse.Namespace) -> Outcome:
    from .cox import cox_data, graded_dimension
    from .euler import build_euler_module, check_euler_identity, graded_piece_dim
    from .fans import fan_from_json

    cd = cox_data(fan_from_json(text))
    em = build_euler_module(cd)
    degree = (0,) * cd.cl_rank if args.degree is None else args.degree
    if len(degree) != cd.cl_rank:
        raise MalformedFan(f"degree must have {cd.cl_rank} coordinates")
    dim = graded_piece_dim(em, degree)
    identity = check_euler_identity(em, cd.weight_form, trials=20)
    return (
        (
            "module",
            (
                ("rank", str(em.rank)),
                ("basis degrees", _vectors(em.basis_degrees)),
            ),
        ),
        (
            "graded piece",
            (
                ("degree", _vector(degree)),
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
    ), None if identity.ok else Failure("euler_identity", "euler identity failed")


def cmd_reconstruct(text: str, args: argparse.Namespace) -> Outcome:
    from .fans import fan_to_json
    from .reconstruction import grading_from_json, reconstruct_fan

    fan = reconstruct_fan(grading_from_json(text))
    section: Section = (
        "reconstructed fan",
        (
            ("dim", str(fan.dim)),
            ("rays", _vectors(fan.rays)),
            ("max cones", "; ".join("{" + ", ".join(map(str, c)) + "}" for c in sorted(fan.max_cones))),
            ("fan json", fan_to_json(fan)),
        ),
    )
    return (section,), None


def cmd_verify(text: str, args: argparse.Namespace) -> Outcome:
    from .fans import fan_from_json
    from .verify import run_verification

    results = run_verification(fan_from_json(text))
    entries = tuple((r.name, ("pass: " if r.passed else "FAIL: ") + r.detail) for r in results)
    ok = all(r.passed for r in results)
    return (("checks", entries),), None if ok else Failure("verification", "some checks failed")


# Each subcommand: the function that runs it and its help line.
COMMANDS = {
    "validate": (cmd_validate, "structural validation and smooth/complete flags"),
    "cox": (cmd_cox, "class group, grading, effective cone, weight form, irrelevant ideal"),
    "euler": (cmd_euler, "module rank, basis degrees, graded piece dimensions"),
    "reconstruct": (cmd_reconstruct, "rebuild the fan from grading data"),
    "verify": (cmd_verify, "run the full invariant suite"),
}


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
        prog="toric-cox", description="Exact Cox ring and Euler sequence computations on fans")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file", help="input JSON file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if name == "euler":
            p.add_argument("--degree", type=_parse_degree, help="class vector, comma separated (e.g. 2 or 1,1); "
                           "one whose first entry is negative is written --degree=-1,1")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    digest, sections = "", ()
    try:
        raw = _read_file(args.file)
        digest = _digest(raw)
        sections, failure = COMMANDS[args.command][0](raw.decode("utf-8"), args)
        code = 0 if failure is None else 1
    except ERRORS as exc:
        failure, code = error_status(exc)
    report = Report(args.command, digest, sections, failure)
    print(report.to_json() if args.json else report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
