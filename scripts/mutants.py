#!/usr/bin/env python3
"""Run a fixed list of mutants of the package against the tests that must catch them.

A mutant replaces one expression or statement inside one function of
``src/toric_cox``: the node whose source, as ``ast.unparse`` prints it, is
``old`` becomes ``new``.  Only that node's text changes.  Each mutant is
applied to a copy of ``src/`` and ``tests/`` in a temporary directory, and
the test file it names runs there under pytest; the mutant is killed when
the run reports a failing test.  Some mutants change no result, and each
of those carries the reason why it must survive.

Before the mutants, the named test files run once on an unmutated copy, so
that a failure there is not mistaken for a kill.

Exit status 1 when a mutant survives without a documented reason, when a
documented equivalent mutant is killed (its reason is then wrong), or when
a mutant's site is missing or not unique (the code has moved: update the
list); 0 otherwise.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import sigterm

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "toric_cox"


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/toric_cox
    function: str  # qualified name, such as "PolytopeFamily.count_lattice_points"
    old: str
    new: str
    test: str  # the test file that must fail on the mutant
    equivalent: str = ""  # why the mutant changes no result; it must then survive


MUTANTS = (
    # Reading a grading: the onto test and the kernel.
    Mutant("onto-check-skipped", "reconstruction.py", "reconstruct_fan",
           "hermite_basis(q.columns(), q.rows) != IntegerMatrix.identity(q.rows).entries", "False",
           "tests/test_reconstruction.py"),
    Mutant("onto-check-reads-the-rank-only", "reconstruction.py", "reconstruct_fan",
           "hermite_basis(q.columns(), q.rows) != IntegerMatrix.identity(q.rows).entries",
           "len(hermite_basis(q.columns(), q.rows)) != q.rows",
           "tests/test_reconstruction.py"),
    Mutant("kernel-keeps-every-graph-row", "lattice.py", "kernel_basis",
           "not any(row[:m])", "True", "tests/test_lattice.py"),
    Mutant("kernel-reads-one-head-entry", "lattice.py", "kernel_basis",
           "not any(row[:m])", "not any(row[:1])", "tests/test_lattice.py"),
    Mutant("normal-fan-skips-the-interior-test", "reconstruction.py", "_normal_fan",
           "not cone_contains(effective_normals, len(ample_class), ample_class, 'relative_interior')", "False",
           "tests/test_reconstruction.py"),
    Mutant("normal-fan-tests-the-closure", "reconstruction.py", "_normal_fan",
           "'relative_interior'", "'closure'", "tests/test_reconstruction.py"),
    Mutant("round-trip-lifts-by-the-divisor", "reconstruction.py", "roundtrip_check",
           "cd.class_section.mat_vec(target_class)", "ample_divisor.coefficients",
           "tests/test_reconstruction.py",
           equivalent="the divisor is a lift of its own class, and two lifts differ by a principal "
           "divisor, which translates the polytope and leaves its normal fan as it is"),
    # Class inputs read at the public entries.
    Mutant("divisor-in-class-reads-no-class", "cox.py", "divisor_in_class",
           "integral_class(cd, class_vector)", "class_vector", "tests/test_cox.py"),
    Mutant("solve-integer-reads-no-right-hand-side", "lattice.py", "solve_integer",
           "b = integer_vector(b, 'right-hand side')", "pass", "tests/test_lattice.py"),
    Mutant("count-reads-no-parameters", "polyhedral.py", "PolytopeFamily.count_lattice_points",
           "params = integer_vector(params, 'parameters')", "pass", "tests/test_polyhedral.py"),
    Mutant("hermite-reads-rows-unchecked", "lattice.py", "hermite_basis",
           "[list(integer_vector(r, 'row')) for r in rows]", "[list(r) for r in rows]", "tests/test_lattice.py"),
    # Each elimination writes its own row and column operations; a lower-dimensional
    # cone's flags come from a Hermite basis, and the weight form sums every facet normal.
    Mutant("smith-column-step-skips-v", "lattice.py", "smith_normal_form",
           "for row in (*d, *v):\n    row[j] -= q * row[t]", "for row in d: row[j] -= q * row[t]",
           "tests/test_lattice.py"),
    Mutant("hermite-skips-the-reduction-above-the-pivot", "lattice.py", "hermite_basis",
           "for row in mat[:r]:\n    q = row[c] // top[c]\n    if q:\n        for k, y in enumerate(top):\n"
           "            row[k] -= q * y", "pass", "tests/test_lattice.py"),
    Mutant("chart-test-reads-the-rank-only", "fans.py", "_charts",
           "image != IntegerMatrix.identity(k).entries", "False", "tests/test_fans.py"),
    Mutant("weight-form-drops-a-normal", "cox.py", "CoxData.weight_form",
           "zip(*self.effective_normals)", "zip(*self.effective_normals[1:])", "tests/test_cox.py"),
    # Each verify line that can fail, made to pass.
    Mutant("dual-oracle-passes-on-a-mismatch", "verify.py", "_dual_oracle_check",
           "CheckResult('dual oracle dimensions', False, str(exc))",
           "CheckResult('dual oracle dimensions', True, str(exc))", "tests/test_cli.py"),
    Mutant("contraction-ignores-a-constant-term", "verify.py", "_euler_identity_check",
           "image.constant_term() != 0", "False", "tests/test_pipeline.py"),
    Mutant("exactness-always-passes", "verify.py", "_exactness_check",
           "passed = composed_zero and spans and rank_ok", "passed = True", "tests/test_cli.py"),
    Mutant("generation-transfer-always-passes", "verify.py", "_generation_checks",
           "transfer_ok = all((image == w * cd.variable(i) for i, (image, w) in enumerate(zip(images, weights))))",
           "transfer_ok = True", "tests/test_cli.py"),
    Mutant("round-trip-line-always-passes", "verify.py", "_roundtrip_check",
           "ok = roundtrip_check(cd, divisor)", "ok = True", "tests/test_cli.py"),
    Mutant("round-trip-always-equal", "reconstruction.py", "roundtrip_check",
           "set(map(frozenset, rebuilt.max_cones)) == set(map(frozenset, f.max_cones))",
           "True", "tests/test_cli.py"),
    # A line printed, not computed, still reads the fan.
    Mutant("certificate-line-prints-the-class-rank", "verify.py", "_certificate_check",
           "cd.num_vars", "cd.cl_rank", "tests/test_golden.py"),
    Mutant("euler-command-always-ok", "cli.py", "cmd_euler",
           "identity.ok", "True", "tests/test_cli.py"),
    # The CLI's error map: exit codes, and the frames freed out of memory.
    Mutant("malformed-input-exits-1", "cli.py", "error_status",
           "(Failure('malformed', str(exc)), 3)", "(Failure('malformed', str(exc)), 1)", "tests/test_cli.py"),
    Mutant("out-of-memory-frees-the-outer-frames-only", "cli.py", "error_status",
           "(None, error.__context__)", "(None, None)", "tests/test_cli.py"),
    # Of several coinciding rays, or of several equal or nested cones, the first
    # pair in index order is named.
    Mutant("coinciding-rays-name-the-last-pair", "fans.py", "_check_structure",
           "min(repeats)", "max(repeats)", "tests/test_fans.py"),
    Mutant("nested-cones-name-the-last-pair", "fans.py", "_check_structure",
           "min(nested)", "max(nested)", "tests/test_fans.py"),
    Mutant("nested-cones-test-only-equal-sizes", "fans.py", "_check_structure",
           "sets[a] < sets[b]", "False", "tests/test_fans.py"),
    Mutant("counterexample-format-changed", "euler.py", "check_euler_identity",
           "f'class {lam}: got {actual}, expected {expected}'", "f'class {lam}: {actual} != {expected}'",
           "tests/test_cli.py"),
    Mutant("identity-check-accepts-negative-trials", "euler.py", "check_euler_identity",
           "trials < 0", "False", "tests/test_euler.py"),
    # The identity check's pool, grouped by one packed key per monomial: one bit
    # fewer per field merges two classes once an entry reaches the field's reach.
    Mutant("pool-key-field-one-bit-narrower", "euler.py", "_pool_by_class",
           "reach.bit_length() + 1", "reach.bit_length()", "tests/test_euler.py"),
    # Each wall form, built in the certificate's one pass over the walls, is 1 at
    # the ray across the wall.
    Mutant("wall-form-drops-the-ray-across", "fans.py", "_certified_wall_forms",
           "form[rho] = 1", "form[rho] = 0", "tests/test_pipeline.py"),
    # The class group of a smooth complete fan, read off all of its wall forms.
    Mutant("class-group-reads-one-wall-form", "fans.py", "class_group",
           "set(report.wall_forms)", "set(report.wall_forms[:1])", "tests/test_fans.py"),
    # Outside input.
    Mutant("divisor-sum-accepts-anything", "fans.py", "TorusInvariantDivisor.__add__",
           "other.__class__ is not TorusInvariantDivisor", "False", "tests/test_fans.py"),
    Mutant("ampleness-accepts-anything", "fans.py", "is_ample",
           "divisor.__class__ is not TorusInvariantDivisor", "False", "tests/test_fans.py"),
    Mutant("json-reader-misses-deep-nesting", "fans.py", "_load_json",
           "(RecursionError, ValueError)", "ValueError", "tests/test_cli.py"),
    Mutant("json-reader-misses-long-integers", "fans.py", "_load_json",
           "(RecursionError, ValueError)", "RecursionError", "tests/test_cli.py"),
    # The fiber count's box: its guard, its key width, its gate, and a twisted piece's
    # widest-first order, which builds the tables once.
    Mutant("fiber-box-keeps-what-leaves-it", "cox.py", "_fiber_dimension",
           "not nu & guard", "True", "tests/test_cox.py"),
    Mutant("fiber-key-margin-halved", "cox.py", "_fiber_tables",
           "2 * max(bounds)", "max(bounds)", "tests/test_cox.py"),
    Mutant("fiber-key-ignores-the-steps", "cox.py", "_fiber_tables",
           "max(2 * max(bounds), max(map(max, steps)))", "2 * max(bounds)", "tests/test_cox.py"),
    Mutant("fiber-tables-grow-outside-the-cone", "cox.py", "_fiber_dimension",
           "any((sum(map(mul, normal, class_vector)) < 0 for normal in cd.effective_normals))", "False",
           "tests/test_cox.py"),
    Mutant("piece-dim-skips-the-widening", "euler.py", "graded_piece_dim",
           "sorted(shifted, key=lambda mu: max(map(abs, mu)), reverse=True)", "shifted", "tests/test_euler.py"),
    # The two oracles share no code: each mutant below leaves every count as it is,
    # and the static reach test of tests/test_cox.py kills both.
    Mutant("fiber-side-asks-the-polytope-walk", "cox.py", "_fiber_dimension",
           "weight < 0", "weight < 0 or not cd.section_tables._count(class_vector)",
           "tests/test_cox.py"),
    Mutant("polytope-side-reads-effective-normals", "cox.py", "_polytope_dimension",
           "cd.section_tables._count(class_vector)", "cd.section_tables._count(class_vector) if cd.effective_normals else 0",
           "tests/test_cox.py"),
    # The one monomial enumerator: its prefix half, its tails, and the exact filter.
    Mutant("enumerator-keeps-inexact-last-entries", "cox.py", "_exponents_up_to_weight",
           "[(left // w,)] if left % w == 0 else []", "[(left // w,)]", "tests/test_cox.py"),
    Mutant("enumerator-prefix-range-stops-short", "cox.py", "_exponents_up_to_weight",
           "[(p + (e,), left - e * w) for p, left in prefixes for e in range(left // w + 1)]",
           "[(p + (e,), left - e * w) for p, left in prefixes for e in range(left // w)]", "tests/test_cox.py"),
    Mutant("enumerator-tail-reads-the-whole-budget", "cox.py", "_exponents_up_to_weight",
           "below[left - e * w]", "below[left]", "tests/test_cox.py"),
    # Polynomials built in one pass: exponents copied once into a list, coefficients
    # put in canonical form as they are computed or read, and the coefficient check.
    Mutant("partials-keep-the-lowered-entry", "cox.py", "_partials",
           "lowered[i] = a", "pass", "tests/test_euler.py"),
    # a scaled derivation still obeys Leibniz; the tuple-slice reference catches it
    Mutant("partials-double-the-coefficient", "cox.py", "_partials",
           "c * a", "2 * c * a", "tests/test_cox.py"),
    Mutant("contraction-raises-the-next-index", "euler.py", "_contraction_sum",
           "raised[i] += 1", "raised[i + 1] += 1", "tests/test_euler.py"),
    # Euler-module elements stored as one flat term map: no zero term is kept,
    # every coefficient is canonical, and no module or ring check is skipped.
    # Sums and scalar multiples go through the term-map helpers that
    # polynomials share (cox._sum, cox._scaled).
    Mutant("contraction-skips-the-first-term", "euler.py", "_contraction_sum",
           "terms.items()", "list(terms.items())[1:]", "tests/test_euler.py"),
    Mutant("sum-keeps-a-cancelled-term", "cox.py", "_sum",
           "_canonical(merged)", "merged", "tests/test_euler.py"),
    Mutant("sum-skips-the-module-check", "euler.py", "EulerModuleElement.__add__",
           "other.module is not self.module and other.module != self.module", "False",
           "tests/test_euler.py"),
    Mutant("scalar-product-keeps-zero-terms", "cox.py", "_scaled",
           "if not factor:\n    return {}", "pass", "tests/test_euler.py"),
    Mutant("scalar-product-keeps-integral-fractions", "cox.py", "_scaled",
           "d if type((d := (c * factor))) is int or d.denominator > 1 else d.numerator", "c * factor",
           "tests/test_euler.py"),
    Mutant("polynomial-product-keeps-a-cancelled-term", "euler.py", "EulerModuleElement.__mul__",
           "_canonical(terms)", "terms", "tests/test_euler.py"),
    Mutant("product-skips-the-ring-check", "euler.py", "EulerModuleElement.__mul__",
           "factor.cox is not self.module.cox and factor.cox != self.module.cox", "False",
           "tests/test_euler.py"),
    Mutant("constructor-drops-the-last-component", "euler.py", "EulerModuleElement.__init__",
           "enumerate(components)", "enumerate(components[:-1])", "tests/test_euler.py"),
    Mutant("basis-element-reads-a-negative-index", "euler.py", "basis_element",
           "not 0 <= index < em.rank", "index >= em.rank", "tests/test_euler.py"),
    # A caller's polynomial and element are checked homogeneous in full; only a
    # single term, or a sum of a single exponent, has one class by itself.
    Mutant("derivation-skips-the-homogeneity-check", "euler.py", "derivation",
           "not s.is_homogeneous()", "False", "tests/test_euler.py"),
    Mutant("contraction-skips-the-homogeneity-check", "euler.py", "euler_contract",
           "len(total) > 1", "len(total) > 2", "tests/test_euler.py"),
    Mutant("make-polynomial-keeps-a-zero", "cox.py", "make_polynomial",
           "if c:\n    checked[key] = c\nelse:\n    checked.pop(key, None)", "checked[key] = c",
           "tests/test_cox.py"),
    Mutant("int-product-keeps-integral-fractions", "cox.py", "_scaled",
           "d if type((d := (c * factor))) is int or d.denominator > 1 else d.numerator", "c * factor",
           "tests/test_cox.py"),
    Mutant("coefficient-reads-text", "cox.py", "make_polynomial",
           "not isinstance(c, (int, float, Fraction))", "False", "tests/test_cox.py"),
    # The section-polytope walk: every deeper constant read off one packed
    # product, x_0's bounds off the rows bounding it, and each next
    # coordinate's bounds carried into the next level.
    Mutant("first-lower-bound-takes-the-largest", "polyhedral.py", "PolytopeFamily._points",
           "v < low", "v > low", "tests/test_polyhedral.py"),
    Mutant("first-upper-bound-takes-the-largest", "polyhedral.py", "PolytopeFamily._points",
           "v < up", "v > up", "tests/test_polyhedral.py"),
    Mutant("segment-count-drops-the-plus-one", "polyhedral.py", "PolytopeFamily._points",
           "up + low + 1", "up + low", "tests/test_polyhedral.py"),
    Mutant("deeper-lower-rows-read-no-parameters", "polyhedral.py", "PolytopeFamily._points",
           "(head, c, (packed & mask) - half)", "(head, c, (packed & mask) - half if side is upper else 0)",
           "tests/test_polyhedral.py"),
    Mutant("section-pack-extraction-drops-the-bias", "polyhedral.py", "PolytopeFamily._points",
           "(packed & mask) - half", "packed & mask", "tests/test_polyhedral.py"),
    Mutant("section-pack-field-one-bit-narrower", "polyhedral.py", "PolytopeFamily._row_pack",
           "(reach * max((sum(map(abs, f)) for f in forms))).bit_length() + 1",
           "(reach * max((sum(map(abs, f)) for f in forms))).bit_length() + 0", "tests/test_polyhedral.py"),
    Mutant("walk-lower-bound-takes-the-largest", "polyhedral.py", "_walk",
           "v < low", "v > low", "tests/test_polyhedral.py"),
    Mutant("walk-upper-bound-takes-the-largest", "polyhedral.py", "_walk",
           "v < up", "v > up", "tests/test_polyhedral.py"),
    Mutant("walk-count-drops-the-plus-one", "polyhedral.py", "_walk",
           "n += up + low + 1", "n += up + low", "tests/test_polyhedral.py"),
    Mutant("walk-lists-the-flipped-lower-bound", "polyhedral.py", "_walk",
           "range(-low, up + 1)", "range(low, up + 1)", "tests/test_polyhedral.py"),
    Mutant("walk-carries-the-flipped-lower-bound", "polyhedral.py", "_walk",
           "_walk(*_fold(lower, upper, k, x), k + 1, -low, up, prefix + (x,), points)",
           "_walk(*_fold(lower, upper, k, x), k + 1, low, up, prefix + (x,), points)", "tests/test_polyhedral.py"),
    Mutant("fold-skips-the-upper-rows", "polyhedral.py", "_fold",
           "[[(head, c, s + head[k] * x) for head, c, s in level] for level in upper[1:]]",
           "[[(head, c, s) for head, c, s in level] for level in upper[1:]]", "tests/test_polyhedral.py"),
    # Comparisons whose change is known to leave every result as it is.
    Mutant("wall-certificate-accepts-a-zero-entry", "fans.py", "_certified_wall_forms",
           "form[out] <= 0", "form[out] < 0", "tests/test_fans.py",
           equivalent="across a smooth wall the entry is +-1, never 0"),
)


def _find(tree: ast.Module, qualname: str) -> ast.AST:
    """The function or method of the qualified name."""
    scope: ast.AST = tree
    for part in qualname.split("."):
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part:
                scope = node
                break
        else:
            raise LookupError(f"no {qualname}")
    return scope


def mutated_source(mutant: Mutant, source: str) -> str:
    """The module's source with the one node that prints as ``old`` replaced by ``new``."""
    target = ast.unparse(ast.parse(mutant.old).body[0])
    function = _find(ast.parse(source), mutant.function)
    sites = [
        node
        for node in ast.walk(function)
        if isinstance(node, (ast.expr, ast.stmt))
        and not isinstance(node, ast.Expr)  # a bare call's statement prints as the call
        and node is not function
        and ast.unparse(node) == target
    ]
    if len(sites) != 1:
        raise LookupError(f"{len(sites)} sites of {mutant.old!r} in {mutant.function}")
    node = sites[0]
    lines = source.splitlines(keepends=True)
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line.encode()))
    data = source.encode()
    start = offsets[node.lineno - 1] + node.col_offset
    end = offsets[node.end_lineno - 1] + node.end_col_offset
    new = mutant.new if isinstance(node, ast.stmt) else f"({mutant.new})"
    result = (data[:start] + new.encode() + data[end:]).decode()
    compile(result, mutant.module, "exec")
    return result


def _copy_tree(destination: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, destination / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", destination / "pyproject.toml")


def _run_tests(copy: Path, test: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-W", "error", "-p", "no:cacheprovider", test]
    return sigterm.run(command, cwd=copy, env=env, text=True)


def _tail(result: subprocess.CompletedProcess) -> str:
    return "\n".join((result.stdout + result.stderr).strip().splitlines()[-5:])


def main() -> int:
    sigterm.install()
    problems = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="toric-cox-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy_tree(clean)
        for test in sorted({m.test for m in MUTANTS}):
            result = _run_tests(clean, test)
            if result.returncode != 0:
                print(f"unmutated tree fails {test}; no mutant can be judged\n{_tail(result)}")
                return 1
        for m in MUTANTS:
            source = (ROOT / PACKAGE / m.module).read_text()
            try:
                mutated = mutated_source(m, source)
            except (LookupError, SyntaxError) as exc:
                print(f"{m.name:<40} ERROR     {exc}")
                problems += 1
                continue
            copy = Path(scratch) / m.name
            _copy_tree(copy)
            (copy / PACKAGE / m.module).write_text(mutated)
            result = _run_tests(copy, m.test)
            shutil.rmtree(copy)
            if result.returncode == 1:
                verdict = "killed" if not m.equivalent else "KILLED, but documented as equivalent"
                problems += bool(m.equivalent)
            elif result.returncode == 0:
                verdict = f"survives (equivalent: {m.equivalent})" if m.equivalent else "SURVIVES"
                problems += not m.equivalent
            else:
                verdict = f"ERROR     pytest exited {result.returncode}\n{_tail(result)}"
                problems += 1
            print(f"{m.name:<40} {verdict}")
    print(f"{len(MUTANTS)} mutants, {problems} problems, {time.perf_counter() - start:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
