"""Command-line front end.

Subcommands::

    ybx solve PROBLEM OUTPUT [--frame jordan|original] [--depth N] [--seed S]
    ybx verify MATRIX CANDIDATE
    ybx anticommutant LEFT RIGHT OUTPUT
    ybx example {4.1,4.2} OUTDIR [--seed S]
    ybx sample FAMILY BRANCH OUTPUT [--set name=value ...]

Exit codes: 0 success, 1 verification or golden-data failure, 2 input error,
3 mathematical precondition failure (bad eigenvalue data, singular W).  The
environment variable YBX_DEPTH_LIMIT overrides the default branch-search
depth of 8.  Input and output are UTF-8 JSON; reports go to stdout.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, NamedTuple

from . import bundled
from .anticommutant import anticommutant_in_original, pair_contributions
from .errors import (
    DisequalityViolated,
    IncompleteSpectrum,
    MissingParameter,
    NotAnEigenvalue,
    ParseError,
    ResidualNonzero,
    SimilarityMismatch,
    SingularMatrix,
    YbxError,
)
from .formats import (
    ProblemInput,
    atomic_write_text,
    basis_to_json,
    dumps_canonical,
    family_from_json,
    family_to_json,
    load_json,
    matrix_file_to_json,
    matrix_from_file_json,
    problem_to_json,
    problem_from_json,
    similarity_from_problem,
)
from .jordan import JordanSpec, nilpotent_part, validate_similarity
from .matrices import first_nonzero_entry
from .oracle import (
    branch_within,
    cross_check_anticommutant,
    first_unsatisfied,
    verify_family_membership,
)
from .polynomials import format_polynomial
from .scalars import as_gaussian, format_scalar, parse_scalar
from .solver import (
    DEFAULT_DEPTH_LIMIT,
    ORIGINAL_FRAME,
    SolutionFamily,
    build_constraint_system,
    residuals,
    sample,
    solve,
    to_original,
)

_MEMBERSHIP_TRIALS = 25


def _integer(text: str) -> int:
    """A decimal integer of ASCII digits, optionally signed with '-' and
    surrounded by whitespace; ValueError for anything else."""
    text = text.strip()
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _default_depth() -> int:
    env = os.environ.get("YBX_DEPTH_LIMIT")
    if env is None or not env.strip():
        return DEFAULT_DEPTH_LIMIT
    try:
        depth = _integer(env)
    except ValueError:
        raise ParseError(f"YBX_DEPTH_LIMIT must be an integer, got {env!r}") from None
    if depth < 0:
        raise ParseError("YBX_DEPTH_LIMIT must be nonnegative")
    return depth


def cmd_solve(args) -> int:
    if args.depth is not None and args.depth < 0:
        raise ParseError("--depth must be nonnegative")
    depth = args.depth if args.depth is not None else _default_depth()
    problem = problem_from_json(load_json(args.input))
    sim = similarity_from_problem(problem)
    family = solve(sim, depth)
    if args.frame == ORIGINAL_FRAME:
        family = to_original(family, sim)
    atomic_write_text(args.output, dumps_canonical(family_to_json(family)))
    sizes, dim = nilpotent_part(sim.spec.canonical()[0])
    if dim:
        spec0 = JordanSpec(((as_gaussian(0), sizes),))
        anticommutant_dim = sum(r for *_, r in pair_contributions(spec0, spec0))
    else:
        anticommutant_dim = 0
    print(f"branches: {len(family.branches)}")
    print(f"anticommutant dimension (nilpotent part): {anticommutant_dim}")
    print(f"nilpotent block sizes: {' '.join(map(str, sizes)) if sizes else '(none)'}")
    print(f"wrote {args.output}")
    return 0


def _report_residual(label: str, residual) -> bool:
    spot = first_nonzero_entry(residual)
    if spot is None:
        print(f"{label}: zero")
        return True
    i, j, value = spot
    print(f"{label}: nonzero at ({i}, {j}): {format_scalar(value)}")
    return False


def cmd_verify(args) -> int:
    a = matrix_from_file_json(load_json(args.matrix))
    x = matrix_from_file_json(load_json(args.candidate))
    anti, ybe = residuals(a, x)
    equation_ok = _report_residual("equation residual A*X*A - X*A*X", ybe)
    anti_ok = _report_residual("anti-commutation residual A*X + X*A", anti)
    return 0 if equation_ok and anti_ok else 1


def cmd_anticommutant(args) -> int:
    left = similarity_from_problem(problem_from_json(load_json(args.left)))
    right = similarity_from_problem(problem_from_json(load_json(args.right)))
    basis = anticommutant_in_original(left, right)
    atomic_write_text(
        args.output,
        dumps_canonical(
            basis_to_json(basis.left_dim, basis.right_dim, basis.parameter_names, basis.basis)
        ),
    )
    rows = pair_contributions(left.spec, right.spec)
    print("matching block pairs (eigenvalue, opposite, rows, cols, contribution):")
    if rows:
        for lam, mu, t, s, r in rows:
            print(f"  {format_scalar(lam):>8}  {format_scalar(mu):>8}  {t:>3}  {s:>3}  {r:>3}")
    else:
        print("  (none)")
    print(f"dimension: {basis.dimension}")
    print(f"wrote {args.output}")
    return 0


def cmd_sample(args) -> int:
    family = family_from_json(load_json(args.family))
    if not 0 <= args.branch < len(family.branches):
        raise ParseError(
            f"branch {args.branch} out of range (family has {len(family.branches)} branches)"
        )
    assignment = {}
    for item in args.set or []:
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise ParseError(f"--set expects name=value, got {item!r}")
        assignment[name] = parse_scalar(value)
    known = set(family.branches[args.branch].free_parameters)
    unknown = sorted(set(assignment) - known)
    if unknown:
        raise ParseError(
            f"unknown parameters for branch {args.branch}: {', '.join(unknown)}"
            f" (free parameters: {', '.join(sorted(known)) or '(none)'})"
        )
    k = sample(family, args.branch, assignment)
    atomic_write_text(args.output, dumps_canonical(matrix_file_to_json(k)))
    print(f"sampled branch {args.branch}; residuals verified; wrote {args.output}")
    return 0


# -- bundled examples --------------------------------------------------------


_Check = tuple[str, bool, str]  # label, passed, detail shown on failure


def _write_json(outdir: str, name: str, obj) -> None:
    atomic_write_text(os.path.join(outdir, name), dumps_canonical(obj))


def _checks_41(sim, family, outdir: str) -> tuple[SolutionFamily, list[_Check]]:
    """Example 4.1 is checked and verified in original coordinates."""
    try:
        validate_similarity(
            bundled.example_41_matrix(), bundled.example_41_w(), bundled.example_41_spec()
        )
        similar: tuple[bool, str] = (True, "")
    except YbxError as exc:
        similar = (False, str(exc))
    original = to_original(family, sim)
    _write_json(outdir, "family_original.json", family_to_json(original))
    golden = bundled.example_41_golden_template()
    mismatch = ""
    if original.template != golden:  # the difference only names the mismatch
        i, j, _ = first_nonzero_entry(original.template - golden)
        mismatch = (
            f"entry ({i}, {j}): got {format_polynomial(original.template[i, j])}, "
            f"expected {format_polynomial(golden[i, j])}"
        )
    sim_direct = similarity_from_problem(bundled.example_41_problem_jw())
    direct = to_original(solve(sim_direct), sim_direct)
    report = cross_check_anticommutant(sim.spec, sim.spec)
    return original, [
        ("matrix equals W J W^-1 for the bundled W", *similar),
        ("one branch", len(original.branches) == 1, f"got {len(original.branches)}"),
        (
            "two free parameters x, y",
            original.parameters() == ("x", "y"),
            f"got {original.parameters()}",
        ),
        ("original template matches expected entries", not mismatch, mismatch),
        (
            "direct (jordan, w) input gives the same template",
            direct.template == original.template,
            "",
        ),
        (
            "anticommutant dimension agrees with vectorized kernel",
            report.span_match and report.expected_dimension == 7,
            f"structural {report.expected_dimension}, kernel {report.oracle_dimension}",
        ),
    ]


def _pairing_mismatch(golden, branches) -> str:
    """Why the expected families do not pair one-to-one with the branches, or ''."""
    matched: dict[int, int] = {}
    for gi, fam in enumerate(golden):
        hits = [
            bi
            for bi, branch in enumerate(branches)
            if branch_within(fam, branch) and branch_within(branch, fam)
        ]
        if len(hits) != 1:
            return f"expected family {gi} matches branches {hits}"
        matched[gi] = hits[0]
    if len(set(matched.values())) != len(golden):
        return f"branch pairing is not a bijection: {matched}"
    for gi, bi in matched.items():
        want = {p.terms for p in golden[gi].disequalities}
        if want != {p.terms for p in branches[bi].disequalities}:
            return f"family {gi} side conditions differ on branch {bi}"
    return ""


def _checks_42(sim, family, outdir: str) -> tuple[SolutionFamily, list[_Check]]:
    """Example 4.2 is checked against the paper's equations and families by short name."""
    short = bundled.NAMES_CANONICAL_TO_SHORT
    branches = [b.rename(short) for b in family.branches]
    golden = bundled.golden_42_families()
    violation = first_unsatisfied(branches, bundled.golden_42_system())
    if violation is not None:
        system_detail = f"branch {violation[0]} violates {format_polynomial(violation[1])}"
    else:
        generated = [p.rename(short) for p in build_constraint_system((4, 3))[1]]
        violation = first_unsatisfied(golden, generated)
        system_detail = (
            "" if violation is None
            else f"expected family {violation[0]} violates generated constraint"
        )
    pairing = _pairing_mismatch(golden, branches)
    return family, [
        ("four branches", len(family.branches) == 4, f"got {len(family.branches)}"),
        ("every branch fully solved", all(b.is_fully_solved() for b in family.branches), ""),
        (
            "generated system has the same solutions as the six equations",
            violation is None,
            system_detail,
        ),
        ("each expected family matches exactly one branch", not pairing, pairing),
    ]


def _header_42() -> list[str]:
    return ["reduced constraint system:", *(f"  {text} = 0" for text in bundled.GOLDEN_42_SYSTEM)]


class _Example(NamedTuple):
    problem: Callable[[], ProblemInput]
    # (similarity, Jordan-frame family, outdir) -> (family to verify, checks)
    checks: Callable[..., tuple[SolutionFamily, list[_Check]]]
    header: Callable[[], list[str]] = list


_EXAMPLES = {
    "4.1": _Example(bundled.example_41_problem, _checks_41),
    "4.2": _Example(bundled.example_42_problem, _checks_42, _header_42),
}


def cmd_example(args) -> int:
    example = _EXAMPLES.get(args.id)
    if example is None:
        raise ParseError(f"unknown example {args.id!r}; available: {', '.join(_EXAMPLES)}")
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot write {args.outdir}: {exc.strerror}") from None
    problem = example.problem()
    _write_json(args.outdir, "problem.json", problem_to_json(problem))
    sim = similarity_from_problem(problem)
    family = solve(sim)
    _write_json(args.outdir, "family_jordan.json", family_to_json(family))
    checked, checks = example.checks(sim, family, args.outdir)
    membership = verify_family_membership(checked, checked.matrix, _MEMBERSHIP_TRIALS, args.seed)
    checks.append(
        (
            f"{_MEMBERSHIP_TRIALS} random instantiations satisfy both equations",
            membership.span_match,
            f"verified {membership.oracle_dimension}/{membership.expected_dimension}",
        )
    )
    lines = [f"example {args.id}", f"seed: {args.seed}", *example.header()]
    for label, ok, detail in checks:
        suffix = f" ({detail})" if detail and not ok else ""
        lines.append(f"{'PASS' if ok else 'FAIL'}: {label}{suffix}")
    passed = all(ok for _, ok, _ in checks)
    lines.append("result: " + ("all checks passed" if passed else "GOLDEN MISMATCH"))
    text = "\n".join(lines) + "\n"
    atomic_write_text(os.path.join(args.outdir, "report.txt"), text)
    print(text, end="")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybx",
        description="Exact anti-commuting solutions of A*X*A = X*A*X.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the full solution family of a problem file")
    p.add_argument("input", help="problem JSON: {matrix, eigenvalues} or {jordan[, w]}")
    p.add_argument("output", help="family JSON output path")
    p.add_argument("--frame", choices=["jordan", "original"], default="original")
    p.add_argument("--depth", type=_integer, default=None, help="branch search depth limit")
    p.add_argument("--seed", type=_integer, default=0, help="accepted for interface stability")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a candidate matrix against both equations")
    p.add_argument("matrix", help="JSON file with the base matrix")
    p.add_argument("candidate", help="JSON file with the candidate solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("anticommutant", help="basis of {X : U X = -X V} for two problems")
    p.add_argument("left", help="problem JSON for U")
    p.add_argument("right", help="problem JSON for V")
    p.add_argument("output", help="basis JSON output path")
    p.set_defaults(func=cmd_anticommutant)

    p = sub.add_parser("example", help="run a bundled example against its expected results")
    p.add_argument("id", help="example id: 4.1 or 4.2")
    p.add_argument("outdir", help="directory for problem, family, and report files")
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("sample", help="instantiate one branch of a family file")
    p.add_argument("family", help="family JSON produced by solve")
    p.add_argument("branch", type=_integer, help="branch index, 0-based")
    p.add_argument("output", help="matrix JSON output path")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="free parameter assignment; repeatable")
    p.set_defaults(func=cmd_sample)
    return parser


# exit code by error class; every other structured error is an input error, 2
_EXIT_CODES = {
    NotAnEigenvalue: 3,
    IncompleteSpectrum: 3,
    SingularMatrix: 3,
    SimilarityMismatch: 3,
    DisequalityViolated: 1,
    ResidualNonzero: 1,
    MissingParameter: 1,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except YbxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
