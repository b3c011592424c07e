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
import random
import sys

from . import bundled
from .anticommutant import anticommutant_in_original, pair_contributions
from .errors import (
    DimensionMismatch,
    DisequalityViolated,
    GridTooLarge,
    IncompleteSpectrum,
    MissingParameter,
    NotAnEigenvalue,
    NotAnticommuting,
    ParseError,
    ResidualNonzero,
    SimilarityMismatch,
    SingularMatrix,
    YbxError,
)
from .formats import (
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
    branches_agree,
    cross_check_anticommutant,
    random_branch_values,
    verify_family_membership,
)
from .polynomials import format_polynomial
from .scalars import as_gaussian, format_scalar, parse_scalar
from .solver import (
    DEFAULT_DEPTH_LIMIT,
    ORIGINAL_FRAME,
    build_constraint_system,
    residual_anticommute,
    residual_ybe,
    sample,
    solve,
    to_original,
)

_MEMBERSHIP_TRIALS = 25
_AGREEMENT_TRIALS = 60


def _default_depth() -> int:
    env = os.environ.get("YBX_DEPTH_LIMIT")
    if env is None or not env.strip():
        return DEFAULT_DEPTH_LIMIT
    try:
        depth = int(env)
    except ValueError:
        raise ParseError(f"YBX_DEPTH_LIMIT must be an integer, got {env!r}") from None
    if depth < 0:
        raise ParseError("YBX_DEPTH_LIMIT must be nonnegative")
    return depth


def cmd_solve(args) -> int:
    depth = args.depth if args.depth is not None else _default_depth()
    problem = problem_from_json(load_json(args.input))
    sim = similarity_from_problem(problem)
    family = solve(sim, depth)
    if args.frame == ORIGINAL_FRAME:
        family = to_original(family, sim)
    atomic_write_text(args.output, dumps_canonical(family_to_json(family)))
    spec_c = sim.canonicalized().spec
    sizes, dim = nilpotent_part(spec_c)
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
    equation_ok = _report_residual("equation residual A*X*A - X*A*X", residual_ybe(a, x))
    anti_ok = _report_residual("anti-commutation residual A*X + X*A", residual_anticommute(a, x))
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


def _run_example_41(outdir: str, seed: int) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    problem = bundled.example_41_problem()
    atomic_write_text(
        os.path.join(outdir, "problem.json"), dumps_canonical(problem_to_json(problem))
    )

    a = bundled.example_41_matrix()
    try:
        validate_similarity(a, bundled.example_41_w(), bundled.example_41_spec())
        checks.append(("matrix equals W J W^-1 for the bundled W", True, ""))
    except YbxError as exc:
        checks.append(("matrix equals W J W^-1 for the bundled W", False, str(exc)))

    sim = similarity_from_problem(problem)
    family = solve(sim)
    original = to_original(family, sim)
    atomic_write_text(
        os.path.join(outdir, "family_jordan.json"), dumps_canonical(family_to_json(family))
    )
    atomic_write_text(
        os.path.join(outdir, "family_original.json"), dumps_canonical(family_to_json(original))
    )

    checks.append(("one branch", len(original.branches) == 1, f"got {len(original.branches)}"))
    checks.append(
        (
            "two free parameters x, y",
            original.parameters() == ("x", "y"),
            f"got {original.parameters()}",
        )
    )
    golden = bundled.example_41_golden_template()
    mismatch = ""
    ok = True
    for i in range(8):
        for j in range(8):
            if original.template[i, j] != golden[i, j]:
                ok = False
                mismatch = (
                    f"entry ({i}, {j}): got {format_polynomial(original.template[i, j])}, "
                    f"expected {format_polynomial(golden[i, j])}"
                )
                break
        if not ok:
            break
    checks.append(("original template matches expected entries", ok, mismatch))

    sim_direct = similarity_from_problem(bundled.example_41_problem_jw())
    original_direct = to_original(solve(sim_direct), sim_direct)
    checks.append(
        (
            "direct (jordan, w) input gives the same template",
            original_direct.template == original.template,
            "",
        )
    )

    report = cross_check_anticommutant(sim.spec, sim.spec)
    checks.append(
        (
            "anticommutant dimension agrees with vectorized kernel",
            report.span_match and report.expected_dimension == 7,
            f"structural {report.expected_dimension}, kernel {report.oracle_dimension}",
        )
    )
    membership = verify_family_membership(original, a, _MEMBERSHIP_TRIALS, seed)
    checks.append(
        (
            f"{_MEMBERSHIP_TRIALS} random instantiations satisfy both equations",
            membership.span_match,
            f"verified {membership.oracle_dimension}/{membership.expected_dimension}",
        )
    )
    return checks


def _run_example_42(outdir: str, seed: int) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    problem = bundled.example_42_problem()
    atomic_write_text(
        os.path.join(outdir, "problem.json"), dumps_canonical(problem_to_json(problem))
    )
    sim = similarity_from_problem(problem)
    family = solve(sim)
    atomic_write_text(
        os.path.join(outdir, "family_jordan.json"), dumps_canonical(family_to_json(family))
    )

    checks.append(("four branches", len(family.branches) == 4, f"got {len(family.branches)}"))
    checks.append(
        (
            "every branch fully solved",
            all(b.is_fully_solved() for b in family.branches),
            "",
        )
    )

    golden_system = bundled.golden_42_system()
    renamed_branches = [b.rename(bundled.NAMES_CANONICAL_TO_SHORT) for b in family.branches]
    golden_families = bundled.golden_42_families()

    system_ok = True
    system_detail = ""
    renamed_system = [
        p.rename(bundled.NAMES_CANONICAL_TO_SHORT) for p in build_constraint_system((4, 3))[1]
    ]
    for bi, branch in enumerate(renamed_branches):
        for trial in range(_AGREEMENT_TRIALS):
            values = random_branch_values(branch, random.Random(f"{seed}:sys:{bi}:{trial}"))
            if values is None:
                continue
            bad = next((p for p in golden_system if p.evaluate(values)), None)
            if bad is not None:
                system_ok = False
                system_detail = f"branch {bi} violates {format_polynomial(bad)}"
                break
        if not system_ok:
            break
    if system_ok:
        for gi, fam in enumerate(golden_families):
            for trial in range(_AGREEMENT_TRIALS):
                values = random_branch_values(fam, random.Random(f"{seed}:inv:{gi}:{trial}"))
                if values is None:
                    continue
                bad = next((p for p in renamed_system if p.evaluate(values)), None)
                if bad is not None:
                    system_ok = False
                    system_detail = f"expected family {gi} violates generated constraint"
                    break
            if not system_ok:
                break
    checks.append(
        ("generated system has the same solutions as the six equations", system_ok, system_detail)
    )

    matched: dict[int, int] = {}
    pairing_ok = True
    pairing_detail = ""
    for gi, fam in enumerate(golden_families):
        hits = [
            bi
            for bi, branch in enumerate(renamed_branches)
            if branches_agree(fam, branch, _AGREEMENT_TRIALS, seed + gi)
        ]
        if len(hits) != 1:
            pairing_ok = False
            pairing_detail = f"expected family {gi} matches branches {hits}"
            break
        matched[gi] = hits[0]
    if pairing_ok and len(set(matched.values())) != len(golden_families):
        pairing_ok = False
        pairing_detail = f"branch pairing is not a bijection: {matched}"
    if pairing_ok:
        for gi, bi in matched.items():
            want = {p.terms for p in golden_families[gi].disequalities}
            got = {p.terms for p in renamed_branches[bi].disequalities}
            if want != got:
                pairing_ok = False
                pairing_detail = f"family {gi} side conditions differ on branch {bi}"
                break
    checks.append(
        ("each expected family matches exactly one branch", pairing_ok, pairing_detail)
    )

    membership = verify_family_membership(family, family.matrix, _MEMBERSHIP_TRIALS, seed)
    checks.append(
        (
            f"{_MEMBERSHIP_TRIALS} random instantiations satisfy both equations",
            membership.span_match,
            f"verified {membership.oracle_dimension}/{membership.expected_dimension}",
        )
    )
    return checks


def cmd_example(args) -> int:
    if args.id not in bundled.EXAMPLE_IDS:
        print(f"error: unknown example {args.id!r}; available: {', '.join(bundled.EXAMPLE_IDS)}",
              file=sys.stderr)
        return 2
    os.makedirs(args.outdir, exist_ok=True)
    lines = [f"example {args.id}"]
    if args.id == "4.1":
        checks = _run_example_41(args.outdir, args.seed)
    else:
        checks = _run_example_42(args.outdir, args.seed)
        lines.append("reduced constraint system:")
        for text in bundled.GOLDEN_42_SYSTEM:
            lines.append(f"  {text} = 0")
    passed = True
    for label, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        lines.append(f"{status}: {label}{suffix}")
        passed = passed and ok
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
    p.add_argument("--depth", type=int, default=None, help="branch search depth limit")
    p.add_argument("--seed", type=int, default=0, help="accepted for interface stability")
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
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("sample", help="instantiate one branch of a family file")
    p.add_argument("family", help="family JSON produced by solve")
    p.add_argument("branch", type=int, help="branch index, 0-based")
    p.add_argument("output", help="matrix JSON output path")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="free parameter assignment; repeatable")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotAnEigenvalue, IncompleteSpectrum, SingularMatrix, SimilarityMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DisequalityViolated, ResidualNonzero, MissingParameter, NotAnticommuting) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DimensionMismatch, GridTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except YbxError as exc:  # pragma: no cover - catch-all for structured errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
