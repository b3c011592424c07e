"""JSON file formats: problems, solution families, matrices, bases.

Every scalar inside a file is a string in the exact scalar grammar and every
symbolic entry a string in the polynomial grammar, so exactness survives
serialization.  Serialization is canonical (sorted keys, two-space indent,
trailing newline); parsing a canonical file and re-serializing reproduces it
byte for byte.  Output files are written atomically (temp file + rename).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass
from functools import partial

from .errors import ParseError
from .jordan import JordanSpec, SimilarityData, jordan_form, similarity_from_jordan
from .matrices import ExactMatrix, Grid
from .polynomials import (
    ParamMatrix,
    format_polynomial,
    format_rational_function,
    parse_polynomial,
    parse_polynomials,
    parse_rational_function,
)
from .scalars import GaussianRational, format_scalar, parse_scalar
from .solver import JORDAN_FRAME, ORIGINAL_FRAME, SolutionBranch, SolutionFamily


def matrix_to_grid(m: Grid) -> list[list[str]]:
    """The rows of m as text: scalars for an ExactMatrix, polynomials for a ParamMatrix."""
    return [[str(x) for x in m.row(i)] for i in range(m.rows)]


# what a grid of each name holds: its matrix type and the parser of its
# entries, which reads them in row-major order
_GRID_KINDS = {
    "matrix": (ExactMatrix, partial(map, parse_scalar)),
    "template": (ParamMatrix, parse_polynomials),
}


def _grid_from_json(grid, what: str) -> Grid:
    """The matrix a nonempty list of equally long nonempty lists of strings describes."""
    if (
        not isinstance(grid, list)
        or not grid
        or not all(isinstance(row, list) and row for row in grid)
    ):
        raise ParseError(f"{what} must be a nonempty list of nonempty rows")
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise ParseError(f"{what} rows have inconsistent lengths")
    kind, parse = _GRID_KINDS[what]
    return kind(len(grid), width, tuple(parse(_as_str(x) for row in grid for x in row)))


def grid_to_matrix(grid) -> ExactMatrix:
    return _grid_from_json(grid, "matrix")


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise ParseError(f"expected a string scalar, got {value!r} (floats are not accepted)")
    return value


@dataclass(frozen=True)
class ProblemInput:
    """Either a (matrix, eigenvalues) problem or direct (jordan spec, w) data."""

    matrix: ExactMatrix | None = None
    eigenvalues: tuple[GaussianRational, ...] | None = None
    spec: JordanSpec | None = None
    w: ExactMatrix | None = None

    @property
    def kind(self) -> str:
        return "matrix" if self.matrix is not None else "jordan"


def problem_from_json(obj) -> ProblemInput:
    if not isinstance(obj, dict):
        raise ParseError("problem file must be a JSON object")
    has_matrix = "matrix" in obj
    has_jordan = "jordan" in obj
    if has_matrix == has_jordan:
        raise ParseError("problem file must have exactly one of 'matrix' or 'jordan'")
    if has_matrix:
        allowed = {"matrix", "eigenvalues"}
        if set(obj) - allowed:
            raise ParseError(f"unexpected keys in problem file: {sorted(set(obj) - allowed)}")
        if "eigenvalues" not in obj or not isinstance(obj["eigenvalues"], list):
            raise ParseError("a 'matrix' problem needs an 'eigenvalues' list")
        matrix = grid_to_matrix(obj["matrix"])
        eigenvalues = tuple(parse_scalar(_as_str(e)) for e in obj["eigenvalues"])
        if len(set(eigenvalues)) != len(eigenvalues):
            raise ParseError("'eigenvalues' lists the same value twice")
        return ProblemInput(matrix=matrix, eigenvalues=eigenvalues)
    allowed = {"jordan", "w"}
    if set(obj) - allowed:
        raise ParseError(f"unexpected keys in problem file: {sorted(set(obj) - allowed)}")
    if not isinstance(obj["jordan"], list) or not obj["jordan"]:
        raise ParseError("'jordan' must be a nonempty list of groups")
    pairs = []
    for group in obj["jordan"]:
        if not isinstance(group, dict) or set(group) != {"eigenvalue", "sizes"}:
            raise ParseError("each jordan group needs exactly 'eigenvalue' and 'sizes'")
        sizes = group["sizes"]
        if not isinstance(sizes, list) or not all(type(s) is int and s >= 1 for s in sizes):
            raise ParseError("'sizes' must be a list of positive integers")
        pairs.append((parse_scalar(_as_str(group["eigenvalue"])), tuple(sizes)))
    try:
        spec = JordanSpec.from_pairs(pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    w = grid_to_matrix(obj["w"]) if "w" in obj else None
    return ProblemInput(spec=spec, w=w)


def problem_to_json(problem: ProblemInput) -> dict:
    if problem.kind == "matrix":
        return {
            "matrix": matrix_to_grid(problem.matrix),
            "eigenvalues": [format_scalar(e) for e in problem.eigenvalues],
        }
    obj: dict = {
        "jordan": [
            {"eigenvalue": format_scalar(eig), "sizes": list(sizes)}
            for eig, sizes in problem.spec.groups
        ]
    }
    if problem.w is not None:
        obj["w"] = matrix_to_grid(problem.w)
    return obj


def similarity_from_problem(problem: ProblemInput) -> SimilarityData:
    """Similarity data for a problem: exact Jordan computation or direct data."""
    if problem.kind == "matrix":
        return jordan_form(problem.matrix, problem.eigenvalues)
    return similarity_from_jordan(problem.spec, problem.w)


def _polynomials(raw: dict, key: str) -> tuple:
    if not isinstance(raw[key], list):
        raise ParseError(f"{key} must be a list of polynomials")
    return tuple(parse_polynomial(_as_str(t)) for t in raw[key])


def family_to_json(family: SolutionFamily) -> dict:
    return {
        "n": family.n,
        "frame": family.frame,
        "matrix": matrix_to_grid(family.matrix),
        "template": matrix_to_grid(family.template),
        "branches": [
            {
                "assignments": {
                    name: format_rational_function(rf) for name, rf in branch.assignments
                },
                "disequalities": [format_polynomial(p) for p in branch.disequalities],
                "residual_system": [format_polynomial(p) for p in branch.residual_system],
                "free_parameters": list(branch.free_parameters),
            }
            for branch in family.branches
        ],
    }


def family_from_json(obj) -> SolutionFamily:
    if not isinstance(obj, dict):
        raise ParseError("family file must be a JSON object")
    required = {"n", "frame", "matrix", "template", "branches"}
    if set(obj) != required:
        raise ParseError(f"family file must have exactly the keys {sorted(required)}")
    frame = obj["frame"]
    if frame not in (JORDAN_FRAME, ORIGINAL_FRAME):
        raise ParseError(f"unknown frame {frame!r}")
    matrix = grid_to_matrix(obj["matrix"])
    template = _grid_from_json(obj["template"], "template")
    n = obj["n"]
    if type(n) is not int or matrix.shape != (n, n) or template.shape != (n, n):
        raise ParseError("family dimensions are inconsistent")
    if not isinstance(obj["branches"], list):
        raise ParseError("branches must be a list of branch objects")
    branches = []
    names = set(template.variables())
    for index, raw in enumerate(obj["branches"]):
        if not isinstance(raw, dict) or set(raw) != {
            "assignments",
            "disequalities",
            "residual_system",
            "free_parameters",
        }:
            raise ParseError("branch object has wrong keys")
        try:
            assignments = tuple(
                sorted(
                    (name, parse_rational_function(_as_str(text)))
                    for name, text in raw["assignments"].items()
                )
            )
        except AttributeError:
            raise ParseError("branch assignments must be an object") from None
        disequalities = _polynomials(raw, "disequalities")
        residual = _polynomials(raw, "residual_system")
        free = raw["free_parameters"]
        if not isinstance(free, list) or not all(isinstance(x, str) for x in free):
            raise ParseError("free_parameters must be a list of names")
        assigned = {name for name, _ in assignments}
        for fault, wrong in (
            ("both assigns and frees", assigned & set(free)),
            ("neither assigns nor frees", names - assigned - set(free)),
        ):
            if wrong:
                raise ParseError(f"branch {index} {fault}: {', '.join(sorted(wrong))}")
        branches.append(SolutionBranch(assignments, disequalities, residual, tuple(free)))
    return SolutionFamily(n, frame, tuple(branches), template, matrix)


def matrix_file_to_json(m: ExactMatrix) -> dict:
    return {"matrix": matrix_to_grid(m)}


def matrix_from_file_json(obj) -> ExactMatrix:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ParseError("expected a JSON object with a 'matrix' key")
    return grid_to_matrix(obj["matrix"])


def basis_to_json(left_dim: int, right_dim: int, names, elements) -> dict:
    return {
        "left_dim": left_dim,
        "right_dim": right_dim,
        "dimension": len(names),
        "parameter_names": list(names),
        "basis": [matrix_to_grid(e) for e in elements],
    }


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def atomic_write_text(path: str, text: str) -> None:
    """Replace path's content with text in one step; ParseError if it cannot be written."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ybx-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from None
