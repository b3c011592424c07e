import json

import pytest

from ybx.errors import ParseError
from ybx.formats import (
    atomic_write_text,
    dumps_canonical,
    family_from_json,
    family_to_json,
    grid_to_matrix,
    load_json,
    matrix_file_to_json,
    matrix_from_file_json,
    matrix_to_grid,
    problem_from_json,
    problem_to_json,
    similarity_from_problem,
)
from ybx.jordan import JordanSpec, assemble_jordan, similarity_from_jordan
from ybx.matrices import ExactMatrix
from ybx.solver import solve, to_original

from conftest import random_matrix


def test_matrix_grid_round_trip(rng):
    m = random_matrix(rng, 3, 4)
    assert grid_to_matrix(matrix_to_grid(m)) == m


def test_grid_rejects_floats_and_ragged():
    with pytest.raises(ParseError):
        grid_to_matrix([[1.5]])
    with pytest.raises(ParseError):
        grid_to_matrix([["1", "2"], ["3"]])
    with pytest.raises(ParseError):
        grid_to_matrix([])


def test_problem_round_trip_matrix_shape():
    obj = {"matrix": [["0", "1"], ["0", "0"]], "eigenvalues": ["0"]}
    problem = problem_from_json(obj)
    assert problem.kind == "matrix"
    assert problem_to_json(problem) == obj
    sim = similarity_from_problem(problem)
    assert sim.spec.groups[0][1] == (2,)


def test_problem_round_trip_jordan_shape():
    obj = {"jordan": [{"eigenvalue": "0", "sizes": [2, 1]}]}
    problem = problem_from_json(obj)
    assert problem.kind == "jordan"
    assert problem_to_json(problem) == obj
    sim = similarity_from_problem(problem)
    assert sim.a == assemble_jordan(problem.spec)


def test_problem_shape_validation():
    with pytest.raises(ParseError):
        problem_from_json({"matrix": [["0"]], "jordan": []})
    with pytest.raises(ParseError):
        problem_from_json({"matrix": [["0"]]})
    with pytest.raises(ParseError):
        problem_from_json({"jordan": [{"eigenvalue": "0", "sizes": [0]}]})
    with pytest.raises(ParseError):
        problem_from_json({"jordan": [{"eigenvalue": "0", "sizes": [1]}], "extra": 1})
    with pytest.raises(ParseError):
        problem_from_json([1, 2])


@pytest.mark.parametrize("sizes", [[True, 2], [3, True], [2.5], [], ["3"]])
def test_problem_rejects_bool_block_size(sizes):
    # bool is an int subclass: [true, 2] would load as sizes (1, 2); JordanSpec
    # refuses every size that is not an int >= 1, and an empty list
    with pytest.raises(ParseError):
        problem_from_json({"jordan": [{"eigenvalue": "0", "sizes": sizes}]})


def test_family_json_round_trip():
    sim = similarity_from_jordan(JordanSpec.from_pairs([(0, [4, 3])]))
    family = solve(sim)
    obj = family_to_json(family)
    restored = family_from_json(obj)
    assert restored == family
    # canonical serialization is byte-stable
    text = dumps_canonical(obj)
    assert dumps_canonical(family_to_json(family_from_json(json.loads(text)))) == text


def test_family_json_round_trip_original_frame():
    sim = similarity_from_jordan(JordanSpec.from_pairs([(0, [3]), (1, [1])]))
    family = to_original(solve(sim), sim)
    assert family_from_json(family_to_json(family)) == family


def test_family_json_validation():
    sim = similarity_from_jordan(JordanSpec.from_pairs([(0, [2])]))
    obj = family_to_json(solve(sim))
    bad = dict(obj)
    bad["frame"] = "sideways"
    with pytest.raises(ParseError):
        family_from_json(bad)
    bad = dict(obj)
    bad.pop("template")
    with pytest.raises(ParseError):
        family_from_json(bad)
    bad = dict(obj)
    bad["n"] = 3
    with pytest.raises(ParseError):
        family_from_json(bad)


def _two_branch_family_json() -> dict:
    obj = family_to_json(solve(similarity_from_jordan(JordanSpec.from_pairs([(0, [4])]))))
    assert len(obj["branches"]) == 2 and obj["branches"][1]["disequalities"] == []
    return obj


def test_family_json_rejects_string_template_row():
    obj = _two_branch_family_json()
    obj["template"][3] = "000x"  # not the row 0, 0, 0, x
    with pytest.raises(ParseError):
        family_from_json(obj)


@pytest.mark.parametrize("key", ["disequalities", "residual_system"])
@pytest.mark.parametrize("text", ["x", "xy"])
def test_family_json_rejects_string_polynomial_lists(key, text):
    obj = _two_branch_family_json()
    obj["branches"][1][key] = text
    with pytest.raises(ParseError):
        family_from_json(obj)


@pytest.mark.parametrize("key,value", [("n", True), ("branches", ""), ("branches", {})])
def test_family_json_rejects_wrong_types(key, value):
    obj = family_to_json(solve(similarity_from_jordan(JordanSpec.from_pairs([(0, [1])]))))
    obj[key] = value  # each would load, then re-serialize to other bytes
    with pytest.raises(ParseError):
        family_from_json(obj)


def test_matrix_file_round_trip():
    m = ExactMatrix.from_rows([["1/2", "0"], ["3i", "1-2i"]])
    assert matrix_from_file_json(matrix_file_to_json(m)) == m
    with pytest.raises(ParseError):
        matrix_from_file_json({"rows": []})


def test_atomic_write_and_load(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(str(target), dumps_canonical({"matrix": [["0"]]}))
    assert matrix_from_file_json(load_json(str(target))) == ExactMatrix.zeros(1, 1)
    assert list(tmp_path.iterdir()) == [target]
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "missing.json"))
    target.write_text("{not json")
    with pytest.raises(ParseError):
        load_json(str(target))
