import json

import pytest

from ybx import bundled
from ybx.cli import main
from ybx.formats import dumps_canonical, family_from_json, load_json


def write(path, obj):
    path.write_text(dumps_canonical(obj))
    return str(path)


@pytest.fixture
def shift3_problem(tmp_path):
    return write(
        tmp_path / "problem.json",
        {"jordan": [{"eigenvalue": "0", "sizes": [3]}]},
    )


def test_solve_jordan_input(tmp_path, shift3_problem, capsys):
    out = tmp_path / "family.json"
    assert main(["solve", shift3_problem, str(out), "--frame", "jordan"]) == 0
    captured = capsys.readouterr().out
    assert "branches: 1" in captured
    assert "anticommutant dimension (nilpotent part): 3" in captured
    assert "nilpotent block sizes: 3" in captured
    family = family_from_json(load_json(str(out)))
    assert family.frame == "jordan"
    assert family.parameters() == ("x", "y")


def test_solve_matrix_input_original_frame(tmp_path, capsys):
    problem = write(
        tmp_path / "problem.json",
        {
            "matrix": [["0", "1"], ["0", "0"]],
            "eigenvalues": ["0"],
        },
    )
    out = tmp_path / "family.json"
    assert main(["solve", problem, str(out)]) == 0
    family = family_from_json(load_json(str(out)))
    assert family.frame == "original"


def test_solve_nonsingular(tmp_path, capsys):
    problem = write(
        tmp_path / "problem.json",
        {"jordan": [{"eigenvalue": "2", "sizes": [1]}, {"eigenvalue": "3", "sizes": [1]}]},
    )
    out = tmp_path / "family.json"
    assert main(["solve", problem, str(out)]) == 0
    captured = capsys.readouterr().out
    assert "branches: 1" in captured
    assert "nilpotent block sizes: (none)" in captured
    family = family_from_json(load_json(str(out)))
    assert family.template.is_zero()
    assert family.branches[0].free_parameters == ()


def test_solve_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["solve", str(bad), str(tmp_path / "out.json")]) == 2


def test_solve_bad_eigenvalue_exit_3(tmp_path):
    problem = write(
        tmp_path / "problem.json",
        {"matrix": [["0", "1"], ["0", "0"]], "eigenvalues": ["5"]},
    )
    assert main(["solve", problem, str(tmp_path / "out.json")]) == 3


@pytest.mark.parametrize("eigenvalues", [["0", "0"], ["0", "0/1"], ["1", "0", "1"]])
def test_duplicate_eigenvalue_exit_2(tmp_path, capsys, eigenvalues):
    problem = write(
        tmp_path / "problem.json",
        {"matrix": [["0", "1"], ["0", "0"]], "eigenvalues": eigenvalues},
    )
    out = tmp_path / "out.json"
    assert main(["solve", problem, str(out)]) == 2
    assert main(["anticommutant", problem, problem, str(out)]) == 2
    assert "'eigenvalues' lists the same value twice" in capsys.readouterr().err
    assert not out.exists()


def test_solve_non_ascii_digit_exit_2(tmp_path, capsys):
    problem = write(tmp_path / "problem.json", {"jordan": [{"eigenvalue": "\u0660", "sizes": [2]}]})
    assert main(["solve", problem, str(tmp_path / "out.json")]) == 2
    assert "not a valid scalar" in capsys.readouterr().err


def test_solve_incomplete_spectrum_exit_3(tmp_path):
    problem = write(
        tmp_path / "problem.json",
        {
            "matrix": [["0", "0"], ["0", "1"]],
            "eigenvalues": ["0"],
        },
    )
    assert main(["solve", problem, str(tmp_path / "out.json")]) == 3


def test_solve_singular_w_exit_3(tmp_path):
    problem = write(
        tmp_path / "problem.json",
        {
            "jordan": [{"eigenvalue": "0", "sizes": [2]}],
            "w": [["1", "1"], ["1", "1"]],
        },
    )
    assert main(["solve", problem, str(tmp_path / "out.json")]) == 3


def test_solve_singular_complex_w_exit_3(tmp_path, capsys):
    # row 1 is i times row 0
    problem = write(
        tmp_path / "problem.json",
        {
            "jordan": [{"eigenvalue": "0", "sizes": [2]}, {"eigenvalue": "1", "sizes": [1]}],
            "w": [["1", "1i", "0"], ["1i", "-1", "0"], ["0", "2/3", "1+1i"]],
        },
    )
    out = tmp_path / "out.json"
    assert main(["solve", problem, str(out)]) == 3
    assert capsys.readouterr().err == "error: similarity matrix W is singular: rank 2 < 3\n"
    assert not out.exists()


def test_depth_env_override(tmp_path, shift3_problem, monkeypatch):
    monkeypatch.setenv("YBX_DEPTH_LIMIT", "not a number")
    assert main(["solve", shift3_problem, str(tmp_path / "out.json")]) == 2
    monkeypatch.setenv("YBX_DEPTH_LIMIT", "4")
    assert main(["solve", shift3_problem, str(tmp_path / "out.json")]) == 0
    monkeypatch.delenv("YBX_DEPTH_LIMIT")
    assert main(["solve", shift3_problem, str(tmp_path / "out2.json"), "--depth", "2"]) == 0


def test_negative_depth_is_an_input_error(tmp_path, shift3_problem, monkeypatch, capsys):
    out = tmp_path / "out.json"
    assert main(["solve", shift3_problem, str(out), "--depth", "-1"]) == 2
    assert "--depth must be nonnegative" in capsys.readouterr().err
    monkeypatch.setenv("YBX_DEPTH_LIMIT", "-1")
    assert main(["solve", shift3_problem, str(out)]) == 2
    assert "YBX_DEPTH_LIMIT must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["٣", "1_0"])
@pytest.mark.parametrize(
    "entry", ["solve --depth", "solve --seed", "YBX_DEPTH_LIMIT", "sample", "example --seed"]
)
def test_integers_take_ascii_digits_only(
    tmp_path, shift3_problem, monkeypatch, capsys, entry, value
):
    family_path = str(tmp_path / "family.json")
    assert main(["solve", shift3_problem, family_path, "--frame", "jordan"]) == 0
    out = tmp_path / "out"
    argv = {
        "solve --depth": ["solve", shift3_problem, str(out), "--depth", value],
        "solve --seed": ["solve", shift3_problem, str(out), "--seed", value],
        "YBX_DEPTH_LIMIT": ["solve", shift3_problem, str(out)],
        "sample": ["sample", family_path, value, str(out), "--set", "x=1", "--set", "y=1"],
        "example --seed": ["example", "4.1", str(out), "--seed", value],
    }[entry]
    if entry == "YBX_DEPTH_LIMIT":
        monkeypatch.setenv("YBX_DEPTH_LIMIT", f" {value} ")
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argument
        code = exc.code
    assert code == 2
    assert value in capsys.readouterr().err
    assert not out.exists()


def test_sample_verify_round_trip(tmp_path, shift3_problem, capsys):
    family_path = tmp_path / "family.json"
    assert main(["solve", shift3_problem, str(family_path), "--frame", "jordan"]) == 0
    sample_path = tmp_path / "k.json"
    assert main([
        "sample", str(family_path), "0", str(sample_path), "--set", "x=1/2", "--set", "y=-2i",
    ]) == 0
    matrix_path = write(
        tmp_path / "J.json", {"matrix": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]}
    )
    assert main(["verify", str(matrix_path), str(sample_path)]) == 0
    captured = capsys.readouterr().out
    assert "equation residual A*X*A - X*A*X: zero" in captured
    assert "anti-commutation residual A*X + X*A: zero" in captured


def test_verify_failure_locates_entry(tmp_path, capsys):
    a = write(tmp_path / "a.json", {"matrix": [["1", "0"], ["0", "1"]]})
    assert main(["verify", a, a]) == 1
    captured = capsys.readouterr().out
    assert "equation residual A*X*A - X*A*X: zero" in captured
    assert "anti-commutation residual A*X + X*A: nonzero at (0, 0): 2" in captured


def test_verify_shape_error_exit_2(tmp_path):
    a = write(tmp_path / "a.json", {"matrix": [["1", "0"], ["0", "1"]]})
    b = write(tmp_path / "b.json", {"matrix": [["1"]]})
    assert main(["verify", a, b]) == 2


def test_verify_non_utf8_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    assert main(["verify", str(bad), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad} is not valid UTF-8")
    assert "Traceback" not in captured.err


def test_verify_non_square_exit_2(tmp_path, capsys):
    a = write(tmp_path / "a.json", {"matrix": [["1", "0", "1"], ["0", "1", "0"]]})
    assert main(["verify", a, a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "residuals: needs a square matrix, got 2x3" in captured.err


def test_solve_non_square_exit_2(tmp_path, capsys):
    problem = write(
        tmp_path / "problem.json",
        {"matrix": [["0", "1", "0"], ["0", "0", "1"]], "eigenvalues": ["0"]},
    )
    out = tmp_path / "out.json"
    assert main(["solve", problem, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "jordan_form: needs a square matrix, got 2x3" in captured.err
    assert not out.exists()


def test_solve_unwritable_output_exit_2(tmp_path, shift3_problem, capsys):
    out = tmp_path / "no" / "such" / "family.json"
    assert main(["solve", shift3_problem, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    # an existing directory as the output: the temp file is cleaned up
    assert main(["solve", shift3_problem, str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]


def test_sample_error_exit_codes(tmp_path, shift3_problem):
    family_path = tmp_path / "family.json"
    main(["solve", shift3_problem, str(family_path), "--frame", "jordan"])
    out = str(tmp_path / "k.json")
    assert main(["sample", str(family_path), "0", out, "--set", "x=1"]) == 1  # missing y
    assert main(["sample", str(family_path), "5", out, "--set", "x=1"]) == 2  # bad branch
    assert main(["sample", str(family_path), "0", out, "--set", "x"]) == 2  # bad flag
    assert main(["sample", str(family_path), "0", out, "--set", "nope=1"]) == 2  # unknown name


@pytest.mark.parametrize(
    "branch, sets, message",
    [
        ({"assignments": {"x": "0"}}, ["x=5", "y=1"], "branch 0 both assigns and frees: x"),
        ({"free_parameters": ["y"]}, ["y=1"], "branch 0 neither assigns nor frees: x"),
        ({"free_parameters": ["y"]}, ["x=5", "y=1"], "branch 0 neither assigns nor frees: x"),
        (
            {"assignments": {"x": "z"}, "free_parameters": ["y"]},
            ["y=1"],
            "branch 0 uses names it does not free: z",
        ),
    ],
)
def test_sample_rejects_inconsistent_branch(
    tmp_path, shift3_problem, capsys, branch, sets, message
):
    family_path = tmp_path / "family.json"
    main(["solve", shift3_problem, str(family_path), "--frame", "jordan"])
    family = load_json(str(family_path))
    family["branches"][0].update(branch)
    bad = write(tmp_path / "bad.json", family)
    capsys.readouterr()
    args = [arg for value in sets for arg in ("--set", value)]
    assert main(["sample", bad, "0", str(tmp_path / "k.json"), *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "k.json").exists()


def test_sample_refuses_a_template_entry_with_a_zero_denominator(
    tmp_path, shift3_problem, capsys
):
    family_path = tmp_path / "family.json"
    main(["solve", shift3_problem, str(family_path), "--frame", "jordan"])
    family = load_json(str(family_path))
    family["template"][0][0] = "1/0*x"
    bad = write(tmp_path / "bad.json", family)
    capsys.readouterr()
    args = ["--set", "x=1", "--set", "y=1"]
    assert main(["sample", bad, "0", str(tmp_path / "k.json"), *args]) == 2
    assert "zero denominator" in capsys.readouterr().err
    assert not (tmp_path / "k.json").exists()


def test_sample_disequality_violation(tmp_path):
    problem = write(
        tmp_path / "problem.json", {"jordan": [{"eigenvalue": "0", "sizes": [4, 3]}]}
    )
    family_path = tmp_path / "family.json"
    assert main(["solve", problem, str(family_path), "--frame", "jordan"]) == 0
    family = family_from_json(load_json(str(family_path)))
    index = next(i for i, b in enumerate(family.branches) if b.disequalities)
    branch = family.branches[index]
    pinned = str(branch.disequalities[0])
    args = ["sample", str(family_path), str(index), str(tmp_path / "k.json")]
    for name in branch.free_parameters:
        args += ["--set", f"{name}={'0' if name == pinned else '1'}"]
    assert main(args) == 1


def test_anticommutant_command(tmp_path, capsys):
    left = write(tmp_path / "left.json", {"jordan": [{"eigenvalue": "0", "sizes": [3, 4]}]})
    out = tmp_path / "basis.json"
    assert main(["anticommutant", left, left, str(out)]) == 0
    captured = capsys.readouterr().out
    assert "dimension: 13" in captured
    data = load_json(str(out))
    assert data["dimension"] == 13
    assert len(data["basis"]) == 13
    assert data["left_dim"] == data["right_dim"] == 7


def test_anticommutant_trivial(tmp_path, capsys):
    left = write(tmp_path / "left.json", {"jordan": [{"eigenvalue": "1", "sizes": [3]}]})
    out = tmp_path / "basis.json"
    assert main(["anticommutant", left, left, str(out)]) == 0
    assert "dimension: 0" in capsys.readouterr().out


def test_anticommutant_mixed_pair(tmp_path, capsys):
    left = write(tmp_path / "left.json", {"jordan": [{"eigenvalue": "1", "sizes": [2]}]})
    right = write(tmp_path / "right.json", {"jordan": [{"eigenvalue": "-1", "sizes": [3]}]})
    out = tmp_path / "basis.json"
    assert main(["anticommutant", left, right, str(out)]) == 0
    assert "dimension: 2" in capsys.readouterr().out


def test_anticommutant_matrix_inputs(tmp_path, capsys):
    problem = write(
        tmp_path / "diag.json",
        {"matrix": [["2", "0"], ["0", "-2"]], "eigenvalues": ["2", "-2"]},
    )
    out = tmp_path / "basis.json"
    assert main(["anticommutant", problem, problem, str(out)]) == 0
    captured = capsys.readouterr().out
    assert "dimension: 2" in captured
    data = load_json(str(out))
    grids = [[[v for v in row] for row in g] for g in data["basis"]]
    assert [["0", "1"], ["0", "0"]] in grids and [["0", "0"], ["1", "0"]] in grids


def test_solve_two_block_matrix_input(tmp_path, capsys):
    # the 7x7 two-block nilpotent matrix fed as a plain matrix with the
    # single eigenvalue 0: exact Jordan computation recovers the block sizes
    rows = [["0"] * 7 for _ in range(7)]
    for i, j in ((0, 1), (1, 2), (3, 4), (4, 5), (5, 6)):
        rows[i][j] = "1"
    problem = write(tmp_path / "p.json", {"matrix": rows, "eigenvalues": ["0"]})
    out = tmp_path / "family.json"
    assert main(["solve", problem, str(out), "--frame", "jordan"]) == 0
    captured = capsys.readouterr().out
    assert "branches: 4" in captured
    assert "anticommutant dimension (nilpotent part): 13" in captured
    assert "nilpotent block sizes: 4 3" in captured


def test_example_enumeration(tmp_path, capsys):
    assert main(["example", "4.1", str(tmp_path / "out41")]) == 0
    report = (tmp_path / "out41" / "report.txt").read_text()
    assert "all checks passed" in report
    assert (tmp_path / "out41" / "problem.json").exists()
    assert (tmp_path / "out41" / "family_original.json").exists()
    capsys.readouterr()
    assert main(["example", "4.2", str(tmp_path / "out42")]) == 0
    report = (tmp_path / "out42" / "report.txt").read_text()
    assert "k22*k31 = 0" in report
    assert "all checks passed" in report


def test_example_41_golden_mismatch_report(tmp_path, monkeypatch, capsys):
    x33 = [list(row) for row in bundled._B41_X33]
    x33[1][2] = 22  # golden entry (1, 2) becomes (22x + 33y)/33
    monkeypatch.setattr(bundled, "_B41_X33", x33)
    assert main(["example", "4.1", str(tmp_path), "--seed", "3"]) == 1
    report = (tmp_path / "report.txt").read_text()
    assert capsys.readouterr().out == report
    assert report == (
        "example 4.1\n"
        "seed: 3\n"
        "PASS: matrix equals W J W^-1 for the bundled W\n"
        "PASS: one branch\n"
        "PASS: two free parameters x, y\n"
        "FAIL: original template matches expected entries"
        " (entry (1, 2): got -1/3*x+y, expected 2/3*x+y)\n"
        "PASS: direct (jordan, w) input gives the same template\n"
        "PASS: anticommutant dimension agrees with vectorized kernel\n"
        "PASS: 25 random instantiations satisfy both equations\n"
        "result: GOLDEN MISMATCH\n"
    )


def test_example_42_golden_mismatch_report(tmp_path, monkeypatch, capsys):
    system = list(bundled.GOLDEN_42_SYSTEM)
    system[5] = "k23*k31-k22*k32-k42"  # drops the -k42*k42 term
    monkeypatch.setattr(bundled, "GOLDEN_42_SYSTEM", tuple(system))
    families = bundled.GOLDEN_42_FAMILIES
    monkeypatch.setattr(
        bundled, "GOLDEN_42_FAMILIES", (families[0], families[1], families[2], families[2])
    )
    assert main(["example", "4.2", str(tmp_path), "--seed", "3"]) == 1
    report = (tmp_path / "report.txt").read_text()
    assert capsys.readouterr().out == report
    assert report == (
        "example 4.2\n"
        "seed: 3\n"
        "reduced constraint system:\n"
        "  k11 = 0\n"
        "  k41 = 0\n"
        "  k22*k31 = 0\n"
        "  k22+k12*k22+k22*k42 = 0\n"
        "  -k31+k12*k31-k31*k42 = 0\n"
        "  k23*k31-k22*k32-k42 = 0\n"
        "PASS: four branches\n"
        "PASS: every branch fully solved\n"
        "FAIL: generated system has the same solutions as the six equations"
        " (branch 1 violates -k42-k22*k32+k23*k31)\n"
        "FAIL: each expected family matches exactly one branch"
        " (branch pairing is not a bijection: {0: 0, 1: 1, 2: 2, 3: 2})\n"
        "PASS: 25 random instantiations satisfy both equations\n"
        "result: GOLDEN MISMATCH\n"
    )


def test_example_42_expected_family_off_the_system(tmp_path, monkeypatch, capsys):
    # the branches satisfy the six equations, so only the reverse direction
    # (expected families against the generated system) can catch this
    families = list(bundled.GOLDEN_42_FAMILIES)
    families[1] = {**families[1], "assignments": {**families[1]["assignments"], "k42": "1"}}
    monkeypatch.setattr(bundled, "GOLDEN_42_FAMILIES", tuple(families))
    assert main(["example", "4.2", str(tmp_path), "--seed", "3"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL: generated system has the same solutions as the six equations"
        " (expected family 1 violates generated constraint)",
        "FAIL: each expected family matches exactly one branch"
        " (expected family 1 matches branches [])",
    ]


def test_example_42_side_conditions_differ_report(tmp_path, monkeypatch, capsys):
    # family 2 without its k22 side condition is the same set generically, so
    # only the side-condition comparison can tell it from branch 2
    families = list(bundled.GOLDEN_42_FAMILIES)
    families[2] = {**families[2], "disequalities": ()}
    monkeypatch.setattr(bundled, "GOLDEN_42_FAMILIES", tuple(families))
    assert main(["example", "4.2", str(tmp_path), "--seed", "3"]) == 1
    report = (tmp_path / "report.txt").read_text()
    assert capsys.readouterr().out == report
    assert report == (
        "example 4.2\n"
        "seed: 3\n"
        "reduced constraint system:\n"
        "  k11 = 0\n"
        "  k41 = 0\n"
        "  k22*k31 = 0\n"
        "  k22+k12*k22+k22*k42 = 0\n"
        "  -k31+k12*k31-k31*k42 = 0\n"
        "  k23*k31-k22*k32-k42-k42*k42 = 0\n"
        "PASS: four branches\n"
        "PASS: every branch fully solved\n"
        "PASS: generated system has the same solutions as the six equations\n"
        "FAIL: each expected family matches exactly one branch"
        " (family 2 side conditions differ on branch 2)\n"
        "PASS: 25 random instantiations satisfy both equations\n"
        "result: GOLDEN MISMATCH\n"
    )


def test_example_unknown_exit_2(tmp_path, capsys):
    assert main(["example", "9.9", str(tmp_path / "nope")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown example '9.9'; available: 4.1, 4.2\n"


def test_example_unwritable_outdir_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["example", "4.1", str(blocker / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {blocker / 'out'}: Not a directory\n"


def test_family_files_round_trip_bytes(tmp_path, shift3_problem):
    family_path = tmp_path / "family.json"
    main(["solve", shift3_problem, str(family_path), "--frame", "jordan"])
    text = family_path.read_text()
    restored = dumps_canonical(json.loads(text))
    assert restored == text
