import pytest

from ybx.anticommutant import (
    anticommutant_basis,
    anticommutant_in_original,
    pair_contributions,
)
from ybx.jordan import assemble_jordan, jordan_form, similarity_from_jordan
from ybx.matrices import ExactMatrix, mat_inverse, mat_mul
from ybx.scalars import GaussianRational

from conftest import random_invertible, random_spec, spec


def block_pair_basis(t, s, lam, mu):
    """Basis of {K (t x s) : J_t(lam) K = -K J_s(mu)}, the patterns in order of m."""
    return list(anticommutant_basis(spec((lam, [t])), spec((mu, [s]))).basis)


def test_no_solutions_when_sum_nonzero():
    assert block_pair_basis(1, 1, 2, 3) == []
    assert block_pair_basis(4, 2, 1, 1) == []


def test_square_pair_patterns():
    basis = block_pair_basis(2, 2, 0, 0)
    assert basis == [
        ExactMatrix.from_rows([[1, 0], [0, -1]]),
        ExactMatrix.from_rows([[0, 1], [0, 0]]),
    ]


def test_wide_pair_padding():
    basis = block_pair_basis(3, 4, 1, -1)
    assert len(basis) == 3
    for element in basis:
        assert element.shape == (3, 4)
        assert all(not element[i, 0] for i in range(3))  # zero first column
    assert basis[0] == ExactMatrix.from_rows(
        [[0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    )


def test_tall_pair_padding():
    basis = block_pair_basis(4, 3, 0, 0)
    assert len(basis) == 3
    for element in basis:
        assert element.shape == (4, 3)
        assert all(not element[3, j] for j in range(3))  # zero last row


def test_pattern_row_recursion(rng):
    # each pattern satisfies entry(i+1, j+1) = -entry(i, j) everywhere in range
    for _ in range(15):
        t, s = rng.randint(1, 5), rng.randint(1, 5)
        for element in block_pair_basis(t, s, 0, 0):
            for i in range(t - 1):
                for j in range(s - 1):
                    assert element[i + 1, j + 1] == -element[i, j]


def test_pattern_solves_pair_equation(rng):
    for _ in range(15):
        t, s = rng.randint(1, 5), rng.randint(1, 5)
        lam = rng.choice([GaussianRational(0), GaussianRational(2), GaussianRational(0, 1)])
        u = assemble_jordan(spec((lam, [t])))
        v = assemble_jordan(spec((-lam, [s])))
        for element in block_pair_basis(t, s, lam, -lam):
            assert (mat_mul(u, element) + mat_mul(element, v)).is_zero()


def test_block_pair_basis_rejects_nonpositive_sizes():
    for t, s in [(0, 2), (2, 0), (-1, 1)]:
        with pytest.raises(ValueError):
            block_pair_basis(t, s, 0, 0)


def test_basis_empty_for_self_pair_with_nonzero_eigenvalue():
    basis = anticommutant_basis(spec((1, [2])), spec((1, [2])))
    assert basis.dimension == 0


def test_basis_single_zero_block():
    u = spec((0, [3]))
    basis = anticommutant_basis(u, u)
    assert basis.dimension == 3
    j = assemble_jordan(u)
    for element in basis.basis:
        assert (mat_mul(j, element) + mat_mul(element, j)).is_zero()
    assert basis.parameter_names == ("k1_1_1_1_1", "k1_1_1_1_2", "k1_1_1_1_3")


def test_basis_two_block_dimension():
    u = spec((0, [4, 3]))
    basis = anticommutant_basis(u, u)
    assert basis.dimension == 13
    assert len(set(basis.parameter_names)) == 13


def test_basis_exactness_random(rng):
    for _ in range(12):
        u_spec = random_spec(rng, max_n=6)
        v_spec = random_spec(rng, max_n=6)
        basis = anticommutant_basis(u_spec, v_spec)
        u = assemble_jordan(u_spec)
        v = assemble_jordan(v_spec)
        for element in basis.basis:
            assert (mat_mul(u, element) + mat_mul(element, v)).is_zero()


def test_nonzero_pair_coverage(rng):
    for _ in range(25):
        u_spec = random_spec(rng, max_n=5)
        v_spec = random_spec(rng, max_n=5)
        basis = anticommutant_basis(u_spec, v_spec)
        has_pair = any(
            not (lam + mu)
            for lam, _ in u_spec.groups
            for mu, _ in v_spec.groups
        )
        assert (basis.dimension > 0) == has_pair


def test_pair_contributions_table():
    u = spec((0, [3]), (1, [3]), (-1, [2]))
    rows = pair_contributions(u, u)
    assert (GaussianRational(0), GaussianRational(0), 3, 3, 3) in rows
    assert (GaussianRational(1), GaussianRational(-1), 3, 2, 2) in rows
    assert (GaussianRational(-1), GaussianRational(1), 2, 3, 2) in rows
    assert sum(r for *_, r in rows) == 7


def test_in_original_identity_w():
    u = similarity_from_jordan(spec((0, [2])))
    conjugated = anticommutant_in_original(u, u)
    plain = anticommutant_basis(u.spec, u.spec)
    assert conjugated.basis == plain.basis


def test_in_original_disjoint_spectra():
    left = similarity_from_jordan(spec((1, [2])))
    right = similarity_from_jordan(spec((2, [2])))
    assert anticommutant_in_original(left, right).dimension == 0


def test_in_original_random_conjugation(rng):
    base = spec((0, [2]))
    for _ in range(5):
        w_left = random_invertible(rng, 2)
        w_right = random_invertible(rng, 2)
        left = jordan_form(
            mat_mul(mat_mul(w_left, assemble_jordan(base)), mat_inverse(w_left)), [0]
        )
        right = jordan_form(
            mat_mul(mat_mul(w_right, assemble_jordan(base)), mat_inverse(w_right)), [0]
        )
        basis = anticommutant_in_original(left, right)
        assert basis.dimension == 2
        for element in basis.basis:
            assert (mat_mul(left.a, element) + mat_mul(element, right.a)).is_zero()
