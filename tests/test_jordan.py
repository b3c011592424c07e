import pytest

from ybx.bundled import example_41_matrix, example_41_spec, example_41_w
from ybx.errors import IncompleteSpectrum, NotAnEigenvalue, SimilarityMismatch, SingularMatrix
from ybx.jordan import (
    JordanBlockSpec,
    JordanSpec,
    assemble_jordan,
    jordan_form,
    nilpotent_part,
    similarity_from_jordan,
    validate_similarity,
)
from ybx.matrices import ExactMatrix, mat_inverse, mat_mul, rref
from ybx.scalars import GaussianRational

from conftest import mat_pow, random_invertible, random_spec


def test_assemble_single_zero_block():
    spec = JordanSpec.from_pairs([(0, [1])])
    assert assemble_jordan(spec) == ExactMatrix.zeros(1, 1)


def test_assemble_example_41_layout():
    j = assemble_jordan(example_41_spec())
    expected = ExactMatrix.from_rows(
        [
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, -1, 1],
            [0, 0, 0, 0, 0, 0, 0, -1],
        ]
    )
    assert j == expected


def test_assemble_respects_given_order():
    spec = JordanSpec.from_pairs([(0, [4, 3])])
    j = assemble_jordan(spec)
    assert j[3, 4] == GaussianRational(0)  # block boundary after the size-4 block
    assert j[0, 1] == GaussianRational(1)
    assert not spec.canonical()[0] is spec
    # the size-3-first order is accepted but not canonical
    as_given = JordanSpec.from_pairs([(0, [3, 4])])
    assert as_given.canonical()[0] != as_given
    assert spec.canonical()[0] == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        JordanSpec.from_pairs([(0, [2]), (0, [1])])
    with pytest.raises(ValueError):
        JordanSpec.from_pairs([(0, [])])
    with pytest.raises(ValueError):
        JordanSpec.from_pairs([(0, [0])])
    with pytest.raises(ValueError):
        JordanSpec(())


@pytest.mark.parametrize("size", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_spec_rejects_a_size_that_is_not_an_int(size):
    # refused, not truncated: 2.5 would otherwise be 2, True 1 and "3" 3
    with pytest.raises(ValueError, match="not an int"):
        JordanSpec.from_pairs([(0, (size, 1))])
    with pytest.raises(ValueError, match="not an int"):
        JordanSpec(((GaussianRational(0), (size,)),))
    with pytest.raises(ValueError, match="an int >= 1"):
        JordanBlockSpec(GaussianRational(0), size)


def test_assemble_structure_random(rng):
    # diagonal reads the eigenvalue sequence, each block's superdiagonal is 1,
    # everything else is 0
    for _ in range(10):
        s = random_spec(rng, max_n=7)
        j = assemble_jordan(s)
        diagonal = [b.eigenvalue for b in s.blocks() for _ in range(b.size)]
        superdiagonal_ones = set()
        pos = 0
        for b in s.blocks():
            superdiagonal_ones.update((pos + i, pos + i + 1) for i in range(b.size - 1))
            pos += b.size
        for i in range(s.n):
            for jj in range(s.n):
                if i == jj:
                    assert j[i, jj] == diagonal[i]
                elif (i, jj) in superdiagonal_ones:
                    assert j[i, jj] == GaussianRational(1)
                else:
                    assert not j[i, jj]


def test_canonical_order_and_permutation():
    spec = JordanSpec.from_pairs([(1, [1, 2]), (0, [2, 3])])
    canon, position_map = spec.canonical()
    assert canon.groups[0][0] == GaussianRational(0)
    assert canon.groups[0][1] == (3, 2)
    assert canon.groups[1][1] == (2, 1)
    j, j_canon = assemble_jordan(spec), assemble_jordan(canon)
    for a, old_a in enumerate(position_map):
        for b, old_b in enumerate(position_map):
            assert j_canon[a, b] == j[old_a, old_b]


def test_canonical_sorts_groups_lexicographically():
    spec = JordanSpec.from_pairs([(1, [3]), (-1, [2]), (0, [3])])
    canon, _ = spec.canonical()
    assert [str(e) for e, _ in canon.groups] == ["0", "-1", "1"]


def test_validate_similarity_identity():
    spec = JordanSpec.from_pairs([(0, [2])])
    j = assemble_jordan(spec)
    data = validate_similarity(j, ExactMatrix.identity(2), spec)
    assert data.a == j


def test_validate_similarity_example_41():
    data = validate_similarity(example_41_matrix(), example_41_w(), example_41_spec())
    assert mat_mul(data.w, data.w_inv) == ExactMatrix.identity(8)


def test_validate_similarity_mismatch():
    spec = JordanSpec.from_pairs([(0, [2])])
    with pytest.raises(SimilarityMismatch) as err:
        validate_similarity(ExactMatrix.identity(2), ExactMatrix.identity(2), spec)
    assert err.value.position == (0, 0)


def test_validate_similarity_singular_w():
    spec = JordanSpec.from_pairs([(0, [2])])
    with pytest.raises(SingularMatrix):
        validate_similarity(assemble_jordan(spec), ExactMatrix.zeros(2, 2), spec)


def test_jordan_form_shift_block():
    j3 = assemble_jordan(JordanSpec.from_pairs([(0, [3])]))
    data = jordan_form(j3, [0])
    assert data.spec.groups == ((GaussianRational(0), (3,)),)


def test_jordan_form_example_41():
    data = jordan_form(example_41_matrix(), [0, 1, -1])
    assert [(str(e), tuple(s)) for e, s in data.spec.groups] == [
        ("0", (3,)),
        ("-1", (2,)),
        ("1", (3,)),
    ]


def test_jordan_form_diagonalizable():
    a = ExactMatrix.from_rows([[2, 0], [0, 2]])
    data = jordan_form(a, [2])
    assert data.spec.groups == ((GaussianRational(2), (1, 1)),)


def test_jordan_form_not_an_eigenvalue():
    j3 = assemble_jordan(JordanSpec.from_pairs([(0, [3])]))
    with pytest.raises(NotAnEigenvalue):
        jordan_form(j3, [0, 5])


def test_jordan_form_incomplete_spectrum():
    a = assemble_jordan(JordanSpec.from_pairs([(0, [2]), (1, [1])]))
    with pytest.raises(IncompleteSpectrum):
        jordan_form(a, [0])


def test_jordan_form_duplicate_eigenvalues_rejected():
    with pytest.raises(ValueError):
        jordan_form(ExactMatrix.identity(2), [1, 1])


def test_jordan_form_round_trip(rng):
    for _ in range(20):
        spec = random_spec(rng, max_n=6)
        canon, _ = spec.canonical()
        n = canon.n
        w = random_invertible(rng, n)
        a = mat_mul(mat_mul(w, assemble_jordan(canon)), mat_inverse(w))
        data = jordan_form(a, [e for e, _ in canon.groups])
        assert data.spec == canon
        validate_similarity(a, data.w, data.spec)


def test_block_size_recovery(rng):
    # blocks of size >= k match the rank drops of successive powers
    for _ in range(10):
        spec = random_spec(rng, max_n=8)
        j = assemble_jordan(spec)
        n = spec.n
        for eig, sizes in spec.groups:
            m = j - ExactMatrix.identity(n) * eig
            prev = n
            for k in range(1, max(sizes) + 1):
                rank = rref(mat_pow(m, k)).rank
                assert prev - rank == sum(1 for s in sizes if s >= k)
                prev = rank


def test_nilpotent_part():
    assert nilpotent_part(JordanSpec.from_pairs([(1, [2]), (-1, [2])])) == ((), 0)
    assert nilpotent_part(example_41_spec()) == ((3,), 3)
    spec42 = JordanSpec.from_pairs([(0, [3, 4])])
    assert nilpotent_part(spec42) == ((3, 4), 7)
    assert nilpotent_part(spec42.canonical()[0]) == ((4, 3), 7)


def test_similarity_from_jordan_defaults_to_identity():
    spec = JordanSpec.from_pairs([(0, [2]), (2, [1])])
    data = similarity_from_jordan(spec)
    assert data.a == assemble_jordan(spec)
    assert data.w == ExactMatrix.identity(3)


def test_canonicalized_similarity_stays_valid(rng):
    shuffled = JordanSpec.from_pairs([(1, [1, 2]), (0, [1, 3])])
    w = random_invertible(rng, shuffled.n)
    a = mat_mul(mat_mul(w, assemble_jordan(shuffled)), mat_inverse(w))
    data = validate_similarity(a, w, shuffled)
    canon = data.canonicalized()
    assert canon.spec.canonical()[0] == canon.spec
    assert mat_mul(canon.a, canon.w) == mat_mul(canon.w, assemble_jordan(canon.spec))
    assert mat_mul(canon.w, canon.w_inv) == ExactMatrix.identity(shuffled.n)


def test_canonical_layout_moves_columns_and_rows(rng):
    # canonicalized() re-indexes W's columns and W^-1's rows by the position
    # map, and jordan_form returns data already in the canonical layout
    for _ in range(20):
        spec = random_spec(rng, max_n=7)
        canon, position_map = spec.canonical()
        assert canon.canonical() == (canon, tuple(range(canon.n)))
        data = similarity_from_jordan(spec, random_invertible(rng, spec.n))
        moved = data.canonicalized()
        assert moved.spec == canon
        for new, old in enumerate(position_map):
            assert moved.w.col(new) == data.w.col(old)
            assert moved.w_inv.row(new) == data.w_inv.row(old)
        assert mat_mul(data.a, moved.w) == mat_mul(moved.w, assemble_jordan(canon))
        found = jordan_form(data.a, spec.eigenvalues())
        assert found.canonicalized() == found
