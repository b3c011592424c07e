"""Structural basis of the anticommutant {X : U X = -X V}.

For a pair of Jordan blocks J_t(lam), J_s(mu) the space of solutions of
J_t(lam) K = -K J_s(mu) is zero unless lam = -mu, and otherwise is spanned
by r = min(t, s) sign-alternating patterns.  Pattern m (1-based) is

    K[i, s - r + i + m - 1] = (-1)**i  for i = 0 .. r - m,  zero elsewhere:

one diagonal of an r x r upper triangle that sits flush right ([0 | core]
when t <= s) or flush top ([core ; 0] when t >= s), each row the negated
right-shift of the one above.  The anticommutant of two matrices given by
Jordan data has one basis element per pattern of each block pair with
opposite eigenvalues: the pattern written at the pair's block offsets, zero
elsewhere, with one named parameter per element.

Parameter names are part of the public contract: ``k{gi}_{bi}_{gj}_{bj}_{m}``
where (gi, bi) are the 1-based group and in-group block positions on the left,
(gj, bj) the same on the right, and m the 1-based pattern index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jordan import JordanSpec, SimilarityData
from .matrices import ExactMatrix, mat_mul
from .scalars import MINUS_ONE, ONE, ZERO, GaussianRational


@dataclass(frozen=True, slots=True)
class AnticommutantBasis:
    """Named basis of {X : U X = -X V} for (U, V) of sizes left_dim, right_dim."""

    left_dim: int
    right_dim: int
    basis: tuple[ExactMatrix, ...]
    parameter_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.basis) != len(self.parameter_names):
            raise ValueError("one parameter name per basis element")

    @property
    def dimension(self) -> int:
        return len(self.basis)


def pair_contributions(
    u_spec: JordanSpec, v_spec: JordanSpec
) -> list[tuple[GaussianRational, GaussianRational, int, int, int]]:
    """(lam, mu, t, s, min(t, s)) for every matching block pair, in layout order."""
    rows = []
    for lam, u_sizes in u_spec.groups:
        for mu, v_sizes in v_spec.groups:
            if lam + mu:
                continue
            for t in u_sizes:
                for s in v_sizes:
                    rows.append((lam, mu, t, s, min(t, s)))
    return rows


def anticommutant_basis(u_spec: JordanSpec, v_spec: JordanSpec) -> AnticommutantBasis:
    """Basis of solutions of J_U Y = -Y J_V, one element per block-pair pattern.

    Elements follow the layout order of the left block, then the right block,
    then m; the dimension is the sum of min(t, s) over block pairs with
    opposite eigenvalues.  Each element is written entry by entry from the
    closed form in the module docstring.
    """
    n_u, n_v = u_spec.n, v_spec.n
    elements: list[ExactMatrix] = []
    names: list[str] = []
    r_off = 0
    for gi, (lam, u_sizes) in enumerate(u_spec.groups, start=1):
        for bi, t in enumerate(u_sizes, start=1):
            c_off = 0
            for gj, (mu, v_sizes) in enumerate(v_spec.groups, start=1):
                for bj, s in enumerate(v_sizes, start=1):
                    r = 0 if lam + mu else min(t, s)
                    for m in range(1, r + 1):
                        entries = [ZERO] * (n_u * n_v)
                        for i in range(r - m + 1):
                            col = c_off + s - r + i + m - 1
                            entries[(r_off + i) * n_v + col] = MINUS_ONE if i % 2 else ONE
                        elements.append(ExactMatrix(n_u, n_v, tuple(entries)))
                        names.append(f"k{gi}_{bi}_{gj}_{bj}_{m}")
                    c_off += s
            r_off += t
    return AnticommutantBasis(n_u, n_v, tuple(elements), tuple(names))


def anticommutant_in_original(left: SimilarityData, right: SimilarityData) -> AnticommutantBasis:
    """The same basis conjugated to original coordinates: each E becomes P E Q^-1."""
    jordan_frame = anticommutant_basis(left.spec, right.spec)
    conjugated = tuple(
        mat_mul(mat_mul(left.w, e), right.w_inv) for e in jordan_frame.basis
    )
    return AnticommutantBasis(
        jordan_frame.left_dim, jordan_frame.right_dim, conjugated, jordan_frame.parameter_names
    )
