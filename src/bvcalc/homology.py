"""Exact chain complexes and homology over Q in the ground-field case.

When A = Q (no polynomial variables), the exterior powers of L are
finite-dimensional Q-vector spaces and an exact generator turns them
into a chain complex whose boundary matrices are the generator's action
on the subset basis.  d o d = 0 is checked by sparse composition: each
entry of d_p o d_{p+1} sums only over the nonzero entries of the two
factors, in exact Fraction arithmetic.  Betti numbers come from exact
ranks computed by fraction-free (Bareiss) elimination on integer-cleared
matrices; no tolerance appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from .algebra import LieRinehartAlgebra
from .bv import GeneratorD, generator_square
from .exterior import Multivector

Matrix = list[list[Fraction]]


def exact_rank(matrix: Matrix) -> int:
    """Rank over Q by fraction-free Gaussian elimination.

    Rows are first cleared to integers (rank-preserving), then Bareiss
    cross-multiplication keeps every intermediate entry an integer with
    exact divisions only.
    """
    if not matrix or not matrix[0]:
        return 0
    rows = []
    for row in matrix:
        scale = 1
        for entry in row:
            scale = scale * entry.denominator // gcd(scale, entry.denominator)
        rows.append([int(entry * scale) for entry in row])
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n_rows):
            for c in range(col + 1, n_cols):
                rows[r][c] = (rows[r][c] * rows[rank][col]
                              - rows[r][col] * rows[rank][c]) // prev
            rows[r][col] = 0
        prev = rows[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank


class NonExactGeneratorError(ValueError):
    """The generator does not square to zero, so it has no chain complex."""


class BoundarySquareError(ValueError):
    """The boundary matrices of an exact generator do not compose to zero."""


@dataclass(frozen=True)
class ChainComplex:
    """Finite chain complex over Q; boundary(p) maps degree p to p - 1."""

    dims: tuple[int, ...]
    boundaries: tuple[tuple[tuple[Fraction, ...], ...], ...]  # index p-1 holds d_p

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.dims) - 1:
            raise ValueError(f"{len(self.dims)} degrees need {len(self.dims) - 1} "
                             f"boundaries, got {len(self.boundaries)}")
        for p, d in enumerate(self.boundaries, start=1):
            widths = sorted({len(row) for row in d})
            if len(d) != self.dims[p - 1] or any(w != self.dims[p] for w in widths):
                shape = f"{len(d)}x{'/'.join(map(str, widths)) or 0}"
                raise ValueError(f"boundary d_{p} (degree {p} to {p - 1}) has shape "
                                 f"{shape}, expected {self.dims[p - 1]}x{self.dims[p]}")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def boundary(self, p: int) -> Matrix:
        if 1 <= p <= self.top_degree:
            return [list(row) for row in self.boundaries[p - 1]]
        return []

    def d_squared_is_zero(self) -> bool:
        """d_p o d_{p+1} = 0 in every degree, summing only nonzero terms."""
        for p in range(1, self.top_degree):
            columns = [[] for _ in range(self.dims[p])]  # column k of d_p: (row, value)
            for i, row in enumerate(self.boundaries[p - 1]):
                for k, value in enumerate(row):
                    if value:
                        columns[k].append((i, value))
            d_next = self.boundaries[p]
            for j in range(self.dims[p + 1]):
                column = {}
                for k, row in enumerate(d_next):
                    if row[j]:
                        for i, value in columns[k]:
                            column[i] = column.get(i, 0) + value * row[j]
                if any(column.values()):
                    return False
        return True


def rinehart_complex(alg: LieRinehartAlgebra, gen: GeneratorD) -> ChainComplex:
    """The chain complex of an exact generator in the ground-field case.

    Requires m = 0 (otherwise the exterior powers are infinite
    dimensional over Q) and an exact generator; both are refused with a
    diagnostic, the latter carrying the square witness.  At m = 0 the
    generator is Q-linear, so `generator_square`'s basis pass decides
    exactness and nothing here is random.
    """
    if alg.m != 0:
        raise ValueError(f"homology needs the ground-field case m=0, got m={alg.m}")
    square = generator_square(alg, gen)
    if not square.is_exact:
        raise NonExactGeneratorError(f"generator does not square to zero: {square.witness}")
    n = alg.n
    dims = tuple(comb(n, p) for p in range(n + 1))
    boundaries = []
    for p in range(1, n + 1):
        source = list(combinations(range(n), p))
        target = {key: idx for idx, key in enumerate(combinations(range(n), p - 1))}
        matrix = [[Fraction(0)] * len(source) for _ in range(len(target))]
        for col, key in enumerate(source):
            image = gen(Multivector.basis(n, key, m=0))
            for t_key, coeff in image.components.items():
                matrix[target[t_key]][col] = coeff.constant_value()
        boundaries.append(tuple(tuple(row) for row in matrix))
    complex_ = ChainComplex(dims=dims, boundaries=tuple(boundaries))
    if not complex_.d_squared_is_zero():
        raise BoundarySquareError("boundary matrices do not compose to zero")
    return complex_


def homology_dims(complex_: ChainComplex) -> tuple[int, ...]:
    """Betti numbers over Q: dim ker d_p - rank d_{p+1} in each degree."""
    if not complex_.d_squared_is_zero():
        raise ValueError("not a chain complex: d o d != 0")
    top = complex_.top_degree
    ranks = [0] * (top + 2)
    for p in range(1, top + 1):
        ranks[p] = exact_rank(complex_.boundary(p))
    betti = []
    for p in range(top + 1):
        kernel = complex_.dims[p] - ranks[p]
        betti.append(kernel - ranks[p + 1])
    return tuple(betti)
