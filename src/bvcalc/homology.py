"""Exact chain complexes and homology over Q in the ground-field case.

When A = Q (no polynomial variables), the exterior powers of L are
finite-dimensional Q-vector spaces and an exact generator turns them
into a chain complex: d_p sends the basis element e_S of degree p to
D(e_S).  Each d_p is kept as sparse columns {row: value}, one per
subset S, read straight from the generator's D(e_S) table; the rows and
columns of degree p follow `ground.subsets(n, p)`, the one subset order
of every exact check.  d o d = 0 is checked once per complex by
composing those columns, and Betti numbers come from `exact_rank`, an
exact column elimination over Q.  Both sum columns with
`ground.add_multiple`, a difference as the sum at sign -1; every value
is an `int` or a `Fraction`, and no tolerance appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from . import ground
from .algebra import LieRinehartAlgebra
from .bv import GeneratorD, generator_square
from .record import Record


def exact_rank(columns) -> int:
    """Rank over Q of a matrix given as sparse columns {row: value}.

    Column elimination with the pivot at the lowest nonzero row: while
    the lowest row of a column holds a pivot, that entry is removed and
    the rest of the pivot column, times the quotient, is subtracted, as
    the sum `ground.add_multiple` at sign -1; a column left nonzero
    becomes the pivot of its lowest row.  Every quotient is a `Fraction`,
    and a stored zero is dropped before it could become a pivot.
    """
    pivots = {}  # lowest row -> (its value, the rest of the pivot column)
    for column in columns:
        column = {row: value for row, value in column.items() if value}
        while column:
            low = max(column)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = (column.pop(low), column)
                break
            head, rest = pivot
            ground.add_multiple(column, rest, Fraction(column.pop(low)) / head, sign=-1)
    return len(pivots)


class NonExactGeneratorError(ValueError):
    """The generator does not square to zero, so it has no chain complex."""


class BoundarySquareError(ValueError):
    """The boundary matrices of an exact generator do not compose to zero."""


class ChainComplex(Record):
    """Finite chain complex over Q; d_p maps degree p to p - 1.

    `boundaries[p - 1]` holds d_p as `dims[p]` sparse columns
    {row: value} with rows in range(dims[p - 1]).
    """

    _fields = ("dims", "boundaries")

    def __init__(self, dims: tuple[int, ...], boundaries: tuple[tuple[dict, ...], ...]):
        if len(boundaries) != len(dims) - 1:
            raise ValueError(f"{len(dims)} degrees need {len(dims) - 1} "
                             f"boundaries, got {len(boundaries)}")
        for p, d in enumerate(boundaries, start=1):
            where = f"boundary d_{p} (degree {p} to {p - 1})"
            if len(d) != dims[p]:
                raise ValueError(f"{where} has {len(d)} columns, expected {dims[p]}")
            for j, column in enumerate(d):
                bad = [row for row in column if not 0 <= row < dims[p - 1]]
                if bad:
                    raise ValueError(f"{where} has row {bad[0]} in column {j}, "
                                     f"expected rows 0..{dims[p - 1] - 1}")
        self.dims = dims
        self.boundaries = boundaries
        self._square_is_zero = None

    def d_squared_is_zero(self) -> bool:
        """d_p o d_{p+1} = 0 in every degree, composing the sparse columns on the first call
        only: the verdict is kept outside `_fields`, so `rinehart_complex` and
        `homology_dims` share one composition."""
        if self._square_is_zero is None:
            self._square_is_zero = _composes_to_zero(self.boundaries)
        return self._square_is_zero


def _composes_to_zero(boundaries) -> bool:
    for d_p, d_next in zip(boundaries, boundaries[1:]):
        for column in d_next:
            image = {}
            for k, value in column.items():
                if value:
                    ground.add_multiple(image, d_p[k], value)
            if image:
                return False
    return True


def rinehart_complex(alg: LieRinehartAlgebra, gen: GeneratorD) -> ChainComplex:
    """The chain complex of an exact generator in the ground-field case.

    Requires a generator of `alg` itself, m = 0 (otherwise the exterior
    powers are infinite dimensional over Q) and an exact generator; each is
    refused with a diagnostic, a generator of another algebra with a
    ``ValueError``, "rank mismatch" if its rank differs.  The basis of degree p is the masks of the p-subsets in
    the subset order of `ground.subsets`, its length is dims[p], and
    column S of d_p is the table entry `gen.ground(S)` with its masks
    renamed to row indices.  At m = 0 the generator is Q-linear, so the
    columns compose to zero exactly when D^2 = 0; only when they do not
    is `generator_square` called, to raise `NonExactGeneratorError` with
    its witness, or `BoundarySquareError` if D^2 = 0.  Nothing here is
    random.
    """
    if gen.alg != alg:
        raise ValueError("rank mismatch" if gen.alg.n != alg.n else
                         f"the generator belongs to another algebra: {gen.alg.name!r}, "
                         f"not {alg.name!r}")
    if alg.m != 0:
        raise ValueError(f"homology needs the ground-field case m=0, got m={alg.m}")
    n = alg.n
    bases = [ground.subsets(n, p) for p in range(n + 1)]
    boundaries = []
    for p in range(1, n + 1):
        row_of = {mask: row for row, mask in enumerate(bases[p - 1])}
        boundaries.append(tuple({row_of[t]: value for t, value in gen.ground(s).items()}
                                for s in bases[p]))
    complex_ = ChainComplex(dims=tuple(len(basis) for basis in bases),
                            boundaries=tuple(boundaries))
    if not complex_.d_squared_is_zero():
        exact, witness = generator_square(alg, gen)
        if not exact:
            raise NonExactGeneratorError(f"generator does not square to zero: {witness}")
        raise BoundarySquareError("boundary matrices do not compose to zero")
    return complex_


def homology_dims(complex_: ChainComplex) -> tuple[int, ...]:
    """Betti numbers over Q: dim ker d_p - rank d_{p+1} in each degree."""
    if not complex_.d_squared_is_zero():
        raise ValueError("not a chain complex: d o d != 0")
    ranks = [0] + [exact_rank(d) for d in complex_.boundaries] + [0]
    return tuple(dim - ranks[p] - ranks[p + 1] for p, dim in enumerate(complex_.dims))
