from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcalc.algebra import LieRinehartAlgebra
from bvcalc.bv import GeneratorD, RightConnectionOnA
from bvcalc.connections import TopConnection, is_flat
from bvcalc.correspond import right_from_top
from bvcalc.homology import (
    BoundarySquareError,
    ChainComplex,
    exact_rank,
    homology_dims,
    rinehart_complex,
)
from bvcalc.poly import PolyElement

from conftest import fresh_copy


def right_connection(alg, values):
    return RightConnectionOnA(tuple(PolyElement.const(0, v) for v in values))


# -- dense rows <-> sparse columns ------------------------------------------
# `ChainComplex` and `exact_rank` take a matrix as sparse columns
# {row: value}; the tests below write matrices as dense rows.

def to_columns(rows, width):
    """Dense rows -> `width` columns {row: value}, zeros kept as stored zeros."""
    return tuple({i: row[j] for i, row in enumerate(rows)} for j in range(width))


def to_rows(columns, height):
    """Sparse columns -> `height` dense rows; a missing entry reads 0."""
    return [[column.get(i, 0) for column in columns] for i in range(height)]


def rank_of_rows(rows):
    return exact_rank(to_columns(rows, len(rows[0]) if rows else 0))


def complex_from_rows(dims, boundaries):
    return ChainComplex(dims=dims, boundaries=tuple(
        to_columns(d, dims[p]) for p, d in enumerate(boundaries, start=1)))


# -- independent oracle --------------------------------------------------
# A from-scratch boundary for a Lie algebra with a character r, working on
# subset tuples and rational structure constants only (no Multivector or
# generator code), plus a plain Fraction Gauss elimination for ranks.

def oracle_boundaries(n, brackets, r):
    """brackets: {(i, j): tuple of n rationals}, r: tuple of n rationals."""

    def bracket(i, j):
        if i == j:
            return (Fraction(0),) * n
        if i < j:
            return tuple(Fraction(c) for c in brackets.get((i, j), (0,) * n))
        return tuple(-Fraction(c) for c in brackets.get((j, i), (0,) * n))

    def insert(subset, value_index, sign_pos):
        # wedge e_{value_index} into the increasing subset; None if repeated
        if value_index in subset:
            return None
        merged = tuple(sorted(subset + (value_index,)))
        flips = sum(1 for s in subset if s < value_index)
        sign = -1 if flips % 2 else 1
        return merged, sign * sign_pos

    out = []
    for p in range(1, n + 1):
        source = list(combinations(range(n), p))
        target = {key: row for row, key in enumerate(combinations(range(n), p - 1))}
        matrix = [[Fraction(0)] * len(source) for _ in range(len(target))]
        for col, subset in enumerate(source):
            for pos, i in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1:]
                sign = -1 if pos % 2 else 1
                matrix[target[rest]][col] += sign * Fraction(r[i])
            for a in range(p):
                for b in range(a + 1, p):
                    rest = subset[:a] + subset[a + 1:b] + subset[b + 1:]
                    sign = -1 if (a + b) % 2 else 1
                    for k, ck in enumerate(bracket(subset[a], subset[b])):
                        if not ck:
                            continue
                        placed = insert(rest, k, sign)
                        if placed is not None:
                            merged, total_sign = placed
                            matrix[target[merged]][col] += total_sign * ck
        out.append(matrix)
    return out


def oracle_rank(matrix):
    """Plain Gaussian elimination over Fraction (not fraction-free)."""
    if not matrix or not matrix[0]:
        return 0
    rows = [list(row) for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_betti(n, brackets, r):
    boundaries = oracle_boundaries(n, brackets, r)
    dims = [1]
    for p in range(1, n + 1):
        dims.append(len(list(combinations(range(n), p))))
    ranks = [0] + [oracle_rank(m) for m in boundaries] + [0]
    return tuple(dims[p] - ranks[p] - ranks[p + 1] for p in range(n + 1))


# -- exact rank ----------------------------------------------------------


def test_exact_rank_known_values():
    assert exact_rank([]) == 0
    assert rank_of_rows([]) == 0
    assert rank_of_rows([[Fraction(0), Fraction(0)]]) == 0
    assert rank_of_rows([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert rank_of_rows([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(3, 7)]]) == 2
    # stored zeros: one in the lowest row would divide by zero as a pivot
    assert exact_rank([{0: 0, 1: Fraction(0)}, {1: 0}]) == 0
    assert exact_rank([{0: 1, 1: 0}, {0: 2, 1: Fraction(0)}]) == 1
    assert exact_rank([{0: 2, 3: 0}, {0: 0, 3: 5}]) == 2


def test_exact_rank_is_exact_on_int_columns():
    # each second column is the first times a non-integer; an int / int
    # quotient in floating point leaves a residue and would count rank 2
    assert exact_rank([{0: 3, 1: 7}, {0: 1, 1: Fraction(7, 3)}]) == 1
    assert exact_rank([{0: 25, 1: 25}, {0: 7, 1: 7}]) == 1  # 7 - (7 / 25) * 25 != 0 in floats
    assert exact_rank([{0: 25, 1: 25}, {0: 7, 1: 7}, {0: 1}]) == 2


RANK_ENTRIES = st.one_of(st.integers(min_value=-5, max_value=5),
                         st.fractions(min_value=-5, max_value=5, max_denominator=7))


@given(st.lists(st.lists(RANK_ENTRIES, min_size=3, max_size=3), min_size=1, max_size=4))
def test_exact_rank_matches_gauss_oracle(rows):
    # int entries reach exact_rank as ints; the oracle gets Fractions
    matrix = [[Fraction(v) for v in row] for row in rows]
    assert rank_of_rows(rows) == oracle_rank(matrix)


@st.composite
def low_rank_products(draw):
    """A product of an a x k and a k x b matrix: its rank is at most k."""
    a, k, b = (draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    left = [[draw(RANK_ENTRIES) for _ in range(k)] for _ in range(a)]
    right = [[draw(RANK_ENTRIES) for _ in range(b)] for _ in range(k)]
    rows = [[sum((left[i][t] * right[t][j] for t in range(k)), 0) for j in range(b)]
            for i in range(a)]
    return k, rows


@given(low_rank_products())
def test_exact_rank_matches_gauss_oracle_on_rank_deficient_products(drawn):
    k, rows = drawn
    rank = rank_of_rows(rows)
    assert rank == oracle_rank([[Fraction(v) for v in row] for row in rows])
    assert rank <= k


# -- rinehart complex -----------------------------------------------------


def test_abelian_complex_has_zero_boundaries():
    alg = LieRinehartAlgebra.abelian(2)
    gen = GeneratorD(alg, right_connection(alg, (0, 0)))
    complex_ = rinehart_complex(alg, gen)
    assert complex_.dims == (1, 2, 1)
    assert [len(d) for d in complex_.boundaries] == [2, 1]
    assert all(column == {} for d in complex_.boundaries for column in d)
    assert homology_dims(complex_) == (1, 2, 1)


def test_nonabelian_boundaries_by_hand():
    alg = LieRinehartAlgebra.from_structure_constants(2, {(0, 1): (1, 0)})
    gen = GeneratorD(alg, right_connection(alg, (0, -1)))
    complex_ = rinehart_complex(alg, gen)
    assert to_rows(complex_.boundaries[0], 1) == [[Fraction(0), Fraction(-1)]]
    assert to_rows(complex_.boundaries[1], 2) == [[Fraction(0)], [Fraction(0)]]
    assert homology_dims(complex_) == (0, 1, 1)


def test_sl2_betti_matches_oracle(sl2):
    brackets = {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)}
    gen = GeneratorD(sl2, right_connection(sl2, (0, 0, 0)))
    betti = homology_dims(rinehart_complex(sl2, gen))
    assert betti == (1, 0, 0, 1)
    assert oracle_betti(3, brackets, (0, 0, 0)) == betti


def test_heisenberg_betti_matches_oracle(catalog):
    alg = catalog["heisenberg-dim3"].algebra
    gen = GeneratorD(alg, right_connection(alg, (0, 0, 0)))
    betti = homology_dims(rinehart_complex(alg, gen))
    assert betti == (1, 2, 2, 1)
    assert oracle_betti(3, {(0, 1): (0, 0, 1)}, (0, 0, 0)) == betti


def test_nonabelian_betti_matches_oracle():
    assert oracle_betti(2, {(0, 1): (1, 0)}, (0, -1)) == (0, 1, 1)


def test_rejects_polynomial_base():
    alg = LieRinehartAlgebra.coordinate(2)
    gen = GeneratorD(alg, RightConnectionOnA((PolyElement.zero(2), PolyElement.zero(2))))
    with pytest.raises(ValueError, match="m=0"):
        rinehart_complex(alg, gen)


def test_rejects_a_generator_of_another_algebra(catalog):
    sl2, heisenberg = catalog["sl2"].algebra, catalog["heisenberg-dim3"].algebra
    abelian = GeneratorD(catalog["abelian-dim2"].algebra, right_connection(sl2, (0, 0)))
    with pytest.raises(ValueError, match="rank mismatch"):
        rinehart_complex(sl2, abelian)
    # the same rank, but heisenberg-dim3's D(e_S), which would give its complex
    foreign = GeneratorD(heisenberg, catalog["heisenberg-dim3"].right_connection())
    with pytest.raises(ValueError, match="another algebra: 'heisenberg-dim3', not 'sl2'"):
        rinehart_complex(sl2, foreign)
    # an equal copy of sl2 is the same algebra
    own = GeneratorD(fresh_copy(sl2), right_connection(sl2, (0, 0, 0)))
    assert homology_dims(rinehart_complex(sl2, own)) == (1, 0, 0, 1)


def test_rejects_non_exact_generator_with_witness():
    alg = LieRinehartAlgebra.from_structure_constants(2, {(0, 1): (1, 0)})
    gen = GeneratorD(alg, right_connection(alg, (1, 0)))
    with pytest.raises(ValueError, match="square"):
        rinehart_complex(alg, gen)


def test_rinehart_complex_raises_boundary_square_error(sl2, monkeypatch):
    monkeypatch.setattr(ChainComplex, "d_squared_is_zero", lambda self: False)
    gen = GeneratorD(sl2, right_connection(sl2, (0, 0, 0)))
    with pytest.raises(BoundarySquareError, match="do not compose to zero"):
        rinehart_complex(sl2, gen)
    assert issubclass(BoundarySquareError, ValueError)


def test_homology_dims_rejects_broken_complex():
    broken = complex_from_rows((1, 2, 1), (
        ((Fraction(1), Fraction(0)),),
        ((Fraction(1),), (Fraction(0),)),
    ))
    with pytest.raises(ValueError, match="chain complex"):
        homology_dims(broken)


class CountedInt(int):
    """An int that counts the products it is the left factor of."""
    products = 0

    def __mul__(self, other):
        CountedInt.products += 1
        return int(self) * other


def test_homology_of_a_rinehart_complex_composes_d_o_d_once(monkeypatch):
    # abelian of rank 3 with r = (1, 2, 3): D is the contraction with r, and every
    # d_p o d_{p+1} has products
    alg = LieRinehartAlgebra.from_structure_constants(3, {})
    gen = GeneratorD(alg, right_connection(alg, (1, 2, 3)))
    plain = rinehart_complex(alg, gen)
    # d_p o d_{p+1} takes one product per entry of d_p met by a nonzero entry of d_{p+1}
    products = sum(len(d_p[k]) for d_p, d_next in zip(plain.boundaries, plain.boundaries[1:])
                   for column in d_next for k, value in column.items() if value)
    assert products
    gen.table = {s: {t: CountedInt(value) for t, value in image.items()}
                 for s, image in gen.table.items()}
    monkeypatch.setattr(CountedInt, "products", 0)
    assert homology_dims(rinehart_complex(alg, gen)) == (0, 0, 0, 0)
    assert CountedInt.products == products


def test_chain_complex_rejects_boundary_of_wrong_shape():
    # a 1x2 d_1 where degree 1 has dimension 3: two columns, not three
    with pytest.raises(ValueError, match=r"d_1 \(degree 1 to 0\) has 2 columns, expected 3"):
        ChainComplex(dims=(1, 3, 1), boundaries=(
            to_columns([[Fraction(1), Fraction(0)]], 2),
            to_columns([[Fraction(0)], [Fraction(1)]], 1),
        ))
    # a 2x1 d_1 where degree 0 has dimension 1: row 1 is out of range
    with pytest.raises(ValueError, match=r"d_1 \(degree 1 to 0\) has row 1 in column 0, "
                                         r"expected rows 0\.\.0"):
        ChainComplex(dims=(1, 1), boundaries=(to_columns([[Fraction(1)], [Fraction(0)]], 1),))
    # a 3x1 d_2 where degree 1 has dimension 2: row 2 is out of range
    with pytest.raises(ValueError, match=r"d_2 \(degree 2 to 1\) has row 2 in column 0, "
                                         r"expected rows 0\.\.1"):
        ChainComplex(dims=(1, 2, 1), boundaries=(
            to_columns([[Fraction(1), Fraction(0)]], 2),
            ({0: Fraction(1), 2: Fraction(1)},),
        ))


def test_chain_complex_rejects_wrong_number_of_boundaries():
    with pytest.raises(ValueError, match="3 degrees need 2 boundaries, got 1"):
        ChainComplex(dims=(1, 2, 1), boundaries=(to_columns([[Fraction(1), Fraction(0)]], 2),))


# -- d o d against a dense product -----------------------------------------

def dense_d_squared_is_zero(dims, boundaries):
    """Every entry of every d_p o d_{p+1}, written out as a full Fraction sum."""
    for p in range(1, len(dims) - 1):
        d_p, d_next = boundaries[p - 1], boundaries[p]
        for i in range(dims[p - 1]):
            for j in range(dims[p + 1]):
                if sum((d_p[i][k] * d_next[k][j] for k in range(dims[p])), Fraction(0)):
                    return False
    return True


SPARSE_ENTRIES = st.sampled_from([Fraction(0)] * 6
                                 + [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)])


@st.composite
def sparse_complexes(draw):
    dims = tuple(draw(st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4)))
    boundaries = tuple(
        tuple(tuple(draw(SPARSE_ENTRIES) for _ in range(dims[p])) for _ in range(dims[p - 1]))
        for p in range(1, len(dims)))
    return dims, boundaries


@settings(max_examples=300)
@given(sparse_complexes())
def test_d_squared_is_zero_matches_dense_product(drawn):
    dims, boundaries = drawn
    complex_ = complex_from_rows(dims, boundaries)
    assert complex_.d_squared_is_zero() == dense_d_squared_is_zero(dims, boundaries)


def _fractions(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


@pytest.mark.parametrize("dims, boundaries, verdict", [
    # nonzero products cancel; d_1 has a zero column and d_2 a zero column
    ((1, 3, 2), (_fractions([[1, 1, 0]]), _fractions([[1, 0], [-1, 0], [5, 0]])), True),
    # d_1 has a zero row; the other row composes to 1 + 1/2
    ((2, 2, 1), (_fractions([[0, 0], [1, Fraction(1, 2)]]), _fractions([[1], [1]])), False),
    # d_1 o d_2 = 0 but d_2 o d_3 has 1/2 - 1 in both entries
    ((1, 2, 3, 1),
     (_fractions([[1, -1]]),
      _fractions([[1, 1, 0], [1, 1, 0]]),
      _fractions([[Fraction(1, 2)], [-1], [7]])),
     False),
    # a zero space in the middle: every product is empty
    ((2, 0, 2), (((), ()), ()), True),
], ids=["cancelling", "zero-row", "second-degree", "zero-space"])
def test_d_squared_is_zero_fixed_complexes(dims, boundaries, verdict):
    complex_ = complex_from_rows(dims, boundaries)
    assert dense_d_squared_is_zero(dims, boundaries) is verdict
    assert complex_.d_squared_is_zero() is verdict


# -- generated families against the oracle -----------------------------------
# Integer structure constants (i, j, k) -> c with [e_i, e_j] = c e_k, 1-based,
# for the rank-5 members of the generated benchmark families.

FAMILY_CONSTANTS = {
    "book-5": {(i, 5, i): 1 for i in range(1, 5)},
    "filiform-5": {(1, i, i + 1): 1 for i in range(2, 5)},
    "heisenberg-5": {(1, 3, 5): 1, (2, 4, 5): 1},
}


def _brackets(n, constants):
    brackets = {}
    for (i, j, k), c in constants.items():
        coeffs = list(brackets.get((i - 1, j - 1), (0,) * n))
        coeffs[k - 1] += c
        brackets[(i - 1, j - 1)] = tuple(coeffs)
    return brackets


@pytest.mark.parametrize("name, r", [
    ("book-5", (0, 0, 0, 0, 0)),
    ("book-5", (0, 0, 0, 0, -4)),
    ("filiform-5", (0, 0, 0, 0, 0)),
    ("filiform-5", (1, Fraction(-1, 2), 0, 0, 0)),
    ("heisenberg-5", (0, 0, 0, 0, 0)),
    ("heisenberg-5", (1, 0, 0, 2, 0)),
])
def test_generated_family_complex_matches_oracle(name, r):
    n = 5
    brackets = _brackets(n, FAMILY_CONSTANTS[name])
    alg = LieRinehartAlgebra.from_structure_constants(n, brackets, name=name)
    complex_ = rinehart_complex(alg, GeneratorD(alg, right_connection(alg, r)))
    expected = oracle_boundaries(n, brackets, r)
    for p in range(1, n + 1):
        assert to_rows(complex_.boundaries[p - 1], complex_.dims[p - 1]) == expected[p - 1], p
    assert homology_dims(complex_) == oracle_betti(n, brackets, r)


def test_euler_characteristic_consistency(catalog):
    for name in ("abelian-dim2", "nonabelian-dim2", "sl2", "heisenberg-dim3"):
        loaded = catalog[name]
        alg = loaded.algebra
        gen = GeneratorD(alg, loaded.right_connection())
        complex_ = rinehart_complex(alg, gen)
        betti = homology_dims(complex_)
        chi_dims = sum((-1) ** p * d for p, d in enumerate(complex_.dims))
        chi_betti = sum((-1) ** p * b for p, b in enumerate(betti))
        assert chi_dims == chi_betti


def test_d_squared_checked_for_polynomial_base_via_square():
    # homology refuses m > 0, but the square-zero property still holds there
    from bvcalc.bv import generator_square
    from bvcalc.correspond import generator_from_top
    from bvcalc.connections import TopConnection

    alg = LieRinehartAlgebra.coordinate(2)
    gamma = TopConnection((PolyElement.zero(2), PolyElement.zero(2)))
    assert generator_square(alg, generator_from_top(alg, gamma)) == (True, None)


# -- twisted homology across flat characters --------------------------------
# For m = 0 the flat top connections are the characters of the Lie algebra;
# each gives an exact generator and a twisted homology.  Every integer
# character with entries in [-2, 2] is scanned and checked against the oracle.


@pytest.mark.parametrize("name, flat_count, nonzero", [
    ("abelian-dim2", 25, {(1, 2, 1): [(0, 0)]}),
    ("heisenberg-dim3", 25, {(1, 2, 2, 1): [(0, 0, 0)]}),
    ("nonabelian-dim2", 5, {(0, 1, 1): [(0, 0)], (1, 1, 0): [(0, -1)]}),
    ("sl2", 1, {(1, 0, 0, 1): [(0, 0, 0)]}),
])
def test_flat_character_scan_matches_oracle(catalog, name, flat_count, nonzero):
    alg = catalog[name].algebra
    brackets = {key: tuple(c.constant_value() for c in value.coeffs)
                for key, value in alg.structure.items()}
    groups = {}
    for values in product(range(-2, 3), repeat=alg.n):
        gamma = TopConnection(tuple(PolyElement.const(0, v) for v in values))
        if not is_flat(alg, gamma):
            continue
        right = right_from_top(alg, gamma)
        betti = homology_dims(rinehart_complex(alg, GeneratorD(alg, right)))
        r = tuple(c.constant_value() for c in right.r)
        assert betti == oracle_betti(alg.n, brackets, r), values
        groups.setdefault(betti, []).append(values)
    assert sum(len(chars) for chars in groups.values()) == flat_count
    zero = (0,) * (alg.n + 1)
    assert {b: chars for b, chars in groups.items() if b != zero} == nonzero


# -- twisted Poincare duality against Chevalley-Eilenberg cochains -----------
# An oracle from the structure constants alone: cochains C^q = Hom(L^q L, Q)
# on increasing q-tuples, with the gamma-twisted differential
#   d f(x_0..x_q) = sum_i (-1)^i gamma(x_i) f(..^x_i..)
#                   + sum_(i<j) (-1)^(i+j) f([x_i, x_j], ..^x_i..^x_j..).
# The homology of D_r, r = right_from_top(gamma), is this cohomology in
# reverse order (Hazewinkel 1970; Evens, Lu and Weinstein 1999).  The oracle
# uses no bvcalc bracket, sign or exterior code; ranks come from `oracle_rank`.

def cochain_differential(n, brackets, gamma, q):
    """The matrix of d on C^q: rows on increasing (q+1)-tuples, columns on q-tuples."""
    columns = {key: col for col, key in enumerate(combinations(range(n), q))}
    rows = list(combinations(range(n), q + 1))
    matrix = [[Fraction(0)] * len(columns) for _ in rows]
    for row, u in enumerate(rows):
        for i in range(q + 1):
            matrix[row][columns[u[:i] + u[i + 1:]]] += (-1) ** i * Fraction(gamma[u[i]])
        for i, j in combinations(range(q + 1), 2):
            rest = u[:i] + u[i + 1:j] + u[j + 1:]
            for k, c in enumerate(brackets.get((u[i], u[j]), ())):
                if c and k not in rest:
                    # f(e_k, e_rest) = (-1)^(entries of rest below k) f(e_sorted)
                    below = sum(1 for t in rest if t < k)
                    sign = (-1) ** (i + j + below)
                    matrix[row][columns[tuple(sorted(rest + (k,)))]] += sign * Fraction(c)
    return matrix


def twisted_cohomology(n, brackets, gamma):
    ranks = [0] + [oracle_rank(cochain_differential(n, brackets, gamma, q))
                   for q in range(n)] + [0]
    return tuple(comb(n, q) - ranks[q + 1] - ranks[q] for q in range(n + 1))


def flat_characters(n, brackets, bound):
    """The integer gamma in [-bound, bound]^n with gamma([e_i, e_j]) = 0 for all i, j."""
    return [gamma for gamma in product(range(-bound, bound + 1), repeat=n)
            if all(sum(c * g for c, g in zip(coeffs, gamma)) == 0
                   for coeffs in brackets.values())]


TWISTED_CASES = {  # name -> (n, 1-based constants as in FAMILY_CONSTANTS, bound, flat count)
    "abelian-dim2": (2, {}, 2, 25),
    "heisenberg-dim3": (3, {(1, 2, 3): 1}, 2, 25),
    "nonabelian-dim2": (2, {(1, 2, 1): 1}, 2, 5),
    "sl2": (3, {(1, 2, 3): 1, (1, 3, 1): -2, (2, 3, 2): 2}, 2, 1),
    "book-5": (5, FAMILY_CONSTANTS["book-5"], 1, 3),
    "heisenberg-5": (5, FAMILY_CONSTANTS["heisenberg-5"], 1, 81),
    "filiform-5": (5, FAMILY_CONSTANTS["filiform-5"], 1, 9),
    "abelian-4": (4, {}, 1, 81),
}


def twisted_mismatches(catalog, name, sign):
    """The flat gamma of a case whose Betti numbers differ from the oracle at sign * gamma."""
    n, constants, bound, flat_count = TWISTED_CASES[name]
    brackets = _brackets(n, constants)
    alg = (catalog[name].algebra if name in catalog
           else LieRinehartAlgebra.from_structure_constants(n, brackets, name=name))
    characters = flat_characters(n, brackets, bound)
    assert len(characters) == flat_count, name
    mismatches = []
    for gamma in characters:
        top = TopConnection(tuple(PolyElement.const(0, g) for g in gamma))
        assert is_flat(alg, top), (name, gamma)
        betti = homology_dims(rinehart_complex(alg, GeneratorD(alg, right_from_top(alg, top))))
        if betti != twisted_cohomology(n, brackets, [sign * g for g in gamma])[::-1]:
            mismatches.append(gamma)
    return mismatches


@pytest.mark.parametrize("name", list(TWISTED_CASES))
def test_betti_numbers_are_the_reversed_twisted_cohomology(catalog, name):
    assert twisted_mismatches(catalog, name, 1) == [], name


@pytest.mark.parametrize("name, mismatches", [
    ("nonabelian-dim2", [(0, -1), (0, 1)]),
    ("book-5", [(0, 0, 0, 0, -1), (0, 0, 0, 0, 1)]),
])
def test_the_opposite_twist_fails_on_exactly_these_characters(catalog, name, mismatches):
    # pins the sign of the gamma term: the -gamma twist disagrees with bvcalc here only
    assert twisted_mismatches(catalog, name, -1) == mismatches


# -- Betti numbers at rank 11 and above, against closed forms ----------------
# Structure constants (i, j, k) -> c with [e_i, e_j] = c e_k, 1-based; r is the
# right connection of the zero top connection, as for a file with no r.


def heisenberg_constants(k):
    """[e_i, e_(i+k)] = e_(2k+1) for i <= k."""
    return {(i, i + k, 2 * k + 1): 1 for i in range(1, k + 1)}


def heisenberg_betti(k):
    """Santharoubane (1983): b_p = C(2k, p) - C(2k, p - 2) for p <= k, mirrored above k."""
    low = [comb(2 * k, p) - (comb(2 * k, p - 2) if p >= 2 else 0) for p in range(k + 1)]
    return tuple(low + low[::-1])


HIGH_RANK = {  # name -> (n, constants, Betti numbers)
    "heisenberg-11": (11, heisenberg_constants(5), heisenberg_betti(5)),
    "heisenberg-13": (13, heisenberg_constants(6), heisenberg_betti(6)),
    # [e_i, e_11] = e_i for i < 11
    "book-11": (11, {(i, 11, i): 1 for i in range(1, 11)}, (0,) * 10 + (1, 1)),
    "abelian-12": (12, {}, tuple(comb(12, p) for p in range(13))),
}


@pytest.mark.parametrize("name", list(HIGH_RANK))
def test_betti_numbers_at_high_rank_match_closed_forms(name):
    n, constants, betti = HIGH_RANK[name]
    alg = LieRinehartAlgebra.from_structure_constants(n, _brackets(n, constants), name=name)
    right = right_from_top(alg, TopConnection((PolyElement.zero(0),) * n))
    assert homology_dims(rinehart_complex(alg, GeneratorD(alg, right))) == betti
