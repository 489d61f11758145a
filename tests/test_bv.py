import importlib.util
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings

from bvcalc import bv
from bvcalc.algebra import LieRinehartAlgebra, build_poisson_cotangent
from bvcalc.algfile import LoadedAlgebra, loads
from bvcalc.bv import (
    GeneratorD,
    RightConnectionOnA,
    _term_bracket,
    bracket_table,
    generator_square,
    gerstenhaber_bracket,
    is_generator,
    one_circ,
)
from bvcalc.correspond import right_from_generator
from bvcalc.exterior import Multivector, basis_label, full_tuple, merge_sign
from bvcalc.ground import (
    add_basis_wedge,
    add_multiple,
    add_wedge_basis,
    to_key,
    to_mask,
    to_multivector,
    value,
    wedge_sign,
)
from bvcalc.poly import PolyElement
from bvcalc.sampling import check_rng, random_poly, random_poly_vector
from bvcalc.suites import run_suite

from conftest import BAD_DRAW_ARGUMENTS

from conftest import RANK5, fresh_copy, multivectors, polys
from reference import apply_generator, generator_on_factors, homogeneous_part, random_multivector

COORD = LieRinehartAlgebra.coordinate(2)
NONAB = LieRinehartAlgebra.from_structure_constants(2, {(0, 1): (1, 0)}, name="nonabelian-dim2")
ABELIAN = LieRinehartAlgebra.abelian(2)
X = PolyElement.variable(2, 0)
Y = PolyElement.variable(2, 1)

R_ZERO_COORD = RightConnectionOnA((PolyElement.zero(2), PolyElement.zero(2)))
R_FLAT_NONAB = RightConnectionOnA((PolyElement.zero(0), PolyElement.const(0, -1)))


def scalar(alg, value):
    return Multivector.scalar(alg.n, PolyElement.const(alg.m, value))


def test_bracket_base_cases():
    ddx = Multivector.basis(2, (0,), m=2)
    x_mv = Multivector.scalar(2, X)
    assert gerstenhaber_bracket(COORD, ddx, x_mv) == scalar(COORD, 1)
    # degree 0 with degree 0 vanishes
    assert gerstenhaber_bracket(COORD, x_mv, Multivector.scalar(2, Y)).is_zero()
    # abelian algebra, constant coefficients: everything vanishes
    u = Multivector.basis(2, (0,), m=0) + Multivector.basis(2, (0, 1), m=0)
    v = Multivector.basis(2, (1,), m=0)
    assert gerstenhaber_bracket(ABELIAN, u, v).is_zero()


def test_bracket_degree_one_agrees_with_lie_bracket():
    x_ddx = Multivector(2, [((0,), X)])
    ddx = Multivector.basis(2, (0,), m=2)
    result = gerstenhaber_bracket(COORD, x_ddx, ddx)
    assert result == -ddx


def test_bracket_against_generator_identity_example():
    # [dx ^ dy, x] computed by the recursion must satisfy the generator
    # identity for the operator built from r = 0.
    u = Multivector.basis(2, (0, 1), m=2)
    v = Multivector.scalar(2, X)
    gen = GeneratorD(COORD, R_ZERO_COORD)
    lhs = gerstenhaber_bracket(COORD, u, v)
    rhs = gen(u.wedge(v)) - gen(u).wedge(v) - u.wedge(gen(v))
    assert lhs == rhs  # (-1)^{|u|} = +1 for |u| = 2


@given(u=multivectors(2, 2, max_degree=1), v=multivectors(2, 2, max_degree=1))
@settings(max_examples=20)
def test_graded_antisymmetry(u, v):
    for p in range(3):
        for q in range(3):
            up, vq = homogeneous_part(u, p), homogeneous_part(v, q)
            lhs = gerstenhaber_bracket(COORD, up, vq)
            rhs = gerstenhaber_bracket(COORD, vq, up)
            sign = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
            assert lhs == (rhs.scale(PolyElement.const(2, sign)))


@given(u=multivectors(2, 2, max_degree=1, max_terms=1),
       v=multivectors(2, 2, max_degree=1, max_terms=1),
       w=multivectors(2, 2, max_degree=1, max_terms=1))
@settings(max_examples=15)
def test_biderivation_rule(u, v, w):
    for p in range(3):
        up = homogeneous_part(u, p)
        for q in range(3):
            vq = homogeneous_part(v, q)
            lhs = gerstenhaber_bracket(COORD, up, vq.wedge(w))
            rhs = gerstenhaber_bracket(COORD, up, vq).wedge(w)
            tail = vq.wedge(gerstenhaber_bracket(COORD, up, w))
            if ((p - 1) * q) % 2:
                tail = -tail
            assert lhs == rhs + tail


@given(u=multivectors(2, 2, max_degree=1, max_terms=1),
       v=multivectors(2, 2, max_degree=1, max_terms=1),
       w=multivectors(2, 2, max_degree=1, max_terms=1))
@settings(max_examples=15)
def test_graded_jacobi(u, v, w):
    for p in range(3):
        for q in range(3):
            up, vq = homogeneous_part(u, p), homogeneous_part(v, q)
            lhs = gerstenhaber_bracket(COORD, up, gerstenhaber_bracket(COORD, vq, w))
            first = gerstenhaber_bracket(COORD, gerstenhaber_bracket(COORD, up, vq), w)
            second = gerstenhaber_bracket(COORD, vq, gerstenhaber_bracket(COORD, up, w))
            if ((p - 1) * (q - 1)) % 2:
                second = -second
            assert lhs == first + second


def test_apply_generator_examples():
    # coordinate algebra, r = 0: D(x d/dx) = -1
    out = apply_generator(COORD, R_ZERO_COORD, Multivector(2, [((0,), X)]))
    assert out == scalar(COORD, -1)
    # nonabelian, r = (0,-1): D(e1^e2) = 0
    out = apply_generator(NONAB, R_FLAT_NONAB, Multivector.basis(2, (0, 1), m=0))
    assert out.is_zero()
    # degree 0 maps to 0
    out = apply_generator(COORD, R_ZERO_COORD, Multivector.scalar(2, X * Y))
    assert out.is_zero()


def test_one_circ_leibniz():
    # 1 o (b e_i) = b r_i - e_i(b)
    conn = RightConnectionOnA((X, Y))
    b = X * Y
    assert one_circ(COORD, conn, COORD.basis_l(0).scale(b)) == b * X - Y


def test_generator_slot_independence():
    # moving the coefficient between tensor slots does not change the value
    rng = check_rng(7, "slot-independence")
    for alg in (COORD, NONAB):
        conn = RightConnectionOnA(tuple(random_poly(rng, alg.m) for _ in range(alg.n)))
        for _ in range(10):
            a = random_poly(rng, alg.m)
            basis = [alg.basis_l(i) for i in range(alg.n)]
            for slot in range(alg.n):
                thetas = [basis[i].scale(a) if i == slot else basis[i]
                          for i in range(alg.n)]
                if slot == 0:
                    reference = generator_on_factors(alg, conn, thetas)
                else:
                    assert generator_on_factors(alg, conn, thetas) == reference


def test_is_generator_for_all_right_connections():
    rng = check_rng(3, "bv-random-right")
    for alg in (COORD, NONAB, ABELIAN):
        for _ in range(3):
            conn = RightConnectionOnA(tuple(random_poly(rng, alg.m) for _ in range(alg.n)))
            ok, witness = is_generator(alg, GeneratorD(alg, conn), trials=1, seed=11)
            assert ok, witness


def test_is_generator_zero_operator_on_abelian():
    ok, witness = is_generator(ABELIAN, lambda u: Multivector.zero(2), trials=2, seed=0)
    assert ok, witness


def test_is_generator_detects_non_generator_perturbation():
    # add an A-linear degree -1 map that only acts on degree 2: not a
    # generator for any right connection
    gen = GeneratorD(NONAB, R_FLAT_NONAB)

    def perturbed(u):
        extra = Multivector.from_lelement(
            NONAB.basis_l(0).scale(u.component((0, 1), 0)))
        return gen(u) + extra

    ok, witness = is_generator(NONAB, perturbed, trials=2, seed=0)
    assert not ok
    assert witness


def test_interior_product_perturbation_is_still_a_generator():
    # adding the contraction with a module dual element is a degree -1
    # derivation of the product, hence lands on another right connection
    gen = GeneratorD(NONAB, R_FLAT_NONAB)
    shifted = GeneratorD(NONAB, RightConnectionOnA(
        (R_FLAT_NONAB.r[0] + 1, R_FLAT_NONAB.r[1])))
    ok, witness = is_generator(NONAB, shifted, trials=2, seed=0)
    assert ok, witness


def test_generator_square_flat_cases():
    assert generator_square(COORD, GeneratorD(COORD, R_ZERO_COORD), trials=2).is_exact
    assert generator_square(NONAB, GeneratorD(NONAB, R_FLAT_NONAB), trials=2).is_exact


def test_generator_square_nonflat_case():
    bad = RightConnectionOnA((PolyElement.one(0), PolyElement.zero(0)))
    result = generator_square(NONAB, GeneratorD(NONAB, bad), trials=2)
    assert not result.is_exact
    assert result.witness
    assert any(not mv.is_zero() for mv in result.basis_table.values())


def test_ground_field_square_is_decided_by_the_basis_pass(catalog):
    # at m = 0 the generator is Q-linear, so trials and seed change nothing
    seen = set()
    for name, loaded in catalog.items():
        alg = loaded.algebra
        if alg.m:
            continue
        gen = GeneratorD(alg, loaded.right_connection())
        results = [generator_square(alg, gen, trials=trials, seed=seed)
                   for trials, seed in ((1, 0), (8, 0), (8, 5))]
        for result in results[1:]:
            assert result.is_exact == results[0].is_exact
            assert result.witness == results[0].witness
            assert result.basis_table == results[0].basis_table
        seen.add((name, results[0].is_exact))
    assert ("nonabelian-dim2-nonflat", False) in seen and ("sl2", True) in seen


def test_polynomial_square_runs_the_random_pass():
    # op(a e_S) = (da/dx1) e_{S minus its first index}: op^2 is d^2/dx1^2,
    # which vanishes on every unit coefficient, so only a random
    # polynomial coefficient can show that op does not square to zero
    def op(u):
        out = Multivector.zero(u.n)
        for key, a in u.components.items():
            if key:
                out = out + Multivector(u.n, [(key[1:], a.diff(0))])
        return out

    result = generator_square(COORD, op, trials=8, seed=0)
    assert all(mv.is_zero() for mv in result.basis_table.values())
    assert not result.is_exact
    assert result.witness == "D^2((3*x1^2*x2)*e{1,2}) = (6*x2)"


@given(a=polys(2, max_degree=2), u=multivectors(2, 2, max_degree=2, max_terms=2))
@settings(max_examples=20)
def test_generator_is_not_a_linear(a, u):
    # D(a u) - a D(u) recovers the bracket [a, u]
    gen = GeneratorD(COORD, RightConnectionOnA((X, Y)))
    lhs = gen(u.scale(a)) - gen(u).scale(a)
    rhs = gerstenhaber_bracket(COORD, Multivector.scalar(2, a), u)
    assert lhs == rhs


def test_rank_mismatch_errors():
    with pytest.raises(ValueError):
        one_circ(COORD, RightConnectionOnA((X,)), COORD.basis_l(0))
    with pytest.raises(ValueError):
        apply_generator(COORD, R_ZERO_COORD, Multivector.basis(3, (0,), m=2))


# -- the m = 0 basis tables ------------------------------------------------

def direct_bracket(alg, u, v):
    out = Multivector.zero(alg.n)
    for s_key, a in u.components.items():
        for t_key, b in v.components.items():
            out = out + _term_bracket(alg, a, s_key, b, t_key)
    return out


def table_bracket(alg, u, v):
    """The sum of a b [e_S, e_T] over the terms a e_S of u and b e_T of v, from the mask table."""
    table = bracket_table(alg)
    out = {}
    for s_key, a in u.components.items():
        for t_key, b in v.components.items():
            add_multiple(out, table[to_mask(s_key), to_mask(t_key)], value(a) * value(b))
    return to_multivector(alg.n, out)


@pytest.mark.parametrize("name", ["sl2", "heisenberg-dim3", "nonabelian-dim2", "rank5"])
def test_tables_agree_with_direct_formulas(catalog, name):
    alg = RANK5 if name == "rank5" else catalog[name].algebra
    assert not alg.verify_axioms()
    rng = check_rng(7, f"tables-{name}")
    base = RightConnectionOnA(tuple(PolyElement.zero(0) for _ in range(alg.n))) \
        if name == "rank5" else catalog[name].right_connection()
    random_r = RightConnectionOnA(random_poly_vector(rng, 0, alg.n))
    nonflat_seen = False
    for conn in (base, random_r):
        gen = GeneratorD(alg, conn)
        nonflat_seen |= not generator_square(alg, gen, trials=1).is_exact
        for _ in range(6):
            u = random_multivector(rng, alg)
            v = random_multivector(rng, alg)
            assert gen(u) == apply_generator(alg, conn, u)
            assert gerstenhaber_bracket(alg, u, v) == direct_bracket(alg, u, v)
            assert table_bracket(alg, u, v) == direct_bracket(alg, u, v)
        assert gen.table and alg.gerstenhaber_table
    assert nonflat_seen


def test_polynomial_case_fills_the_d_table_of_its_terms_only():
    alg = LieRinehartAlgebra.coordinate(2)
    gen = GeneratorD(alg, RightConnectionOnA((X, Y)))
    u = Multivector(2, [((0,), X), ((0, 1), Y)])
    assert gen(u) == apply_generator(alg, gen.connection, u)
    assert gerstenhaber_bracket(alg, u, u) == direct_bracket(alg, u, u)
    assert sorted(gen.table) == [0b01, 0b11] and not alg.gerstenhaber_table


def test_is_generator_fails_on_sign_flipped_generator_entry(sl2):
    conn = RightConnectionOnA(tuple(PolyElement.zero(0) for _ in range(3)))
    gen = GeneratorD(sl2, conn)
    assert is_generator(sl2, gen, trials=1, seed=0) == (True, None)
    gen.table[0b11] = negated(gen.table[0b11])  # D(e1 ^ e2) = -h, not 0
    ok, witness = is_generator(sl2, gen, trials=1, seed=0)
    assert not ok
    assert witness


def test_is_generator_fails_on_sign_flipped_bracket_entry():
    # a private copy of sl2, so the shared catalog algebra keeps a true table
    alg = LieRinehartAlgebra.from_structure_constants(
        3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})
    gen = GeneratorD(alg, RightConnectionOnA(tuple(PolyElement.zero(0) for _ in range(3))))
    assert is_generator(alg, gen, trials=1, seed=0) == (True, None)
    key = (to_mask((0,)), to_mask((1,)))
    alg.gerstenhaber_table[key] = negated(alg.gerstenhaber_table[key])
    ok, witness = is_generator(alg, gen, trials=1, seed=0)
    assert not ok
    assert "e{1} v=" in witness


# -- the m = 0 kernel -------------------------------------------------------


def subsets(n):
    return [s for p in range(n + 1) for s in combinations(range(n), p)]


def negated(entry):
    """-entry for a `Multivector` D image or a mask-map bracket entry."""
    if isinstance(entry, Multivector):
        return -entry
    return {mask: -c for mask, c in entry.items()}


def is_zero_entry(entry):
    return entry.is_zero() if isinstance(entry, Multivector) else not entry


def test_wedge_sign_matches_merge_sign():
    for n in range(7):
        keys = subsets(n)
        for key in keys:
            assert to_key(to_mask(key)) == key
        assert sorted(to_mask(key) for key in keys) == list(range(1 << n))
        for s in range(1 << n):
            for t in range(1 << n):
                assert wedge_sign(s, t) == merge_sign(to_key(s), to_key(t)), (n, s, t)


def test_one_element_wedges_match_multivector_wedge():
    rng = random.Random("one-element-wedges")
    for n in range(5):
        for _ in range(20):
            u = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for s in range(1 << n) if rng.random() < 0.5}
            u = {s: c for s, c in u.items() if c}
            acc = {s: rng.randint(-2, 2) for s in range(1 << n) if rng.random() < 0.3}
            acc = {s: c for s, c in acc.items() if c}
            c = rng.choice((1, -1, 2, Fraction(1, 3)))
            for e in range(1 << n):
                basis = Multivector.basis(n, to_key(e), m=0)
                start = to_multivector(n, acc)
                right, left = dict(acc), dict(acc)
                add_wedge_basis(right, u, e, c)
                add_basis_wedge(left, e, u, c)
                scale = PolyElement.const(0, c)
                assert to_multivector(n, right) == \
                    start + to_multivector(n, u).wedge(basis).scale(scale)
                assert to_multivector(n, left) == \
                    start + basis.wedge(to_multivector(n, u)).scale(scale)
                assert all(right.values()) and all(left.values())


def ground_algebra(catalog, name):
    return fresh_copy(RANK5 if name == "rank5" else catalog[name].algebra)


@pytest.mark.parametrize("name", ["sl2", "heisenberg-dim3", "nonabelian-dim2", "rank5"])
def test_bracket_table_filled_through_itself_equals_direct_recursion(catalog, name):
    alg = ground_algebra(catalog, name)
    assert bracket_table(alg) is alg.gerstenhaber_table
    assert len(alg.gerstenhaber_table) == 4 ** alg.n
    assert_table_equals_term_bracket(alg)


def assert_table_equals_term_bracket(alg):
    direct = fresh_copy(alg)
    one = PolyElement.one(0)
    for (s, t), entry in bracket_table(alg).items():
        assert to_multivector(alg.n, entry) == \
            _term_bracket(direct, one, to_key(s), one, to_key(t)), (s, t)
    assert not direct.gerstenhaber_table


# four families of ground-field Lie algebras as 0-based structure constants
# (i, j, k) -> c with [e_i, e_j] = c e_k and i < j
FAMILIES = {
    "abelian": lambda n: {},
    # [e_i, e_n] = e_i for i < n: solvable, not unimodular
    "book": lambda n: {(i, n - 1, i): 1 for i in range(n - 1)},
    # [e_1, e_i] = e_{i+1} for 2 <= i < n
    "filiform": lambda n: {(0, i, i + 1): 1 for i in range(1, n - 1)},
    # [e_i, e_{i+k}] = e_n for i <= k, where n = 2k + 1
    "heisenberg": lambda n: {(i, i + n // 2, n - 1): 1 for i in range(n // 2)},
}


def family_algebra(family, n, seed):
    """The family's algebra on the basis f_{perm(i)} = sign_i e_i, drawn from `seed`."""
    rng = random.Random(f"{family}-{n}:{seed}")
    perm = list(range(n))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    brackets = {}
    for (i, j, k), c in FAMILIES[family](n).items():
        a, b = perm[i], perm[j]
        c *= sign[i] * sign[j] * sign[k]
        if a > b:
            a, b, c = b, a, -c
        vector = [0] * n
        vector[perm[k]] = c
        brackets[(a, b)] = tuple(vector)
    return LieRinehartAlgebra.from_structure_constants(n, brackets, name=f"{family}-{n}")


@pytest.mark.parametrize("family, n", [
    *((family, n) for family in ("abelian", "book", "filiform") for n in range(1, 6)),
    ("heisenberg", 3), ("heisenberg", 5)])
def test_bracket_table_equals_term_bracket_on_generated_families(family, n):
    # the mask table (the m = 0 kernel) against the generic path
    for seed in (0, 1):
        alg = family_algebra(family, n, seed)
        assert not alg.verify_axioms()
        assert len(bracket_table(alg)) == 4 ** n
        assert_table_equals_term_bracket(alg)


def fraction_connection(alg, label):
    """A seeded m = 0 right connection: r_1 a half-integer, the others p/q with q <= 4."""
    rng = random.Random(label)
    values = [Fraction(2 * rng.randint(-4, 4) + 1, 2)]
    values += [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(alg.n - 1)]
    return RightConnectionOnA(tuple(PolyElement.const(0, c) for c in values))


@pytest.mark.parametrize("family, n", [
    *((family, n) for family in ("abelian", "book", "filiform") for n in range(1, 6)),
    ("heisenberg", 3), ("heisenberg", 5)])
def test_generator_table_equals_apply_generator_on_generated_families(family, n):
    # the mask D table (the m = 0 kernel) against the generic path
    for seed in (0, 1):
        alg = family_algebra(family, n, seed)
        assert not alg.verify_axioms()
        conn = fraction_connection(alg, f"r-{family}-{n}:{seed}")
        assert any(isinstance(value(r), Fraction) for r in conn.r)
        gen = GeneratorD(alg, conn)
        # the D table cannot call apply_generator: the package does not ship it
        assert not hasattr(bv, "apply_generator")
        for s in range(1 << n):
            gen(Multivector.basis(n, to_key(s), m=0))
        assert sorted(gen.table) == list(range(1 << n))
        for s, entry in gen.table.items():
            assert to_multivector(n, entry) == \
                apply_generator(alg, conn, Multivector.basis(n, to_key(s), m=0)), (s, entry)
        # the D table never reads the bracket table
        assert not alg.gerstenhaber_table


@pytest.mark.parametrize("name", ["sl2", "heisenberg-dim3", "rank5"])
def test_right_from_generator_fills_exactly_n_entries(catalog, name):
    alg = ground_algebra(catalog, name)
    gen = GeneratorD(alg, fraction_connection(alg, f"right-{name}"))
    assert right_from_generator(alg, gen) == gen.connection
    assert sorted(gen.table) == [1 << i for i in range(alg.n)]


def count_fill_calls(alg, monkeypatch):
    """Record the |S| of every `_term_bracket` call and the basis index pair (i, j) of
    every `alg.bracket(e_i, e_j)` call; an `alg.bracket` call off the basis raises."""
    seen, pairs = [], []
    basis = [alg.basis_l(i) for i in range(alg.n)]
    lie_bracket = alg.bracket

    def counting(alg, a, s_key, b, t_key):
        seen.append(len(s_key))
        return _term_bracket(alg, a, s_key, b, t_key)

    def bracketing(alpha, beta):
        pairs.append((basis.index(alpha), basis.index(beta)))
        return lie_bracket(alpha, beta)

    monkeypatch.setattr(bv, "_term_bracket", counting)
    monkeypatch.setattr(alg, "bracket", bracketing)
    return seen, pairs


def basis_pairs(n):
    return [(i, j) for i in range(n) for j in range(n)]


@pytest.mark.parametrize("name", ["sl2", "rank5"])
def test_filling_the_table_runs_n_squared_lie_brackets_and_no_term_bracket(catalog, monkeypatch,
                                                                         name):
    alg = ground_algebra(catalog, name)
    seen, pairs = count_fill_calls(alg, monkeypatch)
    table = bracket_table(alg)
    assert len(table) == 4 ** alg.n
    assert seen == []
    # each [e_i, e_j] once, whatever the rank of the table
    assert sorted(pairs) == basis_pairs(alg.n)
    # filled once per algebra: a second call reads the same table
    assert bracket_table(alg) is table
    assert seen == [] and sorted(pairs) == basis_pairs(alg.n)


@pytest.mark.parametrize("name", ["sl2", "heisenberg-dim3", "book-4"])
def test_a_sign_flip_in_either_bracket_source_alone_fails_the_identity(catalog, monkeypatch,
                                                                        name):
    # D reads the structure constants through `alg.bracket_terms` and the table
    # through `alg.bracket`; neither is derived from the other, so a flip in one
    # source alone must break the generator identity
    def load():
        if name == "book-4":
            return family_algebra("book", 4, 0)
        return fresh_copy(catalog[name].algebra)

    alg = load()
    conn = fraction_connection(alg, f"independence-{name}")
    assert is_generator(alg, GeneratorD(alg, conn)) == (True, None)
    i, j = next((i, j) for i, j in basis_pairs(alg.n) if i < j and alg.bracket_terms(i, j))

    alg = load()
    terms = [list(row) for row in alg._bracket_terms]
    terms[i][j] = tuple((k, -c) for k, c in terms[i][j])
    monkeypatch.setattr(alg, "_bracket_terms", tuple(map(tuple, terms)))
    verdict, witness = is_generator(alg, GeneratorD(alg, conn))
    assert not verdict and witness, name
    monkeypatch.undo()

    alg = load()
    lie_bracket = alg.bracket
    e_i, e_j = alg.basis_l(i), alg.basis_l(j)

    def flipped(alpha, beta):
        out = lie_bracket(alpha, beta)
        return -out if (alpha, beta) == (e_i, e_j) else out

    monkeypatch.setattr(alg, "bracket", flipped)
    verdict, witness = is_generator(alg, GeneratorD(alg, conn))
    assert not verdict and witness, name


def recorded(op):
    calls = []

    def recording(u):
        calls.append(u)
        return op(u)

    return recording, calls


def expected_generator_calls(alg):
    """The operator arguments of `is_generator` at m = 0: e_R, then 2 e_R, for each R."""
    two = PolyElement.const(0, 2)
    out = []
    for key in subsets(alg.n):
        out += [Multivector.basis(alg.n, key, m=0), Multivector.basis(alg.n, key, two)]
    return out


def test_ground_pair_loop_calls_the_operator_on_every_element_and_wedge(catalog):
    # the operator sees each basis element and its homogeneity probe once,
    # and no u ^ v, whatever trials and seed are
    loaded = catalog["heisenberg-dim3"]
    alg = loaded.algebra
    for trials, seed in ((3, 1), (1, 0)):
        op, calls = recorded(GeneratorD(alg, loaded.right_connection()))
        assert is_generator(alg, op, trials=trials, seed=seed) == (True, None)
        assert calls == expected_generator_calls(alg)


def test_ground_pair_loop_exits_on_the_first_failing_pair(sl2, monkeypatch):
    third = PolyElement.const(0, Fraction(1, 3))
    gen = GeneratorD(sl2, RightConnectionOnA((third,) * 3))
    assert is_generator(sl2, gen, trials=1, seed=0) == (True, None)
    gen.table[0b11] = negated(gen.table[0b11])
    op, calls = recorded(gen)
    reads = []

    class RecordingTable(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    table = RecordingTable(bracket_table(sl2))
    monkeypatch.setattr(bv, "bracket_table", lambda alg: table)
    ok, witness = is_generator(sl2, op, trials=2, seed=0)
    # e_{} pairs cannot see D(e1 ^ e2); (e1, e2) is the first pair that does
    assert (ok, witness) == (
        False, "u=(1)*e{1} v=(1)*e{2} defect=(2/3)*e{1} + (-2/3)*e{2} + (2)*e{3}")
    assert calls == expected_generator_calls(sl2)
    pairs = [(to_mask(s), to_mask(t)) for s in subsets(3) for t in subsets(3)]
    assert reads == pairs[:len(reads)]
    assert reads[-1] == (to_mask((0,)), to_mask((1,))) and len(reads) < len(pairs)


def test_is_generator_witness_after_a_scaled_bracket_entry():
    alg = LieRinehartAlgebra.from_structure_constants(
        3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})
    gen = GeneratorD(alg, RightConnectionOnA(tuple(PolyElement.zero(0) for _ in range(3))))
    assert is_generator(alg, gen, trials=1, seed=0) == (True, None)
    key = (to_mask((0,)), to_mask((1, 2)))
    alg.gerstenhaber_table[key] = {
        mask: c * Fraction(1, 2) for mask, c in alg.gerstenhaber_table[key].items()}
    assert is_generator(alg, gen, trials=3, seed=4) == (
        False, "u=(1)*e{1} v=(1)*e{2,3} defect=(-1)*e{1,2}")


def test_is_generator_catches_a_non_linear_operator(catalog):
    loaded = catalog["heisenberg-dim3"]
    alg = loaded.algebra
    gen = GeneratorD(alg, loaded.right_connection())

    def nonlinear(u):
        first = next(iter(u.components.values()), PolyElement.zero(0))
        return gen(u).scale(first)

    # it agrees with gen on every e_R, so only the homogeneity probe sees it
    assert is_generator(alg, nonlinear, trials=1, seed=0) == (
        False, "D((2)*e{1,2})=(-4)*e{3} 2*D(e{1,2})=(-2)*e{3}")


def test_m_positive_witness_keeps_its_term_order(catalog, monkeypatch):
    # the explicit generator with the anchor term of 1 o alpha dropped, at
    # m = 2; the witness prints the defect map in the order the mask loop
    # sums it and the polynomial kernel makes its terms, so this pins that
    # order through brackets and products (the defect here changes if the
    # product loop runs over its operands in the other order)
    def one_circ_without_anchor(alg, conn, alpha):
        out = PolyElement.zero(alg.m)
        for coeff, r in zip(alpha.coeffs, conn.r):
            if coeff and r:
                out = out + coeff * r
        return out

    loaded = catalog["poisson-linear-2d"]
    alg = loaded.algebra
    conn = loaded.right_connection()
    assert is_generator(alg, GeneratorD(alg, conn), trials=1, seed=37) == (True, None)
    monkeypatch.setattr(bv, "one_circ", one_circ_without_anchor)
    assert is_generator(alg, lambda u: apply_generator(alg, conn, u), trials=1, seed=37) == (
        False, "u=(8*x1^2*x2 - 1*x2)*e{1} v=(x1*x2^2 - 2*x1)*e{2} "
               "defect=(-8*x1^3*x2^3 + 16*x1^3*x2 + x1*x2^3 - 2*x1*x2)*e{1} "
               "+ (16*x1^4*x2^2 - 2*x1^2*x2^2)*e{2}")


def test_ground_generator_identity_has_no_seed_or_trial_count(catalog):
    seen = set()
    for name, loaded in catalog.items():
        alg = loaded.algebra
        if alg.m:
            continue
        gen = GeneratorD(alg, loaded.right_connection())

        def off(u, gen=gen):  # not a generator: a degree-0 term on every e_S
            return gen(u) + Multivector.scalar(alg.n, u.component(full_tuple(alg.n), 0))

        for op in (gen, off):
            results = {is_generator(alg, op, trials=trials, seed=seed)
                       for trials, seed in ((1, 0), (8, 0), (8, 5))}
            assert len(results) == 1, (name, results)
            seen.add((name, op is gen, next(iter(results))[0]))
    assert ("sl2", True, True) in seen and ("sl2", False, False) in seen


@pytest.mark.parametrize("name", ["sl2", "heisenberg-dim3"])
def test_every_sign_flip_of_a_table_entry_fails_on_its_own(catalog, name):
    alg = ground_algebra(catalog, name)
    gen = GeneratorD(alg, catalog[name].right_connection())
    assert is_generator(alg, gen) == (True, None)
    for table, size in ((gen.table, 2 ** alg.n), (alg.gerstenhaber_table, 4 ** alg.n)):
        assert len(table) == size
        flipped = 0
        for key, entry in list(table.items()):
            if is_zero_entry(entry):
                continue
            table[key] = negated(entry)
            ok, witness = is_generator(alg, gen)
            table[key] = entry
            assert not ok and witness, (key, entry)
            flipped += 1
        assert flipped
    assert is_generator(alg, gen) == (True, None)


def load_generated(name, seed=0):
    """The `perfbench/inputs.py` file for `name` at `seed`, loaded as a user file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return loads(inputs.algebra_text(name, seed))


def first_failing_pair(alg, op):
    """The first basis pair (e_S, e_T), in subset order, with a nonzero defect
    [u, v] - (-1)^|u| (D(u ^ v) - D(u) ^ v - (-1)^|u| u ^ D(v)), written out on
    `Multivector`s with `gerstenhaber_bracket` and `op`; None if every pair holds."""
    for s_key in subsets(alg.n):
        u = Multivector.basis(alg.n, s_key, m=0)
        for t_key in subsets(alg.n):
            v = Multivector.basis(alg.n, t_key, m=0)
            inner = op(u.wedge(v)) - op(u).wedge(v)
            inner = inner - u.wedge(op(v)) if len(s_key) % 2 == 0 else inner + u.wedge(op(v))
            rhs = inner if len(s_key) % 2 == 0 else -inner
            defect = gerstenhaber_bracket(alg, u, v) - rhs
            if not defect.is_zero():
                return s_key, t_key, defect
    return None


@pytest.mark.parametrize("name", ["book-4", "heisenberg-5", "filiform-5"])
def test_mask_loop_names_the_first_failing_pair_of_the_reference(name):
    alg = load_generated(name).algebra
    gen = GeneratorD(alg, fraction_connection(alg, f"first-pair-{name}"))
    assert is_generator(alg, gen) == (True, None)
    assert first_failing_pair(alg, gen) is None
    flipped = 0
    for s, entry in list(gen.table.items()):
        if not entry:
            continue
        gen.table[s] = negated(entry)
        s_key, t_key, defect = first_failing_pair(alg, gen)
        assert is_generator(alg, gen) == (
            False, f"u=(1)*{basis_label(s_key)} v=(1)*{basis_label(t_key)} defect={defect}"), s
        gen.table[s] = entry
        flipped += 1
    assert flipped >= 2 ** alg.n - 2  # D(1) = 0, and at most one more entry vanishes


# -- the m = 0 certificate for every right connection -------------------


def r_term_mutant(slot, factor):
    """`ground_generator` with the r term of 0-based `slot` multiplied by `factor`."""
    original = bv.ground_generator

    def mutated(alg, conn, s):
        out = original(alg, conn, s)
        key = to_key(s)
        if len(key) > slot:
            a = key[slot]
            term = -value(conn.r[a]) if slot % 2 else value(conn.r[a])
            add_multiple(out, {s ^ (1 << a): term}, factor - 1)
        return out

    return mutated


GROUND_GENERATOR = bv.ground_generator


def r_term_on_s_mutant(alg, conn, s):
    """`ground_generator` with each r term written to e_S instead of e_(S - a)."""
    out = GROUND_GENERATOR(alg, conn, s)
    for i, a in enumerate(to_key(s)):
        term = -value(conn.r[a]) if i % 2 else value(conn.r[a])
        add_multiple(out, {s ^ (1 << a): term}, -1)
        add_multiple(out, {s: term}, 1)
    return out


def mixed_direction_mutant(alg, conn, s):
    """`ground_generator` with the r term of the second slot, r_a, times 1 + r_(a+1 mod n)."""
    out = GROUND_GENERATOR(alg, conn, s)
    key = to_key(s)
    if len(key) > 1:
        a = key[1]
        add_multiple(out, {s ^ (1 << a): -value(conn.r[a])}, value(conn.r[(a + 1) % alg.n]))
    return out


def generator_outcomes(alg, trials=4, seed=0):
    report = run_suite(LoadedAlgebra(algebra=alg), suites=("generator",), trials=trials,
                       seed=seed)
    return {o.name: o for o in report.outcomes}


CERTIFICATE_WITNESS = re.compile(r"i=\d+(\.\.\d+)? R=e\{[\d,]*\}: ")


@pytest.mark.parametrize("slot, factor", [(2, -1), (1, 0)], ids=["flip-third", "drop-second"])
def test_certificate_catches_r_term_mutants(monkeypatch, slot, factor):
    # abelian-6 has r0 = 0, so the identity at the file's r cannot see an
    # r term; book-5 has a nonzero r0, and the identity fails first
    abelian, book = family_algebra("abelian", 6, 0), family_algebra("book", 5, 0)
    for alg in (abelian, book):
        assert generator_outcomes(alg)["random-connections"].status == "pass"
    monkeypatch.setattr(bv, "ground_generator", r_term_mutant(slot, factor))
    outcomes = generator_outcomes(family_algebra("abelian", 6, 0))
    assert outcomes["identity"].status == "pass"
    witness = outcomes["random-connections"].witness
    assert outcomes["random-connections"].status == "fail"
    assert CERTIFICATE_WITNESS.match(witness) and "is not a contraction" in witness, witness
    outcomes = generator_outcomes(family_algebra("book", 5, 0))
    assert outcomes["identity"].status == "fail"
    assert outcomes["random-connections"].status == "fail"
    assert outcomes["random-connections"].witness == \
        "generator.identity fails at the file's r, so no r is certified"


def test_certificate_witnesses_name_the_direction_and_the_subset(monkeypatch):
    alg = family_algebra("abelian", 6, 0)
    zero = RightConnectionOnA(tuple(PolyElement.zero(0) for _ in range(6)))
    original = bv.ground_generator
    cases = [
        (r_term_mutant(2, -1),
         "i=3 R=e{1,2,3}: D[r+e_3](e{1,2,3}) - D[r](e{1,2,3})=(-1)*e{1,2} but the "
         "contraction with (0, 0, 1, 0, 0, 0) gives (1)*e{1,2}, "
         "so delta_3 = D[r+e_3] - D[r] is not a contraction"),
        (r_term_mutant(1, 0),
         "i=2 R=e{1,2}: D[r+e_2](e{1,2}) - D[r](e{1,2})=0 but the "
         "contraction with (0, 1, 0, 0, 0, 0) gives (-1)*e{1}, "
         "so delta_2 = D[r+e_2] - D[r] is not a contraction"),
        # each value squared: D_r0 = 0 still passes, but D is not affine in r
        (lambda alg, conn, s: {mask: c * c for mask, c in original(alg, conn, s).items()},
         "i=1 R=e{1}: D[r+2e_1](e{1}) - D[r](e{1})=(4) but the "
         "contraction with (2, 0, 0, 0, 0, 0) gives (2), so D is not affine in r"),
        (lambda alg, conn, s: original(alg, conn, s) if s else {0: value(conn.r[0])},
         "i=1 R=e{}: D[r+e_1](e{}) - D[r](e{})=(1) but the "
         "contraction with (1, 0, 0, 0, 0, 0) gives 0, "
         "so delta_1 = D[r+e_1] - D[r] is not a contraction"),
        # delta_i(e_R) = (-1)^slot e_R keeps the derivation rule, but not the degree
        (r_term_on_s_mutant,
         "i=1 R=e{1}: D[r+e_1](e{1}) - D[r](e{1})=(1)*e{1} but the "
         "contraction with (0, 0, 0, 0, 0, 0) gives 0, "
         "so delta_1 = D[r+e_1] - D[r] is not a contraction"),
        # affine along every axis from r0 = 0, not on the diagonal
        (mixed_direction_mutant,
         "i=1..6 R=e{1,2}: D[r+e_1+..+e_6](e{1,2}) - D[r](e{1,2})=(-2)*e{1} + (1)*e{2} "
         "but the contraction with (1, 1, 1, 1, 1, 1) gives (-1)*e{1} + (1)*e{2}, "
         "so D is not affine in r"),
    ]
    for mutant, witness in cases:
        monkeypatch.setattr(bv, "ground_generator", mutant)
        assert is_generator(alg, GeneratorD(alg, zero)) == (True, None)
        assert bv.certify_every_connection(alg, zero) == (False, witness)


def test_certificate_refuses_m_above_zero(catalog):
    # its probes are constant shifts of r, which prove nothing about A-valued r
    for name in ("coordinate-2d", "poisson-linear-2d", "coordinate-3d"):
        alg = catalog[name].algebra
        conn = RightConnectionOnA(tuple(PolyElement.zero(alg.m) for _ in range(alg.n)))
        with pytest.raises(ValueError, match=f"needs m = 0, got m = {alg.m}"):
            bv.certify_every_connection(alg, conn)


@pytest.mark.parametrize("mutant, r", [
    (r_term_on_s_mutant, (1, 0, 0, 0, 0, 0)),
    (mixed_direction_mutant, (1, 1, 1, 1, 1, 1))], ids=["r-term-on-e_S", "mixed-direction"])
def test_certificate_fails_mutants_that_break_the_identity_away_from_r0(monkeypatch, mutant, r):
    # both pass the identity at r0 = 0 and the axis probes, and fail it at r
    alg = family_algebra("abelian", 6, 0)
    monkeypatch.setattr(bv, "ground_generator", mutant)
    zero, other = (RightConnectionOnA(tuple(PolyElement.const(0, c) for c in cs))
                   for cs in ((0,) * 6, r))
    assert is_generator(alg, GeneratorD(alg, zero)) == (True, None)
    assert not is_generator(alg, GeneratorD(alg, other))[0]
    outcomes = generator_outcomes(alg)
    assert outcomes["identity"].status == "pass"
    assert outcomes["random-connections"].status == "fail"
    assert CERTIFICATE_WITNESS.match(outcomes["random-connections"].witness)


@pytest.mark.parametrize("family, n", [
    *((family, n) for family in ("abelian", "book", "filiform") for n in range(1, 6)),
    ("heisenberg", 3), ("heisenberg", 5)])
def test_certificate_passes_without_the_bracket_table(family, n, monkeypatch):
    # (2n + 2) 2^n operator calls, each D(e_R) built once per operator
    alg = family_algebra(family, n, 0)
    conn = fraction_connection(alg, f"certificate-{family}-{n}")
    calls = []
    original = bv.ground_generator

    def counting(alg, conn, s):
        calls.append(s)
        return original(alg, conn, s)

    monkeypatch.setattr(bv, "ground_generator", counting)
    assert bv.certify_every_connection(alg, conn) == (True, None)
    assert len(calls) == (2 * n + 2) * 2 ** n
    assert not alg.gerstenhaber_table


# a fixed integer matrix A for the 1-form theta = A r of `contraction_mutant`
CONTRACTION_MATRIX = [[(3 * l + 2 * j) % 5 - 2 for j in range(5)] for l in range(5)]


def contraction_mutant(alg, conn, s):
    """`ground_generator` plus the contraction with theta = A r, written out on e_S as
    sum_k (-1)^k theta[s_k] e_(S - s_k): D_r plus an odd derivation, so still a generator."""
    out = GROUND_GENERATOR(alg, conn, s)
    for k, l in enumerate(to_key(s)):
        theta = sum(a * value(r) for a, r in zip(CONTRACTION_MATRIX[l], conn.r))
        add_multiple(out, {s ^ (1 << l): theta}, sign=-1 if k % 2 else 1)
    return out


def r_term_at_mutant(j, key, drop_lowest):
    """`ground_generator` plus r_j e_key at e_key alone, or r_j e_(key - lowest) if `drop_lowest`:
    at |key| >= 2 neither is the value of a contraction at e_key."""
    def mutated(alg, conn, s):
        out = GROUND_GENERATOR(alg, conn, s)
        if s == to_mask(key):
            add_multiple(out, {to_mask(key[1:] if drop_lowest else key): value(conn.r[j])})
        return out
    return mutated


@pytest.mark.parametrize("family", ["abelian", "book", "heisenberg"])
def test_certificate_accepts_contraction_shifts_and_rejects_other_r_terms(family, monkeypatch):
    # the acceptance set, seen from outside: D_r + iota_(A r) is still a generator
    # at every r, and an r_j term off the contractions fails at axis j and at its R
    alg = family_algebra(family, 5, 0)
    conn, other = (fraction_connection(alg, f"acceptance-{family}-{k}") for k in (0, 1))
    monkeypatch.setattr(bv, "ground_generator", contraction_mutant)
    assert bv.certify_every_connection(alg, conn) == (True, None)
    for r in (conn, other):
        assert is_generator(alg, GeneratorD(alg, r)) == (True, None)
    for j, key, drop_lowest in ((1, (0, 2), False), (3, (0, 2, 4), True), (4, (2,), False)):
        monkeypatch.setattr(bv, "ground_generator", r_term_at_mutant(j, key, drop_lowest))
        ok, witness = bv.certify_every_connection(alg, conn)
        assert not ok and witness.startswith(f"i={j + 1} R={basis_label(key)}: "), witness


def test_ground_random_connections_has_no_seed_or_trial_count(catalog, monkeypatch):
    for mutant in (bv.ground_generator, r_term_mutant(2, -1)):
        monkeypatch.setattr(bv, "ground_generator", mutant)
        for name, loaded in catalog.items():
            if loaded.algebra.m:
                continue
            results = {run_suite(loaded, suites=("generator",), trials=trials, seed=seed)
                       .outcomes[1] for trials, seed in ((1, 0), (8, 0), (8, 5))}
            assert len(results) == 1, (name, results)
            assert next(iter(results)).name == "random-connections"


# -- the m > 0 pair loop ----------------------------------------------------


def polynomial_names(catalog):
    return [name for name, loaded in catalog.items() if loaded.algebra.m]


def drawn(alg, key, a):
    """The (S, a, e_i(a) for every i) record that `bv.mask_bracket` takes."""
    return to_mask(key), a, tuple(rho(a) for rho in alg.anchor)


def masked(u):
    return {to_mask(key): c for key, c in u.components.items()}


def test_polynomial_bracket_table_is_the_term_bracket_at_coefficient_one(catalog, monkeypatch):
    for name in polynomial_names(catalog):
        alg = ground_algebra(catalog, name)
        one = PolyElement.one(alg.m)
        seen, pairs = count_fill_calls(alg, monkeypatch)
        table = bracket_table(alg)
        monkeypatch.undo()
        assert len(table) == 4 ** alg.n and seen == []
        assert sorted(pairs) == basis_pairs(alg.n)
        assert all(isinstance(c, PolyElement) for entry in table.values() for c in entry.values())
        for (s, t), entry in table.items():
            assert entry == masked(_term_bracket(alg, one, to_key(s), one, to_key(t))), (name, s, t)


def test_mask_bracket_equals_gerstenhaber_bracket_on_single_terms(catalog):
    for name in polynomial_names(catalog):
        alg = catalog[name].algebra
        table = bracket_table(alg)
        rng = check_rng(15, f"mask-bracket-{name}")
        for s_key in subsets(alg.n):
            for t_key in subsets(alg.n):
                for _ in range(3):
                    a = random_poly(rng, alg.m, 3)
                    b = random_poly(rng, alg.m, 3)
                    got = bv.mask_bracket(table, drawn(alg, s_key, a), drawn(alg, t_key, b), a * b)
                    want = gerstenhaber_bracket(alg, Multivector(alg.n, [(s_key, a)]),
                                                Multivector(alg.n, [(t_key, b)]))
                    assert got == masked(want), (name, s_key, t_key, str(a), str(b))


def test_mask_bracket_takes_no_derivatives_as_zero_derivatives(catalog):
    # da = () or db = () skips that anchor term; it must equal n zero derivatives
    for name, loaded in catalog.items():
        alg = loaded.algebra
        table = bracket_table(alg)
        zeros = (value(PolyElement.zero(alg.m)),) * alg.n
        rng = check_rng(17, f"mask-bracket-no-derivatives-{name}")
        for s in range(1 << alg.n):
            for t in range(1 << alg.n):
                a, b = (random_poly(rng, alg.m, 3) for _ in range(2))
                da, db = (tuple(value(rho(c)) for rho in alg.anchor) for c in (a, b))
                a, b = value(a), value(b)
                for left, right in (((), db), (da, ()), ((), ())):
                    want = bv.mask_bracket(table, (s, a, left or zeros), (t, b, right or zeros),
                                           a * b)
                    got = bv.mask_bracket(table, (s, a, left), (t, b, right), a * b)
                    assert got == want, (name, s, t, left, right)


def scalar_bracket_map(s, db):
    """[b, e_S] = sum_k (-1)^(k+1) e_(s_k)(b) e_(S - s_k) as a mask map."""
    out = {}
    for k, i in enumerate(to_key(s)):
        if db[i]:
            out[s ^ (1 << i)] = db[i] if k % 2 else -db[i]
    return out


def mask_bracket_without(dropped=None):
    """`bv.mask_bracket` written out term by term, with the named term left out."""
    def bracket(table, u, v, ab):
        s, a, da = u
        t, b, db = v
        p, q = s.bit_count(), t.bit_count()
        out = {}
        add_multiple(out, table[s, t], ab)
        if dropped != "[b, e_S]" and db:  # () for a constant b
            add_wedge_basis(out, scalar_bracket_map(s, db), t, -a if p % 2 else a)
        if dropped != "[a, e_T]" and da:
            add_wedge_basis(out, scalar_bracket_map(t, da), s,
                            b if ((p - 1) * (q - 1) + q) % 2 else -b)
        return out
    return bracket


def identity_outcome(loaded, trials=4, seed=0):
    report = run_suite(loaded, suites=("generator",), trials=trials, seed=seed)
    outcome = report.outcomes[0]
    assert outcome.name == "identity"
    return outcome


@pytest.mark.parametrize("name", ["coordinate-2d", "poisson-linear-2d"])
@pytest.mark.parametrize("dropped", ["[b, e_S]", "[a, e_T]"])
def test_generator_identity_catches_a_dropped_anchor_term(catalog, monkeypatch, name, dropped):
    loaded = catalog[name]
    monkeypatch.setattr(bv, "mask_bracket", mask_bracket_without())
    assert identity_outcome(loaded).status == "pass"
    monkeypatch.setattr(bv, "mask_bracket", mask_bracket_without(dropped))
    outcome = identity_outcome(loaded)
    assert outcome.status == "fail"
    assert outcome.witness.startswith("u=("), outcome.witness


def test_every_sign_flip_of_a_polynomial_table_entry_fails_on_its_own(catalog, monkeypatch):
    loaded = catalog["poisson-linear-2d"]
    alg = loaded.algebra
    gen = GeneratorD(alg, loaded.right_connection())
    assert is_generator(alg, gen, trials=4) == (True, None)
    flipped = 0
    for key, entry in bracket_table(alg).items():
        if not entry:
            continue
        table = dict(bracket_table(alg))
        table[key] = negated(entry)
        monkeypatch.setattr(bv, "bracket_table", lambda alg, table=table: table)
        ok, witness = is_generator(alg, gen, trials=4)
        assert not ok and witness.startswith("u=("), key
        assert identity_outcome(loaded).status == "fail"
        monkeypatch.undo()
        flipped += 1
    assert flipped == 4


def test_m_positive_witness_prints_the_defect_of_an_edited_table_entry(catalog):
    # the witness prints the map the check summed, so a wrong table entry
    # shows: -2 ab [e1, e2] = (96*x1^2 + 108) e1 with ab = (-6)(8*x1^2 + 9)
    loaded = catalog["poisson-linear-2d"]
    alg = fresh_copy(loaded.algebra)
    table = bracket_table(alg)
    assert table[0b01, 0b10] == {0b01: PolyElement.one(2)}
    table[0b01, 0b10] = negated(table[0b01, 0b10])
    assert is_generator(alg, GeneratorD(alg, loaded.right_connection()), trials=4, seed=0) == (
        False, "u=(-6)*e{1} v=(8*x1^2 + 9)*e{2} defect=(96*x1^2 + 108)*e{1}")


def expected_polynomial_calls(alg, trials, seed, degree_bound=3):
    """The operator arguments of `is_generator` at m > 0, built with `Multivector.wedge`:
    a e_S for every drawn element, then u ^ v for every ordered pair, per trial."""
    rng = check_rng(seed, "is_generator")
    out = []
    for _ in range(trials):
        elements = [Multivector(alg.n, [(key, random_poly(rng, alg.m, degree_bound))])
                    for key in subsets(alg.n)]
        out += elements + [u.wedge(v) for u in elements for v in elements]
    return out


def test_polynomial_pair_loop_calls_the_operator_on_every_element_and_wedge(catalog):
    loaded = catalog["coordinate-2d"]
    alg = loaded.algebra
    op, calls = recorded(GeneratorD(alg, loaded.right_connection()))
    assert is_generator(alg, op, trials=2, seed=5) == (True, None)
    expected = expected_polynomial_calls(alg, trials=2, seed=5)
    assert len(calls) == 2 * (2 ** alg.n + 4 ** alg.n)
    assert calls == expected
    assert [str(u) for u in calls] == [str(u) for u in expected]
    assert any(u.is_zero() for u in calls)  # e_S ^ e_T with S and T overlapping


def one_circ_without_anchor(alg, conn, alpha):
    out = PolyElement.zero(alg.m)
    for coeff, r in zip(alpha.coeffs, conn.r):
        if coeff and r:
            out = out + coeff * r
    return out


def test_coordinate_3d_witness_and_calls_up_to_the_failing_pair(catalog, monkeypatch):
    # the explicit generator for r = (x2, x3, x1) with the anchor term of
    # 1 o alpha dropped; the witness text, first pinned from the Multivector loop, still holds
    alg = catalog["coordinate-3d"].algebra
    x1, x2, x3 = (PolyElement.variable(3, i) for i in range(3))
    conn = RightConnectionOnA((x2, x3, x1))
    assert is_generator(alg, GeneratorD(alg, conn), trials=2, seed=67) == (True, None)
    monkeypatch.setattr(bv, "one_circ", one_circ_without_anchor)
    op, calls = recorded(lambda u: apply_generator(alg, conn, u))
    assert is_generator(alg, op, trials=1, seed=67) == (
        False, "u=(7*x1*x2^2 - 8*x2*x3^2 - 3*x1*x2)*e{1} v=(6*x2^2*x3 + x1*x2 + 8*x1)*e{2} "
               "defect=(84*x1*x2^3*x3 - 96*x2^2*x3^3 - 36*x1*x2^2*x3 + 7*x1^2*x2^2 "
               "- 8*x1*x2*x3^2 - 3*x1^2*x2)*e{1} + (7*x1*x2^3 + 53*x1*x2^2 - 8*x2^2*x3^2 "
               "- 64*x2*x3^2 - 24*x1*x2)*e{2}")
    # the 8 elements, then the pairs in order up to (e{1}, e{2}), the 11th pair
    expected = expected_polynomial_calls(alg, trials=1, seed=67)
    assert calls == expected[:8 + 8 + 3]


def test_ground_generator_equals_apply_generator_on_dense_structure_constants():
    # several nonzero c^l_ab in every bracket; Jacobi is not needed, since
    # both sides evaluate the explicit formula
    rng = random.Random("dense-brackets")
    n = 4
    alg = LieRinehartAlgebra.from_structure_constants(n, {
        (i, j): tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
        for i, j in combinations(range(n), 2)})
    assert min(len(alg.bracket_terms(i, j)) for i, j in combinations(range(n), 2)) >= 2
    conn = RightConnectionOnA(tuple(PolyElement.const(0, Fraction(rng.randint(-3, 3), 2))
                                    for _ in range(n)))
    for key in subsets(n):
        assert to_multivector(n, bv.ground_generator(alg, conn, to_mask(key))) == \
            apply_generator(alg, conn, Multivector.basis(n, key, m=0)), key


# -- one D path at every m ----------------------------------------------------

def one_d_algebras(catalog):
    """The m > 0 catalog algebras, coordinate-4, and the cotangent algebra of pi12 = x1 x2,
    whose structure functions are not constant."""
    x1, x2 = PolyElement.variable(2, 0), PolyElement.variable(2, 1)
    zero = PolyElement.zero(2)
    poisson = build_poisson_cotangent([[zero, x1 * x2], [-(x1 * x2), zero]])
    assert not poisson.verify_axioms()
    assert any(not c.is_constant() for i, j in combinations(range(2), 2)
               for _, c in poisson.bracket_terms(i, j))
    return ([(name, catalog[name].algebra) for name in polynomial_names(catalog)]
            + [("coordinate-4", LieRinehartAlgebra.coordinate(4)), ("poisson-x1x2", poisson)])


def test_generator_table_equals_apply_generator_at_m_positive(catalog, monkeypatch):
    # D(a e_S) = a D(e_S) + [a, e_S] from the table and the anchor, against the
    # product path, on multi-term u and random r; D reads no bracket code
    def forbidden(*args):
        raise AssertionError("D called the product path or the bracket code")

    for name, alg in one_d_algebras(catalog):
        rng = check_rng(16, f"one-d-{name}")
        multi_term = 0
        for _ in range(10):
            conn = RightConnectionOnA(random_poly_vector(rng, alg.m, alg.n))
            gen = GeneratorD(alg, conn)
            elements = [random_multivector(rng, alg) for _ in range(5)]
            # the package does not ship the reference generator, so D cannot call it
            assert not any(hasattr(bv, attr) for attr in ("apply_generator",
                                                          "generator_on_factors"))
            for attr in ("one_circ", "bracket_table",
                         "_scalar_bracket_map", "gerstenhaber_bracket", "mask_bracket"):
                monkeypatch.setattr(bv, attr, forbidden)
            images = [gen(u) for u in elements]
            monkeypatch.undo()
            for u, du in zip(elements, images):
                assert du == apply_generator(alg, conn, u), (name, str(u))
                multi_term += len(u.components) > 1
            assert all(isinstance(c, PolyElement) for entry in gen.table.values()
                       for c in entry.values())
        assert multi_term >= 25, name


def coordinate_2d_with_r(catalog):
    """coordinate-2d with r = (x1 x2, x1 + x2), so every D(e_S) with S nonempty is nonzero."""
    return LoadedAlgebra(algebra=catalog["coordinate-2d"].algebra,
                         r=RightConnectionOnA((X * Y, X + Y)))


def test_generator_identity_catches_a_sign_flipped_polynomial_d_table_entry(catalog, monkeypatch):
    loaded = coordinate_2d_with_r(catalog)
    assert identity_outcome(loaded).status == "pass"
    for s in (0b01, 0b10, 0b11):
        def flipped(alg, conn, mask, s=s):
            entry = GROUND_GENERATOR(alg, conn, mask)
            return negated(entry) if mask == s else entry

        assert GROUND_GENERATOR(loaded.algebra, loaded.right_connection(), s), s
        monkeypatch.setattr(bv, "ground_generator", flipped)
        outcome = identity_outcome(loaded)
        assert outcome.status == "fail" and outcome.witness.startswith("u=("), s
        monkeypatch.undo()


def generator_call(anchor_terms=True):
    """`GeneratorD.__call__` written out, with or without the anchor terms [a, e_S] of D(a e_S)."""
    def call(self, u):
        out = {}
        for key, coeff in u.components.items():
            s = to_mask(key)
            add_multiple(out, self.ground(s), value(coeff))
            if anchor_terms:
                for k, i in enumerate(key):
                    d = self.alg.anchor[i](coeff)
                    if d:
                        add_multiple(out, {s ^ (1 << i): d if k % 2 else -d})
        return to_multivector(self.alg.n, out, self.alg.m)
    return call


def test_generator_identity_catches_dropped_anchor_terms_of_d(catalog, monkeypatch):
    loaded = coordinate_2d_with_r(catalog)
    monkeypatch.setattr(GeneratorD, "__call__", generator_call())
    assert identity_outcome(loaded).status == "pass"
    monkeypatch.setattr(GeneratorD, "__call__", generator_call(anchor_terms=False))
    outcome = identity_outcome(loaded)
    assert outcome.status == "fail" and outcome.witness.startswith("u=("), outcome.witness


# -- the degree check of is_generator -------------------------------------------

def plus_degree_one_derivation(op):
    """op + E, with E the odd derivation of degree +1 given by E(a) = 0, E(e_1) = e_1 ^ e_2
    and E(e_i) = 0 for i > 1: E(a e_S) = a e_1 ^ e_2 ^ e_(S - 1) when 1 is in S and 2 is not."""
    def shifted(u):
        return op(u) + Multivector(u.n, [((0, 1) + key[1:], a) for key, a in u.components.items()
                                         if key[:1] == (0,) and 1 not in key])
    return shifted


@pytest.mark.parametrize("name", ["sl2", "heisenberg-dim3", "coordinate-2d", "poisson-linear-2d"])
def test_degree_check_catches_an_odd_derivation_of_degree_one(catalog, monkeypatch, name):
    loaded = catalog[name]
    alg = loaded.algebra
    gen = GeneratorD(alg, loaded.right_connection())
    assert is_generator(alg, gen, trials=4) == (True, None)
    shifted = plus_degree_one_derivation(gen)
    # the pairs alone cannot see E: the Koszul bracket of an odd derivation vanishes
    monkeypatch.setattr(bv, "_degree_witness", lambda alg, images: None)
    assert is_generator(alg, shifted, trials=4) == (True, None)
    monkeypatch.undo()
    ok, witness = is_generator(alg, shifted, trials=4)
    assert not ok
    assert re.fullmatch(r"D\(\(.+\)\*e\{1\}\)=.*\*e\{1,2\}.* is not of degree 0", witness), witness
    if not alg.m:
        assert witness == "D((1)*e{1})=(1)*e{1,2} is not of degree 0"


def _refuse_draws(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking the arguments")
    monkeypatch.setattr(bv, "random_poly", no_draw)


@pytest.mark.parametrize("name", ["sl2", "coordinate-2d"])
@pytest.mark.parametrize("kwargs, message", BAD_DRAW_ARGUMENTS)
def test_is_generator_rejects_bad_trials_and_degree_bound(catalog, monkeypatch, name, kwargs,
                                                          message):
    # trials=0 returned (True, None) after the operator calls of trials=1
    alg = catalog[name].algebra
    gen = GeneratorD(alg, catalog[name].right_connection())
    calls = []
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=message):
        is_generator(alg, lambda u: calls.append(u) or gen(u), **kwargs)
    assert calls == []


@pytest.mark.parametrize("name", ["sl2", "coordinate-2d"])
@pytest.mark.parametrize("kwargs, message", BAD_DRAW_ARGUMENTS)
def test_generator_square_rejects_bad_trials_and_degree_bound(catalog, monkeypatch, name, kwargs,
                                                              message):
    alg = catalog[name].algebra
    gen = GeneratorD(alg, catalog[name].right_connection())
    calls = []
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=message):
        generator_square(alg, lambda u: calls.append(u) or gen(u), **kwargs)
    assert calls == []
