import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from bvcalc import bv, sampling, suites
from bvcalc.algebra import LieRinehartAlgebra, build_poisson_cotangent
from bvcalc.algfile import LoadedAlgebra, loads
from bvcalc.bv import (
    GeneratorD,
    RightConnectionOnA,
    basis_bracket,
    generator_square,
    gerstenhaber_bracket,
    is_generator,
    lie_brackets,
    one_circ,
)
from bvcalc.catalog import CATALOG_NAMES, load_catalog
from bvcalc.correspond import right_from_generator
from bvcalc.exterior import Multivector, basis_label, merge_sign
from bvcalc.ground import subsets as ground_subsets
from bvcalc.ground import (
    add_multiple,
    add_wedge,
    coefficient,
    to_key,
    to_mask,
    value,
    values,
    wedge_sign,
)
from bvcalc.poly import PolyElement
from bvcalc.sampling import check_rng, random_poly, random_poly_vector
from bvcalc.suites import run_suite

import reference
from conftest import (
    BAD_DRAW_ARGUMENTS,
    CERTIFICATE_WITNESS,
    RANK5,
    fresh_copy,
    load_generated,
    multivectors,
    polys,
)
from reference import (
    _term_bracket,
    apply_generator,
    generator_on_factors,
    homogeneous_part,
    random_multivector,
    recursive_bracket,
)

COORD = LieRinehartAlgebra.coordinate(2)
NONAB = LieRinehartAlgebra.from_structure_constants(2, {(0, 1): (1, 0)}, name="nonabelian-dim2")
ABELIAN = LieRinehartAlgebra.abelian(2)
X = PolyElement.variable(2, 0)
Y = PolyElement.variable(2, 1)

R_ZERO_COORD = RightConnectionOnA((PolyElement.zero(2), PolyElement.zero(2)))
R_FLAT_NONAB = RightConnectionOnA((PolyElement.zero(0), PolyElement.const(0, -1)))

# the product bracket and the tests' recursion, each held to the bracket's properties
BRACKETS = pytest.mark.parametrize("bracket", [gerstenhaber_bracket, recursive_bracket],
                                   ids=["closed-form", "recursive"])
# m = n = 2 algebras with zero, constant and linear structure functions: coordinate-2d
# and the cotangent algebras of pi12 = x1 (poisson-linear-2d) and of pi12 = x1 x2
ALGEBRAS_2D = [COORD, load_catalog("poisson-linear-2d").algebra,
               build_poisson_cotangent([[PolyElement.zero(2), X * Y],
                                        [-(X * Y), PolyElement.zero(2)]], name="pi12=x1*x2")]


def scalar(alg, value):
    return Multivector.scalar(alg.n, PolyElement.const(alg.m, value))


def from_multivector(u):
    """u as a ground map {mask: value}."""
    return values(u.components)


def to_multivector(n, u, m=0):
    """A ground map as a rank-n `Multivector` over Q[x1..xm]."""
    return Multivector._make(n, {s: coefficient(m, c) for s, c in u.items()})


@BRACKETS
def test_bracket_base_cases(bracket):
    ddx = Multivector.basis(2, (0,), m=2)
    x_mv = Multivector.scalar(2, X)
    assert bracket(COORD, ddx, x_mv) == scalar(COORD, 1)
    # degree 0 with degree 0 vanishes
    assert bracket(COORD, x_mv, Multivector.scalar(2, Y)).is_zero()
    # abelian algebra, constant coefficients: everything vanishes
    u = Multivector.basis(2, (0,), m=0) + Multivector.basis(2, (0, 1), m=0)
    v = Multivector.basis(2, (1,), m=0)
    assert bracket(ABELIAN, u, v).is_zero()


@BRACKETS
def test_bracket_degree_one_agrees_with_lie_bracket(bracket):
    x_ddx = Multivector(2, [((0,), X)])
    ddx = Multivector.basis(2, (0,), m=2)
    result = bracket(COORD, x_ddx, ddx)
    assert result == -ddx


@BRACKETS
def test_bracket_against_generator_identity_example(bracket):
    # [dx ^ dy, x] must satisfy the generator identity for the operator
    # built from r = 0.
    u = Multivector.basis(2, (0, 1), m=2)
    v = Multivector.scalar(2, X)
    gen = GeneratorD(COORD, R_ZERO_COORD)
    lhs = bracket(COORD, u, v)
    rhs = gen(u.wedge(v)) - gen(u).wedge(v) - u.wedge(gen(v))
    assert lhs == rhs  # (-1)^{|u|} = +1 for |u| = 2


@BRACKETS
@given(u=multivectors(2, 2, max_degree=1), v=multivectors(2, 2, max_degree=1))
@settings(max_examples=20)
def test_graded_antisymmetry(bracket, u, v):
    for alg in ALGEBRAS_2D:
        for p in range(3):
            for q in range(3):
                up, vq = homogeneous_part(u, p), homogeneous_part(v, q)
                lhs = bracket(alg, up, vq)
                rhs = bracket(alg, vq, up)
                sign = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
                assert lhs == (rhs.scale(PolyElement.const(2, sign))), alg.name


@BRACKETS
@given(u=multivectors(2, 2, max_degree=1, max_terms=1),
       v=multivectors(2, 2, max_degree=1, max_terms=1),
       w=multivectors(2, 2, max_degree=1, max_terms=1))
@settings(max_examples=15)
def test_biderivation_rule(bracket, u, v, w):
    for p in range(3):
        up = homogeneous_part(u, p)
        for q in range(3):
            vq = homogeneous_part(v, q)
            lhs = bracket(COORD, up, vq.wedge(w))
            rhs = bracket(COORD, up, vq).wedge(w)
            tail = vq.wedge(bracket(COORD, up, w))
            if ((p - 1) * q) % 2:
                tail = -tail
            assert lhs == rhs + tail


@BRACKETS
@given(u=multivectors(2, 2, max_degree=1, max_terms=1),
       v=multivectors(2, 2, max_degree=1, max_terms=1),
       w=multivectors(2, 2, max_degree=1, max_terms=1))
@settings(max_examples=15)
def test_graded_jacobi(bracket, u, v, w):
    for alg in ALGEBRAS_2D:
        for p in range(3):
            for q in range(3):
                up, vq = homogeneous_part(u, p), homogeneous_part(v, q)
                lhs = bracket(alg, up, bracket(alg, vq, w))
                first = bracket(alg, bracket(alg, up, vq), w)
                second = bracket(alg, vq, bracket(alg, up, w))
                if ((p - 1) * (q - 1)) % 2:
                    second = -second
                assert lhs == first + second, alg.name


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
    assert generator_square(COORD, GeneratorD(COORD, R_ZERO_COORD)) == (True, None)
    assert generator_square(NONAB, GeneratorD(NONAB, R_FLAT_NONAB)) == (True, None)


def squares(op, n, m):
    """D^2(e_S) for every subset S, in subset order."""
    return [op(op(Multivector.basis(n, key, m=m))) for key in subsets(n)]


def test_generator_square_nonflat_case():
    bad = RightConnectionOnA((PolyElement.one(0), PolyElement.zero(0)))
    gen = GeneratorD(NONAB, bad)
    exact, witness = generator_square(NONAB, gen)
    assert not exact
    assert witness
    assert any(not mv.is_zero() for mv in squares(gen, 2, 0))


def test_ground_field_square_is_decided_by_the_basis_pass(catalog):
    # at every m the square of a generator is A-linear, so one pass over e_S decides
    seen = set()
    for name, loaded in catalog.items():
        alg = loaded.algebra
        gen = GeneratorD(alg, loaded.right_connection())
        exact, witness = generator_square(alg, gen)
        # the basis pass stops at the first nonzero D^2(e_S), in subset order
        first = next(((key, sq) for key, sq in zip(subsets(alg.n), squares(gen, alg.n, alg.m))
                      if not sq.is_zero()), None)
        assert witness == (first and f"D^2({basis_label(first[0])}) = {first[1]}")
        seen.add((name, exact))
    assert ("nonabelian-dim2-nonflat", False) in seen and ("sl2", True) in seen
    assert ("coordinate-3d", True) in seen


def test_a_non_generator_squares_to_zero_on_the_basis_and_fails_the_identity(catalog,
                                                                             monkeypatch):
    # op(a e_S) = (da/dx1) e_{S minus its first index}: op^2 is d^2/dx1^2, which
    # vanishes on every unit coefficient, so the basis pass passes op although
    # op^2 is not zero; op is not a generator, and generator.identity fails it
    def op(u):
        out = Multivector.zero(u.n)
        for key, a in u.terms():
            if key:
                out = out + Multivector(u.n, [(key[1:], a.diff(0))])
        return out

    assert all(mv.is_zero() for mv in squares(op, 2, 2))
    assert generator_square(COORD, op) == (True, None)
    witness = "u=(x1)*e{} v=(1)*e{1} defect=(-2)"
    assert is_generator(COORD, op, trials=8, seed=0) == (False, witness)
    monkeypatch.setattr(GeneratorD, "__call__", lambda self, u: op(u))
    report = run_suite(catalog["coordinate-2d"], suites=("generator",))
    identity = next(o for o in report.outcomes if o.name == "identity")
    assert (identity.status, identity.witness) == ("fail", witness)
    assert suites.render_machine(report).splitlines()[-1] == "overall=fail"


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
    with pytest.raises(ValueError, match="rank mismatch"):
        GeneratorD(COORD, RightConnectionOnA((X,)))
    for r in ((1,), (1, 1, 1)):  # a short and a long r at m = 0
        with pytest.raises(ValueError, match="rank mismatch"):
            bv.certify_every_connection(NONAB, RightConnectionOnA(
                tuple(PolyElement.const(0, c) for c in r)))
    with pytest.raises(ValueError):
        apply_generator(COORD, R_ZERO_COORD, Multivector.basis(3, (0,), m=2))


# -- the m = 0 basis tables ------------------------------------------------

def closed_form_bracket(alg, u, v):
    """The sum of a b [e_S, e_T] over the terms a e_S of u and b e_T of v, by `basis_bracket`."""
    lie = lie_brackets(alg)
    out = {}
    for s, a in u.components.items():
        for t, b in v.components.items():
            add_multiple(out, basis_bracket(lie, s, t), value(a) * value(b))
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
        nonflat_seen |= not generator_square(alg, gen)[0]
        for _ in range(6):
            u = random_multivector(rng, alg)
            v = random_multivector(rng, alg)
            assert gen(u) == apply_generator(alg, conn, u)
            want = recursive_bracket(alg, u, v)
            assert gerstenhaber_bracket(alg, u, v) == want
            assert closed_form_bracket(alg, u, v) == want
        assert gen.table
    assert nonflat_seen


def forbid_the_closed_form(monkeypatch):
    """Make every call of `bv.lie_brackets` or `bv.basis_bracket` fail the test."""
    def forbidden(*args):
        raise AssertionError("reached the closed-form bracket")

    for attr in ("lie_brackets", "basis_bracket"):
        monkeypatch.setattr(bv, attr, forbidden)


def test_polynomial_case_fills_the_d_table_of_its_terms_only(monkeypatch):
    alg = LieRinehartAlgebra.coordinate(2)
    gen = GeneratorD(alg, RightConnectionOnA((X, Y)))
    u = Multivector(2, [((0,), X), ((0, 1), Y)])
    # neither D nor the recursive bracket reaches the closed form
    forbid_the_closed_form(monkeypatch)
    assert gen(u) == apply_generator(alg, gen.connection, u)
    want = recursive_bracket(alg, u, u)
    monkeypatch.undo()
    assert gerstenhaber_bracket(alg, u, u) == want
    assert sorted(gen.table) == [0b01, 0b11]


def test_is_generator_fails_on_sign_flipped_generator_entry(sl2):
    conn = RightConnectionOnA(tuple(PolyElement.zero(0) for _ in range(3)))
    gen = GeneratorD(sl2, conn)
    assert is_generator(sl2, gen, trials=1, seed=0) == (True, None)
    gen.table[0b11] = negated(gen.table[0b11])  # D(e1 ^ e2) = -h, not 0
    ok, witness = is_generator(sl2, gen, trials=1, seed=0)
    assert not ok
    assert witness


BASIS_BRACKET = bv.basis_bracket


def edited_basis_bracket(key, edit):
    """`basis_bracket` with `edit` applied to its value at the (S, T) bitmask pair `key`."""
    def edited(lie, s, t):
        out = BASIS_BRACKET(lie, s, t)
        return edit(out) if (s, t) == key else out
    return edited


def test_is_generator_fails_on_sign_flipped_bracket_entry(monkeypatch):
    alg = LieRinehartAlgebra.from_structure_constants(
        3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})
    gen = GeneratorD(alg, RightConnectionOnA(tuple(PolyElement.zero(0) for _ in range(3))))
    assert is_generator(alg, gen, trials=1, seed=0) == (True, None)
    key = (to_mask((0,)), to_mask((1,)))
    monkeypatch.setattr(bv, "basis_bracket", edited_basis_bracket(key, negated))
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
                add_wedge(right, u, e, c)
                add_wedge(left, e, u, c)
                scale = PolyElement.const(0, c)
                assert to_multivector(n, right) == \
                    start + to_multivector(n, u).wedge(basis).scale(scale)
                assert to_multivector(n, left) == \
                    start + basis.wedge(to_multivector(n, u)).scale(scale)
                assert all(right.values()) and all(left.values())


def ground_algebra(catalog, name):
    return fresh_copy(RANK5 if name == "rank5" else catalog[name].algebra)


@pytest.mark.parametrize("name", ["sl2", "heisenberg-dim3", "nonabelian-dim2", "rank5"])
def test_basis_bracket_equals_direct_recursion(catalog, monkeypatch, name):
    alg = ground_algebra(catalog, name)
    assert_closed_form_equals_term_bracket(alg, monkeypatch)


def assert_closed_form_equals_term_bracket(alg, monkeypatch):
    """`basis_bracket` equals `_term_bracket` at coefficient 1 on all 4^n pairs (S, T),
    and the recursion reaches neither `lie_brackets` nor `basis_bracket`."""
    one = PolyElement.one(alg.m)
    lie = lie_brackets(alg)
    pairs = [(s, t) for s in range(1 << alg.n) for t in range(1 << alg.n)]
    closed = [basis_bracket(lie, s, t) for s, t in pairs]
    forbid_the_closed_form(monkeypatch)
    for (s, t), entry in zip(pairs, closed):
        want = _term_bracket(alg, one, to_key(s), one, to_key(t))
        assert entry == from_multivector(want), (s, t)
    monkeypatch.undo()
    assert len(closed) == 4 ** alg.n


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
def test_basis_bracket_equals_term_bracket_on_generated_families(family, n, monkeypatch):
    # the closed form (the m = 0 kernel) against the generic path
    for seed in (0, 1):
        alg = family_algebra(family, n, seed)
        assert not alg.verify_axioms()
        assert_closed_form_equals_term_bracket(alg, monkeypatch)


def fraction_connection(alg, label):
    """A seeded m = 0 right connection: r_1 a half-integer, the others p/q with q <= 4."""
    rng = random.Random(label)
    values = [Fraction(2 * rng.randint(-4, 4) + 1, 2)]
    values += [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(alg.n - 1)]
    return RightConnectionOnA(tuple(PolyElement.const(0, c) for c in values))


@pytest.mark.parametrize("family, n", [
    *((family, n) for family in ("abelian", "book", "filiform") for n in range(1, 6)),
    ("heisenberg", 3), ("heisenberg", 5)])
def test_generator_table_equals_apply_generator_on_generated_families(family, n, monkeypatch):
    # the mask D table (the m = 0 kernel) against the generic path
    for seed in (0, 1):
        alg = family_algebra(family, n, seed)
        assert not alg.verify_axioms()
        conn = fraction_connection(alg, f"r-{family}-{n}:{seed}")
        assert any(isinstance(value(r), Fraction) for r in conn.r)
        gen = GeneratorD(alg, conn)
        # the D table cannot call apply_generator: the package does not ship it
        assert not hasattr(bv, "apply_generator")
        # the D table never reaches the closed-form bracket
        forbid_the_closed_form(monkeypatch)
        for s in range(1 << n):
            gen(Multivector.basis(n, to_key(s), m=0))
        monkeypatch.undo()
        assert sorted(gen.table) == list(range(1 << n))
        for s, entry in gen.table.items():
            assert to_multivector(n, entry) == \
                apply_generator(alg, conn, Multivector.basis(n, to_key(s), m=0)), (s, entry)


@pytest.mark.parametrize("name", ["sl2", "heisenberg-dim3", "rank5"])
def test_right_from_generator_fills_exactly_n_entries(catalog, name):
    alg = ground_algebra(catalog, name)
    gen = GeneratorD(alg, fraction_connection(alg, f"right-{name}"))
    assert right_from_generator(alg, gen) == gen.connection
    assert sorted(gen.table) == [1 << i for i in range(alg.n)]


def count_fill_calls(alg, monkeypatch):
    """Record the |S| of every call of the tests' `_term_bracket` and the basis index
    pair (i, j) of every `alg.bracket(e_i, e_j)` call; an `alg.bracket` call off the
    basis raises."""
    seen, pairs = [], []
    basis = [alg.basis_l(i) for i in range(alg.n)]
    lie_bracket = alg.bracket

    def counting(alg, a, s_key, b, t_key):
        seen.append(len(s_key))
        return _term_bracket(alg, a, s_key, b, t_key)

    def bracketing(alpha, beta):
        pairs.append((basis.index(alpha), basis.index(beta)))
        return lie_bracket(alpha, beta)

    monkeypatch.setattr(reference, "_term_bracket", counting)
    monkeypatch.setattr(alg, "bracket", bracketing)
    return seen, pairs


def basis_pairs(n):
    return [(i, j) for i in range(n) for j in range(n)]


@pytest.mark.parametrize("name", ["sl2", "rank5"])
def test_is_generator_runs_n_squared_lie_brackets_and_no_term_bracket(catalog, monkeypatch,
                                                                       name):
    alg = ground_algebra(catalog, name)
    gen = GeneratorD(alg, fraction_connection(alg, f"lie-brackets-{name}"))
    # the package does not ship the recursion, so the check cannot call it
    assert not hasattr(bv, "_term_bracket")
    seen, pairs = count_fill_calls(alg, monkeypatch)
    assert is_generator(alg, gen) == (True, None)
    assert seen == []
    # each [e_i, e_j] once per pass, whatever the number of pairs (S, T) it visits
    assert sorted(pairs) == basis_pairs(alg.n)


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

    def recording(lie, s, t):
        reads.append((s, t))
        return BASIS_BRACKET(lie, s, t)

    monkeypatch.setattr(bv, "basis_bracket", recording)
    ok, witness = is_generator(sl2, op, trials=2, seed=0)
    # e_{} pairs cannot see D(e1 ^ e2); (e1, e2) is the first pair that does
    assert (ok, witness) == (
        False, "u=(1)*e{1} v=(1)*e{2} defect=(2/3)*e{1} + (-2/3)*e{2} + (2)*e{3}")
    assert calls == expected_generator_calls(sl2)
    pairs = [(to_mask(s), to_mask(t)) for s in subsets(3) for t in subsets(3)]
    assert reads == pairs[:len(reads)]
    assert reads[-1] == (to_mask((0,)), to_mask((1,))) and len(reads) < len(pairs)


def test_is_generator_witness_after_a_scaled_bracket_entry(monkeypatch):
    alg = LieRinehartAlgebra.from_structure_constants(
        3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})
    gen = GeneratorD(alg, RightConnectionOnA(tuple(PolyElement.zero(0) for _ in range(3))))
    assert is_generator(alg, gen, trials=1, seed=0) == (True, None)
    key = (to_mask((0,)), to_mask((1, 2)))
    monkeypatch.setattr(bv, "basis_bracket", edited_basis_bracket(
        key, lambda entry: {mask: c * Fraction(1, 2) for mask, c in entry.items()}))
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


def plus_second_derivative(op):
    """op plus d^2a/dx1^2 e_(S - min S) on each term a e_S with S not empty: a term of
    second order in a, so it vanishes on every unit and every x_k."""
    def mutant(u):
        return op(u) + Multivector(u.n, [(key[1:], a.diff(0).diff(0))
                                         for key, a in u.terms() if key])
    return mutant


def test_m_positive_witness_keeps_its_term_order(catalog):
    # the explicit generator plus a term of second order in the coefficient, at
    # m = 2: the unit rows and the x_k pass it, and the first random shape probe
    # that sees it is the witness; the witness prints the defect map in the order
    # the mask loop sums it and the polynomial kernel makes its terms, so this
    # pins that order on a two-term defect
    loaded = catalog["poisson-linear-2d"]
    alg = loaded.algebra
    conn = loaded.right_connection()
    assert is_generator(alg, GeneratorD(alg, conn), trials=1, seed=3) == (True, None)
    op = plus_second_derivative(lambda u: apply_generator(alg, conn, u))
    assert is_generator(alg, op, trials=1, seed=3) == (
        False, "u=(7*x1^2*x2 - 7*x1^2 + 3)*e{} v=(1)*e{1} defect=(-14*x2 + 14)")


def test_ground_generator_identity_has_no_seed_or_trial_count(catalog):
    seen = set()
    for name, loaded in catalog.items():
        alg = loaded.algebra
        if alg.m:
            continue
        gen = GeneratorD(alg, loaded.right_connection())

        def off(u, gen=gen):  # not a generator: a degree-0 term on every e_S
            return gen(u) + Multivector.scalar(alg.n, u.component(tuple(range(alg.n)), 0))

        for op in (gen, off):
            results = {is_generator(alg, op, trials=trials, seed=seed)
                       for trials, seed in ((1, 0), (8, 0), (8, 5))}
            assert len(results) == 1, (name, results)
            seen.add((name, op is gen, next(iter(results))[0]))
    assert ("sl2", True, True) in seen and ("sl2", False, False) in seen


@pytest.mark.parametrize("name", ["sl2", "heisenberg-dim3"])
def test_every_sign_flip_of_a_table_entry_fails_on_its_own(catalog, monkeypatch, name):
    # each nonzero D(e_S) of the table, and each nonzero [e_S, e_T] of `basis_bracket`
    alg = ground_algebra(catalog, name)
    gen = GeneratorD(alg, catalog[name].right_connection())
    assert is_generator(alg, gen) == (True, None)
    assert len(gen.table) == 2 ** alg.n
    flipped = 0
    for key, entry in list(gen.table.items()):
        if is_zero_entry(entry):
            continue
        gen.table[key] = negated(entry)
        ok, witness = is_generator(alg, gen)
        gen.table[key] = entry
        assert not ok and witness, (key, entry)
        flipped += 1
    assert flipped
    lie = lie_brackets(alg)
    pairs = [(s, t) for s in range(1 << alg.n) for t in range(1 << alg.n)]
    flipped = 0
    for key in pairs:
        if not BASIS_BRACKET(lie, *key):
            continue
        monkeypatch.setattr(bv, "basis_bracket", edited_basis_bracket(key, negated))
        ok, witness = is_generator(alg, gen)
        monkeypatch.undo()
        assert not ok and witness, key
        flipped += 1
    assert flipped
    assert is_generator(alg, gen) == (True, None)


def first_failing_pair(alg, op):
    """The first basis pair (e_S, e_T), in subset order, with a nonzero defect
    [u, v] - (-1)^|u| (D(u ^ v) - D(u) ^ v - (-1)^|u| u ^ D(v)), written out on
    `Multivector`s with `recursive_bracket` and `op`; None if every pair holds."""
    for s_key in subsets(alg.n):
        u = Multivector.basis(alg.n, s_key, m=0)
        for t_key in subsets(alg.n):
            v = Multivector.basis(alg.n, t_key, m=0)
            inner = op(u.wedge(v)) - op(u).wedge(v)
            inner = inner - u.wedge(op(v)) if len(s_key) % 2 == 0 else inner + u.wedge(op(v))
            rhs = inner if len(s_key) % 2 == 0 else -inner
            defect = recursive_bracket(alg, u, v) - rhs
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


def log_canonical_algebra(m):
    """The cotangent algebra of {x_i, x_j} = (j - i) x_i x_j, as `build_poisson_cotangent`
    builds it: every structure function is linear with no constant term."""
    x = [PolyElement.variable(m, i) for i in range(m)]
    pi = [[PolyElement.const(m, j - i) * x[i] * x[j] if i != j else PolyElement.zero(m)
           for j in range(m)] for i in range(m)]
    return build_poisson_cotangent(pi, name=f"log-canonical-{m}")


def generator_mutants(alg, conn):
    """(label, operator) pairs: entries of D(e_S) negated at |S| >= 2, a degree-0 term
    added at e_(1, 2), an operator that is not Q-linear, and D for r shifted by e_1, which
    is a generator too."""
    gen = GeneratorD(alg, conn)
    out = []
    for s in ground_subsets(alg.n):
        entry = gen.ground(s)
        if s.bit_count() >= 2 and entry:
            negated_gen = GeneratorD(alg, conn)
            negated_gen.table[s] = negated(entry)
            out.append((f"negated D({basis_label(to_key(s))})", negated_gen))

    def degree_zero_term(u):
        return gen(u) + Multivector.scalar(alg.n, u.component((0, 1), alg.m))

    def not_linear(u):
        first = next(iter(u.components.values()), PolyElement.zero(alg.m))
        return gen(u).scale(first)

    shifted = RightConnectionOnA((conn.r[0] + 1,) + conn.r[1:])
    return out + [("degree-0 term", degree_zero_term), ("not Q-linear", not_linear),
                  ("r + e_1", GeneratorD(alg, shifted))]


@pytest.mark.parametrize("name", ["book-5", "heisenberg-5", "coordinate-4", "log-canonical-4"])
def test_rows_pass_gives_the_verdict_and_witness_of_the_full_pass(name):
    # above the bound `is_generator` visits only the pairs with |S| <= 1; the
    # reference visits all 4^n, with the same draws, at m = 0 and at m > 0
    if name.startswith(("book", "heisenberg")):
        alg = family_algebra(name.split("-")[0], 5, 0)
        conn = fraction_connection(alg, f"rows-{name}")
    else:
        alg = LieRinehartAlgebra.coordinate(4) if name == "coordinate-4" \
            else log_canonical_algebra(4)
        conn = RightConnectionOnA(random_poly_vector(check_rng(3, f"rows-{name}"), 4, 4, 2))
    assert alg.n > bv.FULL_PASS_MAX_RANK and not alg.verify_axioms()
    assert is_generator(alg, GeneratorD(alg, conn), trials=2) == (True, None)
    verdicts = []
    for label, op in generator_mutants(alg, conn):
        rows = is_generator(alg, op, trials=2, seed=5)
        assert rows == reference.is_generator_on_every_pair(alg, op, trials=2, seed=5), label
        verdicts.append((label, rows[0]))
    assert [label for label, ok in verdicts if ok] == ["r + e_1"]
    assert len(verdicts) > 10


def count_mask_brackets(monkeypatch):
    pairs = []
    mask_bracket = bv.mask_bracket

    def counting(lie, u, v, ab):
        pairs.append((u[0], v[0]))
        return mask_bracket(lie, u, v, ab)

    monkeypatch.setattr(bv, "mask_bracket", counting)
    return pairs


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rows_pass_visits_the_rows_above_the_bound_and_every_pair_up_to_it(n, monkeypatch):
    alg = family_algebra("heisenberg" if n % 2 else "book", n, 0)
    conn = fraction_connection(alg, f"row-count-{n}")
    pairs = count_mask_brackets(monkeypatch)
    assert is_generator(alg, GeneratorD(alg, conn)) == (True, None)
    masks = ground_subsets(n)
    rows = masks if n <= bv.FULL_PASS_MAX_RANK else masks[:n + 1]
    assert rows[:n + 1] == (0,) + tuple(1 << i for i in range(n))
    assert pairs == [(s, t) for s in rows for t in masks]


def load_entry(name):
    """A catalog entry, or else a `perfbench/inputs.py` file at seed 0."""
    return load_catalog(name) if name in CATALOG_NAMES else load_generated(name)


def interleaved_algebras(pair):
    """Two algebras of equal rank, each with a fresh D_0 cache, and three r for each:
    the file's r and two seeded fractional ones."""
    out = []
    for name in pair:
        loaded = load_entry(name)
        alg = fresh_copy(loaded.algebra)
        out.append((alg, [loaded.right_connection()] + [
            fraction_connection(alg, f"d0-{name}-{k}") for k in (0, 1)]))
    return out


@pytest.mark.parametrize("pair", [("sl2", "heisenberg-dim3"), ("book-5", "heisenberg-5")])
def test_bracket_part_is_kept_per_algebra(pair):
    algebras = interleaved_algebras(pair)
    assert algebras[0][0].n == algebras[1][0].n
    for k in range(3):
        for alg, conns in algebras:  # one algebra, then the other, at every r
            gen = GeneratorD(alg, conns[k])
            for s in ground_subsets(alg.n):
                assert to_multivector(alg.n, gen.ground(s)) == apply_generator(
                    alg, conns[k], Multivector.basis(alg.n, to_key(s), m=0)), (alg.name, k, s)
    for alg, _ in algebras:
        assert sorted(alg.bracket_parts) == list(range(1 << alg.n))
        assert "bracket_parts" not in repr(alg)
    assert algebras[0][0].bracket_parts != algebras[1][0].bracket_parts


def test_an_edited_table_reaches_no_other_generator_of_the_algebra():
    alg = family_algebra("heisenberg", 5, 0)
    conn = fraction_connection(alg, "edited-table")
    gen = GeneratorD(alg, conn)
    for s in ground_subsets(alg.n):
        gen.ground(s)
    edited = [s for s, entry in gen.table.items() if s.bit_count() >= 2 and entry]
    for s in edited:
        gen.table[s] = negated(gen.table[s])
    gen.table[0b111][0b1] = 7  # and one entry changed in place
    assert not is_generator(alg, gen)[0]
    other = GeneratorD(alg, conn)
    for s in ground_subsets(alg.n):
        assert to_multivector(alg.n, other.ground(s)) == \
            apply_generator(alg, conn, Multivector.basis(alg.n, to_key(s), m=0)), s
    assert is_generator(alg, other) == (True, None)


@pytest.mark.parametrize("family", ["book", "heisenberg"])
def test_certificate_mutants_fail_once_the_bracket_part_is_built(family, monkeypatch):
    # the mutants edit the map `ground_generator` returns; with D_0 already kept
    # on the algebra they must still fail, and must leave D_0 as it was
    alg = family_algebra(family, 5, 0)
    conn = fraction_connection(alg, f"built-{family}")
    assert bv.certify_every_connection(alg, conn) == (True, None)
    assert len(alg.bracket_parts) == 1 << alg.n
    mutants = [r_term_mutant(2, -1), r_term_mutant(1, 0), r_term_on_s_mutant,
               mixed_direction_mutant, r_term_at_mutant(1, (0, 2), False),
               r_term_at_mutant(3, (0, 2, 4), True), r_term_at_mutant(4, (2,), False)]
    for mutant in mutants:
        monkeypatch.setattr(bv, "ground_generator", mutant)
        ok, witness = bv.certify_every_connection(alg, conn)
        assert not ok and CERTIFICATE_WITNESS.match(witness), witness
    monkeypatch.undo()
    assert bv.certify_every_connection(alg, conn) == (True, None)
    gen = GeneratorD(alg, conn)
    for s in ground_subsets(alg.n):
        assert to_multivector(alg.n, gen.ground(s)) == \
            apply_generator(alg, conn, Multivector.basis(alg.n, to_key(s), m=0)), s


# -- the certificate for every right connection ------------------------


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


def squared_mutant(alg, conn, s):
    """`ground_generator` with each value squared."""
    return {mask: c * c for mask, c in GROUND_GENERATOR(alg, conn, s).items()}


def empty_set_mutant(alg, conn, s):
    """`ground_generator` with D(e_()) = r_1, which stores a zero value whenever r_1 = 0."""
    return GROUND_GENERATOR(alg, conn, s) if s else {0: value(conn.r[0])}


def generator_outcomes(alg, trials=4, seed=0):
    report = run_suite(LoadedAlgebra(algebra=alg), suites=("generator",), trials=trials,
                       seed=seed)
    return {o.name: o for o in report.outcomes}


# the catalog entries with m > 0, where the certificate adds the x_k e_i rows
POLYNOMIAL_ENTRIES = ["coordinate-2d", "coordinate-3d", "poisson-linear-2d",
                      "poisson-symplectic-2d"]


def other_connection(alg, label):
    """A seeded right connection: `fraction_connection` at m = 0, random polynomials
    of degree at most 2 at m > 0."""
    if not alg.m:
        return fraction_connection(alg, label)
    return RightConnectionOnA(random_poly_vector(check_rng(0, label), alg.m, alg.n, 2))


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
        (squared_mutant,
         "i=1 R=e{1}: D[r+2e_1](e{1}) - D[r](e{1})=(4) but the "
         "contraction with (2, 0, 0, 0, 0, 0) gives (2), so D is not affine in r"),
        (empty_set_mutant,
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


def test_certificate_passes_at_m_above_zero_and_refuses_a_wrong_rank(catalog):
    # the x_k e_i rows carry the argument to A-valued r, so every m > 0 entry
    # passes at the file's r, at r = 0 and at a polynomial r
    assert sorted(polynomial_names(catalog)) == POLYNOMIAL_ENTRIES
    for name in POLYNOMIAL_ENTRIES:
        loaded = catalog[name]
        alg = loaded.algebra
        zero = RightConnectionOnA(tuple(PolyElement.zero(alg.m) for _ in range(alg.n)))
        for conn in (loaded.right_connection(), zero, other_connection(alg, f"m-{name}")):
            assert bv.certify_every_connection(alg, conn) == (True, None), name
        short = RightConnectionOnA(zero.r[1:])
        with pytest.raises(ValueError, match="rank mismatch"):
            bv.certify_every_connection(alg, short)


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


@pytest.mark.parametrize("name", POLYNOMIAL_ENTRIES)
def test_certificate_fails_a_table_that_is_not_a_linear_in_r(name, monkeypatch):
    # D_r + iota_(dr/dx1) is Q-linear in r but not A-linear, and still a generator at
    # every r: D_r - D_0 = iota_(r + dr/dx1) is a contraction, so the identity holds at
    # the file's r and at any r drawn at random.  The line fails it at its x1*e_1 row
    # all the same, by design: a table off the A-affine shape the certificate's
    # argument covers is a broken shape, as the m = 0 certificate fails `squared_mutant`.
    # The bijections and the trace identity read r back off D(e_i), which the
    # derivative moves.
    loaded = load_catalog(name)
    alg = loaded.algebra
    monkeypatch.setattr(bv, "ground_generator", derivative_mutant)
    assert is_generator(alg, GeneratorD(alg, other_connection(alg, f"a-linear-{name}")),
                        trials=2) == (True, None)
    outcomes = generator_outcomes(alg)
    assert {line for line, o in outcomes.items() if o.status == "fail"} == \
        {"random-connections"}
    theta = ", ".join(["x1"] + ["0"] * (alg.n - 1))
    assert outcomes["random-connections"].witness == (
        f"i=1 R=e{{1}}: D[r+x1*e_1](e{{1}}) - D[r](e{{1}})=(x1 + 1) but the contraction "
        f"with ({theta}) gives (x1), so D is not A-linear in r")
    report = run_suite(loaded)
    assert {f"{o.suite}.{o.name}" for o in report.outcomes if o.status == "fail"} == {
        "generator.random-connections", "bijections.right-roundtrips", "bijections.top-cycles",
        "linear-connection.trace-identity"}


@pytest.mark.parametrize("family, n", [
    *((family, n) for family in ("abelian", "book", "filiform") for n in range(1, 6)),
    ("heisenberg", 3), ("heisenberg", 5),
    *(pytest.param(name, None, id=name) for name in POLYNOMIAL_ENTRIES)])
def test_certificate_passes_without_any_bracket(family, n, monkeypatch):
    # (n (m + 2) + 2) 2^n operator calls, (2n + 2) 2^n at m = 0, each D(e_R) built
    # once per operator; a catalog entry (n None) is read at its own n and m
    alg = family_algebra(family, n, 0) if n else load_catalog(family).algebra
    n, m = alg.n, alg.m
    forbid_the_closed_form(monkeypatch)
    conn = other_connection(alg, f"certificate-{family}-{n}")
    calls = []
    original = bv.ground_generator

    def counting(alg, conn, s):
        calls.append(s)
        return original(alg, conn, s)

    monkeypatch.setattr(bv, "ground_generator", counting)
    assert bv.certify_every_connection(alg, conn) == (True, None)
    assert len(calls) == (n * (m + 2) + 2) * 2 ** n


# a fixed integer matrix A for the 1-form theta = A r of `contraction_mutant`
CONTRACTION_MATRIX = [[(3 * l + 2 * j) % 5 - 2 for j in range(6)] for l in range(6)]


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


def derivative_mutant(alg, conn, s):
    """`ground_generator` plus d(r_a)/dx1 beside each r term (-1)^i r_a e_(S - a): Q-linear
    in r but not A-linear, and still a generator at every r, since the added terms are
    the contraction with dr/dx1."""
    out = GROUND_GENERATOR(alg, conn, s)
    for i, a in enumerate(to_key(s)):
        add_multiple(out, {s ^ (1 << a): conn.r[a].diff(0)}, sign=-1 if i % 2 else 1)
    return out


def certificate_mutants(alg):
    """(label, `ground_generator` mutant) for every mutant the certificate tests above use
    that changes a table of rank alg.n, and the unmutated map; at m > 0 also
    `derivative_mutant`."""
    n = alg.n
    return [
        ("unmutated", GROUND_GENERATOR),
        *([("flip-third", r_term_mutant(2, -1))] if n > 2 else []),
        ("drop-second", r_term_mutant(1, 0)),
        ("r-term-on-e_S", r_term_on_s_mutant),
        ("mixed-direction", mixed_direction_mutant),
        ("contraction", contraction_mutant),
        *((f"r_{j}-at-{key}", r_term_at_mutant(j, key, drop_lowest))
          for j, key, drop_lowest in ((1, (0, 2), False), (3, (0, 2, 4), True), (4, (2,), False))
          if max(j, *key) < n),
        ("squared", squared_mutant),
        ("r_1-at-e_()", empty_set_mutant),
        *([("derivative", derivative_mutant)] if alg.m else []),
    ]


@pytest.mark.parametrize("name", ["abelian-6", "book-5", "heisenberg-5", *POLYNOMIAL_ENTRIES])
def test_certificate_equals_the_operator_certificate_on_every_mutant(name, monkeypatch):
    # the package reads D_r(e_R) from `ground_generator`; the reference calls a
    # `GeneratorD` on each e_R, and both must give the same verdict and witness
    loaded = load_entry(name)
    alg = loaded.algebra
    verdicts = {}
    for conn in (loaded.right_connection(), other_connection(alg, f"oracle-{name}")):
        for label, mutant in certificate_mutants(alg):
            monkeypatch.setattr(bv, "ground_generator", mutant)
            result = bv.certify_every_connection(alg, conn)
            assert result == reference.certify_every_connection_by_operators(alg, conn), label
            verdicts.setdefault(label, set()).add(result[0])
    assert verdicts.pop("unmutated") == verdicts.pop("contraction") == {True}
    assert set().union(*verdicts.values()) == {False}


def test_certificate_never_calls_a_generator(monkeypatch):
    def forbidden(self, u):
        raise AssertionError("called a GeneratorD")

    monkeypatch.setattr(bv.GeneratorD, "__call__", forbidden)
    for name in ("abelian-6", "book-5", "heisenberg-5", *POLYNOMIAL_ENTRIES):
        loaded = load_entry(name)
        alg = loaded.algebra
        with pytest.raises(AssertionError, match="called a GeneratorD"):
            GeneratorD(alg, loaded.right_connection())(Multivector.basis(alg.n, (0,), m=alg.m))
        for conn in (loaded.right_connection(), other_connection(alg, f"no-call-{name}")):
            assert bv.certify_every_connection(alg, conn) == (True, None), name


def test_ground_random_connections_has_no_seed_or_trial_count(catalog, monkeypatch):
    for mutant in (bv.ground_generator, r_term_mutant(2, -1)):
        monkeypatch.setattr(bv, "ground_generator", mutant)
        for name, loaded in catalog.items():
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


def test_polynomial_basis_bracket_is_the_term_bracket_at_coefficient_one(catalog, monkeypatch):
    for name in polynomial_names(catalog):
        alg = ground_algebra(catalog, name)
        assert not hasattr(bv, "_term_bracket")
        seen, pairs = count_fill_calls(alg, monkeypatch)
        lie = lie_brackets(alg)
        monkeypatch.undo()
        assert seen == [] and sorted(pairs) == basis_pairs(alg.n)
        assert all(isinstance(c, PolyElement) for s in range(1 << alg.n)
                   for t in range(1 << alg.n) for c in basis_bracket(lie, s, t).values())
        assert_closed_form_equals_term_bracket(alg, monkeypatch)


def cotangent_algebras():
    """Cotangent algebras of Poisson bivectors with non-constant structure functions."""
    x1, x2 = PolyElement.variable(2, 0), PolyElement.variable(2, 1)
    y1, y2, y3 = (PolyElement.variable(3, i) for i in range(3))
    out = []
    for m, pi12 in ((2, x1 * x2), (2, x1 * x1 * x2 + PolyElement.const(2, 3) * x2 * x2),
                    (3, y1 * y2 * y3)):
        zero = PolyElement.zero(m)
        pi = [[zero] * m for _ in range(m)]
        pi[0][1], pi[1][0] = pi12, -pi12
        alg = build_poisson_cotangent(pi, name=f"pi12={pi12}")
        assert not alg.verify_axioms()
        assert any(not c.is_constant() for _, c in alg.bracket_terms(0, 1))
        out.append(alg)
    return out


def closed_form_by_wedges(alg, s_key, t_key, parity):
    """sum_(i, j) (-1)^parity(i, j) [e_(s_i), e_(t_j)] ^ e_(S - s_i) ^ e_(T - t_j), on
    `Multivector` wedges, with the Lie brackets from `alg.bracket_terms`."""
    n, m = alg.n, alg.m
    out = Multivector.zero(n)
    for i, a in enumerate(s_key):
        rest_s = Multivector.basis(n, s_key[:i] + s_key[i + 1:], m=m)
        for j, b in enumerate(t_key):
            rest_t = Multivector.basis(n, t_key[:j] + t_key[j + 1:], m=m)
            lie = Multivector(n, [((l,), c) for l, c in alg.bracket_terms(a, b)])
            term = lie.wedge(rest_s).wedge(rest_t)
            out = out - term if parity(i, j) % 2 else out + term
    return out


def test_basis_bracket_is_the_term_bracket_on_non_constant_structure_functions(monkeypatch):
    # the catalog's m > 0 entries have only zero or constant c^l_ab
    for alg in cotangent_algebras():
        assert_closed_form_equals_term_bracket(alg, monkeypatch)
        one = PolyElement.one(alg.m)
        keys = subsets(alg.n)
        terms = {(s_key, t_key): _term_bracket(alg, one, s_key, one, t_key)
                 for s_key in keys for t_key in keys}
        assert all(closed_form_by_wedges(alg, s_key, t_key, lambda i, j: i + j) == want
                   for (s_key, t_key), want in terms.items()), alg.name
        # the test tells the sign conventions apart
        for parity in (lambda i, j: i + j + 1, lambda i, j: i, lambda i, j: j):
            assert any(closed_form_by_wedges(alg, s_key, t_key, parity) != want
                       for (s_key, t_key), want in terms.items()), alg.name


def test_mask_bracket_equals_gerstenhaber_bracket_on_single_terms(catalog):
    for name in polynomial_names(catalog):
        alg = catalog[name].algebra
        lie = lie_brackets(alg)
        rng = check_rng(15, f"mask-bracket-{name}")
        for s_key in subsets(alg.n):
            for t_key in subsets(alg.n):
                for _ in range(3):
                    a = random_poly(rng, alg.m, 3)
                    b = random_poly(rng, alg.m, 3)
                    got = bv.mask_bracket(lie, drawn(alg, s_key, a), drawn(alg, t_key, b), a * b)
                    want = recursive_bracket(alg, Multivector(alg.n, [(s_key, a)]),
                                             Multivector(alg.n, [(t_key, b)]))
                    assert got == want.components, (name, s_key, t_key, str(a), str(b))


def test_mask_bracket_takes_no_derivatives_as_zero_derivatives(catalog):
    # da = () or db = () skips that anchor term; it must equal n zero derivatives
    for name, loaded in catalog.items():
        alg = loaded.algebra
        lie = lie_brackets(alg)
        zeros = (value(PolyElement.zero(alg.m)),) * alg.n
        rng = check_rng(17, f"mask-bracket-no-derivatives-{name}")
        for s in range(1 << alg.n):
            for t in range(1 << alg.n):
                a, b = (random_poly(rng, alg.m, 3) for _ in range(2))
                da, db = (tuple(value(rho(c)) for rho in alg.anchor) for c in (a, b))
                a, b = value(a), value(b)
                for left, right in (((), db), (da, ()), ((), ())):
                    want = bv.mask_bracket(lie, (s, a, left or zeros), (t, b, right or zeros),
                                           a * b)
                    got = bv.mask_bracket(lie, (s, a, left), (t, b, right), a * b)
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
    def bracket(lie, u, v, ab):
        s, a, da = u
        t, b, db = v
        p, q = s.bit_count(), t.bit_count()
        out = {}
        add_multiple(out, bv.basis_bracket(lie, s, t), ab)
        if dropped != "[b, e_S]" and db:  # () for a constant b
            add_wedge(out, scalar_bracket_map(s, db), t, -a if p % 2 else a)
        if dropped != "[a, e_T]" and da:
            add_wedge(out, scalar_bracket_map(t, da), s,
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
    lie = lie_brackets(alg)
    flipped = 0
    for key in [(s, t) for s in range(1 << alg.n) for t in range(1 << alg.n)]:
        if not BASIS_BRACKET(lie, *key):
            continue
        monkeypatch.setattr(bv, "basis_bracket", edited_basis_bracket(key, negated))
        ok, witness = is_generator(alg, gen, trials=4)
        assert not ok and witness.startswith("u=("), key
        assert identity_outcome(loaded).status == "fail"
        monkeypatch.undo()
        flipped += 1
    assert flipped == 4


def test_m_positive_witness_prints_the_defect_of_an_edited_table_entry(catalog, monkeypatch):
    # the witness prints the map the check summed, so a wrong [e_S, e_T]
    # shows on its unit row: -2 [e1, e2] = -2 e1
    loaded = catalog["poisson-linear-2d"]
    alg = loaded.algebra
    assert basis_bracket(lie_brackets(alg), 0b01, 0b10) == {0b01: PolyElement.one(2)}
    monkeypatch.setattr(bv, "basis_bracket", edited_basis_bracket((0b01, 0b10), negated))
    assert is_generator(alg, GeneratorD(alg, loaded.right_connection()), trials=4, seed=0) == (
        False, "u=(1)*e{1} v=(1)*e{2} defect=(-2)*e{1}")


def expected_polynomial_calls(alg, trials, seed, degree_bound=3):
    """The operator arguments of `is_generator` at m > 0, built with `Multivector.basis`:
    e_R and 2 e_R for every R, then x_k e_T for every k and T, then a e_T for every
    nonzero draw a of each of the `trials` passes, T in subset order."""
    rng = check_rng(seed, "is_generator")
    keys = subsets(alg.n)
    out = []
    for key in keys:
        out += [Multivector.basis(alg.n, key, m=alg.m),
                Multivector.basis(alg.n, key, PolyElement.const(alg.m, 2))]
    for k in range(alg.m):
        out += [Multivector.basis(alg.n, key, PolyElement.variable(alg.m, k)) for key in keys]
    for _ in range(trials):
        draws = [(key, random_poly(rng, alg.m, degree_bound)) for key in keys]
        out += [Multivector.basis(alg.n, key, a) for key, a in draws if a]
    return out


def zero_draws(alg, trials, seed, degree_bound=3):
    rng = check_rng(seed, "is_generator")
    return sum(not random_poly(rng, alg.m, degree_bound) for _ in range(trials << alg.n))


def test_polynomial_pass_calls_the_operator_on_units_and_anchor_probes_only(catalog):
    # (2 + m + trials) 2^n calls less the zero draws, and none on a wedge u ^ v
    loaded = catalog["coordinate-2d"]
    alg = loaded.algebra
    op, calls = recorded(GeneratorD(alg, loaded.right_connection()))
    assert is_generator(alg, op, trials=3, seed=5) == (True, None)
    expected = expected_polynomial_calls(alg, trials=3, seed=5)
    assert zero_draws(alg, trials=3, seed=5) == 1
    assert len(calls) == (2 + alg.m + 3) * 2 ** alg.n - 1
    assert calls == expected
    assert [str(u) for u in calls] == [str(u) for u in expected]
    assert not any(u.is_zero() for u in calls)  # no e_S ^ e_T with S and T overlapping
    assert all(len(u.components) == 1 for u in calls)


@pytest.mark.parametrize("name", ["coordinate-2d", "coordinate-3d", "poisson-linear-2d",
                                  "poisson-symplectic-2d"])
def test_the_suite_calls_the_operator_at_most_trials_cap_probe_passes(catalog, monkeypatch,
                                                                      name):
    # --trials 20 caps the shape probes at TRIALS_CAP = 8 passes
    alg = catalog[name].algebra
    seen = []
    check = suites.is_generator

    def spy(alg, op, **kwargs):
        op, calls = recorded(op)
        seen.append(calls)
        return check(alg, op, **kwargs)

    monkeypatch.setattr(suites, "is_generator", spy)
    assert run_suite(catalog[name], suites=("generator",), trials=20).passed
    [calls] = seen
    cap = suites.TRIALS_CAP
    assert len(calls) == (2 + alg.m + cap) * 2 ** alg.n - zero_draws(alg, cap, seed=0)


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
    # the unit pairs cannot see the dropped term; the anchor rule at x1 on e{1} can
    assert is_generator(alg, op, trials=1, seed=67) == (
        False, "u=(x1)*e{} v=(1)*e{1} defect=(-1)")
    # e_R and 2 e_R for the 8 subsets R, then x1 e{} and x1 e{1}
    expected = expected_polynomial_calls(alg, trials=1, seed=67)
    assert calls == expected[:2 * 8 + 2]


# -- the anchor rule at m > 0 ----------------------------------------------------

M_POSITIVE = [name for name in CATALOG_NAMES if load_catalog(name).algebra.m]


def m_positive_entry(name):
    """(algebra, right connection) of an m > 0 catalog entry, or of log-canonical-m with a
    seeded r of degree at most 2."""
    if name in CATALOG_NAMES:
        loaded = load_catalog(name)
        return loaded.algebra, loaded.right_connection()
    m = int(name.rsplit("-", 1)[1])
    return log_canonical_algebra(m), RightConnectionOnA(
        random_poly_vector(check_rng(3, f"anchor-{name}"), m, m, 2))


def plus_x1_at_e12(alg, conn):
    """The generator with x1 e_1 added to its table entry D(e_(1, 2))."""
    gen = GeneratorD(alg, conn)
    entry = dict(gen.ground(0b11))
    add_multiple(entry, {0b01: value(PolyElement.variable(alg.m, 0))})
    gen.table[0b11] = entry
    return gen


UNIT_ROW = re.compile(r"u=\(1\)\*e\{\d\} v=\(1\)\*e\{[\d,]*\} defect=.+")
# a witness whose u or v coefficient is neither 1 nor some x_k: a random shape probe
SHAPE_PROBE = re.compile(r"u=\((?!1\)|x\d+\)).+\)\*e\{\} v=\(1\).*"
                         r"|u=\(1\)\*e\{[\d,]*\} v=\((?!1\)|x\d+\)).+\)\*e\{\} .*")


@pytest.mark.parametrize("name", ["coordinate-2d", "coordinate-3d", "poisson-linear-2d",
                                  "log-canonical-5"])
def test_an_edited_table_entry_fails_on_a_unit_row(name):
    alg, conn = m_positive_entry(name)
    assert is_generator(alg, GeneratorD(alg, conn), trials=2) == (True, None)
    ok, witness = is_generator(alg, plus_x1_at_e12(alg, conn), trials=2)
    assert not ok and UNIT_ROW.fullmatch(witness), witness


@pytest.mark.parametrize("name", ["coordinate-2d", "coordinate-3d", "poisson-linear-2d",
                                  "log-canonical-5"])
def test_a_second_order_term_passes_the_x_k_and_fails_a_shape_probe(name):
    # the x_k prove the anchor rule only for an operator of first order in a; shape
    # probes of degree at most 1 have no second derivative, so only the unit rows and
    # the x_k see this operator, and they pass it; at the suite's TRIALS_CAP passes
    # and the default degree bound a random probe fails it
    alg, conn = m_positive_entry(name)
    op = plus_second_derivative(GeneratorD(alg, conn))
    assert is_generator(alg, op, trials=suites.TRIALS_CAP, degree_bound=1) == (True, None)
    ok, witness = is_generator(alg, op, trials=suites.TRIALS_CAP)
    assert not ok and SHAPE_PROBE.fullmatch(witness), witness


@pytest.mark.parametrize("name", [*M_POSITIVE, "log-canonical-4"])
def test_the_anchor_rule_gives_the_verdicts_of_the_random_pair_loop(name):
    # reference.is_generator_on_random_pairs calls the operator on every u ^ v of
    # random coefficients and never reads the anchor rule
    alg, conn = m_positive_entry(name)
    ops = [("generator", GeneratorD(alg, conn)), *generator_mutants(alg, conn),
           ("x1 e_1 at e_(1, 2)", plus_x1_at_e12(alg, conn)),
           ("second order", plus_second_derivative(GeneratorD(alg, conn)))]
    verdicts = []
    for label, op in ops:
        ok = is_generator(alg, op, trials=2, seed=1)[0]
        assert ok == reference.is_generator_on_random_pairs(alg, op, trials=2, seed=1), label
        verdicts.append((label, ok))
    assert [label for label, ok in verdicts if ok] == ["generator", "r + e_1"]


@pytest.mark.parametrize("name", M_POSITIVE)
def test_the_identity_line_does_not_move_above_the_cap(catalog, monkeypatch, name):
    # generator.identity runs at most TRIALS_CAP = 8 shape passes, so its outcome is
    # the same at 8, 32 and 64 trials, passing and failing alike
    def outcome(trials):
        report = run_suite(catalog[name], suites=("generator",), trials=trials)
        return next(o for o in report.outcomes if o.name == "identity")

    assert outcome(8) == outcome(32) == outcome(64)
    assert outcome(8).status == "pass"
    call = GeneratorD.__call__
    monkeypatch.setattr(GeneratorD, "__call__",
                        lambda self, u: plus_second_derivative(lambda v: call(self, v))(u))
    assert outcome(8) == outcome(32) == outcome(64)
    assert outcome(8).status == "fail" and SHAPE_PROBE.fullmatch(outcome(8).witness)


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
            for attr in ("one_circ", "lie_brackets", "basis_bracket",
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
        for s, coeff in u.components.items():
            add_multiple(out, self.ground(s), value(coeff))
            if anchor_terms:
                for k, i in enumerate(to_key(s)):
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
        return op(u) + Multivector(u.n, [((0, 1) + key[1:], a) for key, a in u.terms()
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
    monkeypatch.setattr(sampling, "random_poly", no_draw)


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
@pytest.mark.parametrize("kwargs", [{"trials": 8}, {"seed": 0}, {"degree_bound": 3}],
                         ids=["trials", "seed", "degree_bound"])
def test_generator_square_takes_no_draw_arguments(catalog, monkeypatch, name, kwargs):
    # the basis pass decides D^2 = 0 at every m, so a draw argument is refused
    # before the operator is called or a coefficient is drawn
    alg = catalog[name].algebra
    gen = GeneratorD(alg, catalog[name].right_connection())
    calls = []
    _refuse_draws(monkeypatch)
    with pytest.raises(TypeError, match=next(iter(kwargs))):
        generator_square(alg, lambda u: calls.append(u) or gen(u), **kwargs)
    assert calls == []
    assert generator_square(alg, gen) == generator_square(alg, lambda u: gen(u))


# -- D^2 is A-linear ------------------------------------------------------------

def log_canonical_file(n):
    """log-canonical-n loaded from the text that the CI step writes: anchor[i][j] =
    (j - i) x_i x_j and c[i][j][k] = d(pi_ij)/dx_k."""
    lines = [f"name = log-canonical-{n}", f"m = {n}", f"n = {n}"]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                lines.append(f"anchor[{i}][{j}] = {j - i}*x{i}*x{j}")
            if i < j:
                lines += [f"c[{i}][{j}][{i}] = {j - i}*x{j}", f"c[{i}][{j}][{j}] = {j - i}*x{i}"]
    return loads("\n".join(lines) + "\n").algebra


@pytest.mark.parametrize("name", [*M_POSITIVE, "log-canonical-4"])
def test_the_square_of_a_generator_is_a_linear(name):
    # the fact that lets generator_square decide D^2 = 0 by its basis pass: for the
    # explicit generator of any r, flat or not, D^2(a e_S) = a D^2(e_S) at a = x_k
    # and at a random a
    alg = log_canonical_file(4) if name == "log-canonical-4" else load_catalog(name).algebra
    m, n = alg.m, alg.n
    rng = check_rng(0, f"square-{name}")
    nonzero = 0
    for _ in range(3):
        conn = RightConnectionOnA(random_poly_vector(rng, m, n, 2))

        def square(u):
            return apply_generator(alg, conn, apply_generator(alg, conn, u))

        for key in subsets(n):
            unit = square(Multivector.basis(n, key, m=m))
            nonzero += not unit.is_zero()
            for a in [*(PolyElement.variable(m, k) for k in range(m)), random_poly(rng, m, 2)]:
                assert square(Multivector(n, [(key, a)])) == unit.scale(a), (key, a)
    assert nonzero
