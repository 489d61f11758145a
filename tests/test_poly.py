from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcalc.poly import (
    MAX_EXPONENT,
    DerivationOfA,
    PolyElement,
    PolyParseError,
    W,
    monomial_steps,
    parse_poly,
)

from conftest import exponent_vectors, polys

X = PolyElement.variable(2, 0)
Y = PolyElement.variable(2, 1)


def test_ring_identities_by_hand():
    assert (X + Y) * (X - Y) == X * X - Y * Y
    assert X + PolyElement.zero(2) == X
    assert Fraction(1, 2) * X * (Fraction(2, 3) * X) == Fraction(1, 3) * X ** 2


def test_mismatched_variable_counts_rejected():
    with pytest.raises(ValueError):
        X + PolyElement.variable(3, 0)
    with pytest.raises(ValueError):
        X * PolyElement.one(1)


@pytest.mark.parametrize("exps", [("a",), (1.5,), (None,), (-1,), ((1,),)])
def test_exponents_must_be_non_negative_integers(exps):
    # the type is checked before the comparison with 0, which a str or None cannot take
    with pytest.raises(ValueError, match="exponents must be non-negative integers"):
        PolyElement(1, [(exps, 1)])


def test_bool_exponents_are_integers():
    assert PolyElement(2, [((True, False), 3)]) == 3 * PolyElement.variable(2, 0)


@given(p=polys(2), q=polys(2), r=polys(2))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == PolyElement.zero(2)
    assert p * PolyElement.one(2) == p


@given(p=polys(0), q=polys(0))
def test_ground_field_case(p, q):
    # m = 0 gives A = Q: everything is a constant
    assert p.is_constant()
    assert (p * q).constant_value() == p.constant_value() * q.constant_value()


def test_partial_derivative_examples():
    assert (X ** 2 * Y).diff(0) == 2 * X * Y
    assert (X ** 2).diff(1) == PolyElement.zero(2)
    assert (Fraction(1, 3) * X ** 3).diff(0) == X ** 2


@given(p=polys(3))
def test_partials_commute(p):
    for i in range(3):
        for j in range(3):
            assert p.diff(i).diff(j) == p.diff(j).diff(i)


@given(p=polys(2), q=polys(2))
def test_derivative_is_a_derivation(p, q):
    assert (p * q).diff(0) == p.diff(0) * q + p * q.diff(0)


def test_derivation_apply_examples():
    euler_x = DerivationOfA((X, PolyElement.zero(2)))
    assert euler_x(X ** 2) == 2 * X ** 2
    ddx = DerivationOfA.coordinate(2, 0)
    assert ddx(PolyElement.const(2, 7)) == PolyElement.zero(2)
    swap = DerivationOfA((Y, X))  # y d/dx + x d/dy
    assert swap(X * Y) == X ** 2 + Y ** 2


def test_commutator_examples():
    ddx = DerivationOfA.coordinate(2, 0)
    ddy = DerivationOfA.coordinate(2, 1)
    assert ddx.commutator(ddy).is_zero()
    euler_x = DerivationOfA((X, PolyElement.zero(2)))
    # [x d/dx, d/dx] = -d/dx, checked on all monomials of degree <= 3
    comm = euler_x.commutator(ddx)
    for i in range(4):
        for j in range(4 - i):
            mono = X ** i * Y ** j
            assert comm(mono) == -ddx(mono)
    assert euler_x.commutator(euler_x).is_zero()


@given(p=polys(2), a=polys(2), b=polys(2), c=polys(2), d=polys(2))
def test_commutator_agrees_with_composition(p, a, b, c, d):
    d1 = DerivationOfA((a, b))
    d2 = DerivationOfA((c, d))
    assert d1.commutator(d2)(p) == d1(d2(p)) - d2(d1(p))


def test_parse_examples():
    assert parse_poly("3/2*x1^2*x2 - x2", 2) == Fraction(3, 2) * X ** 2 * Y - Y
    assert parse_poly("-x1 + 2", 2) == -X + 2
    assert parse_poly("0", 2) == PolyElement.zero(2)
    assert parse_poly("5/3", 0) == PolyElement.const(0, Fraction(5, 3))


@given(p=polys(2))
def test_parse_roundtrip(p):
    assert parse_poly(str(p), 2) == p


@pytest.mark.parametrize("text", ["", "x3", "x1^", "1/0", "x1 x2", "2.5", "x1 +", "()"])
def test_parse_errors(text):
    with pytest.raises(PolyParseError):
        parse_poly(text, 2)


def test_parse_error_carries_column():
    with pytest.raises(PolyParseError) as excinfo:
        parse_poly("x1 * x9", 2)
    assert excinfo.value.column == 5  # points at the 'x' of the bad variable


def test_exponent_cap_of_the_parser():
    assert parse_poly(f"x2^{MAX_EXPONENT}", 2) == Y ** MAX_EXPONENT
    with pytest.raises(PolyParseError) as excinfo:
        parse_poly(f"x1 + 3*x2^{MAX_EXPONENT + 1}", 2)
    assert excinfo.value.column == 10  # the first digit of the exponent


def test_degree_cap_of_the_parser():
    # each power is within the cap, but their product is not; the parser stops at the
    # factor that crosses it, long before a product could leave the 32-bit key field
    assert parse_poly(f"x1^{MAX_EXPONENT} + 2*x2^{MAX_EXPONENT}", 2).terms
    assert parse_poly(f"x1^{MAX_EXPONENT - 1}*3*x1", 2) == 3 * X ** MAX_EXPONENT
    assert not parse_poly(f"0*x1^{MAX_EXPONENT}*x1", 2)
    for text, column in [(f"x1^{MAX_EXPONENT}*x1", 9), (f"x2*x1^{MAX_EXPONENT}", 3),
                         ("*".join([f"x1^{MAX_EXPONENT}"] * 65538), 9)]:
        with pytest.raises(PolyParseError) as excinfo:
            parse_poly(text, 2)
        assert excinfo.value.column == column
        assert excinfo.value.message.startswith("total degree ")


# -- monomial keys ---------------------------------------------------------


def test_no_key_field_carries_into_the_next():
    x = PolyElement.variable(1, 0)
    top = 2 ** W - 1  # the largest total degree a key holds
    assert list((x ** top).items()) == [((top,), 1)]
    with pytest.raises(ValueError):
        x ** 2 ** W
    with pytest.raises(ValueError):
        PolyElement(2, {(top, 1): 1})
    half = PolyElement(2, {(2 ** (W - 1), 0): 1, (0, 0): 1})
    with pytest.raises(ValueError):  # a one-term operand
        half * PolyElement(2, {(0, 2 ** (W - 1)): 1})
    with pytest.raises(ValueError):  # the general product
        half * half


@pytest.mark.parametrize("m", range(7))
@given(data=st.data())
def test_keys_round_trip_add_and_order_by_degree_then_exponents(m, data):
    exps = st.lists(st.integers(min_value=0, max_value=MAX_EXPONENT), min_size=m, max_size=m) \
        .map(tuple)
    terms = st.lists(st.tuples(exps, st.integers(min_value=-9, max_value=9)), max_size=4)
    t1, t2 = data.draw(terms), data.draw(terms)
    p, q = PolyElement(m, t1), PolyElement(m, t2)
    items = list(p.items())
    assert dict(items) == ref_poly(t1)
    assert PolyElement(m, items) == p
    assert list(PolyElement(m, items[::-1]).items()) == items
    assert [e for e, _ in items] == sorted((e for e, _ in items), key=lambda e: (sum(e), e),
                                           reverse=True)
    assert dict((p * q).items()) == ref_mul(ref_poly(t1), ref_poly(t2))
    e1, e2 = data.draw(exps), data.draw(exps)
    product = PolyElement(m, {e1: 2}) * PolyElement(m, {e2: -3})
    assert list(product.items()) == [(tuple(a + b for a, b in zip(e1, e2)), -6)]
    for i in range(m):
        if e1[i]:
            lowered = e1[:i] + (e1[i] - 1,) + e1[i + 1:]
            assert list(PolyElement(m, {e1: 2}).diff(i).items()) == [(lowered, 2 * e1[i])]


# -- int and Fraction coefficients ---------------------------------------
# Integer values are stored as ints and the rest as Fractions.  The
# reference below keeps every coefficient a Fraction and works on plain
# dicts, so it shares no arithmetic with PolyElement.

MIXED_COEFFS = st.one_of(st.integers(min_value=-9, max_value=9),
                         st.integers(min_value=-9, max_value=9).map(Fraction),
                         st.fractions(min_value=-5, max_value=5, max_denominator=6))


def mixed_terms(m: int):
    return st.lists(st.tuples(exponent_vectors(m), MIXED_COEFFS), max_size=4)


def ref_poly(terms) -> dict:
    out = {}
    for exps, c in terms:
        out[tuple(exps)] = out.get(tuple(exps), Fraction(0)) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def ref_add(p: dict, q: dict, sign: int = 1) -> dict:
    return ref_poly(list(p.items()) + [(e, sign * c) for e, c in q.items()])


def ref_mul(p: dict, q: dict) -> dict:
    return ref_poly([(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                     for e1, c1 in p.items() for e2, c2 in q.items()])


def ref_diff(p: dict, i: int) -> dict:
    return ref_poly([(e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
                     for e, c in p.items() if e[i]])


def assert_matches(poly: PolyElement, ref: dict) -> None:
    assert dict(poly.items()) == ref
    assert all(type(c) in (int, Fraction) and c for _, c in poly.items())


@given(t1=mixed_terms(2), t2=mixed_terms(2), c1=mixed_terms(2), c2=mixed_terms(2))
def test_mixed_coefficient_arithmetic_matches_fraction_reference(t1, t2, c1, c2):
    p, q = PolyElement(2, t1), PolyElement(2, t2)
    rp, rq = ref_poly(t1), ref_poly(t2)
    assert_matches(p, rp)
    assert_matches(p + q, ref_add(rp, rq))
    assert_matches(p - q, ref_add(rp, rq, -1))
    assert_matches(-p, ref_add({}, rp, -1))
    assert_matches(p * q, ref_mul(rp, rq))
    for i in range(2):
        assert_matches(p.diff(i), ref_diff(rp, i))
    # D(p) = c1 * dp/dx1 + c2 * dp/dx2
    rc1, rc2 = ref_poly(c1), ref_poly(c2)
    expected = ref_add(ref_mul(rc1, ref_diff(rp, 0)), ref_mul(rc2, ref_diff(rp, 1)))
    assert_matches(DerivationOfA((PolyElement(2, c1), PolyElement(2, c2)))(p), expected)


@given(p=polys(2), q=polys(2))
def test_integer_coefficients_stay_ints(p, q):
    # integer data never enters Fraction arithmetic
    for result in (p, p + q, p - q, p * q, p.diff(0), DerivationOfA((q, p))(p)):
        assert all(type(c) is int for _, c in result.items())


def test_int_and_fraction_coefficients_are_interchangeable():
    for m, e in ((0, ()), (2, (1, 2))):
        as_int = PolyElement(m, {e: 3})
        as_fraction = PolyElement(m, {e: Fraction(3)})
        assert as_int == as_fraction
        assert hash(as_int) == hash(as_fraction)
        assert str(as_int) == str(as_fraction)
        assert type(dict(as_fraction.items())[e]) is int
    assert str(PolyElement(2, {(1, 0): Fraction(-6, 4)})) == "-3/2*x1"


@pytest.mark.parametrize("value", [0, 5, -2, Fraction(4, 2), Fraction(-1, 3)])
def test_constant_value_is_a_fraction(value):
    c = PolyElement.const(1, value).constant_value()
    assert type(c) is Fraction and c == value


def test_bool_coefficient_prints_as_one():
    p = PolyElement(2, {(1, 0): True})
    assert str(p) == "x1"
    assert str(PolyElement(0, {(): True})) == "1"
    assert str(PolyElement.const(1, True)) == "1"
    assert type(dict(p.items())[(1, 0)]) is int


# -- term order of the fast paths ----------------------------------------
# Reports print terms in the order arithmetic makes them.  The oracle is
# the general loops of __mul__ and __add__ with no shortcut, and __sub__
# as adding the negation; every result must match its terms in order,
# not only as a set.


# Each oracle works on the (exponents, coefficient) pairs of `items()` and
# returns them in its order.


def oracle_add(p: PolyElement, q: PolyElement) -> list:
    acc = dict(p.items())
    for exps, c in q.items():
        s = acc.get(exps)
        s = c if s is None else s + c
        if s:
            acc[exps] = s
        elif exps in acc:
            del acc[exps]
    return list(acc.items())


def oracle_sub(p: PolyElement, q: PolyElement) -> list:
    return oracle_add(p, in_order(q.m, [(e, -c) for e, c in q.items()]))


def oracle_mul(p: PolyElement, q: PolyElement) -> list:
    acc = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            s = acc.get(exps)
            s = c if s is None else s + c
            if s:
                acc[exps] = s
            elif exps in acc:
                del acc[exps]
    return list(acc.items())


def in_order(m: int, items: list) -> PolyElement:
    # the polynomial with these terms kept in this order, as arithmetic keeps them;
    # a monomial's key is the sum of one step per variable factor
    steps = monomial_steps(m)
    return PolyElement._make(m, {sum(e * step for e, step in zip(exps, steps)): c
                                 for exps, c in items})


def with_fraction_coefficients(p: PolyElement) -> PolyElement:
    # every coefficient a Fraction of integer value, as arithmetic leaves it
    return p * Fraction(1, 2) * 2


def operands(m: int):
    small = st.integers(min_value=-9, max_value=9)
    return st.one_of(
        polys(m),
        polys(m).map(with_fraction_coefficients),
        st.just(PolyElement.zero(m)),
        small.map(lambda c: PolyElement.const(m, c)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6)
        .map(lambda c: PolyElement.const(m, c)),
        st.just(with_fraction_coefficients(PolyElement.one(m))),  # the constant Fraction(1)
    )


@pytest.mark.parametrize("m", range(4))
@given(data=st.data())
@settings(max_examples=60)
def test_arithmetic_keeps_the_general_loops_term_order(m, data):
    # r is always a general polynomial, so two multi-term operands meet often
    p, q, r = data.draw(operands(m)), data.draw(operands(m)), data.draw(polys(m))
    for a, b in ((p, q), (p, r), (r, q)):
        for result, expected in ((a * b, oracle_mul(a, b)), (b * a, oracle_mul(b, a)),
                                 (a + b, oracle_add(a, b)), (b + a, oracle_add(b, a)),
                                 (a - b, oracle_sub(a, b)), (b - a, oracle_sub(b, a))):
            assert list(result.items()) == expected
            assert str(result) == str(in_order(m, expected))


@pytest.mark.parametrize("m", range(4))
@given(data=st.data())
@settings(max_examples=60)
def test_a_difference_is_the_sum_with_the_negation_term_by_term(m, data):
    # the sum at sign -1 in __add__'s one loop: the terms, their order and their
    # types are those of a + (-b), for zero operands and for equal operands too
    p, q = data.draw(operands(m)), data.draw(operands(m))
    zero = PolyElement.zero(m)
    for a, b in ((p, q), (q, p), (p, p), (p, zero), (zero, p), (zero, zero)):
        result, expected = a - b, a + -b
        assert [(e, c, type(c)) for e, c in result.items()] == \
            [(e, c, type(c)) for e, c in expected.items()]
        assert str(result) == str(expected)
    assert not p - p


@given(p=polys(2), q=polys(2))
def test_a_difference_negates_no_copy_of_its_right_side(p, q):
    # only a zero left side returns the negation of the right side whole
    def refuse(self):
        raise AssertionError("negated the right side")

    if p:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PolyElement, "__neg__", refuse)
            result = list((p - q).items())
        assert result == oracle_sub(p, q)


@given(data=st.data())
@settings(max_examples=40)
def test_derivation_difference_is_componentwise(data):
    # a difference component by component gives the terms of adding the other times -1
    m = 2
    d1 = DerivationOfA(tuple(data.draw(polys(m)) for _ in range(m)))
    d2 = DerivationOfA(tuple(data.draw(polys(m)) for _ in range(m)))
    minus_one = PolyElement.const(m, -1)
    for a, b in ((d1, d2), (d2, d1), (d1, d1)):
        expected = a + b.scale(minus_one)
        assert [list(c.items()) for c in (a - b).components] == \
            [list(c.items()) for c in expected.components]
    with pytest.raises(ValueError, match="mismatched variable counts"):
        d1 - DerivationOfA.zero(1)


@pytest.mark.parametrize("m", range(4))
def test_the_constant_fraction_one_really_is_a_fraction(m):
    one = with_fraction_coefficients(PolyElement.one(m))
    assert list(one.items()) == [((0,) * m, 1)]
    assert type(dict(one.items())[(0,) * m]) is Fraction


@given(p=polys(2), c=st.integers(min_value=-9, max_value=9))
def test_constant_operands_take_the_shortcut(p, c):
    one, zero = PolyElement.one(2), PolyElement.zero(2)
    assert p * one is p and p + zero is p and p - zero is p
    if not p.is_constant():  # else p itself is the constant side of one * p
        assert one * p is p and zero + p is p
    assert list(DerivationOfA((p, p))(PolyElement.const(2, c)).items()) == []
