import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcalc import exterior, ground
from bvcalc.algebra import LElement
from bvcalc.exterior import (
    AltForm,
    Multivector,
    full_tuple,
    merge_sign,
    phi_inverse,
    phi_iso,
    sort_with_sign,
    top_pairing,
)
from bvcalc.ground import to_key
from bvcalc.poly import PolyElement
from bvcalc.sampling import random_poly

from conftest import multivectors, polys
from reference import TupleAltForm, TupleMultivector, evaluate, homogeneous_part

X = PolyElement.variable(2, 0)
Y = PolyElement.variable(2, 1)


def brute_force_sign(indices):
    """Independent parity oracle: count inversions pairwise."""
    if len(set(indices)) != len(indices):
        return 0
    inversions = sum(1 for i in range(len(indices)) for j in range(i + 1, len(indices))
                     if indices[i] > indices[j])
    return -1 if inversions % 2 else 1


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=6))
def test_sort_with_sign_against_brute_force(indices):
    key, sign = sort_with_sign(tuple(indices))
    assert key == tuple(sorted(indices))
    assert sign == brute_force_sign(indices)


def test_wedge_examples():
    e1 = Multivector.basis(2, (0,), m=2)
    e2 = Multivector.basis(2, (1,), m=2)
    assert e1.wedge(e2) == Multivector.basis(2, (0, 1), m=2)
    assert e2.wedge(e1) == -Multivector.basis(2, (0, 1), m=2)
    assert e1.scale(X).wedge(e1.scale(Y)).is_zero()


@given(u=multivectors(3, 1), v=multivectors(3, 1))
def test_graded_commutativity(u, v):
    for p in range(4):
        for q in range(4):
            up, vq = homogeneous_part(u, p), homogeneous_part(v, q)
            sign = -1 if (p * q) % 2 else 1
            flipped = vq.wedge(up)
            assert up.wedge(vq) == (flipped if sign == 1 else -flipped)


@given(u=multivectors(3, 1), v=multivectors(3, 1), w=multivectors(3, 1))
def test_wedge_associativity(u, v, w):
    assert u.wedge(v).wedge(w) == u.wedge(v.wedge(w))


def test_wedge_rank_mismatch():
    with pytest.raises(ValueError):
        Multivector.basis(2, (0,), m=0).wedge(Multivector.basis(3, (0,), m=0))


@pytest.mark.parametrize("key", [(5, 5), (-1, -1), (2, 0, 2), ("a",), (1.0,), (5,), (0, 2)])
def test_constructors_reject_an_index_outside_the_rank_before_normalizing(key):
    # the range is checked before a repeated index can send the term to 0
    with pytest.raises(ValueError, match=rf"index {re.escape(str(key))} out of range for rank 2"):
        Multivector(2, [(key, X)])
    with pytest.raises(ValueError, match=rf"key {re.escape(str(key))} out of range for rank 2"):
        AltForm(2, 2, len(key), {key: X})


def test_constructors_send_an_in_range_repeat_to_zero():
    assert Multivector(2, [((1, 1), X)]).is_zero()
    assert Multivector(2, [((1, 1), X), ((1, 0), Y)]) == Multivector(2, [((0, 1), -Y)])


@pytest.mark.parametrize("key", [(5,), (7,), (-1,), ("a",)])
def test_lookups_reject_an_index_outside_the_rank(key):
    u = Multivector(2, [((0,), X), ((1,), Y)])
    f = AltForm(2, 2, 1, {(0,): X, (1,): Y})
    with pytest.raises(ValueError, match=rf"index {re.escape(str(key))} out of range for rank 2"):
        u.component(key, 2)
    with pytest.raises(ValueError, match=rf"key {re.escape(str(key))} out of range for rank 2"):
        f.value_on_increasing(key)


def test_value_on_increasing_reads_zero_on_a_repeat_or_a_tuple_that_is_not_increasing():
    f = AltForm(2, 2, 2, {(0, 1): X})
    assert f.value_on_increasing((1, 1)) == PolyElement.zero(2)
    assert f.value_on_increasing((1, 0)) == PolyElement.zero(2)
    assert f.value_on_increasing((0, 1)) == X


def test_top_pairing_examples():
    e1 = Multivector.basis(2, (0,), m=0)
    e2 = Multivector.basis(2, (1,), m=0)
    assert top_pairing(e1, e2, 0).coefficient == PolyElement.one(0)
    assert top_pairing(e2, e1, 0).coefficient == PolyElement.const(0, -1)
    # n = 3: <e1^e3, e2> is the sign of (1,3,2)
    e13 = Multivector.basis(3, (0, 2), m=0)
    e2_3 = Multivector.basis(3, (1,), m=0)
    assert top_pairing(e13, e2_3, 0).coefficient == PolyElement.const(0, -1)
    assert brute_force_sign((0, 2, 1)) == -1


def test_top_pairing_degree_mismatch():
    e1 = Multivector.basis(3, (0,), m=0)
    with pytest.raises(ValueError):
        top_pairing(e1, e1, 0)


def test_phi_iso_examples_rank_two():
    e1 = Multivector.basis(2, (0,), m=2)
    f = phi_iso(e1, 2)
    assert f.degree == 1
    assert f.value_on_increasing((1,)) == PolyElement.one(2)
    assert not f.value_on_increasing((0,))

    volume_dual = phi_iso(Multivector.scalar(2, PolyElement.one(2)), 2)
    assert volume_dual.degree == 2
    assert volume_dual.value_on_increasing((0, 1)) == PolyElement.one(2)

    top = Multivector.basis(2, (0, 1), coeff=X)
    f0 = phi_iso(top, 2)
    assert f0.degree == 0
    assert f0.value_on_increasing(()) == X


def test_phi_iso_rejects_inhomogeneous():
    u = Multivector(2, [((), PolyElement.one(2)), ((0,), X)])
    with pytest.raises(ValueError):
        phi_iso(u, 2)


def test_phi_inverse_rank_two_example():
    # f with value 1 on (2) only corresponds to e1
    f = AltForm(2, 0, 1, {(1,): PolyElement.one(0)})
    assert phi_inverse(f) == Multivector.basis(2, (0,), m=0)


def test_phi_inverse_by_brute_force_rank_three():
    # f supported on (1,3) only (0-based (0,2)): solve alpha ^ e_T = f(T) vol
    # by brute force over all basis coefficients, then compare.
    f = AltForm(3, 0, 2, {(0, 2): PolyElement.one(0)})
    alpha = phi_inverse(f)
    candidates = {}
    for key in combinations(range(3), 1):
        sign = merge_sign(key, (0, 2))
        if sign:
            candidates[key] = sign  # alpha_key * sign must equal f((0,2)) = 1
    assert {key for key, _ in alpha.terms()} == set(candidates)
    for key, sign in candidates.items():
        assert alpha.component(key, 0).constant_value() == sign
    # fully fixed by the round trip as well
    assert phi_iso(alpha, 0) == f


@given(u=multivectors(3, 2))
def test_phi_round_trip_all_degrees(u):
    for p in range(4):
        part = homogeneous_part(u, p)
        form = phi_iso(part, 2, degree=p)
        assert phi_inverse(form) == part


@given(coeffs=polys(2), more=polys(2))
def test_phi_round_trip_starting_from_forms(coeffs, more):
    for q in range(4):
        keys = list(combinations(range(3), q))
        components = dict(zip(keys, [coeffs, more] * 2))
        form = AltForm(3, 2, q, components)
        assert phi_iso(phi_inverse(form), 2, degree=3 - q) == form


def positive_merge_sign(left, right):
    return 0 if set(left) & set(right) else 1


def positive_wedge_sign(s, t):
    return 0 if s & t else 1


@pytest.mark.parametrize("name, fault", [("merge_sign", positive_merge_sign),
                                         ("wedge_sign", positive_wedge_sign)])
def test_phi_round_trip_catches_a_sign_fault_in_either_half(monkeypatch, name, fault):
    # phi_iso takes its signs from the wedge, so from ground.wedge_sign, and
    # phi_inverse from merge_sign's inversion count, so a sign helper that
    # answers +1 on every disjoint input breaks exactly one half of the pair
    n = 4
    basis = [Multivector.basis(n, key, m=0)
             for p in range(n + 1) for key in combinations(range(n), p)]
    forms = [phi_iso(e_s, 0) for e_s in basis]
    for e_s, form in zip(basis, forms):
        assert phi_inverse(form) == e_s
    monkeypatch.setattr(exterior if name == "merge_sign" else ground, name, fault)
    broken = [e_s for e_s in basis if phi_inverse(phi_iso(e_s, 0)) != e_s]
    assert broken
    iso_broken = any(phi_iso(e_s, 0) != form for e_s, form in zip(basis, forms))
    inverse_broken = any(phi_inverse(form) != e_s for e_s, form in zip(basis, forms))
    assert (iso_broken, inverse_broken) == (name == "wedge_sign", name == "merge_sign")


@given(u=multivectors(2, 2), a=polys(2, max_degree=2))
def test_phi_iso_is_a_linear(u, a):
    for p in range(3):
        part = homogeneous_part(u, p)
        assert phi_iso(part.scale(a), 2, degree=p) == phi_iso(part, 2, degree=p).scale(a)


def all_subsets_phi_iso(u, m, p):
    """phi_iso by its definition: the top coefficient of u ^ e_T for every (n-p)-subset T."""
    n = u.n
    out = {}
    for t_key in combinations(range(n), n - p):
        total = PolyElement.zero(m)
        for s_key, coeff in u.terms():
            if sorted(s_key + t_key) == list(range(n)):
                total = total + coeff * brute_force_sign(s_key + t_key)
        if total:
            out[t_key] = total
    return out


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", [0, 2])
def test_phi_iso_equals_the_all_subsets_definition(n, m):
    # dense multi-term input of every degree: Fraction coefficients at
    # m = 0, polynomials at m > 0; the form holds one value per key S of u,
    # on the complement of S, in the order of u's keys
    rng = random.Random(f"phi-iso-{n}-{m}")
    for p in range(n + 1):
        for trial in range(3):
            terms = []
            for key in combinations(range(n), p):
                if m:
                    coeff = random_poly(rng, m, 2)
                else:
                    coeff = PolyElement.const(0, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                if trial or rng.random() < 0.7:  # trial 0 leaves some keys out
                    terms.append((key, coeff))
            u = Multivector(n, terms)
            form = phi_iso(u, m, degree=p)
            assert form.degree == n - p
            full = (1 << n) - 1
            assert [full ^ t for t in form.components] == list(u.components)
            assert {to_key(t): c for t, c in form.components.items()} == \
                all_subsets_phi_iso(u, m, p)
            assert phi_inverse(form) == u


def test_alt_form_alternating_evaluation():
    f = AltForm(2, 2, 2, {(0, 1): X})
    e1 = LElement((PolyElement.one(2), PolyElement.zero(2)))
    e2 = LElement((PolyElement.zero(2), PolyElement.one(2)))
    assert evaluate(f, [e1, e2]).coefficient == X
    assert evaluate(f, [e2, e1]).coefficient == -X
    assert evaluate(f, [e1, e1]).coefficient == PolyElement.zero(2)
    mixed = LElement((Y, X))
    # f(y e1 + x e2, e2) = y * f(e1, e2)
    assert evaluate(f, [mixed, e2]).coefficient == X * Y


@given(a=polys(2, max_degree=2), b=polys(2, max_degree=2))
def test_alt_form_multilinearity(a, b):
    f = AltForm(2, 2, 1, {(0,): X, (1,): Y})
    arg = LElement((a, b))
    assert evaluate(f, [arg]).coefficient == a * X + b * Y


def test_degree_helpers():
    assert Multivector.zero(3).degree() is None
    assert Multivector.basis(3, (0, 1), m=0).degree() == 2
    with pytest.raises(ValueError):
        Multivector(3, [((), PolyElement.one(0)), ((0,), PolyElement.one(0))]).degree()


def test_full_tuple():
    assert full_tuple(3) == (0, 1, 2)


def test_component_lookup_applies_signs():
    u = Multivector.basis(3, (0, 2), m=0)
    assert u.component((2, 0), 0) == PolyElement.const(0, -1)
    assert u.component((0, 0), 0) == PolyElement.zero(0)


@given(st.permutations(list(range(3))))
def test_basis_construction_normalizes(perm):
    u = Multivector.basis(3, tuple(perm), m=0)
    expected_sign = brute_force_sign(tuple(perm))
    assert u.component((0, 1, 2), 0).constant_value() == expected_sign


# -- the bitmask keys against the tuple-keyed definitions ---------------------


def index_tuples(n, max_size):
    """Index tuples in any order: mostly distinct indices, sometimes with repeats."""
    distinct = st.lists(st.integers(min_value=0, max_value=n - 1), unique=True,
                        max_size=min(n, max_size)).flatmap(st.permutations).map(tuple)
    repeated = st.lists(st.integers(min_value=0, max_value=n - 1), max_size=max_size).map(tuple)
    return st.one_of(distinct, distinct, distinct, repeated)


def nonzero_polys(m):
    return polys(m, max_degree=2, max_terms=2).filter(bool)


def assert_same_multivector(u, ref):
    assert {to_key(s): c for s, c in u.components.items()} == ref.components
    assert list(u.terms()) == list(ref.terms())
    assert str(u) == str(ref)


@given(data=st.data(), n=st.integers(min_value=1, max_value=5), m=st.sampled_from([0, 2]))
@settings(max_examples=150)
def test_mask_keyed_multivector_equals_the_tuple_keyed_definition(data, n, m):
    terms = st.lists(st.tuples(index_tuples(n, n + 1), nonzero_polys(m)), max_size=6)
    left, right = data.draw(terms), data.draw(terms)
    u, v = Multivector(n, left), Multivector(n, right)
    ref_u, ref_v = TupleMultivector(n, left), TupleMultivector(n, right)
    assert_same_multivector(u, ref_u)
    assert_same_multivector(u + v, ref_u + ref_v)
    assert_same_multivector(u - v, ref_u - ref_v)
    assert_same_multivector(u.wedge(v), ref_u.wedge(ref_v))
    p = data.draw(polys(m, max_degree=1, max_terms=2))
    assert_same_multivector(u.scale(p), ref_u.scale(p))
    for key in data.draw(st.lists(index_tuples(n, n), max_size=4)):
        assert u.component(key, m) == ref_u.component(key, m)
    try:
        degree = ref_u.degree()
    except ValueError:
        with pytest.raises(ValueError):
            u.degree()
    else:
        assert u.degree() == degree


@given(data=st.data(), n=st.integers(min_value=1, max_value=5), m=st.sampled_from([0, 2]))
@settings(max_examples=150)
def test_mask_keyed_alt_form_equals_the_tuple_keyed_definition(data, n, m):
    q = data.draw(st.integers(min_value=0, max_value=n + 1))
    keys = list(combinations(range(n), q))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(keys) if keys else st.just(()),
                                         polys(m, max_degree=2, max_terms=2)),
                               max_size=8 if keys else 0))
    f, ref = AltForm(n, m, q, pairs), TupleAltForm(n, m, q, pairs)
    assert {to_key(t): c for t, c in f.components.items()} == ref.components
    # each increasing key, then the same indices reversed and with the first one repeated
    for probe in [probe for key in keys for probe in (key, key[::-1], key[:1] + key)]:
        assert f.value_on_increasing(probe) == ref.value_on_increasing(probe)
    assert str(f) == str(ref)
