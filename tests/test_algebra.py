import pytest
from hypothesis import given
from hypothesis import strategies as st

from bvcalc.algebra import LieRinehartAlgebra, build_poisson_cotangent
from bvcalc.poly import PolyElement

from conftest import lelements, polys

COORD = LieRinehartAlgebra.coordinate(2)
NONAB = LieRinehartAlgebra.from_structure_constants(2, {(0, 1): (1, 0)}, name="nonabelian-dim2")
X = PolyElement.variable(2, 0)
Y = PolyElement.variable(2, 1)


def test_anchor_apply_examples():
    assert COORD.anchor_apply(COORD.basis_l(0), X * X) == 2 * X
    assert COORD.anchor_apply(COORD.basis_l(1), PolyElement.const(2, 3)) == PolyElement.zero(2)
    euler = COORD.basis_l(0).scale(X) + COORD.basis_l(1).scale(Y)
    assert COORD.anchor_apply(euler, X * Y) == 2 * X * Y


def test_bracket_examples():
    assert COORD.bracket(COORD.basis_l(0), COORD.basis_l(1)).is_zero()
    x_ddx = COORD.basis_l(0).scale(X)
    assert COORD.bracket(x_ddx, COORD.basis_l(0)) == -COORD.basis_l(0)


@given(alpha=lelements(COORD))
def test_bracket_antisymmetry_on_diagonal(alpha):
    assert COORD.bracket(alpha, alpha).is_zero()


@given(alpha=lelements(COORD), beta=lelements(COORD), a=polys(2, max_degree=2))
def test_bracket_leibniz_rule(alpha, beta, a):
    lhs = COORD.bracket(alpha, beta.scale(a))
    rhs = COORD.bracket(alpha, beta).scale(a) + beta.scale(COORD.anchor_apply(alpha, a))
    assert lhs == rhs


LOG_CANONICAL = build_poisson_cotangent([[PolyElement.zero(2), X * Y],
                                         [-(X * Y), PolyElement.zero(2)]])


def bracket_by_negated_sums(alg, alpha, beta):
    """`bracket` with every product formed and every difference written a + (-b)."""
    a, b = alpha.coeffs, beta.coeffs
    out = [PolyElement.zero(alg.m)] * alg.n
    for (i, j), cij in alg.structure.items():
        coeff = a[i] * b[j] + -(a[j] * b[i])
        for k, ck in enumerate(cij.coeffs):
            out[k] = out[k] + coeff * ck
    for k in range(alg.n):
        out[k] = out[k] + alg.anchor_of(alpha)(b[k]) + -alg.anchor_of(beta)(a[k])
    return out


@pytest.mark.parametrize("alg", [COORD, NONAB, LOG_CANONICAL], ids=lambda alg: alg.name or "log")
@given(data=st.data())
def test_bracket_terms_come_in_the_order_of_negated_sums(alg, data):
    # zero coefficients on either side and equal arguments included
    alpha = data.draw(lelements(alg, max_degree=2))
    beta = data.draw(st.one_of(lelements(alg, max_degree=2), st.just(alpha)))
    for x, y in ((alpha, beta), (beta, alpha)):
        expected = bracket_by_negated_sums(alg, x, y)
        assert [list(c.items()) for c in alg.bracket(x, y).coeffs] == \
            [list(c.items()) for c in expected]


@given(alpha=lelements(NONAB, max_degree=0), beta=lelements(NONAB, max_degree=0),
       gamma=lelements(NONAB, max_degree=0))
def test_general_jacobi_ground_field(alpha, beta, gamma):
    total = (NONAB.bracket(alpha, NONAB.bracket(beta, gamma))
             + NONAB.bracket(beta, NONAB.bracket(gamma, alpha))
             + NONAB.bracket(gamma, NONAB.bracket(alpha, beta)))
    assert total.is_zero()


@given(alpha=lelements(COORD, max_degree=1, max_terms=1),
       beta=lelements(COORD, max_degree=1, max_terms=1),
       gamma=lelements(COORD, max_degree=1, max_terms=1))
def test_general_jacobi_polynomial_coefficients(alpha, beta, gamma):
    total = (COORD.bracket(alpha, COORD.bracket(beta, gamma))
             + COORD.bracket(beta, COORD.bracket(gamma, alpha))
             + COORD.bracket(gamma, COORD.bracket(alpha, beta)))
    assert total.is_zero()


@given(alpha=lelements(COORD, max_degree=2, max_terms=2),
       beta=lelements(COORD, max_degree=2, max_terms=2), a=polys(2, max_degree=2))
def test_anchor_is_bracket_homomorphism_on_general_elements(alpha, beta, a):
    lhs = COORD.anchor_apply(COORD.bracket(alpha, beta), a)
    rhs = (COORD.anchor_apply(alpha, COORD.anchor_apply(beta, a))
           - COORD.anchor_apply(beta, COORD.anchor_apply(alpha, a)))
    assert lhs == rhs


def test_verify_axioms_valid_cases():
    assert COORD.verify_axioms() == []
    assert NONAB.verify_axioms() == []


def test_verify_axioms_jacobi_violation():
    # [e1,e2] = e3, [e1,e3] = e1, [e2,e3] = 0 breaks Jacobi on (e1,e2,e3)
    bad = LieRinehartAlgebra.from_structure_constants(
        3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)}, name="bad")
    violations = bad.verify_axioms()
    assert violations
    assert violations[0].kind == "jacobi"
    assert violations[0].indices == (0, 1, 2)


def test_verify_axioms_anchor_violation():
    # anchor rows that do not commute on an abelian structure
    alg = LieRinehartAlgebra(
        m=1, n=2,
        anchor=(LieRinehartAlgebra.coordinate(1).anchor[0],
                LieRinehartAlgebra.coordinate(1).anchor[0].scale(PolyElement.variable(1, 0))),
        structure={})
    violations = alg.verify_axioms()
    assert [v.kind for v in violations] == ["anchor_homomorphism"]
    assert violations[0].indices == (0, 1)


def test_poisson_zero_bivector_is_abelian():
    zero = PolyElement.zero(2)
    alg = build_poisson_cotangent([[zero, zero], [zero, zero]])
    assert alg.verify_axioms() == []
    assert all(d.is_zero() for d in alg.anchor)
    assert not alg.structure


def test_poisson_symplectic_2d():
    one = PolyElement.one(2)
    alg = build_poisson_cotangent([[PolyElement.zero(2), one], [-one, PolyElement.zero(2)]])
    assert alg.verify_axioms() == []
    assert not alg.structure  # constant bivector: all structure functions vanish


def test_poisson_linear_2d():
    zero = PolyElement.zero(2)
    alg = build_poisson_cotangent([[zero, X], [-X, zero]])
    assert alg.verify_axioms() == []
    assert alg.structure[(0, 1)].coeffs[0] == PolyElement.one(2)
    assert not alg.structure[(0, 1)].coeffs[1]


def test_poisson_rejects_non_antisymmetric():
    one = PolyElement.one(2)
    with pytest.raises(ValueError):
        build_poisson_cotangent([[one, one], [one, one]])


def test_poisson_non_jacobi_bivector_reported():
    # pi12 = x1, pi13 = x2 fails the bivector Jacobi identity on Q[x1,x2,x3]
    z = PolyElement.zero(3)
    x1 = PolyElement.variable(3, 0)
    x2 = PolyElement.variable(3, 1)
    alg = build_poisson_cotangent([[z, x1, x2], [-x1, z, z], [-x2, z, z]])
    assert alg.verify_axioms()


def test_catalog_matches_builder(catalog):
    zero = PolyElement.zero(2)
    built = build_poisson_cotangent([[zero, X], [-X, zero]])
    shipped = catalog["poisson-linear-2d"].algebra
    assert built.structure == shipped.structure
    assert built.anchor == shipped.anchor


def test_bracket_terms_are_the_nonzero_components_of_bracket_basis(catalog):
    for loaded in catalog.values():
        alg = loaded.algebra
        for i in range(alg.n):
            for j in range(alg.n):
                coeffs = alg.bracket_basis(i, j).coeffs
                assert alg.bracket_terms(i, j) == tuple((k, c) for k, c in enumerate(coeffs) if c)
                assert all(c is coeffs[k] for k, c in alg.bracket_terms(i, j))
