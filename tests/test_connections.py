from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from bvcalc.algebra import LElement, LieRinehartAlgebra
from bvcalc.connections import (
    EndoOfL,
    LeftConnectionOnL,
    TopConnection,
    connection_apply_l,
    connection_apply_top,
    covariant_derivative,
    curvature_top,
    divergence_rank_one,
    dual_right_connection,
    generalized_lie_derivative,
    identity_top_form,
    induced_top_connection,
    is_flat,
    is_torsion_free,
    lie_derivative_top,
    phi_map,
    phi_trace,
    torsion,
    trace_endo,
)
from bvcalc import connections, correspond, suites
from bvcalc.bv import RightConnectionOnA, one_circ
from bvcalc.correspond import right_from_top, top_from_right, torsionfree_lift
from bvcalc.exterior import AltForm, TopElement, full_tuple
from bvcalc.poly import PolyElement, parse_poly
from bvcalc.sampling import (
    check_rng,
    random_christoffel,
    random_lelement,
    random_poly,
    random_poly_vector,
)

from conftest import RANK5, lelements, polys
from reference import value_on_basis_tuple

COORD = LieRinehartAlgebra.coordinate(2)
NONAB = LieRinehartAlgebra.from_structure_constants(2, {(0, 1): (1, 0)}, name="nonabelian-dim2")
ABELIAN = LieRinehartAlgebra.abelian(2)
X = PolyElement.variable(2, 0)
Y = PolyElement.variable(2, 1)


def volume(alg):
    return TopElement(alg.n, PolyElement.one(alg.m))


def half_structure_connection(alg):
    half = PolyElement.const(alg.m, Fraction(1, 2))
    return LeftConnectionOnL(tuple(tuple(alg.bracket_basis(i, j).scale(half)
                                         for j in range(alg.n))
                                   for i in range(alg.n)))


def test_lie_derivative_examples():
    # nonabelian: lambda_{e2}(e1^e2) = [e2,e1]^e2 = -e1^e2
    out = lie_derivative_top(NONAB, NONAB.basis_l(1), volume(NONAB))
    assert out.coefficient == PolyElement.const(0, -1)
    # abelian with constant coefficient: 0
    out = lie_derivative_top(ABELIAN, ABELIAN.basis_l(0), volume(ABELIAN))
    assert out.is_zero()
    # coordinate algebra: lambda_{x d/dx}(d/dx ^ d/dy) = -d/dx ^ d/dy
    out = lie_derivative_top(COORD, COORD.basis_l(0).scale(X), volume(COORD))
    assert out.coefficient == PolyElement.const(2, -1)


def test_connection_apply_top_examples():
    flat = TopConnection((PolyElement.zero(2), PolyElement.zero(2)))
    assert connection_apply_top(COORD, flat, COORD.basis_l(0), volume(COORD)).is_zero()
    # Leibniz term: gamma = 0, alpha = d/dx, x = x1 * vol
    out = connection_apply_top(COORD, flat, COORD.basis_l(0), TopElement(2, X))
    assert out.coefficient == PolyElement.one(2)
    # defining data: gamma = (g1, g2), alpha = e1
    g = TopConnection((X, Y))
    out = connection_apply_top(COORD, g, COORD.basis_l(0), volume(COORD))
    assert out.coefficient == X


def test_torsion_examples():
    assert is_torsion_free(COORD, LeftConnectionOnL.zero(COORD))
    t = torsion(NONAB, LeftConnectionOnL.zero(NONAB))
    assert t[0][1] == -NONAB.basis_l(0)
    assert is_torsion_free(NONAB, half_structure_connection(NONAB))


def test_top_operators_build_no_anchor_for_a_constant_coefficient(monkeypatch):
    calls = []
    original = LieRinehartAlgebra.anchor_of
    monkeypatch.setattr(LieRinehartAlgebra, "anchor_of",
                        lambda self, alpha: calls.append(alpha) or original(self, alpha))
    alpha = LElement((parse_poly("x1*x2 + 1", 2), parse_poly("x1^2 - x2", 2)))
    gamma = TopConnection((Y, PolyElement.const(2, 3)))
    five = TopElement(2, PolyElement.const(2, 5))
    # lie_trace brackets alpha with each e_j, which builds rho(e_j) because
    # alpha is not constant; rho(alpha) itself is never built
    assert str(lie_derivative_top(COORD, alpha, five).coefficient) == "-5*x2 + 5"
    assert calls == [COORD.basis_l(0), COORD.basis_l(1)]
    calls.clear()
    assert str(connection_apply_top(COORD, gamma, alpha, five).coefficient) \
        == "5*x1*x2^2 - 10*x2 + 15*x1^2"
    assert calls == []
    # a non-constant coefficient still gets alpha's derivative, in the same terms
    assert str(lie_derivative_top(COORD, alpha, TopElement(2, X)).coefficient) == "1 + x1"
    assert calls == [COORD.basis_l(0), COORD.basis_l(1), alpha]
    calls.clear()
    assert str(connection_apply_top(COORD, gamma, alpha, TopElement(2, X)).coefficient) \
        == "-1*x1*x2 + 1 + x1^2*x2^2 + 3*x1^3"
    assert calls == [alpha]


def test_is_torsion_free_agrees_with_the_torsion_table(catalog):
    def every_entry_zero(alg, conn):
        # the formula on every pair (i, j), the diagonal and i > j included
        full = [[conn.table[i][j] - conn.table[j][i] - alg.bracket_basis(i, j)
                 for j in range(alg.n)] for i in range(alg.n)]
        assert torsion(alg, conn) == full
        return all(entry.is_zero() for row in full for entry in row)

    for name, loaded in catalog.items():
        alg = loaded.algebra
        rng = check_rng(73, f"torsion-free:{name}")
        for _ in range(4):
            conn = LeftConnectionOnL(random_christoffel(rng, alg))
            assert not every_entry_zero(alg, conn) and not is_torsion_free(alg, conn), name
            lift = torsionfree_lift(alg, TopConnection(random_poly_vector(rng, alg.m, alg.n)))
            assert every_entry_zero(alg, lift) and is_torsion_free(alg, lift), name
            # one entry above or below the diagonal, bumped by e_1
            for i, j in ((0, 1), (1, 0)):
                rows = [list(row) for row in lift.table]
                rows[i][j] = rows[i][j] + alg.basis_l(0)
                bumped = LeftConnectionOnL(tuple(map(tuple, rows)))
                assert not every_entry_zero(alg, bumped), (name, i, j)
                assert not is_torsion_free(alg, bumped), (name, i, j)


@given(a=polys(2, max_degree=2), alpha=lelements(COORD, max_degree=1, max_terms=1),
       beta=lelements(COORD, max_degree=1, max_terms=1))
@settings(max_examples=15)
def test_torsion_is_tensorial(a, alpha, beta):
    rng = check_rng(5, "torsion-tensorial")
    conn = LeftConnectionOnL(random_christoffel(rng, COORD))

    def torsion_of(u, v):
        return (connection_apply_l(COORD, conn, u, v)
                - connection_apply_l(COORD, conn, v, u)
                - COORD.bracket(u, v))

    assert torsion_of(alpha.scale(a), beta) == torsion_of(alpha, beta).scale(a)
    assert torsion_of(alpha, beta) == -torsion_of(beta, alpha)


def test_curvature_examples():
    assert is_flat(ABELIAN, TopConnection((PolyElement.zero(0), PolyElement.zero(0))))
    not_flat = TopConnection((PolyElement.one(0), PolyElement.zero(0)))
    r = curvature_top(NONAB, not_flat)
    assert r[0][1] == PolyElement.const(0, -1)
    # gamma = (0, g) is flat for constant g on the nonabelian algebra
    for g in (0, 5):
        conn = TopConnection((PolyElement.zero(0), PolyElement.const(0, g)))
        assert is_flat(NONAB, conn)


def test_curvature_matches_operator_commutator():
    rng = check_rng(9, "curvature-operator")
    for alg, gamma in ((NONAB, (PolyElement.one(0), PolyElement.zero(0))),
                       (COORD, (PolyElement.zero(2), X)),
                       (COORD, (PolyElement.zero(2), PolyElement.zero(2)))):
        conn = TopConnection(gamma)
        curv = curvature_top(alg, conn)
        for i in range(alg.n):
            for j in range(alg.n):
                x = TopElement(alg.n, random_poly(rng, alg.m))
                ei, ej = alg.basis_l(i), alg.basis_l(j)
                operator = (connection_apply_top(alg, conn, ei,
                                                 connection_apply_top(alg, conn, ej, x))
                            - connection_apply_top(alg, conn, ej,
                                                   connection_apply_top(alg, conn, ei, x))
                            - connection_apply_top(alg, conn, alg.bracket(ei, ej), x))
                assert operator.coefficient == curv[i][j] * x.coefficient


def test_curvature_is_tensorial_on_general_arguments():
    rng = check_rng(71, "curvature-tensorial")
    for alg, gamma in ((NONAB, (PolyElement.one(0), PolyElement.zero(0))),
                       (COORD, (Y, X * X))):
        conn = TopConnection(gamma)
        curv = curvature_top(alg, conn)
        for _ in range(6):
            alpha = random_lelement(rng, alg)
            beta = random_lelement(rng, alg)
            x = TopElement(alg.n, random_poly(rng, alg.m))
            operator = (connection_apply_top(alg, conn, alpha,
                                             connection_apply_top(alg, conn, beta, x))
                        - connection_apply_top(alg, conn, beta,
                                               connection_apply_top(alg, conn, alpha, x))
                        - connection_apply_top(alg, conn, alg.bracket(alpha, beta), x))
            expected = PolyElement.zero(alg.m)
            for i in range(alg.n):
                for j in range(alg.n):
                    expected = expected + alpha.coeffs[i] * beta.coeffs[j] * curv[i][j]
            assert operator.coefficient == expected * x.coefficient


def test_covariant_derivative_flat_abelian_is_zero():
    conn = TopConnection((PolyElement.zero(0), PolyElement.zero(0)))
    for degree in range(3):
        for key in combinations(range(2), degree):
            form = AltForm(2, 0, degree, {key: PolyElement.one(0)})
            assert covariant_derivative(ABELIAN, conn, form).is_zero()


def test_covariant_derivative_squares_to_zero_iff_flat():
    rng = check_rng(21, "dsquared")
    flat = TopConnection((PolyElement.zero(2), PolyElement.zero(2)))
    nonflat = TopConnection((PolyElement.zero(2), X))
    assert is_flat(COORD, flat)
    assert not is_flat(COORD, nonflat)
    found_nonzero = False
    for degree in range(3):
        for key in combinations(range(2), degree):
            form = AltForm(2, 2, degree, {key: random_poly(rng, 2)})
            twice_flat = covariant_derivative(
                COORD, flat, covariant_derivative(COORD, flat, form))
            assert twice_flat.is_zero()
            twice = covariant_derivative(
                COORD, nonflat, covariant_derivative(COORD, nonflat, form))
            found_nonzero = found_nonzero or not twice.is_zero()
    assert found_nonzero


def test_covariant_derivative_top_degree_input_vanishes():
    conn = TopConnection((X, Y))
    form = identity_top_form(COORD)
    out = covariant_derivative(COORD, conn, form)
    assert out.degree == 3 and out.is_zero()


def gather_covariant_derivative(alg, conn, f):
    """The covariant derivative by a loop over the output tuples: the oracle.

    Each (q+1)-tuple gathers its nabla terms and bracket terms by looking up
    values of f, with the sign convention of the `connections` docstring.
    """
    n, m = alg.n, alg.m
    q = f.degree
    out = AltForm(n, m, min(q + 1, n + 1))
    if q >= n:
        return out
    p = n - q
    acc = {}
    for key in combinations(range(n), q + 1):
        value = PolyElement.zero(m)
        for t, i in enumerate(key):
            inner = f.value_on_increasing(key[:t] + key[t + 1:])
            if not inner:
                continue
            nabla = alg.anchor[i](inner) + inner * conn.gamma[i]
            value = value + nabla if (p + t - 1) % 2 == 0 else value - nabla
        for s in range(q + 1):
            for t in range(s + 1, q + 1):
                br = alg.bracket_basis(key[s], key[t])
                if br.is_zero():
                    continue
                rest = key[:s] + key[s + 1:t] + key[t + 1:]
                inner = PolyElement.zero(m)
                for l, cl in enumerate(br.coeffs):
                    if cl:
                        inner = inner + cl * value_on_basis_tuple(f, (l,) + rest)
                value = value + inner if (p + 1 + s + t) % 2 == 0 else value - inner
        if value:
            acc[key] = value
    return AltForm(n, m, q + 1, acc)


@pytest.mark.parametrize("name", ["sl2", "heisenberg-dim3", "coordinate-2d",
                                  "poisson-linear-2d", "rank5"])
def test_covariant_derivative_equals_the_gather_loop(catalog, name):
    # dense random forms of every degree 0..n+1, random gamma
    alg = RANK5 if name == "rank5" else catalog[name].algebra
    if name == "poisson-linear-2d":
        assert any(not rho.is_zero() for rho in alg.anchor)
    rng = check_rng(11, f"scatter-{name}")
    nonzero = 0
    for _ in range(4):
        conn = TopConnection(random_poly_vector(rng, alg.m, alg.n, 2))
        for q in range(alg.n + 2):
            form = AltForm(alg.n, alg.m, q, {key: random_poly(rng, alg.m, 2)
                                             for key in combinations(range(alg.n), q)})
            out = covariant_derivative(alg, conn, form)
            assert out == gather_covariant_derivative(alg, conn, form), (q, str(form))
            assert out.degree == min(q + 1, alg.n + 1)
            nonzero += not out.is_zero()
            # one-entry forms, as phi_iso(a e_S) gives: the same terms in the
            # same order, so the checks' witnesses print as the gather loop's
            for key in combinations(range(alg.n), q):
                form = AltForm(alg.n, alg.m, q, {key: random_poly(rng, alg.m, 2)})
                assert str(covariant_derivative(alg, conn, form)) == \
                    str(gather_covariant_derivative(alg, conn, form)), (q, str(form))
    assert nonzero


def test_phi_map_examples():
    # coordinate algebra, Gamma = 0, alpha = x d/dx: diag(-1, 0)
    endo = phi_map(COORD, LeftConnectionOnL.zero(COORD), COORD.basis_l(0).scale(X))
    assert endo.images[0].coeffs[0] == PolyElement.const(2, -1)
    assert not endo.images[0].coeffs[1] and not endo.images[1].coeffs[0] \
        and not endo.images[1].coeffs[1]
    # Gamma = 0 on a ground-field algebra: Phi_alpha = ad_alpha
    endo = phi_map(NONAB, LeftConnectionOnL.zero(NONAB), NONAB.basis_l(1))
    assert endo.images[0] == NONAB.bracket_basis(1, 0)
    assert endo.images[1].is_zero()


def test_phi_map_builds_an_anchor_only_for_a_non_constant_coefficient(monkeypatch):
    calls = []
    original = LieRinehartAlgebra.anchor_of
    monkeypatch.setattr(LieRinehartAlgebra, "anchor_of",
                        lambda self, alpha: calls.append(alpha) or original(self, alpha))
    conn = LeftConnectionOnL(random_christoffel(check_rng(5, "anchor-count"), COORD))
    # phi_map applies the bracket and the connection to each basis e_j, whose
    # coefficients are constant: connection_apply_l builds no rho(alpha), and
    # the bracket builds rho(e_j) only because alpha = x e_1 is not constant
    phi_map(COORD, conn, COORD.basis_l(0).scale(X))
    assert calls == [COORD.basis_l(0), COORD.basis_l(1)]
    calls.clear()
    phi_map(COORD, conn, COORD.basis_l(1))
    assert calls == []
    # a non-constant coefficient of xi still gets its derivative: with
    # Gamma = 0, nabla_(e_1) (x e_2) = d/dx(x) e_2 = e_2
    zero = LeftConnectionOnL.zero(COORD)
    assert connection_apply_l(COORD, zero, COORD.basis_l(0), COORD.basis_l(1).scale(X)) \
        == COORD.basis_l(1)
    assert calls == [COORD.basis_l(0)]


@given(a=polys(2, max_degree=2), xi=lelements(COORD, max_degree=1, max_terms=1),
       alpha=lelements(COORD, max_degree=1, max_terms=1))
@settings(max_examples=15)
def test_phi_map_is_a_linear_in_xi(a, xi, alpha):
    rng = check_rng(13, "phi-a-linear")
    conn = LeftConnectionOnL(random_christoffel(rng, COORD))
    endo = phi_map(COORD, conn, alpha)
    direct = (COORD.bracket(alpha, xi.scale(a))
              - connection_apply_l(COORD, conn, alpha, xi.scale(a)))
    assert direct == endo.apply(xi).scale(a)


def test_phi_trace_is_the_trace_of_phi_map(catalog):
    # random tables are not torsion-free; alpha is random or a basis element
    ground_ranks = set()
    for name, loaded in catalog.items():
        alg = loaded.algebra
        ground_ranks.add(alg.m == 0)
        rng = check_rng(71, f"phi-trace:{name}")
        for _ in range(6):
            conn = LeftConnectionOnL(random_christoffel(rng, alg))
            assert not is_torsion_free(alg, conn), name
            for alpha in (random_lelement(rng, alg),) + tuple(map(alg.basis_l, range(alg.n))):
                assert phi_trace(alg, conn, alpha) == trace_endo(phi_map(alg, conn, alpha)), \
                    (name, str(alpha))
    assert ground_ranks == {True, False}


RANK2_ZERO = LeftConnectionOnL.zero(ABELIAN)
ABELIAN3 = LieRinehartAlgebra.abelian(3)
ZEROS2 = (PolyElement.zero(0),) * 2


@pytest.mark.parametrize("call", [
    lambda: TopElement(2, PolyElement.one(0)) - TopElement(3, PolyElement.one(0)),
    lambda: EndoOfL((ABELIAN.basis_l(0), ABELIAN.basis_l(1))).apply(ABELIAN3.basis_l(2)),
    lambda: phi_trace(ABELIAN3, RANK2_ZERO, ABELIAN3.basis_l(0)),
    lambda: connection_apply_l(ABELIAN3, RANK2_ZERO, ABELIAN3.basis_l(0), ABELIAN3.basis_l(1)),
    lambda: induced_top_connection(ABELIAN3, RANK2_ZERO),
    lambda: covariant_derivative(ABELIAN3, TopConnection(ZEROS2),
                                 AltForm(3, 0, 1, {(0,): PolyElement.one(0)})),
    lambda: covariant_derivative(ABELIAN3, TopConnection(ZEROS2 + ZEROS2[:1]),
                                 AltForm(2, 0, 1, {(0,): PolyElement.one(0)})),
    lambda: top_from_right(ABELIAN3, RightConnectionOnA(ZEROS2)),
    lambda: right_from_top(ABELIAN3, TopConnection(ZEROS2)),
], ids=["top-sub", "endo-apply", "phi-trace", "connection-apply-l", "induced-top-connection",
        "covariant-derivative-gamma", "covariant-derivative-form", "top-from-right",
        "right-from-top"])
def test_connection_layer_rejects_a_rank_mismatch(call):
    # as `one_circ` does: no zip truncates and no index runs past a row
    with pytest.raises(ValueError, match="rank mismatch"):
        call()


def test_rank_zero_endomorphism_maps_to_the_zero_element():
    # with no images there is no term to sum
    assert EndoOfL(()).apply(LElement(())) == LElement(())


def trace_mutant(anchor: bool = True, slot=lambda i, j: j):
    """The sum of `phi_trace`, written out; `anchor=False` drops the anchor term
    and `slot` picks the coefficient of Gamma[i][j] that it reads."""
    def mutant(alg, conn, alpha):
        out = PolyElement.zero(alg.m)
        for i, a in enumerate(alpha.coeffs):
            for j in range(alg.n):
                out = out + a * (alg.bracket_basis(i, j).coeffs[j]
                                 - conn.table[i][j].coeffs[slot(i, j)])
        if anchor:
            for rho, a in zip(alg.anchor, alpha.coeffs):
                out = out - rho(a)
        return out
    return mutant


def linear_connection_outcomes(loaded):
    report = suites.run_suite(loaded, suites=("linear-connection",), trials=4)
    return {o.name: o for o in report.outcomes}


@pytest.mark.parametrize("name, mutant", [
    ("coordinate-2d", trace_mutant(anchor=False)),
    ("heisenberg-dim3", trace_mutant(slot=lambda i, j: i)),
], ids=["no-anchor-term", "reads-gamma-ij-i"])
def test_trace_identity_catches_phi_trace_mutants(catalog, monkeypatch, name, mutant):
    loaded = catalog[name]
    monkeypatch.setattr(suites, "phi_trace", trace_mutant())
    assert linear_connection_outcomes(loaded)["trace-identity"].status == "pass"
    monkeypatch.setattr(suites, "phi_trace", mutant)
    outcome = linear_connection_outcomes(loaded)["trace-identity"]
    assert outcome.status == "fail"
    assert outcome.witness.startswith("trace identity fails for alpha="), outcome.witness


@pytest.mark.parametrize("trials", [32, 1])
@pytest.mark.parametrize("name", ["sl2", "coordinate-2d"])
def test_trace_identity_catches_a_trace_that_skips_one_christoffel_entry(catalog, monkeypatch,
                                                                        name, trials):
    # phi_trace without Gamma[n-1][n-1]_(n-1), in every module that holds it: a
    # fault in the Gamma direction, which the comparison at e_1, .., e_n sees for
    # every alpha, alpha = 0 included, so one trial catches it
    def mutant(alg, conn, alpha):
        k = alg.n - 1
        return phi_trace(alg, conn, alpha) + alpha.coeffs[k] * conn.table[k][k].coeffs[k]

    loaded = catalog[name]
    alg = loaded.algebra
    for module in (connections, correspond, suites):
        monkeypatch.setattr(module, "phi_trace", mutant)
    conn = LeftConnectionOnL(random_christoffel(check_rng(0, "skip-one-entry"), alg, 2))
    zero = alg.zero_l()
    assert suites._trace_fault(alg, conn, zero, mutant(alg, conn, zero),
                               induced_top_connection(alg, conn), volume(alg)) \
        == "generator differs from the induced-connection one"
    report = suites.run_suite(loaded, suites=("linear-connection",), trials=trials)
    outcome = {o.name: o for o in report.outcomes}["trace-identity"]
    assert outcome.status == "fail"
    assert outcome.witness.startswith("trace identity fails for alpha="), outcome.witness


@pytest.mark.parametrize("name", ["coordinate-2d", "sl2"])
def test_trace_identity_catches_a_trace_that_adds_off_diagonal_entries(catalog, monkeypatch,
                                                                       name):
    # phi_trace reads only the components Gamma[i][j]_j; the suite draws full
    # tables, so a trace that also reads the other components of Gamma[i][j] is
    # caught, which it would not be on tables with only those components
    def mutant(alg, conn, alpha):
        out = phi_trace(alg, conn, alpha)
        for i, a in enumerate(alpha.coeffs):
            for j in range(alg.n):
                for k in range(alg.n):
                    if k != j:
                        out = out - a * conn.table[i][j].coeffs[k]
        return out

    monkeypatch.setattr(suites, "phi_trace", mutant)
    outcome = linear_connection_outcomes(catalog[name])["trace-identity"]
    assert outcome.status == "fail"
    assert outcome.witness.startswith("trace identity fails for alpha="), outcome.witness


@pytest.mark.parametrize("name", ["coordinate-2d", "sl2"])
def test_torsionfree_lift_check_catches_an_off_diagonal_bump(catalog, monkeypatch, name):
    # e_1 added to Gamma[0][1] alone: the induced top connection is unchanged,
    # and only T[0][1] (and T[1][0] = -T[0][1]) can see it
    original = correspond.torsionfree_lift

    def bumped_lift(alg, target, base=None):
        rows = [list(row) for row in original(alg, target, base).table]
        rows[0][1] = rows[0][1] + alg.basis_l(0)
        return LeftConnectionOnL(tuple(map(tuple, rows)))

    loaded = catalog[name]
    assert linear_connection_outcomes(loaded)["torsionfree-lift"].status == "pass"
    monkeypatch.setattr(suites, "torsionfree_lift", bumped_lift)
    outcome = linear_connection_outcomes(loaded)["torsionfree-lift"]
    assert outcome.status == "fail"
    # the first unit target, gamma = 0, already has the torsion
    zeros = ", ".join(["0"] * loaded.algebra.n)
    assert outcome.witness == f"lift has torsion for gamma=({zeros})", outcome.witness


def lift_plus(term):
    """torsionfree_lift with term(gamma_1) added to Gamma[0][0]_0, which moves
    the induced gamma_1 alone and leaves the torsion as it is."""
    original = correspond.torsionfree_lift

    def lift(alg, target, base=None):
        rows = [list(row) for row in original(alg, target, base).table]
        coeffs = list(rows[0][0].coeffs)
        coeffs[0] = coeffs[0] + term(target.gamma[0])
        rows[0][0] = LElement(tuple(coeffs))
        return LeftConnectionOnL(tuple(map(tuple, rows)))
    return lift


@pytest.mark.parametrize("trials", [32, 2])
@pytest.mark.parametrize("name, term", [
    ("sl2", lambda g: g * g - g),
    ("nonabelian-dim2", lambda g: g * g - g),
    ("coordinate-2d", lambda g: g * g - g),
    # Q-linear in gamma but not A-linear
    ("coordinate-2d", lambda g: g.diff(0)),
    ("poisson-linear-2d", lambda g: g.diff(0)),
], ids=["square-sl2", "square-nonabelian-dim2", "square-coordinate-2d",
        "derivative-coordinate-2d", "derivative-poisson-linear-2d"])
def test_lift_draws_catch_what_the_unit_targets_cannot(catalog, monkeypatch, name, term,
                                                        trials):
    # each term vanishes on the constants 0 and 1, so the lift of every unit
    # target is right and only a random target shows the fault
    loaded = catalog[name]
    alg = loaded.algebra
    monkeypatch.setattr(suites, "torsionfree_lift", lift_plus(term))
    assert all(suites._lift_fault(alg, TopConnection(v)) == ""
               for v in suites._unit_probes(alg))
    report = suites.run_suite(loaded, suites=("linear-connection",), trials=trials)
    outcome = {o.name: o for o in report.outcomes}["torsionfree-lift"]
    assert outcome.status == "fail"
    assert outcome.witness.startswith("lift induces the wrong connection for ("), \
        outcome.witness


@pytest.mark.parametrize("trials", [32, 2])
@pytest.mark.parametrize("name", ["sl2", "abelian-dim2", "coordinate-2d"])
def test_bijection_draws_catch_a_round_trip_not_affine_in_r(catalog, monkeypatch, name, trials):
    # each r_i read back as r_i^2, which is r_i at the unit probes; the file's r
    # is 0 on these entries, so only a random r can show it
    original = correspond.right_from_generator

    def squared(alg, gen):
        return RightConnectionOnA(tuple(c * c for c in original(alg, gen).r))

    loaded = catalog[name]
    alg = loaded.algebra
    assert not any(loaded.right_connection().r)
    monkeypatch.setattr(suites, "right_from_generator", squared)
    assert all(squared(alg, suites.GeneratorD(alg, RightConnectionOnA(v))).r == v
               for v in suites._unit_probes(alg))
    report = suites.run_suite(loaded, suites=("bijections",), trials=trials)
    outcome = {o.name: o for o in report.outcomes}["right-roundtrips"]
    assert outcome.status == "fail"
    assert outcome.witness.startswith("generator round trip moved r=("), outcome.witness


@pytest.mark.parametrize("name", ["sl2", "coordinate-2d"])
def test_divergence_identity_catches_a_negated_lie_derivative(catalog, monkeypatch, name):
    # only the divergence line reads the generalized Lie derivative; the other
    # two lines of the shared draw must not notice
    original = suites.generalized_lie_derivative
    loaded = catalog[name]
    monkeypatch.setattr(suites, "generalized_lie_derivative",
                        lambda *args: -original(*args))
    outcomes = linear_connection_outcomes(loaded)
    assert outcomes["trace-identity"].status == "pass"
    assert outcomes["torsionfree-lift"].status == "pass"
    outcome = outcomes["divergence-identity"]
    assert outcome.status == "fail"
    assert outcome.witness.startswith("divergence identity fails for alpha="), outcome.witness


def test_trace_endo_examples():
    ident = EndoOfL((COORD.basis_l(0), COORD.basis_l(1)))
    assert trace_endo(ident) == PolyElement.const(2, 2)
    # ad_{e2} on the nonabelian algebra has trace -1
    ad = EndoOfL((NONAB.bracket_basis(1, 0), NONAB.bracket_basis(1, 1)))
    assert trace_endo(ad) == PolyElement.const(0, -1)
    nilpotent = EndoOfL((NONAB.zero_l(), NONAB.basis_l(0)))
    assert trace_endo(nilpotent) == PolyElement.zero(0)


def test_trace_identity_random():
    rng = check_rng(17, "trace-identity")
    for alg in (COORD, NONAB):
        for _ in range(8):
            conn = LeftConnectionOnL(random_christoffel(rng, alg))
            alpha = random_lelement(rng, alg)
            induced = induced_top_connection(alg, conn)
            trace = trace_endo(phi_map(alg, conn, alpha))
            x = TopElement(alg.n, random_poly(rng, alg.m))
            lhs = trace * x.coefficient
            rhs = (lie_derivative_top(alg, alpha, x)
                   - connection_apply_top(alg, induced, alpha, x)).coefficient
            assert lhs == rhs


def test_induced_top_connection_examples():
    assert induced_top_connection(COORD, LeftConnectionOnL.zero(COORD)).gamma \
        == (PolyElement.zero(2), PolyElement.zero(2))
    # n=2: Gamma[1][1][1] = a, Gamma[1][2][2] = b gives gamma_1 = a + b
    a, b = X, Y
    table = ((COORD.basis_l(0).scale(a), COORD.basis_l(1).scale(b)),
             (COORD.zero_l(), COORD.zero_l()))
    conn = LeftConnectionOnL(table)
    assert induced_top_connection(COORD, conn).gamma == (a + b, PolyElement.zero(2))
    # diagonal Christoffels Gamma[i][j][j] = g_i / n recover gamma_i = g_i
    half = PolyElement.const(2, Fraction(1, 2))
    diag = LeftConnectionOnL(tuple(tuple(COORD.basis_l(j).scale(half * g)
                                         for j in range(2))
                                   for g in (X, Y)))
    assert induced_top_connection(COORD, diag).gamma == (X, Y)


def test_zero_torsion_consequence():
    rng = check_rng(19, "zero-torsion")
    conn = half_structure_connection(NONAB)
    assert is_torsion_free(NONAB, conn)
    for _ in range(8):
        alpha = random_lelement(rng, NONAB)
        xi = random_lelement(rng, NONAB)
        assert phi_map(NONAB, conn, alpha).apply(xi) \
            == -connection_apply_l(NONAB, conn, xi, alpha)


def test_dual_right_connection_examples():
    flat = TopConnection((PolyElement.zero(0), PolyElement.zero(0)))
    ident = identity_top_form(ABELIAN)
    out = dual_right_connection(ABELIAN, flat, ident, ABELIAN.basis_l(0))
    assert out.is_zero()
    # f = identity reproduces (1 o alpha) for the corresponding right connection
    rng = check_rng(23, "dual-right")
    for alg in (COORD, NONAB):
        gamma = TopConnection(tuple(random_poly(rng, alg.m) for _ in range(alg.n)))
        conn = right_from_top(alg, gamma)
        alpha = random_lelement(rng, alg)
        ident = identity_top_form(alg)
        out = dual_right_connection(alg, gamma, ident, alpha)
        assert out.value_on_increasing(full_tuple(alg.n)) == one_circ(alg, conn, alpha)
        # product rule: (a Id) o alpha = a (Id o alpha) - alpha(a) Id
        a = random_poly(rng, alg.m)
        out_scaled = dual_right_connection(alg, gamma, ident.scale(a), alpha)
        expected = (a * one_circ(alg, conn, alpha) - alg.anchor_apply(alpha, a))
        assert out_scaled.value_on_increasing(full_tuple(alg.n)) == expected


def test_divergence_examples():
    ident = identity_top_form(COORD)
    assert divergence_rank_one(lambda f: f, ident) == PolyElement.one(2)
    assert divergence_rank_one(lambda f: f.scale(PolyElement.zero(2)), ident) \
        == PolyElement.zero(2)
    assert divergence_rank_one(lambda f: f.scale(X), ident) == X


def test_divergence_identity():
    rng = check_rng(29, "divergence")
    for alg in (COORD, NONAB):
        for _ in range(6):
            conn = LeftConnectionOnL(random_christoffel(rng, alg))
            induced = induced_top_connection(alg, conn)
            alpha = random_lelement(rng, alg)
            div = divergence_rank_one(
                lambda f: generalized_lie_derivative(alg, induced, alpha, f),
                identity_top_form(alg))
            assert -div == trace_endo(phi_map(alg, conn, alpha))


def test_divergence_rejects_non_unit_basis():
    with pytest.raises(ValueError):
        divergence_rank_one(lambda x: x, AltForm(2, 2, 2, {(0, 1): X}))
