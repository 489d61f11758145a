from fractions import Fraction
from itertools import combinations

import pytest

from bvcalc import correspond
from bvcalc.algebra import LElement, LieRinehartAlgebra
from bvcalc.bv import GeneratorD, RightConnectionOnA, generator_square, gerstenhaber_bracket
from bvcalc.catalog import CATALOG_NAMES, load_catalog
from bvcalc.connections import (
    LeftConnectionOnL,
    TopConnection,
    covariant_derivative,
    induced_top_connection,
    is_flat,
    is_torsion_free,
    lie_trace,
)
from bvcalc.correspond import (
    check_bracket_pairing_identity,
    check_generator_duality,
    generator_from_linear_connection,
    generator_from_top,
    right_from_generator,
    right_from_top,
    top_from_right,
    torsionfree_lift,
)
from bvcalc.exterior import Multivector, basis_label, full_tuple, phi_iso
from bvcalc.poly import PolyElement, parse_poly
from bvcalc.sampling import check_rng, random_poly, random_poly_vector

from conftest import BAD_DRAW_ARGUMENTS
from reference import evaluate_on_multivector, homogeneous_part

COORD = LieRinehartAlgebra.coordinate(2)
NONAB = LieRinehartAlgebra.from_structure_constants(2, {(0, 1): (1, 0)}, name="nonabelian-dim2")
ABELIAN = LieRinehartAlgebra.abelian(2)


def test_right_from_generator_examples():
    zero = RightConnectionOnA((PolyElement.zero(2), PolyElement.zero(2)))
    assert right_from_generator(COORD, GeneratorD(COORD, zero)).r == zero.r
    flat = RightConnectionOnA((PolyElement.zero(0), PolyElement.const(0, -1)))
    assert right_from_generator(NONAB, GeneratorD(NONAB, flat)).r == flat.r


def test_right_from_generator_random_roundtrip():
    rng = check_rng(31, "right-roundtrip")
    for alg in (COORD, NONAB, ABELIAN):
        for _ in range(6):
            conn = RightConnectionOnA(random_poly_vector(rng, alg.m, alg.n))
            assert right_from_generator(alg, GeneratorD(alg, conn)).r == conn.r


def test_top_from_right_examples():
    # abelian: gamma = -r
    r = RightConnectionOnA((PolyElement.const(0, 3), PolyElement.const(0, -2)))
    assert top_from_right(ABELIAN, r).gamma == tuple(-p for p in r.r)
    # nonabelian with r = (0,-1): lie traces are (0,-1), so gamma = 0
    flat = RightConnectionOnA((PolyElement.zero(0), PolyElement.const(0, -1)))
    assert top_from_right(NONAB, flat).gamma == (PolyElement.zero(0), PolyElement.zero(0))
    # and back
    assert right_from_top(NONAB, top_from_right(NONAB, flat)).r == flat.r


def test_lie_traces_are_kept_per_algebra_after_first_use():
    # gamma = lie_trace - r, so r = 0 reads the kept traces back; the
    # algebras differ in rank and in their traces, so a shared or stale
    # cache gives a wrong gamma
    for name in CATALOG_NAMES:
        alg = load_catalog(name).algebra
        assert alg.lie_traces == [], name  # nothing is computed at load time
        direct = tuple(lie_trace(alg, alg.basis_l(i)) for i in range(alg.n))
        zero = RightConnectionOnA(tuple(PolyElement.zero(alg.m) for _ in range(alg.n)))
        for _ in range(2):
            assert top_from_right(alg, zero).gamma == direct, name
        assert alg.lie_traces == list(direct), name


def test_right_from_top_flat_gives_exact_generator():
    for alg in (COORD, NONAB, ABELIAN):
        gamma = TopConnection(tuple(PolyElement.zero(alg.m) for _ in range(alg.n)))
        assert is_flat(alg, gamma)
        gen = generator_from_top(alg, gamma)
        assert generator_square(alg, gen, trials=2).is_exact


def test_bijection_cycles_exact():
    rng = check_rng(37, "cycles")
    for alg in (COORD, NONAB, ABELIAN):
        for _ in range(6):
            r = RightConnectionOnA(random_poly_vector(rng, alg.m, alg.n))
            assert right_from_top(alg, top_from_right(alg, r)).r == r.r
            gamma = TopConnection(random_poly_vector(rng, alg.m, alg.n))
            assert top_from_right(alg, right_from_top(alg, gamma)).gamma == gamma.gamma
            via_generator = right_from_generator(alg, generator_from_top(alg, gamma))
            assert top_from_right(alg, via_generator).gamma == gamma.gamma


def test_duality_matched_pairs():
    rng = check_rng(41, "duality")
    for alg in (COORD, NONAB, ABELIAN):
        gamma = TopConnection(random_poly_vector(rng, alg.m, alg.n))
        gen = generator_from_top(alg, gamma)
        ok, witness = check_generator_duality(alg, gen, gamma, trials=3, seed=1)
        assert ok, witness


def test_duality_trivial_abelian():
    gamma = TopConnection((PolyElement.zero(0), PolyElement.zero(0)))
    gen = generator_from_top(ABELIAN, gamma)
    ok, witness = check_generator_duality(ABELIAN, gen, gamma, trials=2, seed=0)
    assert ok, witness


def test_duality_detects_mismatch():
    gamma = TopConnection((PolyElement.zero(0), PolyElement.zero(0)))
    gen = generator_from_top(NONAB, gamma)
    wrong = TopConnection((gamma.gamma[0] + 1, gamma.gamma[1]))
    ok, witness = check_generator_duality(NONAB, gen, wrong, trials=2, seed=0)
    assert not ok
    assert witness


def test_duality_true_exactly_for_the_corresponding_connection():
    rng = check_rng(43, "duality-iff")
    gamma = TopConnection(random_poly_vector(rng, NONAB.m, NONAB.n))
    gen = generator_from_top(NONAB, gamma)
    matched = top_from_right(NONAB, right_from_generator(NONAB, gen))
    assert matched.gamma == gamma.gamma
    ok, _ = check_generator_duality(NONAB, gen, matched, trials=2, seed=5)
    assert ok


def test_duality_fails_on_an_image_of_the_wrong_degree(catalog):
    # D + (the degree-1 part of its argument) sends e_1 to an image of degree
    # 1, which phi_iso cannot read as a form of degree n - 0: a failed check
    # naming u, not a ValueError
    for name, witness in [
        ("sl2", "D((1)*e{1})=(1)*e{1} is not of degree 0"),
        ("coordinate-2d", "D((4*x1*x2 + 7*x1)*e{1})=(-4*x2 - 7) + (4*x1*x2 + 7*x1)*e{1} "
                          "is not of degree 0"),
    ]:
        loaded = catalog[name]
        gamma = loaded.top_connection()
        gen = generator_from_top(loaded.algebra, gamma)
        assert check_generator_duality(loaded.algebra, gen, gamma, trials=2, seed=0) == (True, None)
        op = lambda u: gen(u) + homogeneous_part(u, 1)
        assert check_generator_duality(loaded.algebra, op, gamma, trials=2,
                                       seed=0) == (False, witness), name


def test_bracket_pairing_identity_on_catalog(catalog):
    for name in ("abelian-dim2", "nonabelian-dim2", "coordinate-2d", "sl2"):
        loaded = catalog[name]
        alg = loaded.algebra
        gamma = loaded.top_connection()
        gen = generator_from_top(alg, gamma)
        ok, witness = check_bracket_pairing_identity(alg, gen, gamma, trials=2, seed=2)
        assert ok, f"{name}: {witness}"


def test_bracket_pairing_identity_detects_mismatch_on_ground_field(catalog):
    # m = 0 evaluates d(phi_u) from per-subset forms; a wrong gamma must
    # still be caught, with a witness
    for name in ("nonabelian-dim2", "sl2", "heisenberg-dim3"):
        loaded = catalog[name]
        alg = loaded.algebra
        gamma = loaded.top_connection()
        gen = generator_from_top(alg, gamma)
        perturbed = TopConnection((gamma.gamma[0] + 1,) + gamma.gamma[1:])
        ok, witness = check_bracket_pairing_identity(alg, gen, perturbed, trials=2, seed=2)
        assert not ok, name
        assert witness.startswith("p=")


def test_generator_from_linear_connection_examples():
    # Gamma = 0 on the coordinate algebra gives r = 0, so D(x d/dx) = -1
    gen = generator_from_linear_connection(COORD, LeftConnectionOnL.zero(COORD))
    assert all(not p for p in gen.connection.r)
    x = PolyElement.variable(2, 0)
    out = gen(Multivector(2, [((0,), x)]))
    assert out == Multivector.scalar(2, PolyElement.const(2, -1))
    # half-structure connection on the nonabelian algebra: r = (0, -1/2)
    half = PolyElement.const(0, Fraction(1, 2))
    conn = LeftConnectionOnL(tuple(tuple(NONAB.bracket_basis(i, j).scale(half)
                                         for j in range(2)) for i in range(2)))
    gen = generator_from_linear_connection(NONAB, conn)
    assert gen.connection.r == (PolyElement.zero(0), PolyElement.const(0, Fraction(-1, 2)))


def test_generator_depends_only_on_induced_connection():
    rng = check_rng(47, "induced-only")
    for alg in (COORD, NONAB):
        rows = [[LElement(random_poly_vector(rng, alg.m, alg.n))
                 for _ in range(alg.n)] for _ in range(alg.n)]
        conn1 = LeftConnectionOnL(tuple(tuple(row) for row in rows))
        # change off-diagonal coefficients: the induced connection is untouched
        bumped = [[row for row in rows_i] for rows_i in rows]
        bump = alg.basis_l(1).scale(random_poly(rng, alg.m))
        bumped[0][0] = bumped[0][0] + bump  # only affects Gamma[0][0][1]
        conn2 = LeftConnectionOnL(tuple(tuple(row) for row in bumped))
        assert induced_top_connection(alg, conn1).gamma \
            == induced_top_connection(alg, conn2).gamma
        gen1 = generator_from_linear_connection(alg, conn1)
        gen2 = generator_from_linear_connection(alg, conn2)
        assert gen1.connection.r == gen2.connection.r


def test_generator_from_linear_connection_equals_induced_route():
    rng = check_rng(53, "koszul-route")
    for alg in (COORD, NONAB):
        for _ in range(4):
            rows = tuple(tuple(LElement(random_poly_vector(rng, alg.m, alg.n))
                               for _ in range(alg.n)) for _ in range(alg.n))
            conn = LeftConnectionOnL(rows)
            via_trace = generator_from_linear_connection(alg, conn)
            via_induced = right_from_top(alg, induced_top_connection(alg, conn))
            assert via_trace.connection.r == via_induced.r


def test_torsionfree_lift_zero_defect():
    half = PolyElement.const(0, Fraction(1, 2))
    base = LeftConnectionOnL(tuple(tuple(NONAB.bracket_basis(i, j).scale(half)
                                         for j in range(2)) for i in range(2)))
    target = induced_top_connection(NONAB, base)
    assert torsionfree_lift(NONAB, target).table == base.table


def test_torsionfree_lift_abelian_worked_example():
    g = PolyElement.const(0, 7)
    lift = torsionfree_lift(ABELIAN, TopConnection((g, PolyElement.zero(0))))
    third = Fraction(1, 3)
    assert lift.table[0][0] == ABELIAN.basis_l(0).scale(PolyElement.const(0, 2 * third * 7))
    assert lift.table[0][1] == ABELIAN.basis_l(1).scale(PolyElement.const(0, third * 7))
    assert lift.table[1][0] == ABELIAN.basis_l(1).scale(PolyElement.const(0, third * 7))
    assert lift.table[1][1].is_zero()
    # trace condition: Tr Phi(e1) = g, Tr Phi(e2) = 0
    assert induced_top_connection(ABELIAN, lift).gamma == (g, PolyElement.zero(0))


def test_torsionfree_lift_postconditions_random():
    rng = check_rng(59, "lift-postconditions")
    for alg in (COORD, NONAB, ABELIAN):
        for _ in range(6):
            target = TopConnection(random_poly_vector(rng, alg.m, alg.n))
            lift = torsionfree_lift(alg, target)
            assert is_torsion_free(alg, lift)
            assert induced_top_connection(alg, lift).gamma == target.gamma


def test_torsionfree_lift_phi_symmetry_and_trace():
    rng = check_rng(61, "lift-symmetry")
    half = PolyElement.const(2, Fraction(1, 2))
    base = LeftConnectionOnL(tuple(tuple(COORD.bracket_basis(i, j).scale(half)
                                         for j in range(2)) for i in range(2)))
    for _ in range(6):
        target = TopConnection(random_poly_vector(rng, 2, 2))
        lift = torsionfree_lift(COORD, target)
        phi = [[lift.table[i][j] - base.table[i][j] for j in range(2)] for i in range(2)]
        defect = [t - g for t, g in zip(target.gamma,
                                        induced_top_connection(COORD, base).gamma)]
        for i in range(2):
            for j in range(2):
                assert phi[i][j] == phi[j][i]
            trace = phi[i][0].coeffs[0] + phi[i][1].coeffs[1]
            assert trace == defect[i]


def lift_from_scaled_basis_vectors(alg, target, base=None):
    """The lift as `LElement` arithmetic: base + (phi_i e_j + phi_j e_i) / (n + 1)."""
    n = alg.n
    if base is None:
        half = PolyElement.const(alg.m, Fraction(1, 2))
        base = LeftConnectionOnL(tuple(tuple(alg.bracket_basis(i, j).scale(half)
                                             for j in range(n)) for i in range(n)))
    phi = [t - g for t, g in zip(target.gamma, induced_top_connection(alg, base).gamma)]
    inv = PolyElement.const(alg.m, Fraction(1, n + 1))
    return LeftConnectionOnL(tuple(
        tuple(base.table[i][j] + (alg.basis_l(j).scale(phi[i])
                                  + alg.basis_l(i).scale(phi[j])).scale(inv)
              for j in range(n))
        for i in range(n)))


def test_torsionfree_lift_equals_the_scaled_basis_vector_form_on_the_catalog(catalog):
    for name, loaded in catalog.items():
        alg = loaded.algebra
        rng = check_rng(1501, f"lift-oracle-{name}")
        for _ in range(8):
            target = TopConnection(random_poly_vector(rng, alg.m, alg.n))
            assert torsionfree_lift(alg, target) == lift_from_scaled_basis_vectors(alg, target)
            sym = [[LElement(random_poly_vector(rng, alg.m, alg.n, 1))
                    for _ in range(alg.n)] for _ in range(alg.n)]
            base = LeftConnectionOnL(tuple(tuple(sym[min(i, j)][max(i, j)]
                                                 for j in range(alg.n)) for i in range(alg.n)))
            assert torsionfree_lift(alg, target, base) == \
                lift_from_scaled_basis_vectors(alg, target, base)


def test_torsionfree_lift_alternative_base():
    # any torsion-free base yields the postconditions; perturb by a
    # symmetric correction
    rng = check_rng(67, "lift-alt-base")
    for alg in (NONAB, COORD):
        half = PolyElement.const(alg.m, Fraction(1, 2))
        sym = [[alg.zero_l() for _ in range(alg.n)] for _ in range(alg.n)]
        for i in range(alg.n):
            for j in range(i, alg.n):
                entry = LElement(random_poly_vector(rng, alg.m, alg.n))
                sym[i][j] = entry
                sym[j][i] = entry
        base = LeftConnectionOnL(tuple(tuple(alg.bracket_basis(i, j).scale(half) + sym[i][j]
                                             for j in range(alg.n)) for i in range(alg.n)))
        assert is_torsion_free(alg, base)
        target = TopConnection(random_poly_vector(rng, alg.m, alg.n))
        lift = torsionfree_lift(alg, target, base=base)
        assert is_torsion_free(alg, lift)
        assert induced_top_connection(alg, lift).gamma == target.gamma


def test_flatness_transport_both_directions():
    # flat <-> exact generator on flat and non-flat instances
    flat_cases = [
        (ABELIAN, TopConnection((PolyElement.zero(0), PolyElement.zero(0)))),
        (NONAB, TopConnection((PolyElement.zero(0), PolyElement.const(0, 4)))),
        (COORD, TopConnection((PolyElement.zero(2), PolyElement.zero(2)))),
    ]
    nonflat_cases = [
        (NONAB, TopConnection((PolyElement.one(0), PolyElement.zero(0)))),
        (COORD, TopConnection((PolyElement.zero(2), PolyElement.variable(2, 0)))),
        (COORD, TopConnection((PolyElement.variable(2, 1), PolyElement.zero(2)))),
    ]
    for alg, gamma in flat_cases:
        assert is_flat(alg, gamma)
        assert generator_square(alg, generator_from_top(alg, gamma), trials=2).is_exact
    for alg, gamma in nonflat_cases:
        assert not is_flat(alg, gamma)
        assert not generator_square(alg, generator_from_top(alg, gamma), trials=2).is_exact


def test_bracket_pairing_identity_witness_with_a_half_shifted_gamma(catalog):
    loaded = catalog["nonabelian-dim2"]
    alg = loaded.algebra
    gamma = loaded.top_connection()
    gen = generator_from_top(alg, gamma)
    perturbed = TopConnection((gamma.gamma[0] + Fraction(1, 2),) + gamma.gamma[1:])
    assert check_bracket_pairing_identity(alg, gen, perturbed, trials=2, seed=2) == (
        False, "p=1 u=(1)*e{1} v=(1)*e{1,2} lhs=1/2 rhs=0")


def test_bracket_pairing_loop_calls_the_generator_on_every_v(catalog):
    loaded = catalog["sl2"]
    alg = loaded.algebra
    gamma = loaded.top_connection()
    gen = generator_from_top(alg, gamma)
    n = alg.n
    # D is called once on each e_T, 1 <= |T| <= n, from the largest T down,
    # whatever trials and seed are
    expected = [Multivector.basis(n, t_key, m=0)
                for p in range(1, n + 1) for t_key in combinations(range(n), n - p + 1)]
    assert len(set(expected)) == 2 ** n - 1
    for trials, seed in ((2, 3), (1, 0)):
        calls = []

        def recording(v):
            calls.append(v)
            return gen(v)

        assert check_bracket_pairing_identity(alg, recording, gamma, trials=trials,
                                              seed=seed) == (True, None)
        assert calls == expected


def test_ground_duality_and_pairing_have_no_seed_or_trial_count(catalog):
    # the file's gamma passes and gamma_1 + 1 fails, with one result per check
    seen = set()
    for name, loaded in catalog.items():
        alg = loaded.algebra
        if alg.m:
            continue
        gamma = loaded.top_connection()
        gen = generator_from_top(alg, gamma)
        perturbed = TopConnection((gamma.gamma[0] + 1,) + gamma.gamma[1:])
        for check in (check_generator_duality, check_bracket_pairing_identity):
            for conn in (gamma, perturbed):
                results = {check(alg, gen, conn, trials=trials, seed=seed)
                           for trials, seed in ((1, 0), (8, 0), (8, 5))}
                assert len(results) == 1, (name, check.__name__, results)
                (ok, witness), = results
                assert ok == (conn is gamma) and (ok or witness), (name, check.__name__)
                seen.add(name)
    assert len(seen) == 5


# -- the pairing identity at m > 0 -------------------------------------------


def perturbations(gamma):
    """gamma_1 + 1, gamma_1 + 1/2 and gamma_n + x_1 (gamma_n + 1 at m = 0)."""
    g = gamma.gamma
    m = g[0].m
    last = PolyElement.variable(m, 0) if m else 1
    return (TopConnection((g[0] + 1,) + g[1:]),
            TopConnection((g[0] + Fraction(1, 2),) + g[1:]),
            TopConnection(g[:-1] + (g[-1] + last,)))


def pairing_draws(alg, trials, seed, degree_bound=3):
    """The coefficients of `check_bracket_pairing_identity`, in its draw order.

    Per pass and per p = 1..n: one b for each (n - p + 1)-subset T, then one
    a for each p-subset S; coefficient 1 and one pass at m = 0.
    """
    rng = check_rng(seed, "bracket_pairing")
    n, m = alg.n, alg.m

    def draw():
        return random_poly(rng, m, degree_bound) if m else PolyElement.one(0)

    for _ in range(trials if m else 1):
        for p in range(1, n + 1):
            right = [(t_key, draw()) for t_key in combinations(range(n), n - p + 1)]
            left = [(s_key, draw()) for s_key in combinations(range(n), p)]
            yield p, left, right


def reference_pairing_identity(alg, gen, conn, trials, seed):
    """The pairing identity pair by pair on `Multivector`s, fed the check's draws.

    Each side is a top coefficient: d(phi_u) evaluated on v, and
    u ^ gen(v) plus the recursive `gerstenhaber_bracket(u, v)`.
    """
    n, m = alg.n, alg.m
    top = full_tuple(n)
    for p, left, right in pairing_draws(alg, trials, seed):
        for s_key, a in left:
            u = Multivector(n, [(s_key, a)])
            form = covariant_derivative(alg, conn, phi_iso(u, m, degree=p))
            for t_key, b in right:
                v = Multivector(n, [(t_key, b)])
                lhs = evaluate_on_multivector(form, v).coefficient
                rhs = (u.wedge(gen(v)).component(top, m)
                       + gerstenhaber_bracket(alg, u, v).component(top, m))
                if p % 2:
                    rhs = -rhs
                if lhs != rhs:
                    return False, (f"p={p} u=({a})*{basis_label(s_key)} "
                                   f"v=({b})*{basis_label(t_key)} lhs={lhs} rhs={rhs}")
    return True, None


def test_m_positive_pairing_identity_fails_on_every_perturbed_gamma(catalog):
    names = [name for name, loaded in catalog.items() if loaded.algebra.m]
    assert len(names) == 4
    for name in names:
        loaded = catalog[name]
        alg = loaded.algebra
        gamma = loaded.top_connection()
        gen = generator_from_top(alg, gamma)
        for seed in range(3):
            assert check_bracket_pairing_identity(alg, gen, gamma, trials=2,
                                                  seed=seed) == (True, None), (name, seed)
            for conn in perturbations(gamma):
                ok, witness = check_bracket_pairing_identity(alg, gen, conn, trials=2, seed=seed)
                assert not ok and witness.startswith("p="), (name, seed, witness)


def split_witness(witness, m):
    """'p=.. u=.. v=.. lhs=L rhs=R' as (the text up to v, L, R), L and R as polynomials."""
    head, sides = witness.split(" lhs=")
    lhs, rhs = sides.split(" rhs=")
    return head, parse_poly(lhs, m), parse_poly(rhs, m)


def test_pairing_identity_matches_the_multivector_reference(catalog):
    # the same verdict, the same first failing (p, S, T) with its coefficients,
    # and equal sides as the per-pair Multivector evaluation on the same draws;
    # only the term order of a printed polynomial may differ
    failures = 0
    for name, loaded in catalog.items():
        alg = loaded.algebra
        gamma = loaded.top_connection()
        gen = generator_from_top(alg, gamma)
        for conn in (gamma,) + perturbations(gamma):
            for trials, seed in ((2, 0), (2, 1), (1, 2)):
                ok, witness = check_bracket_pairing_identity(alg, gen, conn, trials=trials,
                                                             seed=seed)
                ref_ok, ref_witness = reference_pairing_identity(alg, gen, conn, trials, seed)
                assert ok == ref_ok, (name, trials, seed, witness, ref_witness)
                if not ok:
                    failures += 1
                    assert split_witness(witness, alg.m) == split_witness(ref_witness, alg.m), \
                        (name, trials, seed, witness, ref_witness)
                    if not alg.m:
                        assert witness == ref_witness
    assert failures == 9 * 3 * 3


def test_m_positive_pairing_loop_calls_the_generator_once_per_t_per_pass(catalog):
    for name, loaded in catalog.items():
        alg = loaded.algebra
        if not alg.m:
            continue
        gamma = loaded.top_connection()
        gen = generator_from_top(alg, gamma)
        for trials, seed in ((3, 0), (1, 4)):
            expected = [Multivector(alg.n, [(t_key, b)])
                        for _, _, right in pairing_draws(alg, trials, seed)
                        for t_key, b in right]
            assert len(expected) == trials * (2 ** alg.n - 1)
            calls = []

            def recording(v):
                calls.append(v)
                return gen(v)

            assert check_bracket_pairing_identity(alg, recording, gamma, trials=trials,
                                                  seed=seed) == (True, None)
            assert calls == expected, name


def test_default_trials_evaluate_every_m_positive_pair_with_nonzero_coefficients(catalog):
    # at the suite's 8 passes no complementary (S, T) passes only on a = 0 or b = 0
    for name, loaded in catalog.items():
        alg = loaded.algebra
        if not alg.m:
            continue
        n = alg.n
        pairs = {(s_key, t_key) for p in range(1, n + 1)
                 for s_key in combinations(range(n), p)
                 for t_key in combinations(range(n), n - p + 1)}
        for seed in (0, 7, 11, 1001):
            seen = {(s_key, t_key) for _, left, right in pairing_draws(alg, 8, seed)
                    for s_key, a in left if a for t_key, b in right if b}
            assert seen == pairs, (name, seed, pairs - seen)


@pytest.mark.parametrize("check", [check_generator_duality, check_bracket_pairing_identity],
                         ids=["duality", "pairing"])
@pytest.mark.parametrize("name", ["sl2", "coordinate-2d"])
@pytest.mark.parametrize("kwargs, message", BAD_DRAW_ARGUMENTS)
def test_pairing_checks_reject_bad_trials_and_degree_bound(catalog, monkeypatch, check, name,
                                                           kwargs, message):
    # trials=-3 passed the pairing identity; degree_bound=-1 raised from randrange
    def no_draw(*args):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(correspond, "random_poly", no_draw)
    monkeypatch.setattr(correspond, "draw_term", no_draw)
    loaded = catalog[name]
    top = loaded.top_connection()
    with pytest.raises(ValueError, match=message):
        check(loaded.algebra, generator_from_top(loaded.algebra, top), top, **kwargs)
