"""Acceptance criteria for the whole package, one test per criterion.

Everything is property-based and exact: the tolerance is exact equality
in Q throughout.  Each test prints a single pass/fail line so the run
reads as a checklist (use ``pytest -s tests/test_acceptance.py``).
"""

import ast
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import bvcalc
from bvcalc.bv import (
    GeneratorD,
    RightConnectionOnA,
    generator_square,
    is_generator,
    one_circ,
)
from bvcalc.catalog import CATALOG_NAMES, load_catalog
from bvcalc.connections import (
    LeftConnectionOnL,
    TopConnection,
    connection_apply_l,
    connection_apply_top,
    divergence_rank_one,
    generalized_lie_derivative,
    identity_top_form,
    induced_top_connection,
    is_flat,
    is_torsion_free,
    lie_derivative_top,
    phi_map,
    trace_endo,
)
from bvcalc.correspond import (
    check_bracket_pairing_identity,
    check_generator_duality,
    generator_from_top,
    right_from_generator,
    right_from_top,
    top_from_right,
)
from bvcalc.correspond import torsionfree_lift
from bvcalc.exterior import Multivector
from bvcalc.homology import homology_dims, rinehart_complex
from bvcalc.poly import PolyElement
from bvcalc.sampling import check_rng, random_christoffel, random_lelement, random_poly_vector

TRIALS = 32
CATALOG = {name: load_catalog(name) for name in CATALOG_NAMES}


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({description}): PASS [{elapsed:.2f}s]")


def test_criterion_1_generator_identity_for_random_right_connections():
    with criterion(1, "explicit operator generates the bracket"):
        started = time.perf_counter()
        rng = check_rng(0, "acceptance-1")
        for name, loaded in CATALOG.items():
            alg = loaded.algebra
            for k in range(TRIALS):
                conn = RightConnectionOnA(random_poly_vector(rng, alg.m, alg.n))
                ok, witness = is_generator(alg, GeneratorD(alg, conn), trials=1, seed=k)
                assert ok, f"{name}: {witness}"
        assert time.perf_counter() - started < 5.0


def test_criterion_2_square_zero_iff_flat():
    with criterion(2, "exact generators correspond to flat connections"):
        flat_cases = [
            ("abelian-dim2", TopConnection((PolyElement.zero(0), PolyElement.zero(0)))),
            ("nonabelian-dim2", TopConnection((PolyElement.zero(0), PolyElement.const(0, 4)))),
            ("coordinate-2d", TopConnection((PolyElement.zero(2), PolyElement.zero(2)))),
            # characters of the Heisenberg algebra kill the center
            ("heisenberg-dim3", TopConnection(tuple(PolyElement.const(0, c)
                                                    for c in (5, 7, 0)))),
        ]
        nonflat_cases = [
            ("nonabelian-dim2", TopConnection((PolyElement.one(0), PolyElement.zero(0)))),
            ("coordinate-2d", TopConnection((PolyElement.zero(2), PolyElement.variable(2, 0)))),
            ("heisenberg-dim3", TopConnection(tuple(PolyElement.const(0, c) for c in (0, 0, 1)))),
            ("poisson-symplectic-2d", TopConnection((PolyElement.variable(2, 0),
                                                     PolyElement.zero(2)))),
        ]
        for name, gamma in flat_cases:
            alg = CATALOG[name].algebra
            assert is_flat(alg, gamma), name
            assert generator_square(alg, generator_from_top(alg, gamma)) == (True, None), name
        for name, gamma in nonflat_cases:
            alg = CATALOG[name].algebra
            assert not is_flat(alg, gamma), name
            exact, _ = generator_square(alg, generator_from_top(alg, gamma))
            assert not exact, name


def test_criterion_3_bijection_coherence():
    with criterion(3, "cycles among r, gamma, D are the identity"):
        rng = check_rng(0, "acceptance-3")
        for name, loaded in CATALOG.items():
            alg = loaded.algebra
            for _ in range(TRIALS):
                r = RightConnectionOnA(random_poly_vector(rng, alg.m, alg.n))
                assert right_from_generator(alg, GeneratorD(alg, r)).r == r.r, name
                assert right_from_top(alg, top_from_right(alg, r)).r == r.r, name
                gamma = TopConnection(random_poly_vector(rng, alg.m, alg.n))
                assert top_from_right(alg, right_from_top(alg, gamma)).gamma \
                    == gamma.gamma, name
                via_gen = right_from_generator(alg, generator_from_top(alg, gamma))
                assert top_from_right(alg, via_gen).gamma == gamma.gamma, name


def test_criterion_4_duality_diagram_and_bracket_expansion():
    with criterion(4, "generator/top-connection duality in every degree"):
        for name, loaded in CATALOG.items():
            alg = loaded.algebra
            gamma = loaded.top_connection()
            gen = GeneratorD(alg, loaded.right_connection())
            ok, witness = check_generator_duality(alg, gen, gamma, trials=4, seed=4)
            assert ok, f"{name}: {witness}"
            ok, witness = check_bracket_pairing_identity(alg, gen, gamma, trials=4, seed=4)
            assert ok, f"{name}: {witness}"
            perturbed = TopConnection((gamma.gamma[0] + 1,) + gamma.gamma[1:])
            ok, witness = check_generator_duality(alg, gen, perturbed, trials=1, seed=4)
            assert not ok and witness, f"{name}: perturbation undetected"


def test_criterion_5_trace_divergence_and_zero_torsion():
    with criterion(5, "trace, divergence, and zero-torsion identities"):
        rng = check_rng(0, "acceptance-5")
        for name, loaded in CATALOG.items():
            alg = loaded.algebra
            volume = PolyElement.one(alg.m)  # e_1^...^e_n, as its coefficient
            for _ in range(TRIALS):
                conn = LeftConnectionOnL(random_christoffel(rng, alg))
                alpha = random_lelement(rng, alg)
                induced = induced_top_connection(alg, conn)
                trace = trace_endo(phi_map(alg, conn, alpha))
                # trace identity against the Lie derivative
                lie = lie_derivative_top(alg, alpha, volume)
                nabla = connection_apply_top(alg, induced, alpha, volume)
                assert trace == lie - nabla, name
                # the chain trace = 1 o alpha = D(alpha)
                r = right_from_top(alg, induced)
                assert trace == one_circ(alg, r, alpha), name
                d_alpha = GeneratorD(alg, r)(Multivector.from_lelement(alpha))
                assert trace == d_alpha.component((), alg.m), name
                # divergence identity
                div = divergence_rank_one(
                    lambda f: generalized_lie_derivative(alg, induced, alpha, f),
                    identity_top_form(alg))
                assert -div == trace, name
            # zero-torsion consequence on torsion-free connections
            for _ in range(8):
                target = TopConnection(random_poly_vector(rng, alg.m, alg.n))
                tf = torsionfree_lift(alg, target)
                assert is_torsion_free(alg, tf), name
                alpha = random_lelement(rng, alg)
                xi = random_lelement(rng, alg)
                assert phi_map(alg, tf, alpha).apply(xi) \
                    == -connection_apply_l(alg, tf, xi, alpha), name


def test_criterion_6_torsionfree_lift_postconditions():
    with criterion(6, "torsion-free lift induces the prescribed connection"):
        rng = check_rng(0, "acceptance-6")
        half = Fraction(1, 2)
        for name, loaded in CATALOG.items():
            alg = loaded.algebra
            base_half = LeftConnectionOnL(tuple(
                tuple(alg.bracket_basis(i, j).scale(PolyElement.const(alg.m, half))
                      for j in range(alg.n)) for i in range(alg.n)))
            induced_base = induced_top_connection(alg, base_half)
            for _ in range(TRIALS):
                target = TopConnection(random_poly_vector(rng, alg.m, alg.n))
                lift = torsionfree_lift(alg, target)
                assert is_torsion_free(alg, lift), name
                assert induced_top_connection(alg, lift).gamma == target.gamma, name
                phi = [[lift.table[i][j] - base_half.table[i][j]
                        for j in range(alg.n)] for i in range(alg.n)]
                defect = [t - g for t, g in zip(target.gamma, induced_base.gamma)]
                for i in range(alg.n):
                    trace = PolyElement.zero(alg.m)
                    for j in range(alg.n):
                        assert phi[i][j] == phi[j][i], name  # symmetry
                        trace = trace + phi[i][j].coeffs[j]
                    assert trace == defect[i], name  # trace condition


def test_criterion_7_homology_golden_values():
    with criterion(7, "golden Betti numbers"):
        golden = {
            "abelian-dim2": (1, 2, 1),
            "nonabelian-dim2": (0, 1, 1),
            "sl2": (1, 0, 0, 1),
        }
        for name, betti in golden.items():
            loaded = CATALOG[name]
            alg = loaded.algebra
            gen = GeneratorD(alg, loaded.right_connection())
            started = time.perf_counter()
            complex_ = rinehart_complex(alg, gen)
            assert homology_dims(complex_) == betti, name
            assert time.perf_counter() - started < 1.0, name
        # the nonabelian case uses exactly r = (0, -1)
        flat_r = CATALOG["nonabelian-dim2"].right_connection()
        assert flat_r.r == (PolyElement.zero(0), PolyElement.const(0, -1))


def _rows(columns, height):
    """Sparse boundary columns {row: value} as `height` dense rows."""
    return [[column.get(i, Fraction(0)) for column in columns] for i in range(height)]


def test_criterion_8_boundary_squares_to_zero_matching_generator_square():
    with criterion(8, "chain boundaries square to zero exactly"):
        for name, loaded in CATALOG.items():
            alg = loaded.algebra
            if alg.m != 0:
                continue
            gen = GeneratorD(alg, loaded.right_connection())
            exact, _ = generator_square(alg, gen)
            if not exact:
                assert loaded.expect_nonflat, name
                try:
                    rinehart_complex(alg, gen)
                except ValueError:
                    continue
                raise AssertionError(f"{name}: non-exact generator was admitted")
            complex_ = rinehart_complex(alg, gen)
            assert complex_.d_squared_is_zero(), name
            for p in range(1, alg.n):
                d_p = _rows(complex_.boundaries[p - 1], complex_.dims[p - 1])
                d_next = _rows(complex_.boundaries[p], complex_.dims[p])
                product = [[sum((d_p[i][k] * d_next[k][j] for k in range(len(d_next))),
                                Fraction(0))
                            for j in range(len(d_next[0]))]
                           for i in range(len(d_p))]
                assert all(not v for row in product for v in row), name


def test_no_import_inside_a_function():
    # every module of the package imports what it needs at its top, so a
    # lazy import cannot hide an import cycle
    package = Path(bvcalc.__file__).parent
    nested = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
