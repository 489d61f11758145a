"""The random streams behind every randomized check, pinned draw by draw.

A report is reproducible from (file, seed, trials, degree bound) only
while these draws stay the same, so each expected value below is a
literal that was printed by an earlier version of `bvcalc.sampling`.
"""

import random

import pytest

from bvcalc.catalog import load_catalog
from bvcalc.poly import PolyElement
from bvcalc.sampling import (
    COEFF_MAX,
    COEFF_MIN,
    MAX_TERMS,
    check_rng,
    random_christoffel,
    random_poly,
)

from reference import random_multivector


def test_ground_field_polynomials():
    rng = check_rng(0, "pin")
    assert [str(random_poly(rng, 0)) for _ in range(5)] == ["5", "2", "-9", "25", "2"]


def test_polynomials_at_degree_bounds_zero_and_three():
    rng = check_rng(0, "pin")
    assert [str(random_poly(rng, 2, degree_bound=0)) for _ in range(5)] == \
        ["-6", "8", "3", "-5", "9"]
    rng = check_rng(0, "pin")
    assert [str(random_poly(rng, 2, degree_bound=3)) for _ in range(5)] == [
        "-1*x1*x2^2", "2", "-4*x2^2", "-2*x1*x2^2 + 8*x1^2 - 2", "6*x1^2*x2 - 9*x2^2 - 4"]


def test_christoffel_table_on_nonabelian_dim2():
    table = random_christoffel(check_rng(0, "pin"), load_catalog("nonabelian-dim2").algebra)
    assert [[str(entry) for entry in row] for row in table] == [
        ["(5)*e1 + (2)*e2", "(-9)*e1 + (25)*e2"],
        ["(2)*e1", "(-3)*e1 + (6)*e2"]]


def test_multivector_on_coordinate_2d():
    mv = random_multivector(check_rng(0, "pin"), load_catalog("coordinate-2d").algebra)
    assert sorted((key, str(a)) for key, a in mv.components.items()) == [
        ((0, 1), "-5*x1*x2 + 3*x2 + 2"), ((1,), "-8*x2^2")]


@pytest.mark.parametrize("m", [0, 2])
def test_random_poly_rejects_a_negative_degree_bound_before_any_draw(m):
    # randint(0, -1) raised from randrange, and a bare getrandbits rejection
    # loop on an empty range would never return
    rng = check_rng(0, "pin")
    state = rng.getstate()
    with pytest.raises(ValueError, match="degree_bound must be at least 0, got -1"):
        random_poly(rng, m, degree_bound=-1)
    assert rng.getstate() == state


def constructor_draws(rng, m, degree_bound):
    """The draws of `random_poly`, in their order, unmerged, for `PolyElement(m, ...)`."""
    terms = []
    for _ in range(rng.randint(1, MAX_TERMS)):
        exps = [0] * m
        if m:
            for _ in range(rng.randint(0, degree_bound)):
                exps[rng.randrange(m)] += 1
        terms.append((tuple(exps), rng.randint(COEFF_MIN, COEFF_MAX)))
    return terms


def test_random_poly_is_the_constructor_on_the_same_draws():
    # same terms in the same order, the same text, and the stream left where
    # the constructor's draws leave it
    for m in range(4):
        for degree_bound in range(6):
            for seed in range(1000):
                rng, oracle = random.Random(seed), random.Random(seed)
                p = random_poly(rng, m, degree_bound)
                q = PolyElement(m, constructor_draws(oracle, m, degree_bound))
                assert list(p.terms.items()) == list(q.terms.items()), (m, degree_bound, seed)
                assert str(p) == str(q)
                assert rng.getstate() == oracle.getstate(), (m, degree_bound, seed)
