"""The random streams behind every randomized check, pinned draw by draw.

A report is reproducible from (file, seed, trials, degree bound) only
while these draws stay the same, so each expected value below is a
literal that was printed by an earlier version of `bvcalc.sampling`.
"""

from bvcalc.catalog import load_catalog
from bvcalc.sampling import check_rng, random_christoffel, random_multivector, random_poly


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
