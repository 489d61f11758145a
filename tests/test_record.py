from fractions import Fraction

import pytest

from bvcalc.algebra import AxiomViolation, LElement
from bvcalc.algfile import LoadedAlgebra
from bvcalc.bv import GeneratorD, RightConnectionOnA, SquareResult
from bvcalc.catalog import load_catalog
from bvcalc.connections import EndoOfL, LeftConnectionOnL, TopConnection
from bvcalc.correspond import top_from_right
from bvcalc.exterior import TopElement
from bvcalc.homology import ChainComplex
from bvcalc.poly import DerivationOfA, PolyElement
from bvcalc.suites import CheckOutcome, VerificationReport

from conftest import fresh_copy


def x1_and_half():
    return (PolyElement.variable(2, 0), PolyElement.const(2, Fraction(1, 2)))


# two builds of each record type from equal (not identical) field values
RECORDS = {
    "LElement": lambda: LElement(x1_and_half()),
    "DerivationOfA": lambda: DerivationOfA(x1_and_half()),
    "RightConnectionOnA": lambda: RightConnectionOnA(x1_and_half()),
    "TopConnection": lambda: TopConnection(x1_and_half()),
    "AxiomViolation": lambda: AxiomViolation("jacobi", (0, 1, 2), "cyclic sum = e1"),
    "TopElement": lambda: TopElement(2, PolyElement.variable(2, 1)),
    "EndoOfL": lambda: EndoOfL((LElement(x1_and_half()),)),
    "LeftConnectionOnL": lambda: LeftConnectionOnL(((LElement(x1_and_half()),),)),
    "CheckOutcome": lambda: CheckOutcome("generator", "identity", "fail", witness="w"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_and_class_give_equal_records_and_hashes(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert repr(first).startswith(f"{name}(")


def test_a_different_class_with_equal_fields_is_unequal():
    built = {name: make() for name, make in RECORDS.items()}
    for name, record in built.items():
        for other_name, other in built.items():
            assert (record == other) == (name == other_name), (name, other_name)
    assert RightConnectionOnA(x1_and_half()) != x1_and_half()
    assert LElement(x1_and_half()) != RightConnectionOnA(x1_and_half())


def test_a_different_field_gives_an_unequal_record():
    assert LElement(x1_and_half()) != LElement(x1_and_half()[::-1])
    assert CheckOutcome("a", "b", "pass") != CheckOutcome("a", "b", "pass", detail="d")
    assert TopElement(2, PolyElement.one(2)) != TopElement(3, PolyElement.one(2))


def test_records_with_a_dict_or_list_field_compare_but_do_not_hash():
    alg = load_catalog("sl2").algebra
    square = SquareResult(False, "D^2(e{1}) = (1)")
    assert square == SquareResult(False, "D^2(e{1}) = (1)")
    assert square != SquareResult(True, None)
    chain = ChainComplex((1, 1), (({0: 1},),))
    assert chain == ChainComplex((1, 1), (({0: 1},),))
    report = VerificationReport("f", "a", 0, 4, 3)
    assert report.outcomes == [] and report.elapsed == 0.0
    assert report == VerificationReport("f", "a", 0, 4, 3, outcomes=[], elapsed=0.0)
    for record in (alg, chain, report, LoadedAlgebra(alg)):
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("name", ["sl2", "coordinate-2d", "poisson-linear-2d"])
def test_an_algebra_equals_its_fresh_copy_after_the_caches_are_filled(name):
    alg = load_catalog(name).algebra
    copy = fresh_copy(alg)
    top_from_right(alg, RightConnectionOnA(tuple(PolyElement.zero(alg.m)
                                                 for _ in range(alg.n))))
    assert alg.lie_traces
    assert not copy.lie_traces
    assert alg == copy and copy == alg
    assert repr(alg) == repr(copy)
    assert "lie_traces" not in repr(alg)
    assert alg != fresh_copy(load_catalog("abelian-dim2").algebra)


@pytest.mark.parametrize("name", ["sl2", "coordinate-2d"])
def test_a_generator_equals_its_fresh_copy_after_its_table_is_filled(name):
    loaded = load_catalog(name)
    alg, conn = loaded.algebra, loaded.right_connection()
    gen, copy = GeneratorD(alg, conn), GeneratorD(fresh_copy(alg), conn)
    for s in range(1 << alg.n):
        gen.ground(s)
    assert len(gen.table) == 1 << alg.n and not copy.table
    assert len(alg.bracket_parts) == 1 << alg.n and not copy.alg.bracket_parts
    assert gen == copy
    assert repr(gen) == repr(copy) and "table" not in repr(gen)
    assert "bracket_parts" not in repr(gen)
    shifted = RightConnectionOnA((conn.r[0] + 1,) + conn.r[1:])
    assert gen != GeneratorD(alg, shifted)


def test_loaded_algebras_compare_by_their_fields():
    assert load_catalog("sl2") == load_catalog("sl2")
    assert load_catalog("sl2") != load_catalog("heisenberg-dim3")
    loaded = load_catalog("coordinate-2d")
    assert LoadedAlgebra(loaded.algebra, source="x") != LoadedAlgebra(loaded.algebra)
