import pytest

from bvcalc.algfile import KEYS, AlgebraFileError, load, loads
from bvcalc.catalog import CATALOG_NAMES, catalog_path, load_catalog, resolve
from bvcalc.poly import PolyElement


def test_catalog_loads_and_passes_axioms():
    for name in CATALOG_NAMES:
        loaded = load_catalog(name)
        assert loaded.algebra.verify_axioms() == []
        assert loaded.algebra.name == name


def test_coordinate_2d_contents():
    loaded = load_catalog("coordinate-2d")
    alg = loaded.algebra
    assert (alg.m, alg.n) == (2, 2)
    assert alg.anchor[0].components[0] == PolyElement.one(2)
    assert not alg.structure
    assert loaded.gamma is not None
    assert all(not g for g in loaded.gamma.gamma)


def test_nonabelian_dim2_round_trip():
    loaded = load_catalog("nonabelian-dim2")
    alg = loaded.algebra
    assert alg.bracket_basis(0, 1) == alg.basis_l(0)
    r = loaded.right_connection()
    assert r.r == (PolyElement.zero(0), PolyElement.const(0, -1))


def test_expect_nonflat_flag():
    assert load_catalog("nonabelian-dim2-nonflat").expect_nonflat
    assert not load_catalog("nonabelian-dim2").expect_nonflat


def test_loads_minimal_file():
    loaded = loads("""
        # tiny abelian example
        name = tiny
        m = 0
        n = 1
        gamma = [2]
    """)
    assert loaded.algebra.n == 1
    assert loaded.gamma.gamma == (PolyElement.const(0, 2),)


def test_loads_with_all_blocks():
    loaded = loads("""
        name = full
        m = 1
        n = 2
        anchor[1][1] = x1
        anchor[2][1] = x1
        gamma = [0, 0]
        Gamma[1][1][1] = x1
        suites = axioms, generator
    """)
    assert loaded.Gamma is not None
    assert loaded.Gamma.table[0][0].coeffs[0] == PolyElement.variable(1, 0)
    assert loaded.suites == ("axioms", "generator")


def test_parse_error_reports_line():
    with pytest.raises(AlgebraFileError) as excinfo:
        loads("m = 0\nn = 1\nc[1][1][1] = 1\n")
    assert "line 3" in str(excinfo.value)


def test_polynomial_error_reports_line_and_column():
    with pytest.raises(AlgebraFileError) as excinfo:
        loads("m = 2\nn = 1\nanchor[1][1] = x3\n")
    err = str(excinfo.value)
    assert "line 3" in err and "column" in err
    assert err == "variable x3 out of range (m=2) (line 3, column 16)"


@pytest.mark.parametrize("line, message", [
    ("c[1][2][1] = 1/0", "zero denominator (line 3, column 16)"),
    ("  c[1][2][1] =   1/0  # comment", "zero denominator (line 3, column 20)"),
    ("gamma = [1/0, 0]", "bad polynomial '1/0': zero denominator (line 3, column 12)"),
    ("r = [0,  1/0]", "bad polynomial '1/0': zero denominator (line 3, column 12)"),
])
def test_polynomial_error_column_counts_from_the_start_of_the_line(line, message):
    with pytest.raises(AlgebraFileError) as excinfo:
        loads(f"m = 0\nn = 2\n{line}\n")
    err = str(excinfo.value)
    assert "line 3" in err and "column" in err
    assert err == message


def test_axiom_violation_names_triple():
    text = """
        name = broken
        m = 0
        n = 3
        c[1][2][3] = 1
        c[1][3][1] = 1
    """
    with pytest.raises(AlgebraFileError, match="jacobi"):
        loads(text)
    try:
        loads(text)
    except AlgebraFileError as exc:
        assert "e1, e2, e3" in str(exc)


def test_missing_dimensions_rejected():
    with pytest.raises(AlgebraFileError, match="must set both"):
        loads("name = nothing\n")


def test_wrong_vector_length_rejected():
    with pytest.raises(AlgebraFileError, match="2 entries"):
        loads("m = 0\nn = 2\ngamma = [1]\n")


def test_unknown_key_rejected():
    with pytest.raises(AlgebraFileError, match="unknown key"):
        loads("m = 0\nn = 1\nbogus = 3\n")


def test_long_unknown_suite_is_quoted_by_a_short_prefix():
    with pytest.raises(AlgebraFileError) as excinfo:
        loads(f"m = 0\nn = 1\nsuites = axioms, {'s' * 5000}\n")
    assert str(excinfo.value) == (
        "unknown suite(s): ssssssssssssssssssss...; choose from axioms, generator, "
        "bijections, duality, bracket-expansion, linear-connection, homology (line 3)")


def test_inconsistent_r_and_gamma_rejected():
    # nonabelian: gamma = (0,0) corresponds to r = (0,-1), not (0,0)
    with pytest.raises(AlgebraFileError, match="do not correspond") as info:
        loads("m = 0\nn = 2\nc[1][2][1] = 1\ngamma = [0, 0]\nr = [0, 0]\n")
    assert info.value.line == 5
    # the later of the two lines is named, whichever key it sets
    with pytest.raises(AlgebraFileError, match="do not correspond") as info:
        loads("m = 0\nn = 2\nr = [0, 0]\ngamma = [0, 0]\nc[1][2][1] = 1\n")
    assert info.value.line == 4


def test_consistent_r_and_gamma_accepted():
    loaded = loads("m = 0\nn = 2\nc[1][2][1] = 1\ngamma = [0, 0]\nr = [0, -1]\n")
    assert loaded.r.r == loaded.right_connection().r


def test_load_from_path(tmp_path):
    path = tmp_path / "sample.alg"
    path.write_text("name = sample\nm = 0\nn = 1\n", encoding="utf-8")
    loaded = load(path)
    assert loaded.algebra.name == "sample"
    assert loaded.source == str(path)


def test_missing_file_raises():
    with pytest.raises(AlgebraFileError, match="cannot read"):
        load("/nonexistent/path.alg")


def test_resolve_prefers_files(tmp_path):
    path = tmp_path / "sl2"
    path.write_text("m = 0\nn = 1\n", encoding="utf-8")
    import os
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert resolve("sl2").name == "sl2"
    finally:
        os.chdir(cwd)
    assert resolve("sl2") == catalog_path("sl2")
    with pytest.raises(FileNotFoundError):
        resolve("no-such-algebra")


def test_default_connection_is_flat_zero():
    loaded = loads("m = 0\nn = 2\nc[1][2][1] = 1\n")
    assert all(not g for g in loaded.top_connection().gamma)


# a valid file: rho(e1) = d/dx1, rho(e2) = x1 d/dx1, [e1, e2] = e1
BASE = ("m = 1\nn = 2\nanchor[1][1] = 1\nc[1][2][1] = 1\nGamma[1][2][2] = 1\n"
        "anchor[2][1] = x1\n")


@pytest.mark.parametrize("repeat, first_line", [
    ("m = 1", 1),
    ("n = 3", 2),  # used to load silently as rank 3
    ("anchor[1][1] = x1", 3),
    ("c[1][2][1] = 2", 4),
    ("Gamma[1][2][2] = 0", 5),
])
def test_duplicate_key_rejected_naming_both_lines(repeat, first_line):
    assert loads(BASE).algebra.n == 2
    with pytest.raises(AlgebraFileError, match=f"first set on line {first_line}") as info:
        loads(BASE + repeat + "\n")
    assert "duplicate key" in str(info.value)
    assert info.value.line == 7


# (line, index count of its key, index count found): one index too many for
# every key of KEYS, and one too few for each indexed key
WRONG_INDEX_COUNTS = [
    ("name[1] = other", 0, 1),
    ("m[1] = 1", 0, 1),
    ("n[1] = 3", 0, 1),
    ("gamma[1] = [0, 0]", 0, 1),
    ("r[1] = [0, 0]", 0, 1),
    ("expect_nonflat[1] = true", 0, 1),
    ("suites[1] = axioms", 0, 1),
    ("anchor[1][1][1] = 1", 2, 3),
    ("anchor[1] = 1", 2, 1),
    ("c[1][2][1][1] = 1", 3, 4),
    ("c[1][2] = 1", 3, 2),
    ("Gamma[1][2][2][1] = 1", 3, 4),
    ("Gamma[1][2] = 1", 3, 2),
]


def test_wrong_index_counts_cover_every_key():
    assert {line.split("[", 1)[0]: count for line, count, _ in WRONG_INDEX_COUNTS} == KEYS


@pytest.mark.parametrize("line, count, found", WRONG_INDEX_COUNTS)
def test_wrong_index_count_rejected_on_its_line(line, count, found):
    # a bracketed scalar key would pass the duplicate-key check and override
    # the value set without brackets
    with pytest.raises(AlgebraFileError, match=rf"^expected {count} indices, found {found} "
                                               r"\(line 7\)$") as info:
        loads(BASE + line + "\n")
    assert info.value.line == 7


def test_duplicate_key_compares_indices_as_numbers():
    with pytest.raises(AlgebraFileError, match="first set on line 3"):
        loads("m = 0\nn = 2\nc[1][2][1] = 1\nc[01][2][1] = 1\n")


def test_rank_zero_rejected_on_its_line():
    with pytest.raises(AlgebraFileError, match="at least 1") as info:
        loads("name = empty\nm = 0\nn = 0\n")
    assert info.value.line == 3


def test_unknown_suite_rejected_on_its_line():
    with pytest.raises(AlgebraFileError, match=r"unknown suite\(s\): bogus; .*\(line 4\)"):
        loads("m = 0\nn = 1\n# defaults\nsuites = axioms, bogus\n")


@pytest.mark.parametrize("value", ["", " ,", ", ,  ,"])
def test_empty_suite_list_rejected_on_its_line(value):
    # an empty selection would otherwise read as unset and run every suite
    with pytest.raises(AlgebraFileError, match=r"at least one suite") as info:
        loads(f"m = 0\nn = 1\nsuites ={value}\n")
    assert info.value.line == 3
