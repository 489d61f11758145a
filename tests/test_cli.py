import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import bvcalc
from bvcalc.algfile import LoadedAlgebra
from bvcalc.catalog import CATALOG_NAMES
from bvcalc.cli import main
from bvcalc.homology import ChainComplex
from bvcalc.poly import MAX_EXPONENT
from bvcalc import suites
from bvcalc.suites import SUITE_NAMES, run_suite
from bvcalc.catalog import load_catalog

from conftest import load_generated


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in CATALOG_NAMES:
        assert name in out


def test_check_passes_on_catalog_entry(capsys):
    code, out, _ = run(capsys, "check", "nonabelian-dim2", "--trials", "4")
    assert code == 0
    assert "overall: pass" in out
    assert "betti=0,1,1" in out


def test_check_machine_format_is_deterministic(capsys):
    args = ("check", "sl2", "--format", "machine", "--trials", "4", "--seed", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "overall=pass" in out1


def test_check_seed_changes_random_data_but_not_verdict(capsys):
    code1, out1, _ = run(capsys, "check", "sl2", "--format", "machine",
                         "--trials", "4", "--seed", "1")
    code2, out2, _ = run(capsys, "check", "sl2", "--format", "machine",
                         "--trials", "4", "--seed", "2")
    assert code1 == code2 == 0
    assert "overall=pass" in out1 and "overall=pass" in out2


def test_check_single_suite_selection(capsys):
    code, out, _ = run(capsys, "check", "coordinate-2d", "--suite", "axioms",
                       "--format", "machine")
    assert code == 0
    assert "check=axioms.structure status=pass" in out
    assert "generator" not in out


def test_check_expected_fail_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "nonabelian-dim2-nonflat", "--trials", "4",
                       "--format", "machine")
    assert code == 0
    assert "check=generator.square-zero status=expected-fail" in out
    assert "overall=pass" in out


def test_check_failure_exits_one_with_witness(capsys, tmp_path):
    # a flat file that claims to be non-flat: the expectation is violated
    path = tmp_path / "liar.alg"
    path.write_text("name = liar\nm = 0\nn = 2\nc[1][2][1] = 1\n"
                    "gamma = [0, 0]\nexpect_nonflat = true\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path), "--trials", "4")
    assert code == 1
    assert "FAIL" in out
    assert "rerun:" in out


def test_check_input_error_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "check", "no-such-algebra")
    assert code == 2
    assert "error" in err
    bad = tmp_path / "bad.alg"
    bad.write_text("m = 0\nn = 1\nc[1][1][1] = 1\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("text, line", [
    ("m = 0\nn = 3\nn[1] = 2\n", 3),
    ("m = 0\nn = 2\ngamma = [0, 0]\ngamma[1] = [1, 0]\n", 4),
    # curved: [e_1, e_2] = e_1 with gamma_1 != 0 fails generator.square-zero
    ("name = curved\nm = 0\nn = 2\nc[1][2][1] = 1\ngamma = [1, 0]\n"
     "expect_nonflat = false\nexpect_nonflat[9] = true\n", 7),
])
def test_check_rejects_a_bracketed_scalar_key_that_overrides_a_value(capsys, tmp_path, text,
                                                                      line):
    # each second line passes the duplicate-key check: read as a value, it would
    # load the first file as rank 2 and turn the third's failure into an expected one
    path = tmp_path / "override.alg"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.endswith(f"expected 0 indices, found 1 (line {line})\n")


def test_homology_command(capsys):
    code, out, _ = run(capsys, "homology", "sl2")
    assert code == 0
    assert "1 0 0 1" in out
    code, out, _ = run(capsys, "homology", "nonabelian-dim2", "--format", "machine")
    assert code == 0
    assert "betti=0,1,1" in out


def test_homology_rejects_polynomial_base(capsys):
    code, _, err = run(capsys, "homology", "coordinate-2d")
    assert code == 2
    assert "m=0" in err


def test_homology_rejects_nonflat(capsys):
    code, _, err = run(capsys, "homology", "nonabelian-dim2-nonflat")
    assert code == 2
    assert "square" in err


def test_run_suite_rejects_unknown_suite():
    loaded = load_catalog("abelian-dim2")
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(loaded, suites=("nope",))


def test_run_suite_rejects_an_empty_suite_selection():
    # () once read as unset and ran every suite; only None means unset
    loaded = load_catalog("sl2")
    message = "suites must name at least one suite; choose from " + ", ".join(SUITE_NAMES)
    for selection in ((), []):
        with pytest.raises(ValueError, match=message):
            run_suite(loaded, suites=selection, trials=1)
    with pytest.raises(ValueError, match=message):
        run_suite(LoadedAlgebra(loaded.algebra, suites=()), trials=1)
    assert len(run_suite(loaded, suites=None, trials=1).outcomes) == 16


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 0}, "trials must be at least 1, got 0"),
    ({"trials": -5}, "trials must be at least 1, got -5"),
    ({"degree_bound": -1}, "degree_bound must be at least 0, got -1"),
])
def test_run_suite_rejects_out_of_range_trials_and_degree_bound(kwargs, message):
    # trials=0 ran no bijections or linear-connection trial and still passed;
    # degree_bound=-1 stopped inside randrange
    with pytest.raises(ValueError, match=message):
        run_suite(load_catalog("coordinate-2d"), **kwargs)


def test_all_suites_on_rank_one_algebra(capsys, tmp_path):
    # rank 1 exercises the empty-subset edges of every suite
    path = tmp_path / "rank-one.alg"
    path.write_text("name = rank-one\nm = 1\nn = 1\nanchor[1][1] = 1\n"
                    "gamma = [x1]\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path), "--trials", "4",
                       "--format", "machine")
    assert code == 0, out
    assert "overall=pass" in out
    code, out, _ = run(capsys, "homology", str(path))
    assert code == 2  # m = 1 is not the ground-field case


def test_witness_rerun_command_is_replayable(capsys, tmp_path):
    path = tmp_path / "liar.alg"
    path.write_text("name = liar\nm = 0\nn = 2\nc[1][2][1] = 1\n"
                    "gamma = [0, 0]\nexpect_nonflat = true\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path), "--trials", "4")
    assert code == 1
    rerun_line = next(line for line in out.splitlines() if "rerun:" in line)
    argv = rerun_line.split("rerun:")[1].split()
    assert argv[0] == "bvcalc"
    code2, out2, _ = run(capsys, *argv[1:])
    assert code2 == 1  # same failure reproduces


@pytest.mark.parametrize("fmt", ["machine", "text"])
def test_rerun_command_quotes_a_path_with_a_space(capsys, tmp_path, fmt):
    # nonabelian-dim2 with a curved gamma: [e_1, e_2] = e_1, so gamma_1 != 0 is not flat
    path = tmp_path / "my algs" / "g2.alg"
    path.parent.mkdir()
    path.write_text("m = 0\nn = 2\nc[1][2][1] = 1\ngamma = [1, 0]\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path), "--trials", "3", "--format", fmt)
    assert code == 1
    if fmt == "machine":
        line = next(line for line in out.splitlines()
                    if line.startswith("check=generator.square-zero status=fail"))
        rerun = line.split(' rerun="')[1][:-1]
    else:
        rerun = next(line for line in out.splitlines() if "rerun:" in line).split("rerun:")[1]
    argv = shlex.split(rerun)
    assert argv == ["bvcalc", "check", str(path), "--suite", "generator", "--seed", "0",
                    "--trials", "3", "--degree-bound", "3"]
    code2, out2, _ = run(capsys, *argv[1:], "--format", fmt)
    assert code2 == 1
    assert "generator.square-zero" in out2


def test_all_suites_pass_on_polynomial_catalog_entry(capsys):
    code, out, _ = run(capsys, "check", "coordinate-2d", "--trials", "2",
                       "--format", "machine")
    assert code == 0
    assert "overall=pass" in out
    assert "status=fail" not in out


def test_every_suite_name_is_runnable(capsys):
    for suite in SUITE_NAMES:
        code, out, _ = run(capsys, "check", "abelian-dim2", "--suite", suite,
                           "--trials", "2", "--format", "machine")
        assert code == 0, (suite, out)


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_check_rejects_trials_below_one(capsys, trials):
    # zero trials would let bijections and linear-connection pass vacuously
    code, out, err = run(capsys, "check", "sl2", "--trials", trials)
    assert code == 2
    assert out == ""
    assert "--trials" in err and "at least 1" in err


@pytest.mark.parametrize("argv", [("check", "sl2"),
                                  ("check", "coordinate-2d", "--suite", "generator")])
def test_rejects_degree_bound_below_zero(capsys, argv):
    # a negative bound used to crash random_poly or print degree_bound=-1
    code, out, err = run(capsys, *argv, "--degree-bound", "-1")
    assert code == 2
    assert out == ""
    assert "--degree-bound" in err and "at least 0" in err


@pytest.mark.parametrize("option", [("--trials", "4"), ("--degree-bound", "3"),
                                    ("--degree-bound", "-1")],
                         ids=["trials", "degree-bound", "negative-degree-bound"])
def test_homology_rejects_options_it_cannot_use(capsys, option):
    # homology draws no random data, so these could not change its output
    code, out, err = run(capsys, "homology", "sl2", *option)
    assert code == 2
    assert out == ""
    assert option[0] in err


def test_homology_seed_does_not_change_the_output(capsys):
    names = ("abelian-dim2", "heisenberg-dim3", "nonabelian-dim2", "sl2")
    plain = run(capsys, "homology", *names, "--format", "machine")
    assert plain[0] == 0
    for seed in ("0", "5"):
        assert run(capsys, "homology", *names, "--format", "machine", "--seed", seed) == plain


@pytest.mark.parametrize("gamma, status", [("0, 0", 1), ("5, 0", 0)])
def test_file_gamma_is_checked_against_the_top_connection(capsys, tmp_path, gamma, status):
    path = tmp_path / "christoffel.alg"
    path.write_text(f"m = 0\nn = 2\ngamma = [{gamma}]\nGamma[1][1][1] = 5\n")
    code, out, _ = run(capsys, "check", str(path), "--format", "machine", "--trials", "2")
    assert code == status
    assert out.count("status=fail") == status
    line = next(line for line in out.splitlines() if "file-connection" in line)
    if status:
        assert line == ('check=linear-connection.file-connection status=fail '
                        'witness="Gamma induces gamma=(5, 0), the file\'s top connection '
                        'is (0, 0)" rerun="bvcalc check ' + str(path) + ' --suite '
                        'linear-connection --seed 0 --trials 2 --degree-bound 3"')
    else:
        assert line == "check=linear-connection.file-connection status=pass"


@pytest.mark.parametrize("command", ["check", "homology"])
def test_non_utf8_file_is_an_input_error(capsys, tmp_path, command):
    path = tmp_path / "latin1.alg"
    path.write_bytes(b"m = 0\nn = 1\nname = caf\xe9\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: byte 0xe9 is not UTF-8 (line 3)\n"


HUGE = "1" * 5000  # over CPython's 4,300-digit limit on int() of a string


@pytest.mark.parametrize("lines, message", [
    ("m = \u00b2\nn = 2", "m must be a non-negative integer (line 1)"),
    (f"m = {HUGE}\nn = 2", "m has too many digits (5000) (line 1)"),
    (f"m = 0\nn = 2\nc[1][{HUGE}][1] = 1", "index has too many digits (5000) (line 3)"),
    ("m = 0\nn = 3\nc[1][\u0662][3] = 1", "malformed key 'c[1][\u0662][3]' (line 3)"),
    ("m = 0\nn = 2\ngamma = [\u00b2,0]", "unexpected character '\u00b2' (line 3, column 10)"),
    ("m = 0\nn = 2\ngamma = [\u0663, 0]", "unexpected character '\u0663' (line 3, column 10)"),
    (f"m = 0\nn = 2\ngamma = [{HUGE}, 0]",
     "number has too many digits (5000) (line 3, column 10)"),
    (f"m = 1\nn = 2\ngamma = [x1^{HUGE}, 0]",
     "number has too many digits (5000) (line 3, column 13)"),
], ids=["superscript-m", "huge-m", "huge-index", "arabic-index", "superscript-gamma",
        "arabic-gamma", "huge-gamma", "huge-exponent"])
def test_file_integer_other_than_ascii_digits_is_an_input_error(tmp_path, lines, message):
    # a non-ASCII digit and an integer longer than int() converts were
    # tracebacks (exit 1), or silently read as their value (U+0662 as 2, U+0663 as 3)
    path = tmp_path / "digits.alg"
    path.write_text(lines + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(bvcalc.__file__).parents[1]),
               PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, "-m", "bvcalc.cli", "check", str(path)],
                          capture_output=True, encoding="utf-8", env=env, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.endswith(message + "\n"), done.stderr
    assert "Traceback" not in done.stderr


def test_exponent_above_the_cap_is_an_input_error(capsys, tmp_path):
    # past the cap a product could carry one field of a monomial key into the next
    path = tmp_path / "power.alg"
    path.write_text(f"m = 1\nn = 1\nanchor[1][1] = 2*x1^{MAX_EXPONENT + 1}\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: exponent 65536 is above 65535 (line 3, column 21)\n"


def test_degree_above_the_cap_is_an_input_error(capsys, tmp_path):
    # every power is within the cap; the product of the term is not
    path = tmp_path / "degree.alg"
    path.write_text(f"m = 1\nn = 1\nanchor[1][1] = x1^{MAX_EXPONENT}*x1\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: total degree 65536 is above 65535 (line 3, column 25)\n"
    assert "Traceback" not in err
    path.write_text(f"m = 2\nn = 1\nanchor[1][1] = x1^{MAX_EXPONENT} + x2^{MAX_EXPONENT}\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "check", str(path), "--suite", "axioms", "--format", "machine")
    assert (code, err) == (0, "")
    assert "check=axioms.structure status=pass" in out


@pytest.mark.parametrize("line, message", [
    (f"gamma = [{HUGE}, 0]", "bad polynomial '11111111111111111111...': "
                             "number has too many digits (5000) (line 4, column 10)"),
    (f"{'k' * 5000} = 1", "unknown key 'kkkkkkkkkkkkkkkkkkkk...' (line 4)"),
    (f"c[1][2][{'x' * 5000}] = 1", "malformed key 'c[1][2][xxxxxxxxxxxx...' (line 4)"),
], ids=["huge-vector-entry", "long-unknown-key", "long-malformed-key"])
def test_long_bad_piece_is_quoted_by_a_short_prefix(tmp_path, line, message):
    # the whole 5,000-character piece used to be repeated in the message
    path = tmp_path / "long.alg"
    path.write_text(f"name = long\nm = 0\nn = 2\n{line}\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(bvcalc.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "bvcalc.cli", "check", str(path)],
                          capture_output=True, encoding="utf-8", env=env, timeout=60)
    assert done.returncode == 2, done.stderr
    assert len(done.stderr) < 200, done.stderr
    assert done.stderr.endswith(message + "\n"), done.stderr


def test_check_rejects_rank_zero_file(capsys, tmp_path):
    path = tmp_path / "rank-zero.alg"
    path.write_text("name = rank-zero\nm = 0\nn = 0\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert "n must be at least 1" in err and "line 3" in err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["sl2", "heisenberg-dim3", "nonabelian-dim2-nonflat",
                                  "coordinate-2d", "coordinate-3d", "poisson-linear-2d",
                                  "poisson-symplectic-2d", "coordinate-2d-halfcurved",
                                  "abelian-dim2", "nonabelian-dim2"])
def test_machine_report_matches_golden(capsys, name):
    # pinned byte for byte: most from the direct (table-free) evaluation,
    # the m > 0 ones while every coefficient was still stored as a Fraction,
    # abelian-dim2 and nonabelian-dim2 from the m = 0 bitmask tables before
    # random-connections became a certificate; the file= line is dropped
    # because it holds the checkout path.  A name with a .alg file beside
    # its golden report is checked from that file.
    fixture = GOLDEN / f"{name}.alg"
    target = str(fixture) if fixture.exists() else name
    code, out, _ = run(capsys, "check", target, "--format", "machine")
    assert code == 0
    first, rest = out.split("\n", 1)
    assert first.startswith("file=")
    assert rest == (GOLDEN / f"{name}.machine").read_text(encoding="utf-8")


def test_failing_d_squared_is_a_failed_check(capsys, monkeypatch):
    # d o d != 0 on boundaries of an exact generator is a failed check
    # (exit 1 with a rerun line), not an input error
    monkeypatch.setattr(ChainComplex, "d_squared_is_zero", lambda self: False)
    code, out, err = run(capsys, "check", "sl2", "--suite", "homology", "--format", "machine")
    assert code == 1, err
    line = next(line for line in out.splitlines() if line.startswith("check=homology."))
    assert line.startswith("check=homology.d-squared status=fail "
                           'detail="boundary matrices do not compose to zero" ')
    assert 'rerun="bvcalc check ' in line and "--suite homology" in line
    assert "homology.betti" not in out and "homology.euler" not in out
    assert out.endswith("overall=fail\n")
    code, out, err = run(capsys, "homology", "sl2")
    assert code == 1
    assert out == "" and "do not compose to zero" in err


LIAR = "name = liar\nm = 0\nn = 2\nc[1][2][1] = 1\ngamma = [0, 0]\nexpect_nonflat = true\n"


def test_check_several_algebras_writes_reports_in_order(capsys):
    common = ("--trials", "2", "--format", "machine")
    _, first, _ = run(capsys, "check", "abelian-dim2", *common)
    _, second, _ = run(capsys, "check", "sl2", *common)
    code, out, err = run(capsys, "check", "abelian-dim2", "sl2", *common)
    assert code == 0 and err == ""
    assert out == first + "\n" + second


def test_check_expected_fail_next_to_passing_algebra(capsys):
    code, out, _ = run(capsys, "check", "nonabelian-dim2-nonflat", "sl2", "--trials", "2",
                       "--format", "machine")
    assert code == 0
    assert "check=generator.square-zero status=expected-fail" in out
    assert out.count("overall=pass") == 2


def test_check_failure_among_several_exits_one(capsys, tmp_path):
    path = tmp_path / "liar.alg"
    path.write_text(LIAR, encoding="utf-8")
    code, out, _ = run(capsys, "check", "sl2", str(path), "--trials", "2",
                       "--format", "machine")
    assert code == 1
    assert out.count("overall=pass") == 1 and out.count("overall=fail") == 1
    assert out.index("algebra=sl2") < out.index("algebra=liar")


def test_check_load_error_among_several_prints_no_report(capsys):
    code, out, err = run(capsys, "check", "sl2", "no-such-algebra", "--trials", "2")
    assert code == 2
    assert out == ""
    assert "no-such-algebra" in err


def test_homology_several_algebras(capsys):
    names = ("abelian-dim2", "heisenberg-dim3", "nonabelian-dim2", "sl2")
    singles = [run(capsys, "homology", name, "--format", "machine")[1] for name in names]
    code, out, err = run(capsys, "homology", *names, "--format", "machine")
    assert code == 0 and err == ""
    assert out == "".join(singles)
    assert [line for line in out.splitlines() if line.startswith("betti=")] == [
        "betti=1,2,1", "betti=1,2,2,1", "betti=0,1,1", "betti=1,0,0,1"]


def test_homology_reports_what_it_can_and_exits_with_the_largest_code(capsys):
    code, out, err = run(capsys, "homology", "sl2", "coordinate-2d")
    assert code == 2
    assert out == "algebra sl2: betti numbers 1 0 0 1\n"
    assert err.startswith("error: coordinate-2d: ") and "m=0" in err


def test_homology_rejects_unknown_suite_in_file(capsys, tmp_path):
    path = tmp_path / "bogus.alg"
    path.write_text("m = 0\nn = 1\nsuites = axioms, bogus\n", encoding="utf-8")
    code, out, err = run(capsys, "homology", str(path))
    assert code == 2
    assert out == ""
    assert "unknown suite(s): bogus" in err and "line 3" in err


def test_check_rejects_an_empty_suite_list_in_file(capsys, tmp_path):
    path = tmp_path / "empty.alg"
    path.write_text("m = 0\nn = 1\n# defaults\nsuites =\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert "suites must name at least one suite" in err and "line 4" in err


def test_importing_the_cli_does_not_load_dataclasses():
    # every invocation pays for what `import bvcalc.cli` loads; dataclasses
    # and the methods it generated for the record types were about 25 ms
    env = dict(os.environ, PYTHONPATH=str(Path(bvcalc.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c",
                           "import sys, bvcalc.cli; print('dataclasses' in sys.modules)"],
                          capture_output=True, encoding="utf-8", env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def spied_calls(monkeypatch) -> list:
    """(function, trials keyword) for each call the suites make, at trials=20 on
    coordinate-2d (m > 0), to the functions their randomized checks call once per
    trial, and to `certify_every_connection`."""
    seen = []

    def spy(name):
        real = getattr(suites, name)

        def call(*args, **kwargs):
            seen.append((name, kwargs.get("trials")))
            return real(*args, **kwargs)
        return call

    for name in ("is_generator", "certify_every_connection", "generator_square",
                 "check_generator_duality", "check_bracket_pairing_identity",
                 "right_from_generator", "generator_from_top", "torsionfree_lift",
                 "generator_from_linear_connection", "divergence_rank_one"):
        monkeypatch.setattr(suites, name, spy(name))
    report = run_suite(load_catalog("coordinate-2d"), trials=20,
                       suites=("generator", "bijections", "duality", "bracket-expansion",
                               "linear-connection"))
    assert report.passed and report.trials == 20
    return seen


def test_trials_reach_each_check_as_the_help_says(monkeypatch):
    # --trials 20 at m > 0: the random connections are one certificate, which draws
    # nothing; the identity's shape probes, the D^2 draws, duality, pairing,
    # bijections, the lift, trace and divergence at most 8, bijections and the lift
    # after the n + 1 = 3 unit probes
    seen = spied_calls(monkeypatch)
    assert seen.count(("is_generator", 8)) == 1
    assert seen.count(("is_generator", 1)) == 0
    assert seen.count(("certify_every_connection", None)) == 1
    assert ("generator_square", 8) in seen
    assert [t for name, t in seen if name == "check_generator_duality"] == [8, 3]
    assert ("check_bracket_pairing_identity", 8) in seen
    assert seen.count(("right_from_generator", None)) == 1 + 3 + 8 + 3 + 8
    assert seen.count(("torsionfree_lift", None)) == 3 + 8
    assert seen.count(("divergence_rank_one", None)) == suites.TRIALS_CAP


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "heisenberg-7"])
def test_linear_connection_lines_do_not_move_above_the_cap(name):
    # every linear-connection line reads the first TRIALS_CAP = 8 draws alone, so
    # on a passing input its report lines are the same at 8, 32 and 64 trials
    loaded = load_generated(name, seed=1) if name == "heisenberg-7" else load_catalog(name)

    def lines(trials):
        report = run_suite(loaded, suites=("linear-connection",), trials=trials)
        return [line for line in suites.render_machine(report).splitlines()
                if line.startswith("check=linear-connection.")]

    assert lines(8)
    assert lines(8) == lines(32) == lines(64)


def test_the_help_and_the_readme_name_the_capped_checks(monkeypatch, capsys):
    # the random trials each randomized check runs at --trials 20 on coordinate-2d
    # (n = 2), read off the calls it makes once per trial; the file's r and the
    # n + 1 unit probes are not random.  generator.random-connections draws
    # nothing (one certificate for every r), so nothing caps it and neither the
    # help nor the README may name it; every other check is capped
    seen = spied_calls(monkeypatch)
    count = [name for name, _ in seen].count
    trials = {name: t for name, t in reversed(seen)}  # each function's first trials=
    draws = {
        "generator.identity": trials["is_generator"],
        "generator.square-zero": trials["generator_square"],
        "generator.flatness-coherence": trials["generator_square"],
        "bijections.right-roundtrips":
            count("right_from_generator") - count("generator_from_top") - 1 - 3,
        "bijections.top-cycles": count("generator_from_top") - 3,
        "duality.matched-pair": trials["check_generator_duality"],
        "bracket-expansion.pairing-identity": trials["check_bracket_pairing_identity"],
        "linear-connection.trace-identity": count("generator_from_linear_connection"),
        "linear-connection.torsionfree-lift": count("torsionfree_lift") - 3,
        "linear-connection.divergence-identity": count("divergence_rank_one"),
    }
    assert set(draws.values()) == {suites.TRIALS_CAP}
    capped = {check for check, k in draws.items() if k == suites.TRIALS_CAP}
    uncapped = set(draws) - capped

    monkeypatch.setenv("COLUMNS", "1000")  # one line per option, no hyphen breaks
    code, out, _ = run(capsys, "check", "--help")
    assert code == 0
    help_line = next(line for line in out.splitlines() if line.startswith("  --trials "))
    assert f"at most {suites.TRIALS_CAP} for " in help_line
    assert set(re.findall(r"\b[a-z-]+\.[a-z-]+\b", help_line)) == capped

    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md")
                      .read_text(encoding="utf-8").split())
    at_most, = re.search(rf"These checks run at most {suites.TRIALS_CAP}, whatever "
                         r"`--trials` says: (.*?)\. The last three", readme).groups()
    assert uncapped == set() and "runs every one of the `--trials`" not in readme
    assert set(re.findall(r"`([a-z-]+\.[a-z-]+)`", at_most)) == capped
    assert "generator.random-connections" not in help_line + at_most


@pytest.mark.parametrize("command, reports", [(["check", "--trials", "4"], 5), (["homology"], 2)],
                         ids=["check", "homology"])
def test_machine_reports_do_not_depend_on_the_hash_seed(tmp_path, command, reports):
    # the benchmark pins PYTHONHASHSEED=0, and every other test runs under one random
    # seed; a rank-5 book file runs the generator identity on its rows and the m = 0
    # certificate; homology refuses the two m > 0 entries and the curved one
    book = tmp_path / "book-5.alg"
    book.write_text("name = book-5\nm = 0\nn = 5\n"
                    + "".join(f"c[{i}][5][{i}] = 1\n" for i in range(1, 5)), encoding="utf-8")
    names = ["sl2", "coordinate-3d", "poisson-linear-2d", "nonabelian-dim2-nonflat", str(book)]
    argv = [sys.executable, "-m", "bvcalc.cli", command[0], *names, "--format", "machine",
            *command[1:]]
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(Path(bvcalc.__file__).parents[1]),
                   PYTHONHASHSEED=seed)
        done = subprocess.run(argv, capture_output=True, encoding="utf-8", env=env, timeout=120)
        runs.append((done.returncode, done.stdout, done.stderr))
    assert runs[0] == runs[1]
    assert runs[0][1].count("algebra=") == reports
