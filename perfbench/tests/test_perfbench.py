"""Self-tests for the benchmark's own code: oracle, input generator, layer attribution.

They run no `bvcalc` process: `python3 -m pytest perfbench/tests -q`.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import inputs  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


# -- Betti closed forms ------------------------------------------------------


def test_abelian_betti_is_binomial_row():
    assert oracle.abelian_betti(2) == (1, 2, 1)
    assert oracle.abelian_betti(8) == (1, 8, 28, 56, 70, 56, 28, 8, 1)


def test_heisenberg_betti_known_values():
    assert oracle.heisenberg_betti(3) == (1, 2, 2, 1)
    assert oracle.heisenberg_betti(5) == (1, 4, 5, 5, 4, 1)
    assert oracle.heisenberg_betti(7) == (1, 6, 14, 14, 14, 14, 6, 1)


def test_heisenberg_betti_euler_characteristic_and_symmetry():
    for n in (3, 5, 7, 9):
        betti = oracle.heisenberg_betti(n)
        assert len(betti) == n + 1
        assert betti == betti[::-1]
        assert sum((-1) ** p * b for p, b in enumerate(betti)) == 0


def test_pinned_betti_have_zero_euler_characteristic():
    for name, betti in oracle.PINNED_BETTI.items():
        assert sum((-1) ** p * b for p, b in enumerate(betti)) == 0, name


# -- the verdict oracle --------------------------------------------------------


def _report(statuses: dict[str, str], betti: tuple[int, ...] | None) -> str:
    lines = ["file=x.alg", "algebra=x", "seed=0", "trials=4", "degree_bound=3"]
    for name, status in statuses.items():
        line = f"check={name} status={status}"
        if name == "homology.betti" and betti is not None:
            line += f' detail="betti={",".join(map(str, betti))}"'
        lines.append(line)
    return "\n".join(lines + ["overall=pass"]) + "\n"


def test_matching_check_report_has_no_failures():
    expect = oracle.check_expect((1, 2, 1))
    attempted, failed, problems = oracle.judge(expect, 0, _report(expect.checks, (1, 2, 1)), "")
    assert (attempted, failed, problems) == (16, 0, [])


def test_skipped_homology_and_expected_failure():
    expect = oracle.check_expect(None, nonflat=True)
    assert expect.checks["generator.square-zero"] == oracle.EXPECTED_FAIL
    assert expect.checks["homology.betti"] == oracle.SKIP
    assert "homology.euler" not in expect.checks
    assert oracle.judge(expect, 0, _report(expect.checks, None), "")[:2] == (14, 0)


def test_wrong_reference_gives_positive_failed_share():
    report = _report(oracle.check_expect((1, 2, 1)).checks, (1, 2, 1))
    wrong = oracle.check_expect((1, 1, 0))
    attempted, failed, problems = oracle.judge(wrong, 0, report, "")
    assert failed / attempted > 0
    assert problems == ["homology.betti: betti (1, 2, 1), expected (1, 1, 0)"]

    wrong_status = oracle.check_expect((1, 2, 1), nonflat=True)
    assert oracle.judge(wrong_status, 0, report, "")[1] == 1

    homology = "algebra=x\nbetti=1,6,14,14,14,14,6,1\n"
    assert oracle.judge(oracle.homology_expect(oracle.heisenberg_betti(7)), 0, homology, "")[1] == 0
    assert oracle.judge(oracle.homology_expect(oracle.abelian_betti(7)), 0, homology, "")[1] == 1


def test_exit_code_traceback_missing_and_extra_lines_fail():
    expect = oracle.check_expect((1, 2, 1))
    report = _report(expect.checks, (1, 2, 1))
    assert oracle.judge(expect, 1, report, "")[1] == 16
    assert oracle.judge(expect, 0, report, "Traceback (most recent call last):\n")[1] == 16
    assert oracle.judge(expect, 0, "", "")[:2] == (16, 16)
    extra = report + "check=new.thing status=pass\n"
    assert oracle.judge(expect, 0, extra, "")[:2] == (17, 1)


# -- generated inputs ----------------------------------------------------------


def _bracket_table(text: str) -> tuple[int, dict]:
    n = next(int(line.split("=")[1]) for line in text.splitlines() if line.startswith("n ="))
    table = {}
    for line in text.splitlines():
        if line.startswith("c["):
            key, value = line.split("=")
            i, j, k = (int(s) for s in key.strip()[2:-1].split("]["))
            assert i < j
            table[(i, j, k)] = int(value)
    return n, table


def _jacobi_holds(n: int, table: dict) -> bool:
    def bracket(x, y):  # vectors as dicts index -> coefficient
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                if i == j:
                    continue
                sign, lo, hi = (1, i, j) if i < j else (-1, j, i)
                for (p, q, k), c in table.items():
                    if (p, q) == (lo, hi):
                        out[k] = out.get(k, 0) + sign * a * b * c
        return {k: v for k, v in out.items() if v}

    def add(*vs):
        out = {}
        for v in vs:
            for k, c in v.items():
                out[k] = out.get(k, 0) + c
        return {k: c for k, c in out.items() if c}

    for i, j, k in combinations(range(1, n + 1), 3):
        ei, ej, ek = {i: 1}, {j: 1}, {k: 1}
        if add(bracket(ei, bracket(ej, ek)), bracket(ej, bracket(ek, ei)),
               bracket(ek, bracket(ei, ej))):
            return False
    return True


def test_generated_inputs_are_seeded_valid_and_isomorphic():
    for name in ("abelian-6", "book-5", "filiform-7", "heisenberg-7", "book-7"):
        family, n = inputs.split_name(name)
        texts = {seed: inputs.algebra_text(name, seed) for seed in range(4)}
        assert inputs.algebra_text(name, 2) == texts[2]
        for text in texts.values():
            rank, table = _bracket_table(text)
            assert rank == n
            assert len(table) == len(inputs.FAMILIES[family](n))
            assert sorted(map(abs, table.values())) == sorted(
                map(abs, inputs.FAMILIES[family](n).values()))
            assert _jacobi_holds(n, table), (name, text)
        if family != "abelian":
            assert len(set(texts.values())) > 1


def test_write_input_records_sha256(tmp_path):
    path, sha = inputs.write_input(tmp_path, "heisenberg-7", 5)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha
    assert path.name == "heisenberg-7.alg"


# -- layer attribution on a toy profile ----------------------------------------


PKG = "/pkg/bvcalc"
FRACTIONS = "/lib/fractions.py"
PROGRAM = {
    "package_dir": PKG,
    "fractions_file": FRACTIONS,
    "functions": {"poly.mul": [[f"{PKG}/poly.py", 10, "__mul__"]],
                  "poly.new": [[f"{PKG}/poly.py", 3, "__init__"], [f"{PKG}/poly.py", 5, "_make"]],
                  "suites.generator": [[f"{PKG}/suites.py", 40, "run_generator"]]},
}


def test_attribution_by_defining_module_and_direct_caller():
    mul = (f"{PKG}/poly.py", 10, "__mul__")
    init = (f"{PKG}/poly.py", 3, "__init__")
    make = (f"{PKG}/poly.py", 5, "_make")
    run_gen = (f"{PKG}/suites.py", 40, "run_generator")
    frac = (FRACTIONS, 60, "__new__")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    generated = ("<string>", 2, "__init__")
    init_py = (f"{PKG}/__init__.py", 1, "<module>")
    stats = {
        run_gen: (1, 1, 0.5, 4.0, {}),
        mul: (7, 9, 1.0, 3.0, {run_gen: (7, 9, 1.0, 3.0)}),
        init: (2, 2, 0.25, 0.5, {mul: (2, 2, 0.25, 0.5)}),
        make: (3, 3, 0.125, 0.125, {mul: (3, 3, 0.125, 0.125)}),
        frac: (4, 4, 0.75, 0.75, {mul: (4, 4, 0.75, 0.75)}),
        # sorted(): 0.5 s from poly, 0.25 s from fractions, 0.125 s from unattributed code
        builtin: (6, 6, 0.875, 0.875, {mul: (3, 3, 0.5, 0.5), frac: (2, 2, 0.25, 0.25),
                                         generated: (1, 1, 0.125, 0.125)}),
        generated: (1, 1, 0.0625, 0.1875, {run_gen: (1, 1, 0.0625, 0.1875)}),
        init_py: (1, 1, 0.03125, 0.03125, {}),
    }
    metrics = layers.attribute(stats, PROGRAM)
    assert metrics["poly.self_s"] == 1.0 + 0.25 + 0.125 + 0.5
    assert metrics["fractions.self_s"] == 0.75 + 0.25
    assert metrics["suites.self_s"] == 0.5 + 0.0625
    assert metrics["other.self_s"] == 0.125 + 0.03125
    assert sum(metrics[f"{layer}.self_s"] for layer in (*layers.LAYERS, layers.OTHER)) == \
        sum(entry[2] for entry in stats.values())
    assert metrics["poly.mul.calls"] == 9
    assert metrics["poly.new.calls"] == 5
    assert metrics["suites.generator.cum_s"] == 4.0
    assert metrics["bv.gerstenhaber_bracket.calls"] == 0
    assert set(metrics) == set(layers.metric_names())


def test_metric_names_are_unique_and_well_formed():
    names = layers.metric_names() + ["trace.overhead"]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(name in layers.FUNCTIONS for name in (*layers.CALLS, *layers.CUMULATIVE))


# -- declarations ----------------------------------------------------------------


def test_declared_metrics_match_the_runner_and_the_map():
    bench = Path(__file__).resolve().parents[2]
    declared = json.loads((bench / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in declared["per_layer"]]
    assert per_layer == layers.metric_names() + ["trace.overhead"]
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.unit_of(m["name"])
               for m in declared["end_to_end"] + declared["per_layer"])
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    mapped = [name for group in json.loads((bench / "perfbench" / "metric_map.json").read_text())[
        "map"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(per_layer)


def test_speed_scale_takes_times_to_reference_speed():
    assert run.speed_scale([run.REFERENCE_S, run.REFERENCE_S]) == 1.0
    # the reference loop ran 1.5x slower than at reference speed: times shrink by 1.5
    slow = 1.5 * run.REFERENCE_S
    assert abs(run.speed_scale([slow, slow, slow]) - 1 / 1.5) < 1e-12
    assert run.speed_scale([0.5 * run.REFERENCE_S, 1.5 * run.REFERENCE_S]) == 1.0
