"""Command line interface: check algebra files, compute homology, list the catalog.

Exit codes: 0 all checks pass (expected failures count as pass), 1 a
verification check failed (for `homology`: the boundary matrices do not
compose to zero), 2 input error (unreadable file, parse or axiom
failure, inapplicable request).  `check` and `homology` take several
algebras: all are loaded before any work starts, and the exit code is
the largest one among them.  `homology` draws no random data: besides
`--format` it takes only `--seed`, which it ignores, so `--trials` or
`--degree-bound` there is an input error.
"""

from __future__ import annotations

import argparse
import sys

from .algfile import AlgebraFileError, load
from .bv import GeneratorD
from .catalog import CATALOG_NAMES, catalog_path, resolve
from .homology import BoundarySquareError, homology_dims, rinehart_complex
from .suites import SUITE_NAMES, TRIALS_CAP, render_machine, render_text, run_suite

EXIT_PASS, EXIT_FAIL, EXIT_INPUT = 0, 1, 2
FORMATS = ("text", "machine")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvcalc",
        description="Exact verification of Lie-Rinehart / Gerstenhaber / "
                    "generator correspondences over Q.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run verification suites on an algebra file")
    check.add_argument("files", nargs="+", metavar="file",
                       help="algebra file path or catalog name")
    check.add_argument("--suite", action="append", choices=SUITE_NAMES,
                       help="run only this suite (repeatable)")
    check.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    check.add_argument("--trials", type=_positive_int, default=32,
                       help="trials per randomized identity (at least 1); at most "
                            f"{TRIALS_CAP} for the shape probes of generator.identity, "
                            "duality.matched-pair, bracket-expansion.pairing-identity, "
                            "linear-connection.trace-identity and "
                            "linear-connection.divergence-identity (exact in alpha at "
                            "each drawn Gamma)")
    check.add_argument("--degree-bound", type=_nonnegative_int, default=3,
                       help="degree bound for random polynomial coefficients (at least 0)")
    check.add_argument("--format", choices=FORMATS, default="text")

    hom = sub.add_parser("homology", help="Betti numbers for a ground-field algebra")
    hom.add_argument("files", nargs="+", metavar="file",
                     help="algebra file path or catalog name")
    # perfbench/run.py passes --seed to every command it times
    hom.add_argument("--seed", type=int, default=0,
                     help="accepted and ignored: the Betti numbers do not depend on it")
    hom.add_argument("--format", choices=FORMATS, default="text")

    cat = sub.add_parser("catalog", help="list the bundled algebras")
    cat.add_argument("--format", choices=FORMATS, default="text")
    return parser


def _load(arg: str):
    try:
        return load(resolve(arg))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    except AlgebraFileError as exc:
        print(f"error: {arg}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _cmd_check(args) -> int:
    loaded = [_load(arg) for arg in args.files]
    suites = tuple(args.suite) if args.suite else None
    render = render_machine if args.format == "machine" else render_text
    code = EXIT_PASS
    separator = ""  # one empty line between reports
    for arg, one in zip(args.files, loaded):
        try:
            report = run_suite(one, suites=suites, seed=args.seed, trials=args.trials,
                               degree_bound=args.degree_bound)
        except ValueError as exc:
            print(f"error: {arg}: {exc}", file=sys.stderr)
            code = max(code, EXIT_INPUT)
            continue
        sys.stdout.write(separator + render(report))
        separator = "\n"
        code = max(code, EXIT_PASS if report.passed else EXIT_FAIL)
    return code


def _homology(arg: str, loaded, args) -> int:
    alg = loaded.algebra
    gen = GeneratorD(alg, loaded.right_connection())
    try:
        complex_ = rinehart_complex(alg, gen)
    except BoundarySquareError as exc:
        print(f"error: {arg}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {arg}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    betti = homology_dims(complex_)
    if args.format == "machine":
        print(f"algebra={alg.name}")
        print("betti=" + ",".join(str(b) for b in betti))
    else:
        print(f"algebra {alg.name}: betti numbers " + " ".join(str(b) for b in betti))
    return EXIT_PASS


def _cmd_homology(args) -> int:
    loaded = [_load(arg) for arg in args.files]
    return max(_homology(arg, one, args) for arg, one in zip(args.files, loaded))


def _cmd_catalog(args) -> int:
    for name in CATALOG_NAMES:
        if args.format == "machine":
            print(f"name={name} path={catalog_path(name)}")
        else:
            print(f"{name:26s} {catalog_path(name)}")
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"check": _cmd_check, "homology": _cmd_homology, "catalog": _cmd_catalog}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
