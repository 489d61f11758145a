"""Verification suites over a loaded algebra, with deterministic reports.

Each suite runs a fixed list of named checks.  Randomized checks derive
their stream from (seed, check name), so a report's machine-readable
section is byte-identical for identical (file, seed, trials) inputs;
timing appears only in the human-readable rendering.
"""

from __future__ import annotations

import time

from .algfile import SUITE_NAMES, LoadedAlgebra
from .bv import (
    GeneratorD,
    RightConnectionOnA,
    certify_every_connection,
    generator_square,
    is_generator,
    one_circ,
)
from .connections import (
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
    phi_trace,
)
from .correspond import (
    check_bracket_pairing_identity,
    check_generator_duality,
    generator_from_linear_connection,
    generator_from_top,
    right_from_generator,
    right_from_top,
    top_from_right,
    torsionfree_lift,
)
from .exterior import Multivector, TopElement
from .homology import (
    BoundarySquareError,
    NonExactGeneratorError,
    homology_dims,
    rinehart_complex,
)
from .poly import PolyElement
from .record import Record
from .sampling import (
    check_draw_arguments,
    check_rng,
    random_christoffel,
    random_lelement,
    random_poly_vector,
)

PASS, FAIL, EXPECTED_FAIL, SKIP = "pass", "fail", "expected-fail", "skip"
# generator.random-connections (m > 0), the D^2 draws of generator.square-zero
# and flatness-coherence, duality.matched-pair and bracket-expansion run at
# most this many of the trials
TRIALS_CAP = 8


class CheckOutcome(Record):
    _fields = ("suite", "name", "status", "detail", "witness")

    def __init__(self, suite: str, name: str, status: str, detail: str = "",
                 witness: str = ""):
        self.suite = suite
        self.name = name
        self.status = status  # pass | fail | expected-fail | skip
        self.detail = detail
        self.witness = witness

    @property
    def counts_as_failure(self) -> bool:
        return self.status == FAIL


class VerificationReport(Record):
    _fields = ("source", "algebra", "seed", "trials", "degree_bound", "outcomes", "elapsed")

    def __init__(self, source: str, algebra: str, seed: int, trials: int, degree_bound: int,
                 outcomes: list[CheckOutcome] | None = None, elapsed: float = 0.0):
        self.source = source
        self.algebra = algebra
        self.seed = seed
        self.trials = trials
        self.degree_bound = degree_bound
        self.outcomes = [] if outcomes is None else outcomes
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return not any(o.counts_as_failure for o in self.outcomes)

    def rerun_command(self, suite: str) -> str:
        return (f"bvcalc check {self.source} --suite {suite} --seed {self.seed} "
                f"--trials {self.trials} --degree-bound {self.degree_bound}")


def _sanitize(text: str) -> str:
    return " ".join(text.split())


def render_machine(report: VerificationReport) -> str:
    lines = [
        f"file={report.source}",
        f"algebra={report.algebra}",
        f"seed={report.seed}",
        f"trials={report.trials}",
        f"degree_bound={report.degree_bound}",
    ]
    for o in report.outcomes:
        line = f"check={o.suite}.{o.name} status={o.status}"
        if o.detail:
            line += f" detail=\"{_sanitize(o.detail)}\""
        if o.witness:
            line += f" witness=\"{_sanitize(o.witness)}\""
        if o.status == FAIL:
            line += f" rerun=\"{report.rerun_command(o.suite)}\""
        lines.append(line)
    lines.append(f"overall={'pass' if report.passed else 'fail'}")
    return "\n".join(lines) + "\n"


def render_text(report: VerificationReport) -> str:
    lines = [f"algebra {report.algebra} ({report.source})",
             f"seed={report.seed} trials={report.trials} degree_bound={report.degree_bound}",
             ""]
    width = max((len(f"{o.suite}.{o.name}") for o in report.outcomes), default=10)
    for o in report.outcomes:
        tag = {PASS: "PASS", FAIL: "FAIL", EXPECTED_FAIL: "EXPECTED-FAIL", SKIP: "SKIP"}[o.status]
        line = f"  {f'{o.suite}.{o.name}':<{width}}  {tag}"
        if o.detail:
            line += f"  {_sanitize(o.detail)}"
        lines.append(line)
        if o.witness:
            lines.append(f"    witness: {_sanitize(o.witness)}")
        if o.status == FAIL:
            lines.append(f"    rerun:   {report.rerun_command(o.suite)}")
    lines.append("")
    lines.append(f"overall: {'pass' if report.passed else 'FAIL'}  ({report.elapsed:.2f}s)")
    return "\n".join(lines) + "\n"


class _SuiteRunner:
    def __init__(self, loaded: LoadedAlgebra, seed: int, trials: int, degree_bound: int):
        self.loaded = loaded
        self.alg = loaded.algebra
        self.seed = seed
        self.trials = trials
        self.degree_bound = degree_bound
        self.top = loaded.top_connection()
        self.right = loaded.right_connection()
        self.gen = GeneratorD(self.alg, self.right)
        self.outcomes: list[CheckOutcome] = []

    def record(self, suite: str, name: str, ok: bool, detail: str = "",
               witness: str = "", expect_fail: bool = False) -> None:
        if ok:
            status = PASS
            witness = ""
        elif expect_fail:
            status = EXPECTED_FAIL
        else:
            status = FAIL
        self.outcomes.append(CheckOutcome(suite, name, status, detail, witness))

    def skip(self, suite: str, name: str, reason: str) -> None:
        self.outcomes.append(CheckOutcome(suite, name, SKIP, detail=reason))

    def rng(self, label: str):
        return check_rng(self.seed, label)

    # -- suites -------------------------------------------------------

    def run_axioms(self) -> None:
        violations = self.alg.verify_axioms()
        self.record("axioms", "structure", not violations,
                    witness="; ".join(str(v) for v in violations))

    def run_generator(self) -> None:
        alg = self.alg
        ok, witness = is_generator(alg, self.gen, trials=self.trials, seed=self.seed,
                                   degree_bound=self.degree_bound)
        self.record("generator", "identity", ok, witness=witness or "")

        bad = ""
        if alg.m:
            rng = self.rng("generator.random-connections")
            for k in range(min(self.trials, TRIALS_CAP)):
                conn = RightConnectionOnA(random_poly_vector(rng, alg.m, alg.n,
                                                             self.degree_bound))
                ok_k, wit_k = is_generator(alg, GeneratorD(alg, conn), trials=1,
                                           seed=self.seed + k, degree_bound=self.degree_bound)
                if not ok_k:
                    bad = f"r=({', '.join(str(p) for p in conn.r)}): {wit_k}"
                    break
        elif ok:  # at m = 0 one certificate covers every r, given the identity at the file's r
            bad = certify_every_connection(alg, self.right)[1] or ""
        else:
            bad = "generator.identity fails at the file's r, so no r is certified"
        self.record("generator", "random-connections", not bad, witness=bad)

        square = generator_square(alg, self.gen, trials=min(self.trials, TRIALS_CAP),
                                  seed=self.seed, degree_bound=self.degree_bound)
        flat = is_flat(alg, self.top)
        self.record("generator", "flatness-coherence", square.is_exact == flat,
                    detail=f"square_zero={square.is_exact} flat={flat}",
                    witness=square.witness or "")
        if self.loaded.expect_nonflat:
            if square.is_exact:
                self.record("generator", "square-zero", False,
                            detail="file declares non-flat but the generator "
                                   "squares to zero")
            else:
                self.record("generator", "square-zero", False,
                            detail="non-flat connection declared in file",
                            witness=square.witness or "", expect_fail=True)
        else:
            self.record("generator", "square-zero", square.is_exact,
                        witness=square.witness or "")

    def run_bijections(self) -> None:
        alg = self.alg
        rng = self.rng("bijections")
        rights = [self.right] + [RightConnectionOnA(random_poly_vector(rng, alg.m, alg.n,
                                                                       self.degree_bound))
                                 for _ in range(self.trials)]
        bad = ""
        for conn in rights:
            back = right_from_generator(alg, GeneratorD(alg, conn))
            if back.r != conn.r:
                bad = f"generator round trip moved r=({', '.join(map(str, conn.r))})"
                break
            again = right_from_top(alg, top_from_right(alg, conn))
            if again.r != conn.r:
                bad = f"top round trip moved r=({', '.join(map(str, conn.r))})"
                break
        self.record("bijections", "right-roundtrips", not bad, witness=bad)

        bad = ""
        for _ in range(self.trials):
            gamma = TopConnection(random_poly_vector(rng, alg.m, alg.n, self.degree_bound))
            back = top_from_right(alg, right_from_top(alg, gamma))
            if back.gamma != gamma.gamma:
                bad = f"gamma round trip moved ({', '.join(map(str, gamma.gamma))})"
                break
            cycle = right_from_generator(alg, generator_from_top(alg, gamma))
            if top_from_right(alg, cycle).gamma != gamma.gamma:
                bad = f"three-way cycle moved ({', '.join(map(str, gamma.gamma))})"
                break
        self.record("bijections", "top-cycles", not bad, witness=bad)

    def run_duality(self) -> None:
        ok, witness = check_generator_duality(self.alg, self.gen, self.top,
                                              trials=min(self.trials, TRIALS_CAP),
                                              seed=self.seed, degree_bound=self.degree_bound)
        self.record("duality", "matched-pair", ok, witness=witness or "")

        perturbed = TopConnection((self.top.gamma[0] + 1,) + self.top.gamma[1:])
        ok_bad, _ = check_generator_duality(self.alg, self.gen, perturbed, trials=3,
                                            seed=self.seed, degree_bound=self.degree_bound)
        self.record("duality", "perturbed-detected", not ok_bad,
                    detail="perturbing gamma_1 by 1 must break the diagram")

    def run_bracket_expansion(self) -> None:
        ok, witness = check_bracket_pairing_identity(self.alg, self.gen, self.top,
                                                     trials=min(self.trials, TRIALS_CAP),
                                                     seed=self.seed,
                                                     degree_bound=self.degree_bound)
        self.record("bracket-expansion", "pairing-identity", ok, witness=witness or "")

    def run_linear_connection(self) -> None:
        alg = self.alg
        rng = self.rng("linear-connection")
        volume = TopElement(alg.n, PolyElement.one(alg.m))

        bad = ""
        for _ in range(self.trials):
            conn = LeftConnectionOnL(random_christoffel(rng, alg, self.degree_bound))
            alpha = random_lelement(rng, alg, self.degree_bound)
            trace = phi_trace(alg, conn, alpha)
            induced = induced_top_connection(alg, conn)
            lie = lie_derivative_top(alg, alpha, volume)
            nabla = connection_apply_top(alg, induced, alpha, volume)
            if trace != lie.coefficient - nabla.coefficient:
                bad = f"trace identity fails for alpha={alpha}"
                break
            gen = generator_from_linear_connection(alg, conn)
            if trace != one_circ(alg, gen.connection, alpha):
                bad = f"trace != 1 o alpha for alpha={alpha}"
                break
            d_alpha = gen(Multivector.from_lelement(alpha)).component((), alg.m)
            if trace != d_alpha:
                bad = f"trace != D(alpha) for alpha={alpha}"
                break
            if gen.connection.r != right_from_top(alg, induced).r:
                bad = "generator differs from the induced-connection one"
                break
        self.record("linear-connection", "trace-identity", not bad, witness=bad)

        bad = ""
        for _ in range(self.trials):
            target = TopConnection(random_poly_vector(rng, alg.m, alg.n, self.degree_bound))
            lifted = torsionfree_lift(alg, target)
            if not is_torsion_free(alg, lifted):
                bad = f"lift has torsion for gamma=({', '.join(map(str, target.gamma))})"
                break
            if induced_top_connection(alg, lifted).gamma != target.gamma:
                bad = f"lift induces the wrong connection for ({', '.join(map(str, target.gamma))})"
                break
            alpha = random_lelement(rng, alg, self.degree_bound)
            xi = random_lelement(rng, alg, self.degree_bound)
            lhs = phi_map(alg, lifted, alpha).apply(xi)
            rhs = -connection_apply_l(alg, lifted, xi, alpha)
            if lhs != rhs:
                bad = f"zero-torsion consequence fails for alpha={alpha}, xi={xi}"
                break
        self.record("linear-connection", "torsionfree-lift", not bad, witness=bad)

        bad = ""
        ident = identity_top_form(alg)
        for _ in range(self.trials):
            conn = LeftConnectionOnL(random_christoffel(rng, alg, self.degree_bound))
            induced = induced_top_connection(alg, conn)
            alpha = random_lelement(rng, alg, self.degree_bound)
            div = divergence_rank_one(
                lambda f: generalized_lie_derivative(alg, induced, alpha, f), ident)
            if -div != phi_trace(alg, conn, alpha):
                bad = f"divergence identity fails for alpha={alpha}"
                break
        self.record("linear-connection", "divergence-identity", not bad, witness=bad)

        if self.loaded.Gamma is not None:
            induced = induced_top_connection(alg, self.loaded.Gamma).gamma
            self.record("linear-connection", "file-connection", induced == self.top.gamma,
                        witness=f"Gamma induces gamma=({', '.join(map(str, induced))}), "
                                f"the file's top connection is "
                                f"({', '.join(map(str, self.top.gamma))})")

    def run_homology(self) -> None:
        alg = self.alg
        if alg.m != 0:
            self.skip("homology", "betti", "needs the ground-field case m=0")
            return
        try:
            complex_ = rinehart_complex(alg, self.gen)
        except NonExactGeneratorError as exc:
            self.skip("homology", "betti", _sanitize(str(exc)))
            return
        except BoundarySquareError as exc:
            self.record("homology", "d-squared", False, detail=str(exc))
            return
        betti = homology_dims(complex_)
        euler_dims = sum((-1) ** p * d for p, d in enumerate(complex_.dims))
        euler_betti = sum((-1) ** p * b for p, b in enumerate(betti))
        self.record("homology", "d-squared", True)  # rinehart_complex checked it
        self.record("homology", "euler", euler_dims == euler_betti,
                    detail=f"chi={euler_betti}")
        self.record("homology", "betti", True,
                    detail="betti=" + ",".join(str(b) for b in betti))


def run_suite(loaded: LoadedAlgebra, suites: tuple[str, ...] | None = None,
              seed: int = 0, trials: int = 32, degree_bound: int = 3) -> VerificationReport:
    """Run the selected suites (all applicable by default) and report."""
    selected = suites or loaded.suites or SUITE_NAMES
    unknown = [s for s in selected if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(SUITE_NAMES)}")
    check_draw_arguments(trials, degree_bound)
    runner = _SuiteRunner(loaded, seed=seed, trials=trials, degree_bound=degree_bound)
    started = time.perf_counter()
    dispatch = {
        "axioms": runner.run_axioms,
        "generator": runner.run_generator,
        "bijections": runner.run_bijections,
        "duality": runner.run_duality,
        "bracket-expansion": runner.run_bracket_expansion,
        "linear-connection": runner.run_linear_connection,
        "homology": runner.run_homology,
    }
    for name in SUITE_NAMES:  # fixed order regardless of selection order
        if name in selected:
            dispatch[name]()
    report = VerificationReport(
        source=loaded.source, algebra=loaded.algebra.name, seed=seed, trials=trials,
        degree_bound=degree_bound, outcomes=runner.outcomes,
        elapsed=time.perf_counter() - started)
    return report
