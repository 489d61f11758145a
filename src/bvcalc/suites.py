"""Verification suites over a loaded algebra, with deterministic reports.

Each suite runs a fixed list of named checks.  Randomized checks derive
their stream from (seed, check name), so a report's machine-readable
section is byte-identical for identical (file, seed, trials) inputs;
timing appears only in the human-readable rendering.  The
`linear-connection` suite draws one full Christoffel table Gamma, alpha,
xi and a lift target on each of the first TRIALS_CAP trials, and all
three of its random lines read them; the torsion-free lift first has its
torsion and induced connection proved on `_unit_probes`.  The trace and
divergence identities are proved in alpha at each drawn Gamma, since
their defects are A-linear in alpha and one comparison reads them at
e_1, .., e_n (`_trace_fault`); only Gamma is left to chance, and their
defects are A-affine in it.  The `bijections` round trips run on the
unit probes too, then on TRIALS_CAP random r and gamma.
"""

from __future__ import annotations

import shlex
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
from .exterior import Multivector
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
# the shape probes of generator.identity, the D^2 draws of
# generator.square-zero and flatness-coherence, both bijections lines,
# duality.matched-pair, bracket-expansion and the Christoffel draws of every
# linear-connection line run at most this many of the trials
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
        """The command that reruns one suite, its source path quoted for a POSIX shell."""
        return (f"bvcalc check {shlex.quote(self.source)} --suite {suite} --seed {self.seed} "
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
        self.trials = min(trials, TRIALS_CAP)  # the passes or draws of every randomized line
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

    # -- suites -------------------------------------------------------
    # run_suite runs suite `s` of SUITE_NAMES as `run_<s>`, dashes as underscores

    def run_axioms(self) -> None:
        violations = self.alg.verify_axioms()
        self.record("axioms", "structure", not violations,
                    witness="; ".join(str(v) for v in violations))

    def run_generator(self) -> None:
        alg = self.alg
        ok, witness = is_generator(alg, self.gen, trials=self.trials, seed=self.seed,
                                   degree_bound=self.degree_bound)
        self.record("generator", "identity", ok, witness=witness or "")

        if ok:  # one certificate covers every r, given the identity at the file's r
            bad = certify_every_connection(alg, self.right)[1] or ""
        else:
            bad = "generator.identity fails at the file's r, so no r is certified"
        self.record("generator", "random-connections", not bad, witness=bad)

        exact, witness = generator_square(alg, self.gen, trials=self.trials,
                                          seed=self.seed, degree_bound=self.degree_bound)
        flat = is_flat(alg, self.top)
        self.record("generator", "flatness-coherence", exact == flat,
                    detail=f"square_zero={exact} flat={flat}", witness=witness or "")
        if self.loaded.expect_nonflat:
            if exact:
                self.record("generator", "square-zero", False,
                            detail="file declares non-flat but the generator "
                                   "squares to zero")
            else:
                self.record("generator", "square-zero", False,
                            detail="non-flat connection declared in file",
                            witness=witness, expect_fail=True)
        else:
            self.record("generator", "square-zero", exact, witness=witness or "")

    def run_bijections(self) -> None:
        alg = self.alg
        rng = check_rng(self.seed, "bijections")
        units = _unit_probes(alg)
        draws = range(self.trials)
        rights = [self.right, *map(RightConnectionOnA, units),
                  *(RightConnectionOnA(random_poly_vector(rng, alg.m, alg.n, self.degree_bound))
                    for _ in draws)]
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
        for gamma in [*map(TopConnection, units),
                      *(TopConnection(random_poly_vector(rng, alg.m, alg.n, self.degree_bound))
                        for _ in draws)]:
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
                                              trials=self.trials,
                                              seed=self.seed, degree_bound=self.degree_bound)
        self.record("duality", "matched-pair", ok, witness=witness or "")

        perturbed = TopConnection((self.top.gamma[0] + 1,) + self.top.gamma[1:])
        ok_bad, _ = check_generator_duality(self.alg, self.gen, perturbed, trials=3,
                                            seed=self.seed, degree_bound=self.degree_bound)
        self.record("duality", "perturbed-detected", not ok_bad,
                    detail="perturbing gamma_1 by 1 must break the diagram")

    def run_bracket_expansion(self) -> None:
        ok, witness = check_bracket_pairing_identity(self.alg, self.gen, self.top,
                                                     trials=self.trials,
                                                     seed=self.seed,
                                                     degree_bound=self.degree_bound)
        self.record("bracket-expansion", "pairing-identity", ok, witness=witness or "")

    def run_linear_connection(self) -> None:
        alg = self.alg
        rng = check_rng(self.seed, "linear-connection")
        ident = identity_top_form(alg)
        bad = dict.fromkeys(("trace-identity", "torsionfree-lift", "divergence-identity"), "")
        bad["torsionfree-lift"] = next(filter(None, (_lift_fault(alg, TopConnection(v))
                                                     for v in _unit_probes(alg))), "")
        for _ in range(self.trials):
            conn = LeftConnectionOnL(random_christoffel(rng, alg, self.degree_bound))
            alpha = random_lelement(rng, alg, self.degree_bound)
            xi = random_lelement(rng, alg, self.degree_bound)
            target = TopConnection(random_poly_vector(rng, alg.m, alg.n, self.degree_bound))
            trace = phi_trace(alg, conn, alpha)
            induced = induced_top_connection(alg, conn)
            if not bad["trace-identity"]:
                bad["trace-identity"] = _trace_fault(alg, conn, alpha, trace, induced)
            if not bad["torsionfree-lift"]:
                bad["torsionfree-lift"] = _lift_fault(alg, target, alpha, xi)
            if not bad["divergence-identity"]:
                div = divergence_rank_one(
                    lambda f: generalized_lie_derivative(alg, induced, alpha, f), ident)
                if -div != trace:
                    bad["divergence-identity"] = f"divergence identity fails for alpha={alpha}"
            if all(bad.values()):
                break
        for name, witness in bad.items():
            self.record("linear-connection", name, not witness, witness=witness)

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


def _trace_fault(alg, conn: LeftConnectionOnL, alpha, trace: PolyElement,
                 induced: TopConnection) -> str:
    """Tr phi_alpha against L_alpha - nabla_alpha on the volume, 1 o alpha and
    D(alpha), then the generator of `conn` against that of its induced
    connection; the first that differs, or "".

    The last comparison proves the other three, and the divergence
    identity, for every alpha at this Gamma, given code of the shape
    below.  Its entry i, Tr phi_(e_i) = lie_trace(e_i) - gamma_i, is the
    first comparison at alpha = e_i: e_i and the volume have constant
    coefficients, so no anchor term enters.  With alpha = sum_i a_i e_i, Tr phi_alpha,
    lie_trace(alpha), 1 o alpha and the scalar part of D(alpha) are each
    sum_i a_i (their value at e_i) - sum_i e_i(a_i), nabla_alpha on the
    volume is sum_i a_i gamma_i, and -div(alpha) is lie_trace(alpha) -
    sum_i a_i gamma_i.  So every defect is A-linear in alpha, and one that
    vanishes at e_1, .., e_n vanishes everywhere; the random alpha only
    tests that shape, which a dropped anchor term breaks and no e_i sees.
    Gamma is the one direction left to chance.  Each defect is A-affine in
    Gamma, and a nonzero affine defect vanishes only on a hyperplane, so
    a random Gamma misses it only there, the standard of evidence of
    every line capped at TRIALS_CAP.
    """
    volume = PolyElement.one(alg.m)
    if trace != (lie_derivative_top(alg, alpha, volume)
                 - connection_apply_top(alg, induced, alpha, volume)):
        return f"trace identity fails for alpha={alpha}"
    gen = generator_from_linear_connection(alg, conn)
    if trace != one_circ(alg, gen.connection, alpha):
        return f"trace != 1 o alpha for alpha={alpha}"
    if trace != gen(Multivector.from_lelement(alpha)).component((), alg.m):
        return f"trace != D(alpha) for alpha={alpha}"
    if gen.connection.r != right_from_top(alg, induced).r:
        return "generator differs from the induced-connection one"
    return ""


def _unit_probes(alg) -> list[tuple[PolyElement, ...]]:
    """0, e_1, .., e_n in A^n: where `bijections` and the lift are proved.

    A map F(v) = F(0) + M v with M an n x n matrix over A vanishes on all
    of A^n, at every m, once it vanishes at these n + 1 constant vectors.
    The round trips r -> D_r -> r, r -> gamma -> r and gamma -> r -> gamma
    are of that shape (D_r(e_i) = D_0(e_i) + r_i; gamma = traces - r), and
    so are the torsion of `torsionfree_lift(v)` and its induced connection
    minus v: the lift is a base plus an A-linear correction in
    v - induced(base), and torsion is A-linear in a change of Gamma.  So,
    for code of that shape, as `bv.certify_every_connection` assumes for
    r, a pass on the probes proves the identity.  Code not of that shape,
    such as a square of v_1 or the derivative of v_1 (Q-linear, not
    A-linear), can pass them; only the random draws after them can
    catch it.
    """
    zero, one = PolyElement.zero(alg.m), PolyElement.one(alg.m)
    return [(zero,) * alg.n] + [tuple(one if j == i else zero for j in range(alg.n))
                                for i in range(alg.n)]


def _lift_fault(alg, target: TopConnection, alpha=None, xi=None) -> str:
    """The torsion-free lift of `target`: zero torsion, inducing `target`,
    and, given alpha and xi, phi_alpha(xi) = -nabla_xi alpha; the first
    that fails, or "".

    phi_alpha(xi) = [alpha, xi] - nabla_alpha xi is formed on xi itself, one
    bracket and one nabla, so the anchor terms alpha(xi_k) enter on both
    sides, which phi_alpha on the basis never meets."""
    lifted = torsionfree_lift(alg, target)
    if not is_torsion_free(alg, lifted):
        return f"lift has torsion for gamma=({', '.join(map(str, target.gamma))})"
    if induced_top_connection(alg, lifted).gamma != target.gamma:
        return f"lift induces the wrong connection for ({', '.join(map(str, target.gamma))})"
    if alpha is not None and (alg.bracket(alpha, xi) - connection_apply_l(alg, lifted, alpha, xi)
                              != -connection_apply_l(alg, lifted, xi, alpha)):
        return f"zero-torsion consequence fails for alpha={alpha}, xi={xi}"
    return ""


def run_suite(loaded: LoadedAlgebra, suites: tuple[str, ...] | None = None,
              seed: int = 0, trials: int = 32, degree_bound: int = 3) -> VerificationReport:
    """Run the selected suites (all applicable by default) and report."""
    if suites is None:  # only None means unset; an empty selection is an error
        suites = SUITE_NAMES if loaded.suites is None else loaded.suites
    if not suites:
        raise ValueError("suites must name at least one suite; "
                         f"choose from {', '.join(SUITE_NAMES)}")
    unknown = [s for s in suites if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(SUITE_NAMES)}")
    check_draw_arguments(trials, degree_bound)
    runner = _SuiteRunner(loaded, seed=seed, trials=trials, degree_bound=degree_bound)
    started = time.perf_counter()
    for name in SUITE_NAMES:  # fixed order regardless of selection order
        if name in suites:
            getattr(runner, "run_" + name.replace("-", "_"))()
    report = VerificationReport(
        source=loaded.source, algebra=loaded.algebra.name, seed=seed, trials=trials,
        degree_bound=degree_bound, outcomes=runner.outcomes,
        elapsed=time.perf_counter() - started)
    return report
