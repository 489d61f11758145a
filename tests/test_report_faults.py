"""Every report line has a fault it catches.

One row per `check=` name the suites print.  Each row names a catalog
entry, a fault monkeypatched into the package, and the set of other
lines that fail with it; the line itself must fail under the fault and
every line must pass (or be an expected failure or a skip) without it.
A fault replaces a function in every `bvcalc` module that holds it, so
every caller sees it, as it would see a bug.  `homology.betti` is the one
row whose line cannot fail: the suite records it as passed whatever the
Betti numbers are, so its row pins that.  `ROWS_ABOVE_M_ZERO` adds rows
on m > 0 entries for lines whose m > 0 path the table would otherwise
not reach.
"""

import sys
from fractions import Fraction

import pytest

from bvcalc import bv, connections, correspond, exterior, homology
from bvcalc.algebra import LElement, LieRinehartAlgebra
from bvcalc.algfile import LoadedAlgebra, loads
from bvcalc.catalog import catalog_path
from bvcalc.connections import LeftConnectionOnL, TopConnection
from bvcalc.poly import DerivationOfA, PolyElement
from bvcalc.suites import FAIL, PASS, run_suite

from conftest import CERTIFICATE_WITNESS, load_generated


def everywhere(monkeypatch, owner, name: str, make) -> None:
    """Replace `owner.name` by `make(original)` in `owner` and in every `bvcalc`
    module that imported it by name."""
    original = getattr(owner, name)
    fault = make(original)
    monkeypatch.setattr(owner, name, fault)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("bvcalc") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, fault)


def no_commutator(monkeypatch, loaded):
    everywhere(monkeypatch, DerivationOfA, "commutator",
               lambda original: lambda self, other: DerivationOfA.zero(self.m))


def no_vector_brackets(monkeypatch, loaded):
    # [e_i, e_j] read as 0 on two single vectors: at n = 2 the pairing identity reads
    # only pairs with |S| + |T| = 3, so it never sees this
    def make(original):
        def basis_bracket(lie, s, t):
            return {} if s.bit_count() == 1 == t.bit_count() else original(lie, s, t)
        return basis_bracket
    everywhere(monkeypatch, bv, "basis_bracket", make)


def r_terms_only_in_degree_one(monkeypatch, loaded):
    # D_r(e_S) drops the terms of r for |S| >= 2, which the file's r = 0 hides
    def make(original):
        def ground_generator(alg, conn, s):
            if s.bit_count() > 1:
                conn = bv.RightConnectionOnA(tuple(PolyElement.zero(alg.m) for _ in conn.r))
            return original(alg, conn, s)
        return ground_generator
    everywhere(monkeypatch, bv, "ground_generator", make)


def flat_curvature(monkeypatch, loaded):
    everywhere(monkeypatch, connections, "curvature_top",
               lambda original: lambda alg, conn: [[PolyElement.zero(alg.m)] * alg.n] * alg.n)


def curved_top_connection(monkeypatch, loaded):
    # the file's gamma read with 1 added to gamma_1: D and gamma still correspond
    def make(original):
        def top_connection(self):
            gamma = original(self).gamma
            return TopConnection((gamma[0] + 1,) + gamma[1:])
        return top_connection
    everywhere(monkeypatch, LoadedAlgebra, "top_connection", make)


def negated_right_from_generator(monkeypatch, loaded):
    everywhere(monkeypatch, correspond, "right_from_generator",
               lambda original: lambda alg, gen: bv.RightConnectionOnA(
                   tuple(-c for c in original(alg, gen).r)))


def generator_from_top_without_trace(monkeypatch, loaded):
    # r = gamma in place of r = lie trace - gamma
    everywhere(monkeypatch, correspond, "generator_from_top",
               lambda original: lambda alg, conn: bv.GeneratorD(
                   alg, bv.RightConnectionOnA(conn.gamma)))


def negated_scalar_pairing(monkeypatch, loaded):
    # phi_iso negates a degree-0 multivector, which only D(e_i) = r_i is
    def make(original):
        def phi_iso(u, m, degree=None):
            out = original(u, m, degree)
            return -out if degree == 0 else out
        return phi_iso
    everywhere(monkeypatch, exterior, "phi_iso", make)


def covariant_derivative_without_gamma(monkeypatch, loaded):
    # nabla on top-valued forms ignores the connection: gamma = 0 hides it
    def make(original):
        def covariant_derivative(alg, conn, f):
            flat = TopConnection(tuple(PolyElement.zero(alg.m) for _ in conn.gamma))
            return original(alg, flat, f)
        return covariant_derivative
    everywhere(monkeypatch, connections, "covariant_derivative", make)


def pairing_bracket_negated(monkeypatch, loaded):
    # the bracket negated on the pairs the pairing identity reads, |S| + |T| = n + 1 = 3
    def make(original):
        def basis_bracket(lie, s, t):
            out = original(lie, s, t)
            if s.bit_count() + t.bit_count() == 3:
                out = {mask: -c for mask, c in out.items()}
            return out
        return basis_bracket
    everywhere(monkeypatch, bv, "basis_bracket", make)


def one_circ_without_anchor(monkeypatch, loaded):
    # 1 o alpha = sum_i alpha_i r_i, without the terms e_i(alpha_i)
    def make(original):
        def one_circ(alg, conn, alpha):
            out = PolyElement.zero(alg.m)
            for a, r in zip(alpha.coeffs, conn.r):
                out = out + a * r
            return out
        return one_circ
    everywhere(monkeypatch, bv, "one_circ", make)


def lift_without_correction(monkeypatch, loaded):
    # the torsion-free base, half the structure functions, not corrected towards the target
    def make(original):
        def torsionfree_lift(alg, target, base=None):
            half = PolyElement.const(alg.m, Fraction(1, 2))
            return LeftConnectionOnL(tuple(tuple(alg.bracket_basis(i, j).scale(half)
                                                 for j in range(alg.n))
                                           for i in range(alg.n)))
        return torsionfree_lift
    everywhere(monkeypatch, correspond, "torsionfree_lift", make)


def negated_divergence(monkeypatch, loaded):
    everywhere(monkeypatch, connections, "divergence_rank_one",
               lambda original: lambda endo, basis: -original(endo, basis))


def transposed_file_gamma(monkeypatch, loaded):
    # Gamma[i][j][k] read as the Christoffel symbol of nabla_(e_j) e_i
    table = loaded.Gamma.table
    monkeypatch.setattr(loaded, "Gamma", LeftConnectionOnL(tuple(
        tuple(table[j][i] for j in range(len(table))) for i in range(len(table)))))


def d_squared_reads_nonzero(monkeypatch, loaded):
    monkeypatch.setattr(homology.ChainComplex, "d_squared_is_zero", lambda self: False)


def betti_zero_off_by_one(monkeypatch, loaded):
    everywhere(monkeypatch, homology, "homology_dims",
               lambda original: lambda complex_: (original(complex_)[0] + 1,)
               + original(complex_)[1:])


def ranks_off_by_one(monkeypatch, loaded):
    # every rank one too large: the Betti numbers change, their alternating sum does not
    everywhere(monkeypatch, homology, "exact_rank",
               lambda original: lambda columns: original(columns) + 1)


# a file that adds to abelian-dim2 a connection on L inducing its gamma = 0
WITH_GAMMA = "Gamma[1][1][1] = -1\nGamma[1][2][2] = 1\n"

# (line, catalog entry, extra file lines, fault, the other lines that fail with it)
ROWS = [
    ("axioms.structure", "poisson-linear-2d", "", no_commutator, set()),
    ("generator.identity", "nonabelian-dim2", "", no_vector_brackets,
     # at m = 0 the certificate for every r needs the identity at the file's r
     {"generator.random-connections"}),
    ("generator.random-connections", "heisenberg-dim3", "", r_terms_only_in_degree_one, set()),
    ("generator.flatness-coherence", "nonabelian-dim2-nonflat", "", flat_curvature, set()),
    ("generator.square-zero", "nonabelian-dim2", "", curved_top_connection, set()),
    ("bijections.right-roundtrips", "nonabelian-dim2", "", negated_right_from_generator,
     # the three-way cycle reads r back off the generator too
     {"bijections.top-cycles"}),
    ("bijections.top-cycles", "nonabelian-dim2", "", generator_from_top_without_trace, set()),
    ("duality.matched-pair", "nonabelian-dim2", "", negated_scalar_pairing, set()),
    ("duality.perturbed-detected", "abelian-dim2", "", covariant_derivative_without_gamma,
     set()),
    ("bracket-expansion.pairing-identity", "nonabelian-dim2", "", pairing_bracket_negated,
     # the generator identity reads every pair, these included
     {"generator.identity", "generator.random-connections"}),
    ("linear-connection.trace-identity", "coordinate-2d", "", one_circ_without_anchor, set()),
    ("linear-connection.torsionfree-lift", "nonabelian-dim2", "", lift_without_correction,
     set()),
    ("linear-connection.divergence-identity", "nonabelian-dim2", "", negated_divergence,
     set()),
    ("linear-connection.file-connection", "abelian-dim2", WITH_GAMMA, transposed_file_gamma,
     set()),
    ("homology.d-squared", "sl2", "", d_squared_reads_nonzero, set()),
    ("homology.euler", "sl2", "", betti_zero_off_by_one, set()),
    # homology.betti is recorded as passed unconditionally: no fault makes it fail
    ("homology.betti", "sl2", "", ranks_off_by_one, set()),
]
CANNOT_FAIL = {"homology.betti"}
# (line, m > 0 catalog entry, extra file lines, fault, the other lines that fail with it)
ROWS_ABOVE_M_ZERO = [
    ("generator.random-connections", "coordinate-3d", "", r_terms_only_in_degree_one, set()),
]


def load_row(entry: str, extra: str) -> LoadedAlgebra:
    text = catalog_path(entry).read_text(encoding="utf-8") + extra
    return loads(text, source=entry)


def outcomes(loaded: LoadedAlgebra, trials: int = 4) -> dict:
    report = run_suite(loaded, seed=0, trials=trials, degree_bound=2)
    return {f"{o.suite}.{o.name}": o for o in report.outcomes}


def test_the_table_has_one_row_per_report_line():
    lines = [row[0] for row in ROWS]
    assert len(lines) == len(set(lines)) == 17
    printed = set()
    for _, entry, extra, _, _ in ROWS:
        printed |= set(outcomes(load_row(entry, extra)))
    assert printed == set(lines)


@pytest.mark.parametrize("line, entry, extra, fault, also", ROWS + ROWS_ABOVE_M_ZERO,
                         ids=[row[0] for row in ROWS]
                         + [f"{row[0]}-{row[1]}" for row in ROWS_ABOVE_M_ZERO])
def test_a_fault_makes_the_line_fail(monkeypatch, line, entry, extra, fault, also):
    clean = outcomes(load_row(entry, extra))
    assert clean[line].status == PASS
    assert all(o.status != FAIL for o in clean.values())
    loaded = load_row(entry, extra)
    fault(monkeypatch, loaded)
    faulty = outcomes(loaded)
    failed = {name for name, o in faulty.items() if o.status == FAIL}
    if line in CANNOT_FAIL:
        # the fault is seen in the line's detail, yet the line passes
        assert faulty[line].detail != clean[line].detail
        assert faulty[line].status == PASS
        assert failed == also
    else:
        assert failed == {line} | also


@pytest.mark.parametrize("line, entry, extra, fault, also", ROWS_ABOVE_M_ZERO,
                         ids=[f"{row[0]}-{row[1]}" for row in ROWS_ABOVE_M_ZERO])
def test_the_m_above_zero_certificate_witness_names_its_row(monkeypatch, line, entry, extra,
                                                            fault, also):
    # at every m the line is the certificate for every r, whose witness names the
    # failing direction and subset, not a random r
    loaded = load_row(entry, extra)
    fault(monkeypatch, loaded)
    assert CERTIFICATE_WITNESS.match(outcomes(loaded)[line].witness)


DRAWN_GAMMA_ROWS = [row for row in ROWS if row[0] in {"linear-connection.trace-identity",
                                                       "linear-connection.divergence-identity"}]


@pytest.mark.parametrize("line, entry, extra, fault, also", DRAWN_GAMMA_ROWS,
                         ids=[row[0] for row in DRAWN_GAMMA_ROWS])
def test_the_trace_and_divergence_faults_fail_at_one_trial(monkeypatch, line, entry, extra,
                                                           fault, also):
    # both lines draw Gamma on at most TRIALS_CAP trials; the first draw must do
    loaded = load_row(entry, extra)
    fault(monkeypatch, loaded)
    failed = {name for name, o in outcomes(loaded, trials=1).items() if o.status == FAIL}
    assert failed == {line} | also


@pytest.mark.parametrize("line, entry, extra, fault, also", ROWS, ids=[row[0] for row in ROWS])
def test_the_pairing_identity_fails_only_with_the_lines_that_imply_it(
        monkeypatch, line, entry, extra, fault, also):
    # duality.matched-pair and generator.identity together imply
    # bracket-expansion.pairing-identity (the proof is in the correspond docstring),
    # so no fault fails the pairing line alone
    loaded = load_row(entry, extra)
    fault(monkeypatch, loaded)
    failed = {name for name, o in outcomes(loaded).items() if o.status == FAIL}
    if "bracket-expansion.pairing-identity" in failed:
        assert failed & {"generator.identity", "duality.matched-pair"}


def bracket_without_anchor_on_the_right(monkeypatch):
    # [alpha, xi] drops rho(alpha)(xi_k) e_k for every non-constant xi_k; a bracket
    # with a basis element on the right, as in phi_alpha(e_j), never has one
    original = LieRinehartAlgebra.bracket

    def bracket(self, alpha, beta):
        rho = self.anchor_of(alpha)
        return original(self, alpha, beta) - LElement(tuple(rho(b) for b in beta.coeffs))
    monkeypatch.setattr(LieRinehartAlgebra, "bracket", bracket)


@pytest.mark.parametrize("entry", ["coordinate-2d", "coordinate-3d", "poisson-linear-2d",
                                   "poisson-symplectic-2d"])
def test_the_lift_reads_the_anchor_terms_of_its_bracket(monkeypatch, entry):
    # the third lift identity forms phi_alpha(xi) as [alpha, xi] - nabla_alpha xi on
    # the pairs (e_i, x_k e_j) at the target 0; built from phi_alpha on the basis it
    # never met these terms, and every line passed under this fault
    loaded = load_row(entry, "")
    bracket_without_anchor_on_the_right(monkeypatch)
    failed = {name for name, o in outcomes(loaded, trials=32).items() if o.status == FAIL}
    assert failed == {"linear-connection.torsionfree-lift"}


def bracket_negated_off_the_rows(monkeypatch):
    # the closed form [e_S, e_T] negated where |S| >= 2 and |T| >= 2
    def make(original):
        def basis_bracket(lie, s, t):
            out = original(lie, s, t)
            if s.bit_count() >= 2 and t.bit_count() >= 2:
                out = {mask: -c for mask, c in out.items()}
            return out
        return basis_bracket
    everywhere(monkeypatch, bv, "basis_bracket", make)


@pytest.mark.parametrize("name", ["book-4", "filiform-4", "book-5", "filiform-5",
                                  "heisenberg-5"])
def test_above_rank_three_the_pairing_line_alone_sees_the_bracket_off_the_rows(monkeypatch,
                                                                               name):
    # above bv.FULL_PASS_MAX_RANK the generator identity visits only the rows |S| <= 1,
    # so it no longer implies bracket-expansion.pairing-identity: this fault fails that
    # line alone (the correspond docstring)
    clean = load_generated(name)
    assert clean.algebra.n > bv.FULL_PASS_MAX_RANK
    assert all(o.status != FAIL for o in outcomes(clean).values())
    loaded = load_generated(name)
    bracket_negated_off_the_rows(monkeypatch)
    failed = {line for line, o in outcomes(loaded).items() if o.status == FAIL}
    assert failed == {"bracket-expansion.pairing-identity"}
