"""`GeneratorD` at m > 0 against the Koszul-Brylinski operator.

For a Poisson bivector pi on A = Q[x1..xm], `build_poisson_cotangent`
gives L = Omega^1(A) with basis dx_i, so the multivectors over L are the
Kaehler forms.  At r = 0 the generator is the Koszul-Brylinski operator
(Koszul 1985; Brylinski, J. Differential Geom. 28, 1988)

    del = iota_pi o d - d o iota_pi,
    iota_pi = sum_(i<j) pi_ij iota_(d/dx_j) iota_(d/dx_i),

so that iota_pi(dx_i ^ dx_j) = pi_ij.  The oracle below builds del from
the de Rham d and the contractions alone, on forms held as
{increasing index tuple: coefficient}: it reads no structure function,
no anchor and no bracket code of the package.
"""

from itertools import combinations
from types import SimpleNamespace

import pytest

from bvcalc import bv, ground
from bvcalc.algebra import build_poisson_cotangent
from bvcalc.algfile import LoadedAlgebra
from bvcalc.bv import GeneratorD, RightConnectionOnA, is_generator
from bvcalc.exterior import Multivector
from bvcalc.poly import PolyElement
from bvcalc.sampling import check_rng, random_poly
from bvcalc.suites import run_suite


def _add(form, key, coeff):
    total = form[key] + coeff if key in form else coeff
    if total:
        form[key] = total
    else:
        form.pop(key, None)


def de_rham(form, m):
    """d(a dx_S) = sum_k da/dx_k dx_k ^ dx_S."""
    out = {}
    for key, a in form.items():
        for k in range(m):
            da = a.diff(k)
            if da and k not in key:
                below = sum(1 for i in key if i < k)
                _add(out, tuple(sorted(key + (k,))), -da if below % 2 else da)
    return out


def contract(form, i):
    """iota_(d/dx_i): drop dx_i from dx_S with the sign of its position."""
    out = {}
    for key, a in form.items():
        if i in key:
            t = key.index(i)
            _add(out, key[:t] + key[t + 1:], -a if t % 2 else a)
    return out


def iota_pi(form, pi, reversed_order=False):
    """sum_(i<j) pi_ij iota_j iota_i; `reversed_order` contracts iota_i iota_j instead."""
    out = {}
    for i, j in combinations(range(len(pi)), 2):
        if pi[i][j]:
            first, second = (j, i) if reversed_order else (i, j)
            for key, a in contract(contract(form, first), second).items():
                _add(out, key, pi[i][j] * a)
    return out


def koszul_brylinski(form, pi, reversed_order=False):
    m = len(pi)
    out = iota_pi(de_rham(form, m), pi, reversed_order)
    for key, a in de_rham(iota_pi(form, pi, reversed_order), m).items():
        _add(out, key, -a)
    return out


def bivector(m, entries):
    """The skew m x m matrix with pi[i][j] = entries[(i, j)] for i < j."""
    pi = [[PolyElement.zero(m)] * m for _ in range(m)]
    for (i, j), p in entries.items():
        pi[i][j], pi[j][i] = p, -p
    return pi


def bivectors():
    x = [PolyElement.variable(2, i) for i in range(2)]
    y = [PolyElement.variable(3, i) for i in range(3)]
    three = PolyElement.const(2, 3)
    return {
        "pi12=x1": bivector(2, {(0, 1): x[0]}),
        "pi12=x1^2x2+3x2^2": bivector(2, {(0, 1): x[0] * x[0] * x[1] + three * x[1] * x[1]}),
        "pi12=x1x2x3": bivector(3, {(0, 1): y[0] * y[1] * y[2]}),
        # so(3)*: {x1, x2} = x3, {x2, x3} = x1, {x3, x1} = x2
        "so3-dual": bivector(3, {(0, 1): y[2], (1, 2): y[0], (0, 2): -y[1]}),
        # log-canonical: {x_i, x_j} = a_ij x_i x_j for a skew integer matrix a
        "log-canonical-3": bivector(3, {(0, 1): y[0] * y[1],
                                        (0, 2): PolyElement.const(3, -2) * y[0] * y[2],
                                        (1, 2): PolyElement.const(3, 3) * y[1] * y[2]}),
    }


def random_forms(name, m):
    """Three single-term forms a dx_S on every S, with random a of degree <= 3."""
    rng = check_rng(27, f"koszul-brylinski-{name}")
    return [{key: a} for p in range(m + 1) for key in combinations(range(m), p)
            for a in (random_poly(rng, m, 3) for _ in range(3)) if a]


def generator_at_r_zero(pi, name):
    alg = build_poisson_cotangent(pi, name=name)
    assert not alg.verify_axioms(), name
    m = alg.m
    return alg, GeneratorD(alg, RightConnectionOnA((PolyElement.zero(m),) * m))


def image(gen, form):
    (key, a), = form.items()
    return dict(gen(Multivector(gen.alg.n, [(key, a)])).terms())


@pytest.mark.parametrize("name", list(bivectors()))
def test_generator_at_r_zero_is_the_koszul_brylinski_operator(name):
    pi = bivectors()[name]
    alg, gen = generator_at_r_zero(pi, name)
    forms = random_forms(name, alg.m)
    nonzero = 0
    for form in forms:
        want = koszul_brylinski(form, pi)
        assert image(gen, form) == want, (name, form)
        assert koszul_brylinski(want, pi) == {}, (name, form)  # del^2 = 0
        if want:
            nonzero += 1
            # the oracle tells the contraction order, so the sign of del, apart
            assert koszul_brylinski(form, pi, reversed_order=True) != want, (name, form)
    assert nonzero >= len(forms) // 2, name


def flipped_first_bracket_term(original):
    """`ground_generator` with the sign of its (j, k) = (0, 1) bracket term flipped."""
    def mutant(alg, conn, s):
        out = original(alg, conn, s)
        indices = ground.to_key(s)
        if len(indices) >= 2:
            a, b = indices[:2]
            rest = s ^ (1 << a) ^ (1 << b)
            for l, coeff in alg.bracket_terms(a, b):
                # the term entered with sign (-1)^(0 + 1); adding it twice flips it
                ground.add_wedge(out, {1 << l: ground.value(coeff + coeff)}, rest)
        return out
    return mutant


@pytest.mark.parametrize("name", list(bivectors()))
def test_a_flipped_bracket_term_fails_the_oracle_and_the_generator_identity(name, monkeypatch):
    pi = bivectors()[name]
    monkeypatch.setattr(bv, "ground_generator", flipped_first_bracket_term(bv.ground_generator))
    alg, gen = generator_at_r_zero(pi, name)
    assert any(image(gen, form) != koszul_brylinski(form, pi)
               for form in random_forms(name, alg.m)), name
    ok, witness = is_generator(alg, gen, trials=4, seed=27)
    assert not ok and witness, name


# -- every suite on structure functions that are not constant ----------------
# The catalog's m > 0 entries and the CI's coordinate algebras all have c = 0.
# A log-canonical bivector {x_i, x_j} = a_ij x_i x_j gives c[i][j] = a_ij
# (x_j dx_i + x_i dx_j), whose constant terms are all 0.

LOG_CANONICAL = {  # m -> the skew integer matrix a, as its entries a_ij for i < j
    3: {(0, 1): 1, (0, 2): -2, (1, 2): 3},
    4: {(0, 1): 1, (0, 2): -2, (0, 3): 3, (1, 2): 1, (1, 3): -1, (2, 3): 2},
}


def log_canonical(m):
    x = [PolyElement.variable(m, i) for i in range(m)]
    pi = bivector(m, {(i, j): PolyElement.const(m, a) * x[i] * x[j]
                      for (i, j), a in LOG_CANONICAL[m].items()})
    alg = build_poisson_cotangent(pi, name=f"log-canonical-{m}")
    assert not alg.verify_axioms()
    assert any(not c.is_constant() for br in alg.structure.values() for c in br.coeffs)
    return LoadedAlgebra(alg)


def constant_structure_functions(original):
    """`ground_generator` reading each structure function c^l_ab as its constant term."""
    def mutant(alg, conn, s):
        def bracket_terms(a, b):
            return tuple((l, PolyElement.const(alg.m, c.constant_term()))
                         for l, c in alg.bracket_terms(a, b) if c.constant_term())
        # an empty D_0 cache of its own, so the bracket part is built from these terms
        return original(SimpleNamespace(bracket_terms=bracket_terms, bracket_parts={}), conn, s)
    return mutant


@pytest.mark.parametrize("m", list(LOG_CANONICAL))
def test_every_suite_passes_on_a_log_canonical_algebra(m):
    report = run_suite(log_canonical(m), trials=4)
    assert [(o.suite, o.name) for o in report.outcomes if o.status != "pass"] == \
        [("homology", "betti")]
    assert report.outcomes[-1].status == "skip"


def test_constant_structure_functions_fail_the_generator_identity(monkeypatch):
    monkeypatch.setattr(bv, "ground_generator",
                        constant_structure_functions(bv.ground_generator))
    report = run_suite(log_canonical(3), suites=("generator",), trials=4)
    identity, = (o for o in report.outcomes if o.name == "identity")
    assert identity.status == "fail" and identity.witness
