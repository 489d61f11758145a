"""Reference code the tests compare the package against; no check calls it.

`apply_generator` evaluates the explicit operator formula of the `bvcalc.bv`
docstring literally, on `Multivector` factors, and is the oracle for the
`D(e_S)` table of `GeneratorD`.  It calls `bv.one_circ` through the module,
so a test that monkeypatches `bv.one_circ` reaches it here too.  The other
helpers draw mixed multivectors and read multivectors and forms on
general arguments, which the package's checks never need.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Sequence

from bvcalc import bv
from bvcalc.algebra import LElement, LieRinehartAlgebra
from bvcalc.exterior import AltForm, Multivector, TopElement, sort_with_sign
from bvcalc.poly import PolyElement
from bvcalc.sampling import random_poly


def generator_on_factors(alg: LieRinehartAlgebra, conn: bv.RightConnectionOnA,
                         thetas: Sequence[LElement]) -> Multivector:
    """The generator evaluated on a list of degree-1 factors.

    Implements the explicit operator formula literally, with general
    module elements in every slot; used both by `apply_generator` and by
    the well-definedness tests that move coefficients between slots.
    """
    p = len(thetas)
    n = alg.n
    out = Multivector.zero(n)
    for i in range(p):
        coeff = bv.one_circ(alg, conn, thetas[i])
        if not coeff:
            continue
        rest = Multivector.scalar(n, coeff)
        for t, theta in enumerate(thetas):
            if t != i:
                rest = rest.wedge(Multivector.from_lelement(theta))
        out = out + rest if i % 2 == 0 else out - rest
    for j in range(p):
        for k in range(j + 1, p):
            br = alg.bracket(thetas[j], thetas[k])
            if br.is_zero():
                continue
            term = Multivector.from_lelement(br)
            for t, theta in enumerate(thetas):
                if t != j and t != k:
                    term = term.wedge(Multivector.from_lelement(theta))
            # (j+1) + (k+1) is even exactly when j + k is
            out = out + term if (j + k) % 2 == 0 else out - term
    return out


def apply_generator(alg: LieRinehartAlgebra, conn: bv.RightConnectionOnA,
                    u: Multivector) -> Multivector:
    """Apply the generator induced by a right connection to a multivector.

    Each term a*e_S is evaluated with the coefficient carried by the
    first factor; degree-0 terms map to 0.
    """
    if u.n != alg.n:
        raise ValueError("rank mismatch")
    out = Multivector.zero(alg.n)
    for key, coeff in u.components.items():
        if not key:
            continue
        thetas = [alg.basis_l(i).scale(coeff) if t == 0 else alg.basis_l(i)
                  for t, i in enumerate(key)]
        out = out + generator_on_factors(alg, conn, thetas)
    return out


def random_multivector(rng: random.Random, alg, degree_bound: int = 3) -> Multivector:
    """Random mixed multivector: each basis subset is kept with probability 1/2."""
    n = alg.n
    terms = []
    for p in range(n + 1):
        for key in combinations(range(n), p):
            if rng.random() < 0.5:
                continue
            terms.append((key, random_poly(rng, alg.m, degree_bound)))
    return Multivector(n, terms)


def homogeneous_part(u: Multivector, p: int) -> Multivector:
    """The terms of u of exterior degree p."""
    return Multivector(u.n, {k: v for k, v in u.components.items() if len(k) == p})


def value_on_basis_tuple(f: AltForm, indices: Sequence[int]) -> PolyElement:
    """Value of f on an arbitrary basis tuple, with the alternating sign."""
    key, sign = sort_with_sign(tuple(indices))
    if sign == 0:
        return PolyElement.zero(f.m)
    value = f.value_on_increasing(key)
    return value if sign == 1 else -value


def evaluate(f: AltForm, args: Sequence[LElement]) -> TopElement:
    """Multilinear alternating evaluation of f on general module elements."""
    if len(args) != f.degree:
        raise ValueError(f"expected {f.degree} arguments, got {len(args)}")
    total = PolyElement.zero(f.m)
    supports = [[i for i, c in enumerate(a.coeffs) if c] for a in args]

    def walk(slot: int, picked: tuple[int, ...], coeff: PolyElement):
        nonlocal total
        if slot == len(args):
            total = total + coeff * value_on_basis_tuple(f, picked)
            return
        for i in supports[slot]:
            walk(slot + 1, picked + (i,), coeff * args[slot].coeffs[i])

    walk(0, (), PolyElement.one(f.m))
    return TopElement(f.n, total)


def evaluate_on_multivector(f: AltForm, u: Multivector) -> TopElement:
    """Pair f with a multivector of matching degree, term by term."""
    if u.n != f.n:
        raise ValueError("rank mismatch")
    total = PolyElement.zero(f.m)
    for key, coeff in u.components.items():
        if len(key) != f.degree:
            raise ValueError("multivector degree does not match form degree")
        total = total + coeff * f.value_on_increasing(key)
    return TopElement(f.n, total)
