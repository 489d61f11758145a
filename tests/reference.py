"""Reference code the tests compare the package against; no check calls it.

`apply_generator` evaluates the explicit operator formula of the `bvcalc.bv`
docstring literally, on `Multivector` factors, and is the oracle for the
`D(e_S)` table of `GeneratorD`.  It calls `bv.one_circ` through the module,
so a test that monkeypatches `bv.one_circ` reaches it here too.
`recursive_bracket` builds the Gerstenhaber bracket term by term: it peels
the first factor of each e_S (`_term_bracket`) down to the even derivation
of a degree-1 element (`_vector_bracket`) and the odd derivation of a
degree-0 one (`_scalar_bracket`).  It reads the Lie bracket on `LElement`s
and the anchor, never `bv.lie_brackets`, `bv.basis_bracket` or
`bv.mask_bracket`, and is the oracle for the closed form behind
`bv.gerstenhaber_bracket`.  `is_generator_on_every_pair` is `bv.is_generator`
with its unit pairs taken over all 4^n pairs at every rank, the oracle for the
rows pass the package runs above `bv.FULL_PASS_MAX_RANK`.
`is_generator_on_random_pairs` gives the verdict of the identity on random
coefficients with the operator called on every u ^ v, the oracle for the
anchor rule that `bv.is_generator` rests on at m > 0.
`certify_every_connection_by_operators` is `bv.certify_every_connection`
with every image D_r(e_R) read from a call of a `bv.GeneratorD` on e_R,
the oracle for the package's certificate, which reads the maps of
`ground_generator` directly.  Other helpers draw mixed multivectors and
read multivectors and forms on general arguments, which the package's
checks never need.
`TupleMultivector` and `TupleAltForm` key their components by increasing
index tuples, normalized by `sort_with_sign`, and are the oracles for the
bitmask keys of `Multivector` and `AltForm`.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Sequence

from bvcalc import bv, ground
from bvcalc.algebra import LElement, LieRinehartAlgebra
from bvcalc.exterior import AltForm, Multivector, basis_label, sort_with_sign
from bvcalc.poly import PolyElement
from bvcalc.sampling import coefficient_passes, random_poly


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
    for key, coeff in u.terms():
        if not key:
            continue
        thetas = [alg.basis_l(i).scale(coeff) if t == 0 else alg.basis_l(i)
                  for t, i in enumerate(key)]
        out = out + generator_on_factors(alg, conn, thetas)
    return out


def _vector_bracket(alg: LieRinehartAlgebra, a: PolyElement, i: int,
                    b: PolyElement, key: tuple[int, ...]) -> Multivector:
    """[a e_i, b e_key] for an increasing tuple key.

    The bracket with a degree-1 element is an even derivation, so no
    slot signs appear: [alpha, b e_T] = alpha(b) e_T + b sum_t (...[alpha, e_t]...).
    """
    alpha = alg.basis_l(i).scale(a)
    items = [(key, alg.anchor_apply(alpha, b))]
    for t in range(len(key)):
        br = alg.bracket(alpha, alg.basis_l(key[t]))
        items += [(key[:t] + (l,) + key[t + 1:], b * c) for l, c in enumerate(br.coeffs) if c]
    return Multivector(alg.n, items)


def _scalar_bracket(alg: LieRinehartAlgebra, a: PolyElement, b: PolyElement,
                    key: tuple[int, ...]) -> Multivector:
    """[a, b e_key] for a of degree 0: the odd-derivation expansion."""
    n = alg.n
    out = Multivector.zero(n)
    for t, i in enumerate(key):
        value = alg.anchor[i](a) * b
        if not value:
            continue
        term = Multivector(n, [(key[:t] + key[t + 1:], value)])
        # slot signs of an odd derivation, with [a, e_i] = -e_i(a)
        out = out - term if t % 2 == 0 else out + term
    return out


def _term_bracket(alg: LieRinehartAlgebra, a: PolyElement, s_key: tuple[int, ...],
                  b: PolyElement, t_key: tuple[int, ...]) -> Multivector:
    p, q = len(s_key), len(t_key)
    if p == 0:
        return _scalar_bracket(alg, a, b, t_key)
    if p == 1:
        return _vector_bracket(alg, a, s_key[0], b, t_key)
    # peel the first factor: [u ^ w, v] = (-1)^((q-1)(p-1)) [u,v] ^ w + u ^ [w,v]
    head = _vector_bracket(alg, a, s_key[0], b, t_key)
    part1 = head.wedge(Multivector.basis(alg.n, s_key[1:], m=alg.m))
    if ((q - 1) * (p - 1)) % 2:
        part1 = -part1
    tail = _term_bracket(alg, PolyElement.one(alg.m), s_key[1:], b, t_key)
    part2 = Multivector(alg.n, [((s_key[0],), a)]).wedge(tail)
    return part1 + part2


def recursive_bracket(alg: LieRinehartAlgebra, u: Multivector,
                      v: Multivector) -> Multivector:
    """The degree -1 bracket on multivectors, by peeling the first factor of each term."""
    if u.n != alg.n or v.n != alg.n:
        raise ValueError("rank mismatch")
    out = Multivector.zero(alg.n)
    for s_key, a in u.terms():
        for t_key, b in v.terms():
            out = out + _term_bracket(alg, a, s_key, b, t_key)
    return out


def is_generator_on_every_pair(alg: LieRinehartAlgebra, op, trials: int = 32, seed: int = 0,
                               degree_bound: int = 3) -> tuple[bool, str | None]:
    """`bv.is_generator` with its unit pairs taken over every ordered pair at every rank.

    The same probes, anchor pairs, defect, witness and degree check as the
    package's check, which visits only the rows |S| <= 1 above
    `bv.FULL_PASS_MAX_RANK`; the tests compare the two on operators that
    are not generators.
    """
    passes = coefficient_passes(alg.m, trials, seed, "is_generator", degree_bound)
    n, m, masks = alg.n, alg.m, ground.subsets(alg.n)
    one, two = PolyElement.one(m), PolyElement.const(m, 2)
    lie = bv.lie_brackets(alg)
    images = {}
    for s in masks:
        image = op(Multivector._make(n, {s: one}))
        ds = images[s] = ground.values(image.components)
        doubled = op(Multivector._make(n, {s: two}))
        if ground.values(doubled.components) != {mask: 2 * c for mask, c in ds.items()}:
            label = basis_label(ground.to_key(s))
            return False, f"D((2)*{label})={doubled} 2*D({label})={image.scale(two)}"
    for s in masks:
        for t in masks:
            witness = bv._pair_witness(alg, lie, bv._term(alg, s, one), bv._term(alg, t, one),
                                       images[s | t], images[s], images[t])
            if witness:
                return False, witness
    witness = bv._degree_witness(alg, images)
    if witness:
        return False, witness
    variables = [PolyElement.variable(m, k) for k in range(m)]
    for draw in [lambda x=x: x for x in variables] + passes if m else []:
        for t in masks:
            a = draw()
            if not a:
                continue
            image = ground.values(op(Multivector._make(n, {t: a})).components)
            u, v = bv._term(alg, 0, a), bv._term(alg, t, one)
            witness = (bv._pair_witness(alg, lie, u, v, image, {}, images[t])
                       or bv._pair_witness(alg, lie, v, u, image, images[t], {}))
            if witness:
                return False, witness
    return True, None


def is_generator_on_random_pairs(alg: LieRinehartAlgebra, op, trials: int = 32, seed: int = 0,
                                 degree_bound: int = 3) -> bool:
    """The verdict of the generator identity on random coefficients, `op` a black box on
    every argument.

    Each pass of `sampling.coefficient_passes` draws one a per basis subset
    S and calls `op` on a e_S, and then on u ^ v for every ordered pair
    (u, v) = (a e_S, b e_T), zero products included, so `op` is never read
    off a probe and nothing rests on the anchor rule or on the first order
    that `bv.is_generator` assumes at m > 0.  Each image D(a e_S) must also
    be of degree |S| - 1.
    """
    passes = coefficient_passes(alg.m, trials, seed, "is_generator", degree_bound)
    n = alg.n
    lie = bv.lie_brackets(alg)
    for draw in passes:
        drawn = []
        for s in ground.subsets(n):
            a = draw()
            image = ground.values(op(Multivector._make(n, {s: a} if a else {})).components)
            if any(mask.bit_count() != s.bit_count() - 1 for mask in image):
                return False
            drawn.append((bv._term(alg, s, a), image))
        for u, ds in drawn:
            s, x, _ = u
            sign = -1 if s.bit_count() % 2 else 1
            for v, dt in drawn:
                t, y, _ = v
                ab = x * y
                w = ground.wedge_sign(s, t) if ab else 0
                defect = bv.mask_bracket(lie, u, v, ab)
                duv = op(Multivector._make(n, {s | t: ab if w > 0 else -ab} if w else {}))
                ground.add_multiple(defect, ground.values(duv.components), sign=-sign)
                ground.add_wedge(defect, ds, t, y, sign)
                ground.add_wedge(defect, s, dt, x)
                if defect:
                    return False
    return True


def certify_every_connection_by_operators(alg: LieRinehartAlgebra,
                                          conn: bv.RightConnectionOnA) -> tuple[bool, str | None]:
    """`bv.certify_every_connection` with each image D_r(e_R) taken from a `GeneratorD` call.

    The same probe rows, order, witnesses and refusals as the package's
    certificate, at every m, which reads D_r(e_R) from `ground_generator`
    itself; here every image is a call of a new `bv.GeneratorD` on the
    `Multivector` e_R, read back through `ground.values`.  The tests compare
    the two on `ground_generator` mutants.
    """
    n, m = alg.n, alg.m
    masks = ground.subsets(n)
    one = PolyElement.one(m)
    zero = ground.value(PolyElement.zero(m))
    variables = [PolyElement.variable(m, k) for k in range(m)]

    def images(r: tuple[PolyElement, ...]) -> dict:
        op = bv.GeneratorD(alg, bv.RightConnectionOnA(r))
        return {s: ground.values(op(Multivector._make(n, {s: one})).components) for s in masks}

    base = images(conn.r)

    def moved(v: Sequence) -> dict:
        out = images(tuple(c + k for c, k in zip(conn.r, v)))
        for s, image in out.items():
            ground.add_multiple(image, base[s], sign=-1)
        return out

    def contraction(theta: list, s: int) -> dict:
        return {s ^ (1 << l): -theta[l] if k % 2 else theta[l]
                for k, l in enumerate(ground.to_key(s)) if theta[l]}

    def probes():
        total = [zero] * n
        for i in range(n):
            axis = [int(j == i) for j in range(n)]
            once = moved(axis)
            theta = [once[1 << l].get(0, zero) for l in range(n)]
            total = [a + b for a, b in zip(total, theta)]
            yield f"{i + 1}", [
                (f"e_{i + 1}", once, theta,
                 f"delta_{i + 1} = D[r+e_{i + 1}] - D[r] is not a contraction"),
                (f"2e_{i + 1}", moved([2 * k for k in axis]), [2 * c for c in theta],
                 "D is not affine in r"),
                *((f"x{k + 1}*e_{i + 1}", moved([x * c for c in axis]),
                   [x * c for c in theta], "D is not A-linear in r")
                  for k, x in enumerate(variables))]
        yield f"1..{n}", [(f"e_1+..+e_{n}", moved([1] * n), total, "D is not affine in r")]

    for i, rows in probes():
        for s in masks:
            for v, delta, theta, reason in rows:
                expected = contraction(theta, s)
                if delta[s] != expected:
                    label = basis_label(ground.to_key(s))
                    return False, (f"i={i} R={label}: D[r+{v}]({label}) - D[r]({label})="
                                   f"{bv._multivector(n, m, delta[s])} but the contraction "
                                   f"with ({', '.join(map(str, theta))}) gives "
                                   f"{bv._multivector(n, m, expected)}, so {reason}")
    return True, None


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
    return Multivector(u.n, [(k, v) for k, v in u.terms() if len(k) == p])


def value_on_basis_tuple(f: AltForm, indices: Sequence[int]) -> PolyElement:
    """Value of f on an arbitrary basis tuple, with the alternating sign."""
    key, sign = sort_with_sign(tuple(indices))
    if sign == 0:
        return PolyElement.zero(f.m)
    value = f.value_on_increasing(key)
    return value if sign == 1 else -value


def evaluate(f: AltForm, args: Sequence[LElement]) -> PolyElement:
    """Multilinear alternating evaluation of f on general module elements: the
    coefficient of the value on e_1^...^e_n."""
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
    return total


def evaluate_on_multivector(f: AltForm, u: Multivector) -> PolyElement:
    """Pair f with a multivector of matching degree, term by term: the
    coefficient of the value on e_1^...^e_n."""
    if u.n != f.n:
        raise ValueError("rank mismatch")
    total = PolyElement.zero(f.m)
    for key, coeff in u.terms():
        if len(key) != f.degree:
            raise ValueError("multivector degree does not match form degree")
        total = total + coeff * f.value_on_increasing(key)
    return total


class TupleMultivector:
    """`Multivector` keyed by increasing index tuples: the oracle for its bitmask keys.

    Every result is built by the constructor, which sorts each key with its
    permutation sign (`sort_with_sign`), sends a repeated index to 0,
    merges equal keys and drops zeros; the wedge joins keys and lets the
    constructor sort them.
    """

    def __init__(self, n: int, components=()):
        items = components.items() if isinstance(components, dict) else components
        acc = {}
        for key, coeff in items:
            sorted_key, sign = sort_with_sign(tuple(key))
            if sign == 0 or not coeff:
                continue
            if any(not 0 <= i < n for i in sorted_key):
                raise ValueError(f"index {key} out of range for rank {n}")
            value = coeff if sign == 1 else -coeff
            prev = acc.get(sorted_key)
            total = value if prev is None else prev + value
            if total:
                acc[sorted_key] = total
            elif sorted_key in acc:
                del acc[sorted_key]
        self.n = n
        self.components = acc

    def component(self, indices: Sequence[int], m: int) -> PolyElement:
        key, sign = sort_with_sign(tuple(indices))
        value = self.components.get(key) if sign else None
        if value is None:
            return PolyElement.zero(m)
        return value if sign == 1 else -value

    def terms(self) -> list:
        return sorted(self.components.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def degree(self) -> int | None:
        degrees = {len(k) for k in self.components}
        if len(degrees) > 1:
            raise ValueError("inhomogeneous multivector has no degree")
        return degrees.pop() if degrees else None

    def __add__(self, other: "TupleMultivector") -> "TupleMultivector":
        return TupleMultivector(self.n, [*self.components.items(), *other.components.items()])

    def __sub__(self, other: "TupleMultivector") -> "TupleMultivector":
        return self + TupleMultivector(other.n, [(k, -v) for k, v in other.components.items()])

    def scale(self, p) -> "TupleMultivector":
        return TupleMultivector(self.n, [(k, p * v) for k, v in self.components.items()])

    def wedge(self, other: "TupleMultivector") -> "TupleMultivector":
        return TupleMultivector(self.n, [(s_key + t_key, s_val * t_val)
                                         for s_key, s_val in self.components.items()
                                         for t_key, t_val in other.components.items()])

    def __str__(self) -> str:
        if not self.components:
            return "0"
        return " + ".join(f"({value})*{basis_label(key)}" if key else f"({value})"
                          for key, value in self.terms())


class TupleAltForm:
    """`AltForm` keyed by increasing index tuples: the oracle for its bitmask keys."""

    def __init__(self, n: int, m: int, degree: int, components=()):
        acc = {}
        for key, value in components:
            key = tuple(key)
            if len(key) != degree or any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"key {key} is not an increasing {degree}-tuple")
            if value:
                acc[key] = acc.get(key, PolyElement.zero(m)) + value
                if not acc[key]:
                    del acc[key]
        self.m = m
        self.degree = degree
        self.components = acc

    def value_on_increasing(self, key: tuple[int, ...]) -> PolyElement:
        return self.components.get(key, PolyElement.zero(self.m))

    def __str__(self) -> str:
        if not self.components:
            return f"0-form(deg {self.degree})"
        return "; ".join("(" + ",".join(str(i + 1) for i in key) + f") -> {self.components[key]}"
                         for key in sorted(self.components))
