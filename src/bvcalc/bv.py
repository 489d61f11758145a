"""Gerstenhaber bracket on the exterior algebra and its generators.

The bracket is the degree -1 biderivation extending the Lie bracket on L
and the anchor action on A, with the convention

    [u, v ^ w] = [u, v] ^ w + (-1)^((|u|-1)|v|) v ^ [u, w]
    [u, v]     = -(-1)^((|u|-1)(|v|-1)) [v, u]

A right connection on A is the vector r with r_i = 1 o e_i; it induces a
degree -1 operator on multivectors by

    D(t_1 ^ ... ^ t_p) = sum_i (-1)^(i-1) (1 o t_i) t_1 ^ ..^t_i^.. ^ t_p
      + sum_{j<k} (-1)^(j+k) [t_j, t_k] ^ t_1 ^ ..^t_j..^t_k.. ^ t_p

where 1 o (b e_i) = b r_i - e_i(b).  The operator so built generates the
bracket in the sense checked by `is_generator`, and that identity pins
the sign conventions: the two code paths (recursive bracket, explicit
operator) are kept independent so they can be tested against each other.

The generator identity reads [e_S, e_T] for all 4^n pairs from one
bitmask table on the algebra (`bvcalc.ground`), filled once by
`bracket_table` at every m from the Lie bracket alone: rows with |S| = 1
spread the n^2 brackets `alg.bracket(e_i, e_j)` over T by the derivation
rule, and the rows with |S| >= 2 follow from them by the peel rule of
`_term_bracket`.  Its values are constants at m = 0 and polynomials at
m > 0.  D(e_S) is a second table, on the `GeneratorD`, at every m:
`GeneratorD.ground` fills each entry on first need by
`ground_generator` from the explicit formula above, reading only r and
the structure constants through `alg.bracket_terms`, which the table
never reads, and a call on a e_S adds to a D(e_S) the anchor terms
[a, e_S], formed from the anchor alone.
Neither table is derived from the other.  The tests compare the second
table against `apply_generator` in `tests/reference.py`, the explicit
formula on `Multivector` factors, which the package does not ship; the
product path reaches D only through `GeneratorD`.  The bracket of a e_S
and b e_T is ab [e_S, e_T] plus two terms in the anchor derivatives of a
and b, which vanish for a constant coefficient and so always at m = 0
(`mask_bracket`); the generator identity and the pairing identity of
`bvcalc.correspond` read it so at every m, each drawing its coefficients
by `draw_term`, and a generator identity witness prints the defect map
the check summed.  `gerstenhaber_bracket` stays the public bracket at
every m and the tests' oracle; no check calls it.

The same linearity makes the m = 0 checks exact.  The generator
identity is Q-bilinear in the coefficients of u and v once the operator
is Q-linear, so `is_generator` evaluates it once on every basis pair
(e_S, e_T) with coefficient 1, and `generator_square` evaluates D^2
once on every e_S.  The operator under test stays a black box:
`is_generator` calls it on e_R and on 2 e_R for every subset R, and an
operator that fails that probe of the linearity the proof assumes fails
the check.  For m > 0 the coefficients are random polynomials, and a
passing check is evidence, not proof.

At m = 0 one certificate then covers every right connection, not only
the file's r0: D_r is affine in r, and two generators differ by an odd
derivation, at m = 0 a contraction with a constant 1-form theta,
iota_theta(e_R) = sum_k (-1)^k theta[r_k] e_(R - r_k).  So
`certify_every_connection` checks each probe as one row: on every e_R,
D_(r0 + v)(e_R) - D_r0(e_R) = iota_theta(v)(e_R) for the shifts
v = e_i, 2 e_i and e_1 + .. + e_n of black-box operators, without the
bracket table.  With `is_generator` passing at r0 that proves the
identity for all r, provided the operator is affine in r, which the last
two shifts probe but no finite probe proves.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

from . import ground
from .algebra import LElement, LieRinehartAlgebra
from .exterior import Multivector, basis_label
from .poly import PolyElement
from .record import Record
from .sampling import check_draw_arguments, check_rng, random_poly


class RightConnectionOnA(Record):
    """Right connection data on A: r[i] is 1 o e_i."""

    _fields = ("r",)

    def __init__(self, r: tuple[PolyElement, ...]):
        self.r = r

    @property
    def n(self) -> int:
        return len(self.r)


def one_circ(alg: LieRinehartAlgebra, conn: RightConnectionOnA, alpha: LElement) -> PolyElement:
    """1 o alpha = sum_i (alpha_i r_i - e_i(alpha_i))."""
    if conn.n != alg.n or alpha.n != alg.n:
        raise ValueError("rank mismatch")
    out = PolyElement.zero(alg.m)
    for i, coeff in enumerate(alpha.coeffs):
        if coeff:
            if conn.r[i]:
                out = out + coeff * conn.r[i]
            if not alg.anchor[i].is_zero():
                out = out - alg.anchor[i](coeff)
    return out


def ground_generator(alg: LieRinehartAlgebra, conn: RightConnectionOnA, s: int) -> dict:
    """D(e_S) as a ground map {mask: value}, at every m, from the explicit formula.

    With S = {s_0 < .. < s_(p-1)} and [e_a, e_b] = sum_l c^l_ab e_l, the
    terms are (-1)^i r_(s_i) e_(S - s_i) and, for j < k,
    (-1)^(j+k) c^l_(s_j s_k) e_l ^ e_R with R = S - s_j - s_k; only the
    nonzero c^l_ab are visited.  The values follow `ground.value`: constants
    at m = 0, polynomials at m > 0.  Reads only r and `alg.bracket_terms`:
    never the bracket table, never the tests' `apply_generator` in
    `tests/reference.py`.
    """
    out = {}
    indices = ground.to_key(s)
    for i, a in enumerate(indices):
        c = ground.value(conn.r[a])
        if c:
            out[s ^ (1 << a)] = -c if i % 2 else c
    for j, a in enumerate(indices):
        for k in range(j + 1, len(indices)):
            b = indices[k]
            rest = s ^ (1 << a) ^ (1 << b)
            for l, coeff in alg.bracket_terms(a, b):
                ground.add_wedge_basis(out, {1 << l: ground.value(coeff)}, rest,
                                       sign=-1 if (j + k) % 2 else 1)
    return out


class GeneratorD(Record):
    """Degree -1 operator generating the Gerstenhaber bracket.

    Every generator arises from a right connection on A, so the data is
    just the connection; calling the object applies the operator.  `table`
    maps the bitmask of S to D(e_S) as a ground map, each entry built by
    `ground_generator` the first time `ground` needs it, at every m.  A call
    sums, over the terms a e_S of its argument, the generator identity with
    the degree-0 argument a (Koszul 1985; Huebschmann 1998):

        D(a e_S) = a D(e_S) + [a, e_S],
        [a, e_S] = sum_k (-1)^(k+1) e_(s_k)(a) e_(S - s_k),

    with k the 0-based position in S.  The last sum vanishes when a is a
    constant, so always at m = 0; it is formed here from `alg.anchor`, never
    from the bracket code.  `apply_generator` in `tests/reference.py` is the
    tests' oracle for it.
    """

    _fields = ("alg", "connection")

    def __init__(self, alg: LieRinehartAlgebra, connection: RightConnectionOnA):
        self.alg = alg
        self.connection = connection
        self.table = {}

    def __call__(self, u: Multivector) -> Multivector:
        alg = self.alg
        if u.n != alg.n:
            raise ValueError("rank mismatch")
        out = {}
        for key, coeff in u.components.items():
            s = ground.to_mask(key)
            ground.add_multiple(out, self.ground(s), ground.value(coeff))
            if not coeff.is_constant():
                for k, i in enumerate(key):
                    if d := alg.anchor[i](coeff):
                        ground.add_multiple(out, {s ^ (1 << i): d}, sign=1 if k % 2 else -1)
        return ground.to_multivector(alg.n, out, alg.m)

    def ground(self, s: int) -> dict:
        """D(e_S) as a ground map: the `table` entry, filled on first need."""
        image = self.table.get(s)
        if image is None:
            image = self.table[s] = ground_generator(self.alg, self.connection, s)
        return image


# -- the bracket ------------------------------------------------------


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


def gerstenhaber_bracket(alg: LieRinehartAlgebra, u: Multivector,
                         v: Multivector) -> Multivector:
    """The degree -1 bracket on multivectors."""
    if u.n != alg.n or v.n != alg.n:
        raise ValueError("rank mismatch")
    out = Multivector.zero(alg.n)
    for s_key, a in u.components.items():
        for t_key, b in v.components.items():
            out = out + _term_bracket(alg, a, s_key, b, t_key)
    return out


def bracket_table(alg: LieRinehartAlgebra) -> dict:
    """`alg.gerstenhaber_table`: (S, T) bitmasks -> [e_S, e_T] as a `bvcalc.ground` map.

    The values are int or Fraction at m = 0 and `PolyElement` at m > 0.
    Filled on the first call, S in increasing mask order, by the rules of
    `_term_bracket` at coefficient 1.  Row S = {} is zero, since the anchor
    kills 1.  Row S = {i} is the even derivation
    [e_i, e_T] = sum_k (-1)^k [e_i, e_(t_k)] ^ e_(T - t_k), with k the
    0-based position of t_k in T, spread over T from the n^2 Lie brackets
    `alg.bracket(e_i, e_j)`, each computed once as a map {bit of l: c^l_ij};
    a term with l in T - t_k is zero.  The other rows follow the peel rule
    from entries already filled, with s0 the lowest bit of S and S' the rest:
    [e_s0 ^ e_S', e_T] = (-1)^((q-1)(p-1)) [e_s0, e_T] ^ e_S' + e_s0 ^ [e_S', e_T].
    """
    table = alg.gerstenhaber_table
    if table:
        return table
    n, size = alg.n, 1 << alg.n
    lie = [[{1 << l: ground.value(c)
             for l, c in enumerate(alg.bracket(alg.basis_l(i), alg.basis_l(j)).coeffs) if c}
            for j in range(n)] for i in range(n)]
    for s in range(size):
        p, low = s.bit_count(), s & -s
        for t in range(size):
            entry = {}
            if p == 1:
                row = lie[low.bit_length() - 1]
                for k, j in enumerate(ground.to_key(t)):
                    if row[j]:
                        ground.add_wedge_basis(entry, row[j], t ^ (1 << j),
                                               sign=-1 if k % 2 else 1)
            elif p:
                ground.add_wedge_basis(entry, table[low, t], s ^ low,
                                       sign=-1 if (t.bit_count() - 1) * (p - 1) % 2 else 1)
                ground.add_basis_wedge(entry, low, table[s ^ low, t])
            table[s, t] = entry
    return table


def _scalar_bracket_map(s: int, db: Sequence[PolyElement]) -> tuple[dict, dict]:
    """[b, e_S] = odd - even as two `bvcalc.ground` maps, given db[i] = e_i(b).

    With S = {s_0 < s_1 < ..}, [b, e_S] = sum_k (-1)^(k+1) e_(s_k)(b) e_(S - s_k):
    the odd-derivation expansion of `_scalar_bracket`, where [b, e_i] = -e_i(b).
    `odd` holds the terms of odd k and `even` those of even k, neither negated.
    """
    odd, even = {}, {}
    for k, i in enumerate(ground.to_key(s)):
        if db[i]:
            (odd if k % 2 else even)[s ^ (1 << i)] = db[i]
    return odd, even


def mask_bracket(table: dict, u: tuple, v: tuple, ab) -> dict:
    """[a e_S, b e_T] as a `bvcalc.ground` map, by the Leibniz rule.

    u = (S, a, da) and v = (T, b, db) carry a bitmask, a coefficient as a
    `ground.value` and its anchor derivatives da[i] = e_i(a); ab = a b.
    With p = |S| and q = |T|,

        [a e_S, b e_T] = ab [e_S, e_T] + (-1)^p a [b, e_S] ^ e_T
                         - (-1)^((p-1)(q-1)+q) b [a, e_T] ^ e_S,

    the biderivation extending the anchor (Koszul 1985), with [e_S, e_T]
    read from `table` (`bracket_table`) and the last two terms from the
    derivatives alone.  A constant coefficient, so every coefficient at
    m = 0, has no anchor derivatives: passing its da or db as () skips its
    term, which is then zero.
    """
    s, a, da = u
    t, b, db = v
    p, q = s.bit_count(), t.bit_count()
    if ab == 1:  # every pair at m = 0
        out = dict(table[s, t])
    else:  # a product of nonzero values is nonzero, so only ab = 0 makes zeros
        out = {mask: ab * c for mask, c in table[s, t].items()} if ab else {}
    if db:
        sign = -1 if p % 2 else 1
        odd, even = _scalar_bracket_map(s, db)
        ground.add_wedge_basis(out, odd, t, a, sign)
        ground.add_wedge_basis(out, even, t, a, -sign)
    if da:
        sign = 1 if ((p - 1) * (q - 1) + q) % 2 else -1
        odd, even = _scalar_bracket_map(t, da)
        ground.add_wedge_basis(out, odd, s, b, sign)
        ground.add_wedge_basis(out, even, s, b, -sign)
    return out


def draw_term(alg: LieRinehartAlgebra, rng, key: tuple[int, ...],
              degree_bound: int) -> tuple[PolyElement, tuple]:
    """A coefficient c for e_key and the (mask, value, derivatives) of c e_key for `mask_bracket`.

    c is 1 at m = 0 and one `random_poly` draw from `rng` at m > 0; the
    derivatives e_i(c) are () for a constant c.  Both pair identities, the
    generator identity and `bvcalc.correspond`'s pairing identity, draw so.
    """
    c = random_poly(rng, alg.m, degree_bound) if alg.m else PolyElement.one(0)
    derivatives = () if c.is_constant() else tuple(rho(c) for rho in alg.anchor)
    return c, (ground.to_mask(key), ground.value(c), derivatives)


# -- generator checks --------------------------------------------------


Operator = Callable[[Multivector], Multivector]


def is_generator(alg: LieRinehartAlgebra, op: Operator, trials: int = 32,
                 seed: int = 0, degree_bound: int = 3) -> tuple[bool, str | None]:
    """Check the generator identity on all pairs of basis subsets.

    The identity is [u, v] = (-1)^|u| (D(u ^ v) - D(u) ^ v - (-1)^|u| u ^ D(v)).
    Accepts any operator as a callable; returns (True, None) or
    (False, witness) with the first violating pair.  One loop serves
    every m.  A pass gives every basis subset S, in subset order, one
    coefficient a from `draw_term` and calls `op` on a e_S; with
    sign = (-1)^|S| the defect

        [u, v] - sign D(u ^ v) + sign b D(u) ^ e_T + a e_S ^ D(v)

    of u = a e_S and v = b e_T then accumulates for every ordered pair in
    one mask map, the bracket from `mask_bracket` on the bracket table,
    which is read on every pair, so an edited entry is seen.  The witness
    prints that map.  The identity sees only the Koszul bracket of D,
    which adding an odd derivation of any degree leaves unchanged, so
    once the pairs of a pass hold, every image D(a e_S) of the pass must
    be of degree |S| - 1 (`_degree_witness`); the witness then names S.

    When m = 0 both sides are Q-bilinear in (a, b) once `op` is Q-linear,
    so one pass with a = 1 decides, and `trials`, `seed` and
    `degree_bound` make no difference.  `op` is called on e_R and then on
    2 e_R for every R, and nowhere else: an operator with
    op(2 e_R) != 2 op(e_R) fails at e_R, and with e_S ^ e_T = w e_(S | T)
    the pair reads D(u ^ v) as w D(e_(S | T)) from the images so probed.
    When m > 0, each of `trials` passes draws random polynomial
    coefficients, and `op` is called on every drawn a e_S, then on u ^ v
    for every ordered pair (u, v), zero products included.  `trials`
    below 1 or `degree_bound` below 0 raises ``ValueError`` at every m.
    """
    check_draw_arguments(trials, degree_bound)
    rng = check_rng(seed, "is_generator")
    n, m = alg.n, alg.m
    subsets = [key for p in range(n + 1) for key in combinations(range(n), p)]
    two = PolyElement.const(0, 2)
    table = bracket_table(alg)
    for _ in range(trials if m else 1):
        # (a, `mask_bracket`'s (S, a, e_i(a)), D(a e_S) as a mask map) per drawn a e_S
        drawn, images = [], {}
        for key in subsets:
            a, u = draw_term(alg, rng, key, degree_bound)
            # keys from combinations are increasing, so no constructor sorts them
            image = op(Multivector._make(n, {key: a} if a else {}))
            ds = images[u[0]] = ground.from_multivector(image)
            if not m:
                doubled = op(Multivector._make(n, {key: two}))
                if ground.from_multivector(doubled) != {mask: 2 * c for mask, c in ds.items()}:
                    label = basis_label(key)
                    return False, f"D((2)*{label})={doubled} 2*D({label})={image.scale(two)}"
            drawn.append((a, u, ds))
        for a, u, ds in drawn:
            s, x, _ = u
            sign = -1 if s.bit_count() % 2 else 1
            for b, v, dt in drawn:
                t, y, _ = v
                ab = x * y
                w = ground.wedge_sign(s, t) if ab else 0
                defect = mask_bracket(table, u, v, ab)
                if m:  # the black box on u ^ v
                    duv = op(Multivector._make(n, {ground.to_key(s | t): ab if w > 0 else -ab}
                                               if w else {}))
                    ground.add_multiple(defect, ground.from_multivector(duv), sign=-sign)
                elif w:
                    ground.add_multiple(defect, images[s | t], sign=-sign * w)
                ground.add_wedge_basis(defect, ds, t, y, sign)
                ground.add_basis_wedge(defect, s, dt, x)
                if defect:
                    return False, (f"u=({a})*{basis_label(ground.to_key(s))} "
                                   f"v=({b})*{basis_label(ground.to_key(t))} "
                                   f"defect={ground.to_multivector(n, defect, m)}")
        witness = _degree_witness(alg, drawn)
        if witness:
            return False, witness
    return True, None


def _degree_witness(alg: LieRinehartAlgebra, drawn: list) -> str | None:
    """The first drawn a e_S of `is_generator` whose image D(a e_S) is not
    homogeneous of degree |S| - 1, as a witness naming S; None if there is none."""
    for a, (s, _, _), image in drawn:
        degree = s.bit_count() - 1
        if any(mask.bit_count() != degree for mask in image):
            return (f"D(({a})*{basis_label(ground.to_key(s))})="
                    f"{ground.to_multivector(alg.n, image, alg.m)} is not of degree {degree}")
    return None


def certify_every_connection(alg: LieRinehartAlgebra,
                             conn: RightConnectionOnA) -> tuple[bool, str | None]:
    """For m = 0: once D_r0 generates the bracket, so does D_r for every r in Q^n.

    With r0 = conn.r and delta_i = D_(r0 + e_i) - D_r0, the operator D_r is
    D_r0 + sum_i (r - r0)_i delta_i, so the defect of the generator identity
    at r is its defect at r0 plus sum_i (r - r0)_i times the derivation
    defect of delta_i.  That vanishes for every r exactly when each delta_i
    is an odd derivation (Koszul 1985; Xu 1999).  An operator of degree -1
    that kills 1 and obeys the derivation rule is the contraction with the
    1-form it takes on degree 1, here theta_i[l] = the constant term of
    delta_i(e_l); iota_theta(e_R) = sum_k (-1)^k theta[r_k] e_(R - r_k), k the
    0-based position of r_k in R, is formed here, not from `ground_generator`.
    Each probe is one row (v, theta(v), reason), checked on every e_R as
    D_(r0 + v)(e_R) - D_r0(e_R) = iota_theta(v)(e_R): axis i has the rows
    (e_i, theta_i) and (2 e_i, 2 theta_i), and the diagonal row
    (e_1 + .. + e_n, theta_1 + .. + theta_n) comes last.  The last two kinds
    probe the affinity in r that the argument assumes; they catch an
    operator that is not affine on those points, such as a term mixing two
    directions, but cannot prove affinity.  The operators for r0 and each
    shift stay black boxes, each called on every e_R ((2n + 2) 2^n calls);
    the bracket table is never read.  For each axis, then the diagonal, R
    runs in subset order, degree first, through the rows in turn; returns
    (True, None) or (False, witness) naming the first failing i (i=1..n for
    the diagonal) and R.  Together with `is_generator` passing at r0, and
    for an operator affine in r, this proves the identity for every right
    connection.  Its probes are constant shifts of r, which prove nothing
    about A-valued r, so m > 0 is refused with a ValueError.
    """
    if alg.m:
        raise ValueError(f"certify_every_connection needs m = 0, got m = {alg.m}")
    n = alg.n
    masks = [(key, ground.to_mask(key))
             for p in range(n + 1) for key in combinations(range(n), p)]
    one = PolyElement.one(0)

    def images(r: tuple[PolyElement, ...]) -> dict:
        op = GeneratorD(alg, RightConnectionOnA(r))
        # keys from combinations are increasing, so no constructor sorts them
        return {s: ground.from_multivector(op(Multivector._make(n, {key: one})))
                for key, s in masks}

    base = images(conn.r)

    def moved(v: Sequence[int]) -> dict:
        """D_(r0 + v)(e_R) - D_r0(e_R) for every R."""
        out = images(tuple(c + k for c, k in zip(conn.r, v)))
        for s, image in out.items():
            ground.add_multiple(image, base[s], sign=-1)
        return out

    def contraction(theta: list, s: int) -> dict:
        return {s ^ (1 << l): -theta[l] if k % 2 else theta[l]
                for k, l in enumerate(ground.to_key(s)) if theta[l]}

    probes, total = [], [0] * n  # (i, rows), each row (v, D_(r0 + v) - D_r0, theta(v), reason)
    for i in range(n):
        axis = [int(j == i) for j in range(n)]
        once = moved(axis)
        theta = [once[1 << l].get(0, 0) for l in range(n)]
        total = [a + b for a, b in zip(total, theta)]
        probes.append((f"{i + 1}", [
            (f"e_{i + 1}", once, theta,
             f"delta_{i + 1} = D[r+e_{i + 1}] - D[r] is not a contraction"),
            (f"2e_{i + 1}", moved([2 * k for k in axis]), [2 * c for c in theta],
             "D is not affine in r")]))
    probes.append((f"1..{n}", [(f"e_1+..+e_{n}", moved([1] * n), total, "D is not affine in r")]))
    for i, rows in probes:
        for key, s in masks:
            for v, delta, theta, reason in rows:
                expected = contraction(theta, s)
                if delta[s] != expected:
                    label = basis_label(key)
                    return False, (f"i={i} R={label}: D[r+{v}]({label}) - D[r]({label})="
                                   f"{ground.to_multivector(n, delta[s])} but the contraction "
                                   f"with ({', '.join(map(str, theta))}) gives "
                                   f"{ground.to_multivector(n, expected)}, so {reason}")
    return True, None


class SquareResult(Record):
    """Outcome of testing whether an operator squares to zero."""

    _fields = ("is_exact", "witness", "basis_table")

    def __init__(self, is_exact: bool, witness: str | None, basis_table: dict):
        self.is_exact = is_exact
        self.witness = witness
        self.basis_table = basis_table  # S -> D(D(e_S)) on pure basis multivectors


def generator_square(alg: LieRinehartAlgebra, op: Operator, trials: int = 8,
                     seed: int = 0, degree_bound: int = 3) -> SquareResult:
    """Test D(D(u)) = 0 on basis multivectors, then with random coefficients.

    The basis pass evaluates D^2(e_S) for every subset S.  When m = 0,
    A = Q and a degree -1 operator is Q-linear, so D^2(a e_S) = a D^2(e_S):
    the basis pass decides, and `trials`, `seed` and `degree_bound` make
    no difference.  When m > 0, D^2(a e_S) can be nonzero although D^2(e_S)
    is zero, so up to `trials` passes with random coefficients follow
    an exact basis pass.  `trials` below 1 or `degree_bound` below 0
    raises ``ValueError`` at every m.
    """
    check_draw_arguments(trials, degree_bound)
    rng = check_rng(seed, "generator_square")
    n = alg.n
    subsets = [s for p in range(n + 1) for s in combinations(range(n), p)]
    table = {}
    witness = None
    exact = True
    one = PolyElement.one(alg.m)
    for s_key in subsets:
        table[s_key] = op(op(Multivector(n, [(s_key, one)])))
        if not table[s_key].is_zero() and witness is None:
            exact = False
            witness = f"D^2({basis_label(s_key)}) = {table[s_key]}"
    for _ in range(trials):
        if not exact or not alg.m:
            break
        for s_key in subsets:
            a = random_poly(rng, alg.m, degree_bound)
            if not a:
                continue
            square = op(op(Multivector(n, [(s_key, a)])))
            if not square.is_zero():
                exact = False
                witness = f"D^2(({a})*{basis_label(s_key)}) = {square}"
                break
    return SquareResult(is_exact=exact, witness=witness, basis_table=table)
