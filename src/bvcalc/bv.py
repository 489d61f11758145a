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
the sign conventions: the two code paths (the closed-form bracket below,
the explicit operator) are kept independent so they can be tested
against each other.

The generator identity computes [e_S, e_T] on each pair it visits, at
every m, from the Lie bracket alone: `lie_brackets` reads the n^2
brackets `alg.bracket(e_i, e_j)` once per check call, and
`basis_bracket` extends them by the closed form of the biderivation
(Koszul 1985), a sum over one index of S and one of T.  Its values are
constants at m = 0 and polynomials at m > 0, and nothing is kept per
pair.  D(e_S) is a table on the `GeneratorD`, at every m:
`GeneratorD.ground` fills each entry on first need by
`ground_generator` from the explicit formula above, D_r = D_0 + (r terms).
The bracket part D_0(e_S), the sum over j < k, does not depend on r;
`bracket_part` builds it once per algebra from the structure constants
through `alg.bracket_terms`, which `lie_brackets` never reads, and keeps
it on the algebra, so every generator, the n(m + 2) + 2 image tables of
`certify_every_connection` and the complex of `bvcalc.homology` share it,
and `ground_generator` adds the r terms to a copy.  A call on a e_S adds
to a D(e_S) the anchor terms [a, e_S], formed from the anchor alone.
Neither side is derived from the other.  The tests compare the D
table against `apply_generator` in `tests/reference.py`, the explicit
formula on `Multivector` factors, which the package does not ship; the
product forms D(e_S) only in `ground_generator`, which fills every
`GeneratorD` table and which the certificate below reads
directly.  The bracket of a e_S and b e_T is ab [e_S, e_T] plus two
terms in the anchor derivatives of a and b, which vanish for a constant
coefficient and so always at m = 0 (`mask_bracket`); the generator
identity and the pairing identity of `bvcalc.correspond` read it so at
every m, each argument built as `_term` builds it, and a generator
identity witness prints the defect map the check summed.
`gerstenhaber_bracket`, the public bracket at every m, is `mask_bracket`
summed over the term pairs of its arguments; no check calls it.  The
tests compare it with `recursive_bracket` in `tests/reference.py`, the
bracket built by peeling one factor at a time, which the package does
not ship.

The same linearity makes the generator identity exact.  It is
Q-bilinear in the coefficients of u and v once the operator is
Q-linear, so `is_generator` evaluates it once on each basis pair
(e_S, e_T) it visits, with coefficient 1.  The operator under test stays a
black box: `is_generator` calls it on e_R and on 2 e_R for every subset
R, at every m, and an operator that fails that probe of the linearity
the proof assumes fails the check.  At m = 0 that covers every
coefficient; at m > 0 the anchor rule below carries the unit pairs to
every coefficient of A.

Koszul's argument (Koszul 1985; Huebschmann 1998) says which pairs
decide the identity: the rows, the pairs with |S| <= 1.  If the identity
holds on them, the row S = () gives D(1) = 0 and D(a w) = a D(w) + [a, w].
Let r_i be the degree-0 part of D(e_i) and E = D - D_r.  The rows
S = {i} give E(e_i ^ w) = E(e_i) ^ w - e_i ^ E(w) for every w, so E is
the odd derivation with the values E(e_i): D differs from the generator
D_r by a derivation, which leaves the Koszul bracket unchanged, and so
the identity holds on every pair.  The degree check then gives E = 0.
So above rank `FULL_PASS_MAX_RANK` = 3, `is_generator` visits only the
(n + 1) 2^n row pairs, not all 4^n.  Up to that rank it visits every
pair: that covers every catalog algebra, at no more than 64 unit
pairs, and it is the one check that compares the closed-form [e_S, e_T]
with D at |S| >= 2 too.  The witness is the same either way: if any
pair fails, a row fails, and the pass walks S in subset order, which
puts () and the singletons first, so the first failing pair of the full
pass lies in a row.

At m > 0 the argument splits at the coefficients (Koszul 1985;
Huebschmann 1998).  The row S = () with coefficient a reads
D(a e_T) = a D(e_T) + [a, e_T], the anchor rule, with D(a) = 0 since no
multivector has degree -1.  Say D is of first order in a: the map
a -> D(a e_T) - a D(e_T) is a derivation of A, as a -> [a, e_T] is.  Two
derivations that agree on x_1, .., x_m agree on A, so the rule holds for
every a once it holds at a = x_1, .., x_m, with D(2 e_T) = 2 D(e_T)
showing the Q-linearity, as at m = 0.  Given the rule, E = D - D_r is
A-linear, because D_r obeys the same rule.  The unit rows S = {i} give
E(e_i ^ e_T) = -e_i ^ E(e_T), with E(1) = 0 and E(e_i) = 0 once the
degree check holds, so E = 0 on the basis by induction on |T|, and so
E = 0: D = D_r, and the identity holds on every pair at every
coefficient.  So at m > 0 `is_generator` checks the rule on the pairs
(x_k, e_T) and (e_T, x_k) for every T and k, m 2^n calls of the
operator, and then on at most `trials` random a per T from the passes
of `sampling.coefficient_passes`.  These random a test the first-order
shape the argument assumes, as the shape rows of the certificate below
test theirs, and cannot prove it: an operator with a second derivative
of a in it passes every x_k.  The mirrored pair (e_T, a) reads the
[b, e_S] term of `mask_bracket`, which no other pair of the check meets.

One certificate then covers every right connection at every m, not
only the file's r0.  Two generators differ by an odd derivation, for
free L a contraction with an A-valued 1-form theta,
iota_theta(e_R) = sum_k (-1)^k theta[r_k] e_(R - r_k), and a call of
`GeneratorD` is D(a e_S) = a D_r(e_S) + [a, e_S], whose anchor part does
not depend on r.  So `certify_every_connection` checks each probe as one
row: on every e_R, D_(r0 + v)(e_R) - D_r0(e_R) = iota_theta(v)(e_R) for
the shifts v = e_i, 2 e_i, x_k e_i (k = 1..m) and e_1 + .. + e_n,
without any bracket.  If the table is A-affine in r, the rows v = e_i
make D_r - D_r0 = iota_(theta(r - r0)) for every r in A^n, an A-linear
odd derivation that leaves the Koszul bracket unchanged; the other rows
are shape probes of that affinity, which no finite probe proves.  It
reads each D_r(e_R) from `ground_generator`, the one code that forms it,
and builds no `GeneratorD`; `is_generator` calls the suite's own
`GeneratorD` as a black box at r0, so the call stays covered.  With
`is_generator` passing at r0 that proves the identity for all r, at
m > 0 given an operator of first order in the coefficient.

`generator_square` decides D^2 = 0 by one basis pass at every m: it
evaluates D^2 once on every e_S.  Its argument has two conditions, the
generator identity and the Lie-Rinehart axioms (Koszul 1985; Akman
1997).  Given the identity, the Jacobiator of the bracket is the third
order deviation of D^2, and the axioms give Jacobi, so D^2 has order at
most 2.  Then for each a in A the commutator [D^2, a] has order at most
1 and kills 1, so it is a derivation.  It has degree -2 and so kills A
and L, which generate the exterior algebra: [D^2, a] = 0, D^2 is
A-linear, and D^2 = 0 once D^2(e_S) = 0 for every S.  Without those
conditions the pass proves nothing: an operator that is not a generator,
or not Q-linear, can pass it while D^2 is not zero.  The report then
fails on `generator.identity` or `axioms.structure`; the square-zero
line is not gated on them.

A `Multivector` is keyed by the bitmask of each S, as the maps of
`bvcalc.ground` are, so a call of D, a probe of `is_generator` and a
witness move components between the two by their values alone
(`ground.values`, `ground.coefficient`), never by their keys.  Each
check walks the subsets S in the one subset order that `ground.subsets`
defines, and builds each argument a e_S on its mask; index tuples
appear only in witness labels.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from . import ground
from .algebra import LElement, LieRinehartAlgebra
from .exterior import Multivector, basis_label
from .poly import PolyElement
from .record import Record
from .sampling import coefficient_passes


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
    """D_r(e_S) = (r terms) + D_0(e_S) as a new ground map {mask: value}, at every m.

    With S = {s_0 < .. < s_(p-1)} the r terms are (-1)^i r_(s_i) e_(S - s_i),
    and the bracket part D_0(e_S) comes from `bracket_part`, built once per
    algebra.  The values follow `ground.value`: constants at m = 0,
    polynomials at m > 0.  Reads only r and, through `bracket_part`,
    `alg.bracket_terms`: never `alg.bracket` or `basis_bracket`, never the
    tests' `apply_generator` in `tests/reference.py`.  The map is new on
    every call, so editing it never reaches the algebra's D_0.
    """
    out = {}
    for i, a in enumerate(ground.to_key(s)):
        c = ground.value(conn.r[a])
        if c:
            out[s ^ (1 << a)] = -c if i % 2 else c
    ground.add_multiple(out, bracket_part(alg, s))
    return out


def bracket_part(alg: LieRinehartAlgebra, s: int) -> dict:
    """D_0(e_S), the part of every D_r(e_S) that does not depend on r, as a ground map.

    With S = {s_0 < .. < s_(p-1)} and [e_a, e_b] = sum_l c^l_ab e_l, it is the
    sum over j < k of (-1)^(j+k) c^l_(s_j s_k) e_l ^ e_R, R = S - s_j - s_k;
    only the nonzero c^l_ab are visited, read through `alg.bracket_terms`.
    Built on first need and kept on the algebra in `alg.bracket_parts`, as
    `bvcalc.correspond` keeps `alg.lie_traces`; callers copy it and never
    change it in place.
    """
    part = alg.bracket_parts.get(s)
    if part is None:
        part = alg.bracket_parts[s] = {}
        indices = ground.to_key(s)
        for j, a in enumerate(indices):
            for k in range(j + 1, len(indices)):
                b = indices[k]
                rest = s ^ (1 << a) ^ (1 << b)
                for l, coeff in alg.bracket_terms(a, b):
                    ground.add_wedge(part, {1 << l: ground.value(coeff)}, rest,
                                     sign=-1 if (j + k) % 2 else 1)
    return part


def _multivector(n: int, m: int, u: dict) -> Multivector:
    """A ground map as a rank-n `Multivector` over Q[x1..xm], each value through `coefficient`."""
    return Multivector._make(n, {s: ground.coefficient(m, c) for s, c in u.items()})


class GeneratorD(Record):
    """Degree -1 operator generating the Gerstenhaber bracket.

    Every generator arises from a right connection on A, so the data is
    just the connection; calling the object applies the operator.  `table`
    maps the bitmask of S to D(e_S) as a ground map, each entry built by
    `ground_generator` the first time `ground` needs it, at every m, as
    D_r(e_S) = D_0(e_S) + (r terms): the bracket part D_0 is kept on the
    algebra and shared by its generators, and each entry is a map of this
    generator's own, so editing `table` reaches no other generator.  A call
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
        if connection.n != alg.n:
            raise ValueError("rank mismatch")
        self.alg = alg
        self.connection = connection
        self.table = {}

    def __call__(self, u: Multivector) -> Multivector:
        alg = self.alg
        if u.n != alg.n:
            raise ValueError("rank mismatch")
        out = {}
        for s, coeff in u.components.items():
            ground.add_multiple(out, self.ground(s), ground.value(coeff))
            if not coeff.is_constant():
                for i in range(alg.n):
                    if s >> i & 1 and (d := alg.anchor[i](coeff)):
                        k = (s & ((1 << i) - 1)).bit_count()  # the position of i in S
                        ground.add_multiple(out, {s ^ (1 << i): d}, sign=1 if k % 2 else -1)
        return _multivector(alg.n, alg.m, out)

    def ground(self, s: int) -> dict:
        """D(e_S) as a ground map: the `table` entry, filled on first need."""
        image = self.table.get(s)
        if image is None:
            image = self.table[s] = ground_generator(self.alg, self.connection, s)
        return image


# -- the bracket ------------------------------------------------------


def lie_brackets(alg: LieRinehartAlgebra) -> list:
    """The nonzero [e_a, e_b] as (bit of a, bit of b, {bit of l: c^l_ab}), a and b in order.

    Read from `alg.bracket` on all n^2 ordered basis pairs, once per check
    call; the values follow `ground.value`.
    """
    basis = [alg.basis_l(i) for i in range(alg.n)]
    out = []
    for a, e_a in enumerate(basis):
        for b, e_b in enumerate(basis):
            terms = {1 << l: ground.value(c) for l, c in enumerate(alg.bracket(e_a, e_b).coeffs)
                     if c}
            if terms:
                out.append((1 << a, 1 << b, terms))
    return out


def basis_bracket(lie: list, s: int, t: int) -> dict:
    """[e_S, e_T] as a `bvcalc.ground` map, from the `lie_brackets` list `lie`.

    The bracket is the biderivation extending the Lie bracket, and on basis
    blades it has the closed form (Koszul 1985; Kosmann-Schwarzbach 1996)

        [e_S, e_T] = sum_(i, j) (-1)^(i+j) [e_(s_i), e_(t_j)] ^ e_(S - s_i) ^ e_(T - t_j),

    with i and j the 0-based positions of s_i in S and t_j in T.  A unit
    coefficient has no anchor derivatives, so no anchor term appears, and
    the values are constants at m = 0 and polynomials at m > 0.  A term
    is zero unless S - s_i and T - t_j are disjoint, so [e_S, e_T] = 0
    when S and T share more than two indices.
    """
    out = {}
    if (s & t).bit_count() > 2:
        return out
    for a, b, terms in lie:
        if s & a and t & b:
            rest_s, rest_t = s ^ a, t ^ b
            if rest_s & rest_t:
                continue
            w = ground.wedge_sign(rest_s, rest_t)
            if ((s & (a - 1)).bit_count() + (t & (b - 1)).bit_count()) % 2:
                w = -w
            ground.add_wedge(out, terms, rest_s | rest_t, sign=w)
    return out


def _scalar_bracket_map(s: int, db: Sequence[PolyElement]) -> tuple[dict, dict]:
    """[b, e_S] = odd - even as two `bvcalc.ground` maps, given db[i] = e_i(b).

    With S = {s_0 < s_1 < ..}, [b, e_S] = sum_k (-1)^(k+1) e_(s_k)(b) e_(S - s_k):
    the bracket with b of degree 0 is an odd derivation, and [b, e_i] = -e_i(b).
    `odd` holds the terms of odd k and `even` those of even k, neither negated.
    """
    odd, even = {}, {}
    for k, i in enumerate(ground.to_key(s)):
        if db[i]:
            (odd if k % 2 else even)[s ^ (1 << i)] = db[i]
    return odd, even


def mask_bracket(lie: list, u: tuple, v: tuple, ab) -> dict:
    """[a e_S, b e_T] as a `bvcalc.ground` map, by the Leibniz rule.

    u = (S, a, da) and v = (T, b, db) carry a bitmask, a coefficient as a
    `ground.value` and its anchor derivatives da[i] = e_i(a); ab = a b.
    With p = |S| and q = |T|,

        [a e_S, b e_T] = ab [e_S, e_T] + (-1)^p a [b, e_S] ^ e_T
                         - (-1)^((p-1)(q-1)+q) b [a, e_T] ^ e_S,

    the biderivation extending the anchor (Koszul 1985), with [e_S, e_T]
    from `basis_bracket` on the `lie_brackets` list `lie` and the last two
    terms from the derivatives alone.  A constant coefficient, so every
    coefficient at m = 0, has no anchor derivatives: passing its da or db
    as () skips its term, which is then zero.
    """
    s, a, da = u
    t, b, db = v
    p, q = s.bit_count(), t.bit_count()
    if ab.__class__ is not PolyElement and ab == 1:  # every pair at m = 0; builds no poly 1
        out = basis_bracket(lie, s, t)
    else:  # a product of nonzero values is nonzero, so only ab = 0 makes zeros
        out = {mask: ab * c for mask, c in basis_bracket(lie, s, t).items()} if ab else {}
    if db:
        sign = -1 if p % 2 else 1
        odd, even = _scalar_bracket_map(s, db)
        ground.add_wedge(out, odd, t, a, sign)
        ground.add_wedge(out, even, t, a, -sign)
    if da:
        sign = 1 if ((p - 1) * (q - 1) + q) % 2 else -1
        odd, even = _scalar_bracket_map(t, da)
        ground.add_wedge(out, odd, s, b, sign)
        ground.add_wedge(out, even, s, b, -sign)
    return out


def _term(alg: LieRinehartAlgebra, s: int, c: PolyElement) -> tuple:
    """The (S, value, derivatives) of c e_S that `mask_bracket` takes; the derivatives
    e_i(c) are () for a constant c."""
    return s, ground.value(c), () if c.is_constant() else tuple(rho(c) for rho in alg.anchor)


def gerstenhaber_bracket(alg: LieRinehartAlgebra, u: Multivector,
                         v: Multivector) -> Multivector:
    """The degree -1 bracket on multivectors: `mask_bracket` summed over the term pairs."""
    if u.n != alg.n or v.n != alg.n:
        raise ValueError("rank mismatch")
    lie = lie_brackets(alg)
    right = [_term(alg, t, b) for t, b in v.components.items()]
    out = {}
    for s, a in u.components.items():
        left = _term(alg, s, a)
        for term in right:
            ground.add_multiple(out, mask_bracket(lie, left, term, left[1] * term[1]))
    return _multivector(alg.n, alg.m, out)


# -- generator checks --------------------------------------------------


Operator = Callable[[Multivector], Multivector]

# `is_generator` visits every unit pair (e_S, e_T) up to this rank n, and above it the
# pairs with |S| <= 1, which decide the identity.  Every catalog algebra has n <= 3, where
# the full pass is at most 64 pairs, and the full pass is the one check that
# compares the closed-form [e_S, e_T] with D on every pair, |S| >= 2 included.
FULL_PASS_MAX_RANK = 3


def is_generator(alg: LieRinehartAlgebra, op: Operator, trials: int = 32,
                 seed: int = 0, degree_bound: int = 3) -> tuple[bool, str | None]:
    """Check the generator identity on the pairs that decide it, one procedure at every m.

    The identity is [u, v] = (-1)^|u| (D(u ^ v) - D(u) ^ v - (-1)^|u| u ^ D(v)).
    Accepts any operator as a callable; returns (True, None) or
    (False, witness) with the first violating pair (`_pair_witness`).

    1. `op` is called on e_R and then on 2 e_R for every R in subset order:
       an operator with op(2 e_R) != 2 op(e_R) fails at e_R.
    2. The pairs (e_S, e_T) with unit coefficients: every pair up to rank
       `FULL_PASS_MAX_RANK`, and above it the rows |S| <= 1, which decide
       the identity by Koszul's argument in the module docstring.  With
       e_S ^ e_T = w e_(S | T) a pair reads D(u ^ v) as w D(e_(S | T)) from
       the images of step 1, so `op` is called nowhere else.  S runs in
       subset order, so the rows come first, and when a row fails its first
       failing pair is the first failing pair of all 4^n.  The identity sees
       only the Koszul bracket of D, which adding an odd derivation of any
       degree leaves unchanged, so once these pairs hold every image D(e_S)
       must be of degree |S| - 1 (`_degree_witness`); the witness then names S.
    3. At m > 0 only, the anchor rule D(a e_T) = a D(e_T) + [a, e_T], read
       off the pairs (a, e_T) and (e_T, a) from one call op(a e_T), with
       D(a) = 0 since no multivector has degree -1.  For every T, a is
       x_1, .., x_m, which proves the rule for an operator of first order
       in a, then one draw per T of each pass of
       `sampling.coefficient_passes`, shape probes of that order; a zero
       draw is skipped.  The mirrored pair (e_T, a) costs no call and reads
       the [b, e_S] term of `mask_bracket`.

    So `op` is called (2 + m + trials) 2^n times at m > 0, less the zero
    draws, and 2^(n + 1) times at m = 0, where no pass is drawn.  The
    bracket comes from `mask_bracket`, which computes [e_S, e_T] by
    `basis_bracket` on every pair visited, so an edited value there is seen.
    """
    passes = coefficient_passes(alg.m, trials, seed, "is_generator", degree_bound)
    n, m, masks = alg.n, alg.m, ground.subsets(alg.n)
    one, two = PolyElement.one(m), PolyElement.const(m, 2)
    lie = lie_brackets(alg)

    def witnesses():  # None for each check that holds, in the order above
        images = {}
        for s in masks:
            image = op(Multivector._make(n, {s: one}))
            ds = images[s] = ground.values(image.components)
            doubled = op(Multivector._make(n, {s: two}))
            if ground.values(doubled.components) != {mask: 2 * c for mask, c in ds.items()}:
                label = basis_label(ground.to_key(s))
                yield f"D((2)*{label})={doubled} 2*D({label})={image.scale(two)}"
        # masks follows `ground.subsets`, so its first n + 1 entries are e_() and the e_i
        for s in masks if n <= FULL_PASS_MAX_RANK else masks[:n + 1]:
            for t in masks:
                yield _pair_witness(alg, lie, _term(alg, s, one), _term(alg, t, one),
                                    images[s | t], images[s], images[t])
        yield _degree_witness(alg, images)
        # each probe gives the argument u = a e_() of `mask_bracket`: the one u at a = x_k
        # for every T, then u at each draw
        probes = [lambda u=_term(alg, 0, PolyElement.variable(m, k)): u for k in range(m)]
        for probe in probes + [lambda d=draw: _term(alg, 0, d()) for draw in passes] if m else []:
            for t in masks:
                u, v = probe(), _term(alg, t, one)
                if u[1]:
                    image = ground.values(op(Multivector._make(n, {t: u[1]})).components)
                    yield _pair_witness(alg, lie, u, v, image, {}, images[t])
                    yield _pair_witness(alg, lie, v, u, image, images[t], {})

    witness = next(filter(None, witnesses()), None)
    return witness is None, witness


def _pair_witness(alg: LieRinehartAlgebra, lie: list, u: tuple, v: tuple, duv: dict,
                  du: dict, dv: dict) -> str | None:
    """The witness of the generator identity at u = a e_S and v = b e_T; None if it holds.

    u and v are `mask_bracket`'s (S, a, da) and (T, b, db), and
    du = D(u), dv = D(v), and duv = D(e_S ^ e_T) up to its wedge sign w, so
    D(u ^ v) = w duv, all as mask maps.  With sign = (-1)^|S| the defect

        [u, v] - sign D(u ^ v) + sign b D(u) ^ e_T + a e_S ^ D(v)

    is summed in one mask map, which the witness prints.
    """
    (s, a, _), (t, b, _) = u, v
    sign = -1 if s.bit_count() % 2 else 1
    defect = mask_bracket(lie, u, v, a * b)
    if w := ground.wedge_sign(s, t):
        ground.add_multiple(defect, duv, sign=-sign * w)
    ground.add_wedge(defect, du, t, b, sign)
    ground.add_wedge(defect, s, dv, a)
    if defect:
        return (f"u=({a})*{basis_label(ground.to_key(s))} "
                f"v=({b})*{basis_label(ground.to_key(t))} "
                f"defect={_multivector(alg.n, alg.m, defect)}")


def _degree_witness(alg: LieRinehartAlgebra, images: dict) -> str | None:
    """The first e_S, in subset order, of the images {S: D(e_S)} of `is_generator` whose
    image is not homogeneous of degree |S| - 1, as a witness naming S; None if there is none."""
    for s, image in images.items():
        degree = s.bit_count() - 1
        if any(mask.bit_count() != degree for mask in image):
            return (f"D((1)*{basis_label(ground.to_key(s))})="
                    f"{_multivector(alg.n, alg.m, image)} is not of degree {degree}")


def certify_every_connection(alg: LieRinehartAlgebra,
                             conn: RightConnectionOnA) -> tuple[bool, str | None]:
    """Once D_r0 generates the bracket, so does D_r for every r in A^n, at every m.

    A call of `GeneratorD` is D(a e_R) = a D_r(e_R) + [a, e_R], and the
    anchor part [a, e_R] does not depend on r, so D_r - D_r0 is read off
    the tables D_r(e_R).  With r0 = conn.r and delta_i = D_(r0 + e_i) - D_r0,
    a table A-affine in r is D_r0 + sum_i (r - r0)_i delta_i.  The identity's
    defect at r is then its defect at r0 plus sum_i (r - r0)_i times the
    derivation defect of delta_i, which vanishes for every r exactly when
    each delta_i is an odd derivation (Koszul 1985; Xu 1999).  An operator
    of degree -1 that kills 1 and obeys the derivation rule is the
    contraction with the 1-form it takes on degree 1, here theta_i[l] = the
    degree-0 part of delta_i(e_l); iota_theta(e_R) = sum_k (-1)^k theta[r_k]
    e_(R - r_k), k the 0-based position of r_k in R, is formed here, not
    from `ground_generator`.  So D_r - D_r0 = iota_(theta(r - r0)), an A-linear
    odd derivation, which leaves the Koszul bracket unchanged.
    Each probe is one row (v, theta(v), reason), checked on every e_R as
    D_(r0 + v)(e_R) - D_r0(e_R) = iota_theta(v)(e_R): axis i has the rows
    (e_i, theta_i), (2 e_i, 2 theta_i) and (x_k e_i, x_k theta_i) for
    k = 1..m, and the diagonal row (e_1 + .. + e_n, theta_1 + .. + theta_n)
    comes last.  All rows but the first of each axis are shape probes of
    the A-affinity the argument assumes: they catch an operator that is not
    affine, not A-linear or not additive on those points, such as a square
    of r, a derivative of r or a term mixing two directions, but cannot
    prove the shape.  The images D_r(e_R) for r0 and each shift are the maps
    `ground_generator` returns, one call per e_R ((n (m + 2) + 2) 2^n calls),
    with no `GeneratorD` or `Multivector` between; each map is new, so
    subtracting the base in place changes nothing else.  No bracket is
    computed.  The shifted tables are built one axis at a time, so only the
    base table and that axis's tables are alive at once.
    For each axis, then the diagonal, R runs in subset order
    (`ground.subsets`), through the rows in turn; returns
    (True, None) or (False, witness) naming the first failing i (i=1..n for
    the diagonal) and R.  Together with `is_generator` passing at r0, and
    for a table of that shape, this gives the identity for every right
    connection: a proof at m = 0, and at m > 0 a proof given an operator of
    first order in the coefficient, the shape `is_generator` probes.  A
    connection whose rank is not n raises ValueError ("rank mismatch").
    """
    if conn.n != alg.n:
        raise ValueError("rank mismatch")
    n, m = alg.n, alg.m
    masks = ground.subsets(n)
    zero = ground.value(PolyElement.zero(m))
    variables = [PolyElement.variable(m, k) for k in range(m)]

    def images(r: RightConnectionOnA) -> dict:
        return {s: ground_generator(alg, r, s) for s in masks}

    base = images(conn)

    def moved(v: Sequence) -> dict:
        """D_(r0 + v)(e_R) - D_r0(e_R) for every R."""
        out = images(RightConnectionOnA(tuple(c + k for c, k in zip(conn.r, v))))
        for s, image in out.items():
            ground.add_multiple(image, base[s], sign=-1)
        return out

    def contraction(theta: list, s: int) -> dict:
        return {s ^ (1 << l): -theta[l] if k % 2 else theta[l]
                for k, l in enumerate(ground.to_key(s)) if theta[l]}

    def probes():
        """(i, rows), each row (v, D_(r0 + v) - D_r0, theta(v), reason), one axis at a time."""
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
                *((f"{x}*e_{i + 1}", moved([x * k for k in axis]), [x * c for c in theta],
                   "D is not A-linear in r") for x in variables)]
        yield f"1..{n}", [(f"e_1+..+e_{n}", moved([1] * n), total, "D is not affine in r")]

    for i, rows in probes():
        for s in masks:
            for v, delta, theta, reason in rows:
                expected = contraction(theta, s)
                if delta[s] != expected:
                    label = basis_label(ground.to_key(s))
                    return False, (f"i={i} R={label}: D[r+{v}]({label}) - D[r]({label})="
                                   f"{_multivector(n, m, delta[s])} but the contraction "
                                   f"with ({', '.join(map(str, theta))}) gives "
                                   f"{_multivector(n, m, expected)}, so {reason}")
    return True, None


def generator_square(alg: LieRinehartAlgebra, op: Operator) -> tuple[bool, str | None]:
    """Test D(D(e_S)) = 0 on every basis multivector: (True, None), or (False, witness).

    The pass walks S in subset order and stops at the first nonzero
    D^2(e_S), which is the witness.  It draws nothing and has no m
    branch: for a generator D of a Lie-Rinehart algebra, D^2 is A-linear
    (Koszul 1985; Akman 1997; see the module docstring), so the basis
    decides at every m.  That holds given `generator.identity` and
    `axioms.structure`; this check does not run them.
    """
    n = alg.n
    one = PolyElement.one(alg.m)
    for s in ground.subsets(n):
        square = op(op(Multivector._make(n, {s: one})))
        if not square.is_zero():
            return False, f"D^2({basis_label(ground.to_key(s))}) = {square}"
    return True, None
