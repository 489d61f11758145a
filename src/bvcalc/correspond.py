"""Conversions between the three equivalent connection data and the checks
that they really do correspond.

For L free of rank n the following data determine each other exactly:

  * a right connection r on A (r_i = 1 o e_i),
  * a connection gamma on the top power (gamma_i = lietrace_i - r_i),
  * a degree -1 generator D of the Gerstenhaber bracket (D e_i = r_i).

`check_generator_duality` verifies the diagram relating a generator to a
top connection through the pairing adjoint: phi_{D(u)} = -d(phi_u) in
every degree.  `check_bracket_pairing_identity` verifies the companion
expansion d(phi_u)(v) = (-1)^p (u ^ Dv + [u, v]) on complementary pairs,
with one loop for every m: one coefficient per basis subset and pass, the
form d(phi_u) once per S, D once per T, and [u, v] through
`bv.mask_bracket` from the n^2 Lie brackets.  Both walk the subsets in
the subset order of `ground.subsets` and build each argument a e_S on
its mask; index tuples appear only in witness labels.  The diagram is
Q-linear in u and the expansion Q-bilinear in (u, v), so both take
their coefficients from the passes of `sampling.coefficient_passes`:
one pass of 1s at m = 0, random polynomials at m > 0.

The expansion follows from the diagram and the generator identity of
`bv.is_generator`.  With |u| = p and |v| = n - p + 1, u ^ v has degree
n + 1, so u ^ v = 0 and D(u ^ v) = 0.  The diagram gives
d(phi_u)(v) = -phi_{D(u)}(v) = -D(u) ^ v.  The generator identity on
(u, v) gives (-1)^p [u, v] = -D(u) ^ v - (-1)^p u ^ D(v).  Together,
(-1)^p (u ^ D(v) + [u, v]) = -D(u) ^ v = d(phi_u)(v).  At m = 0 the
three checks are exact over the same generator and top connection.  Up
to rank `bv.FULL_PASS_MAX_RANK` = 3, where the generator identity visits
every pair, the expansion can fail only when `check_generator_duality`
or the generator identity fails; `tests/test_report_faults.py` checks
that on every fault of its table.  Above that rank the generator
identity visits only the rows |S| <= 1.  By Koszul's argument (the `bv`
docstring) they decide the identity for D, but they never read the
closed-form [e_S, e_T] at |S|, |T| >= 2; a fault there fails the
expansion alone, and `tests/test_report_faults.py` pins that too.

The linear-connection layer: any connection on L induces one on the top
power by tracing its Christoffel rows, the endomorphisms
xi -> [alpha, xi] - nabla_alpha xi have traces equal to 1 o alpha = D(alpha),
and `torsionfree_lift` produces, for any prescribed top connection, a
torsion-free connection on L inducing it (rank-one correction split
symmetrically, which is where invertibility of n + 1 over Q is used).
"""

from __future__ import annotations

from fractions import Fraction

from . import ground
from .algebra import LElement, LieRinehartAlgebra
from .bv import GeneratorD, RightConnectionOnA, _term, lie_brackets, mask_bracket
from .connections import (
    LeftConnectionOnL,
    TopConnection,
    covariant_derivative,
    induced_top_connection,
    lie_trace,
    phi_trace,
)
from .exterior import Multivector, basis_label, phi_iso
from .poly import PolyElement
from .sampling import coefficient_passes


def right_from_generator(alg: LieRinehartAlgebra, gen: GeneratorD) -> RightConnectionOnA:
    """Read the right connection back off a generator: r_i = D(e_i)."""
    one = PolyElement.one(alg.m)
    r = []
    for i in range(alg.n):
        image = gen(Multivector._make(alg.n, {1 << i: one}))  # e_i on its mask
        r.append(image.component((), alg.m))
    return RightConnectionOnA(tuple(r))


def _lie_traces(alg: LieRinehartAlgebra) -> tuple[PolyElement, ...]:
    """lie_trace(e_i) for every i, computed once per algebra and kept on it."""
    if not alg.lie_traces:
        alg.lie_traces.extend(lie_trace(alg, alg.basis_l(i)) for i in range(alg.n))
    return tuple(alg.lie_traces)


def top_from_right(alg: LieRinehartAlgebra, conn: RightConnectionOnA) -> TopConnection:
    """The unique top connection with r_i x = lambda_{e_i}(x) - nabla_{e_i}(x)."""
    if conn.n != alg.n:
        raise ValueError("rank mismatch")
    traces = _lie_traces(alg)
    return TopConnection(tuple(t - r for t, r in zip(traces, conn.r)))


def right_from_top(alg: LieRinehartAlgebra, conn: TopConnection) -> RightConnectionOnA:
    if conn.n != alg.n:
        raise ValueError("rank mismatch")
    traces = _lie_traces(alg)
    return RightConnectionOnA(tuple(t - g for t, g in zip(traces, conn.gamma)))


def generator_from_top(alg: LieRinehartAlgebra, conn: TopConnection) -> GeneratorD:
    return GeneratorD(alg, right_from_top(alg, conn))


def check_generator_duality(alg: LieRinehartAlgebra, gen: GeneratorD,
                            conn: TopConnection, trials: int = 8, seed: int = 0,
                            degree_bound: int = 3) -> tuple[bool, str | None]:
    """Verify phi_{D(u)} = -d(phi_u) for all degrees 0..n.

    Holds exactly when the generator and the top connection correspond;
    a perturbed pair fails with a concrete witness, and so does an image
    D(u) of u = a e_S that is not homogeneous of degree p - 1.  Both
    sides are Q-linear in a, and each pass of `sampling.coefficient_passes`
    gives every subset one coefficient.
    """
    passes = coefficient_passes(alg.m, trials, seed, "generator_duality", degree_bound)
    n, m = alg.n, alg.m
    for draw in passes:
        for s in ground.subsets(n):
            p = s.bit_count()
            a = draw()
            u = Multivector._make(n, {s: a} if a else {})
            image = gen(u)
            rhs = -covariant_derivative(alg, conn, phi_iso(u, m, degree=p))
            if p == 0:
                # both sides live one degree above the top, i.e. vanish
                if not (image.is_zero() and rhs.is_zero()):
                    return False, f"degree 0 witness: u=({a}), D(u)={image}, rhs={rhs}"
                continue
            label = basis_label(ground.to_key(s))
            if any(t.bit_count() != p - 1 for t in image.components):
                return False, f"D(({a})*{label})={image} is not of degree {p - 1}"
            lhs = phi_iso(image, m, degree=p - 1)
            if lhs != rhs:
                return False, f"u=({a})*{label} phi_D(u)=[{lhs}] -d(phi_u)=[{rhs}]"
    return True, None


def check_bracket_pairing_identity(alg: LieRinehartAlgebra, gen: GeneratorD,
                                   conn: TopConnection, trials: int = 8, seed: int = 0,
                                   degree_bound: int = 3) -> tuple[bool, str | None]:
    """Verify d(phi_u)(v) = (-1)^p (u ^ D(v) + [u, v]) on the top power.

    Here u = a e_S is homogeneous of degree p >= 1 and v = b e_T has the
    complementary degree n - p + 1, so both sides are multiples of the
    volume element; at p = 0 the form d(phi_a) would lie above the top
    degree, so it is zero by construction and not checked.  For each p a
    pass draws one b per T and calls `gen` once on each b e_T, largest T
    first, then draws one a per S and differentiates phi_{a e_S} once: the
    form is A-linear in its argument, so lhs = b d(phi_{a e_S})(e_T).  The
    top coefficient of a e_S ^ D(b e_T) is the term of D(b e_T) on the
    complement of S, and that of [a e_S, b e_T] is read from `mask_bracket`
    on the `lie_brackets` list, with no anchor terms for a constant
    coefficient.  Both sides are Q-bilinear in (a, b), and the
    coefficients come from the passes of `sampling.coefficient_passes`.
    """
    passes = coefficient_passes(alg.m, trials, seed, "bracket_pairing", degree_bound)
    n, m = alg.n, alg.m
    full = (1 << n) - 1
    zero = ground.value(PolyElement.zero(m))
    lie = lie_brackets(alg)
    for draw in passes:
        for p in range(1, n + 1):
            right = []
            for t in ground.subsets(n, n - p + 1):
                b = draw()
                image = ground.values(gen(Multivector._make(n, {t: b} if b else {})).components)
                right.append((b, _term(alg, t, b), image))
            for s in ground.subsets(n, p):
                a = draw()
                u = _term(alg, s, a)
                av = u[1]
                rest = full ^ s
                form = covariant_derivative(alg, conn, phi_iso(
                    Multivector._make(n, {s: a} if a else {}), m, degree=p))
                values = ground.values(form.components)
                # a e_S ^ e_rest = signed_a e_full
                signed_a = av if ground.wedge_sign(s, rest) > 0 else -av
                for b, v, image in right:
                    lhs = v[1] * values.get(v[0], zero)
                    rhs = mask_bracket(lie, u, v, av * v[1]).get(full, zero)
                    if rest in image:
                        rhs = rhs + signed_a * image[rest]
                    if p % 2:
                        rhs = -rhs
                    if lhs != rhs:
                        return False, (f"p={p} u=({a})*{basis_label(ground.to_key(s))} "
                                       f"v=({b})*{basis_label(ground.to_key(v[0]))} "
                                       f"lhs={lhs} rhs={rhs}")
    return True, None


def generator_from_linear_connection(alg: LieRinehartAlgebra,
                                     conn: LeftConnectionOnL) -> GeneratorD:
    """Generator from a connection on L: r_i = Tr(xi -> [e_i, xi] - nabla_{e_i} xi).

    No torsion hypothesis is needed, and the result depends only on the
    induced top connection.
    """
    r = tuple(phi_trace(alg, conn, alg.basis_l(i)) for i in range(alg.n))
    return GeneratorD(alg, RightConnectionOnA(r))


def torsionfree_lift(alg: LieRinehartAlgebra, target: TopConnection,
                     base: LeftConnectionOnL | None = None) -> LeftConnectionOnL:
    """A torsion-free connection on L inducing the prescribed top connection.

    Start from a torsion-free base (half the structure functions by
    default), measure the defect phi_i of its induced top connection
    against the target, and correct by the symmetric A-linear family
    Phi(e_i)e_j = (phi_i e_j + phi_j e_i) / (n + 1), whose row traces are
    exactly phi_i.  Any torsion-free base yields the postconditions.  The
    k-th coefficient of entry (i, j) is Gamma^k_ij + [k = j] phi_i / (n + 1)
    + [k = i] phi_j / (n + 1), with each phi_i / (n + 1) formed once.
    """
    n = alg.n
    if base is None:
        half = PolyElement.const(alg.m, Fraction(1, 2))
        base = LeftConnectionOnL(tuple(tuple(alg.bracket_basis(i, j).scale(half)
                                             for j in range(n))
                                       for i in range(n)))
    induced = induced_top_connection(alg, base)
    inv = PolyElement.const(alg.m, Fraction(1, n + 1))
    shares = [(t - g) * inv for t, g in zip(target.gamma, induced.gamma)]  # phi_i / (n + 1)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = list(base.table[i][j].coeffs)
            coeffs[j] = coeffs[j] + shares[i]
            coeffs[i] = coeffs[i] + shares[j]
            row.append(LElement(tuple(coeffs)))
        rows.append(tuple(row))
    return LeftConnectionOnL(tuple(rows))
