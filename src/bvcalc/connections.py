"""Connections on L and on the top exterior power, traces and divergences.

A left connection on L is a Christoffel table Gamma[i][j] in L with
nabla_{e_i} e_j = Gamma[i][j]; it extends A-linearly in the lower slot
and by the Leibniz rule over the anchor in the upper slot.  A connection
on the top power is a vector gamma with
nabla_{e_i}(e_1^..^e_n} = gamma_i e_1^..^e_n.  As in `bvcalc.exterior`,
an element b e_1^..^e_n of the top power is its coefficient b, which
`lie_derivative_top` and `connection_apply_top` take and return, and a
top-degree form keeps its one value at the full mask (1 << n) - 1.

The covariant derivative on top-valued alternating forms uses the
Hom-complex sign convention with arguments indexed from p = n - q for a
degree-q input form:

    (d f)(xi_p..xi_n) = sum_j (-1)^(j-1) nabla_{xi_j} f(..^xi_j..)
        + (-1)^(p+1) sum_{j<k} (-1)^(j+k) f([xi_j,xi_k], ..^xi_j..^xi_k..)

The absolute argument labels j, k run from p to n; getting this offset
right matters, since the duality checks in `correspond` are sensitive to
a global sign per degree.

The endomorphism phi_alpha : xi -> [alpha, xi] - nabla_alpha xi has two
entry points.  `phi_trace` gives its trace from the diagonal alone;
`correspond.generator_from_linear_connection` uses it, and
`suites.run_linear_connection` computes it once per trial for both the
trace and the divergence identity.  `phi_map` builds the whole map; no
check calls it, and it stays the tests' oracle for `phi_trace` (through
`trace_endo`) and the README tour's example.  The torsion-free-lift
check forms phi_alpha(xi) on xi itself, one bracket and one nabla, as
`suites._lift_fault` says, at the pairs (e_i, e_j) and, at m > 0,
(x_k e_i, e_j) and (e_i, x_k e_j) (`suites._torsionfree_lift_fault`).
Each of the first TRIALS_CAP trials draws Gamma and alpha, which the
trace and divergence identities read; the lift draws nothing.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .algebra import LElement, LieRinehartAlgebra
from .exterior import AltForm
from .ground import add_multiple
from .poly import PolyElement
from .record import Record


class TopConnection(Record):
    """Connection on the top exterior power: one coefficient per basis direction."""

    _fields = ("gamma",)

    def __init__(self, gamma: tuple[PolyElement, ...]):
        self.gamma = gamma

    @property
    def n(self) -> int:
        return len(self.gamma)


class LeftConnectionOnL(Record):
    """Connection on L via its Christoffel table: table[i][j] = nabla_{e_i} e_j."""

    _fields = ("table",)

    def __init__(self, table: tuple[tuple[LElement, ...], ...]):
        self.table = table

    @property
    def n(self) -> int:
        return len(self.table)

    @classmethod
    def zero(cls, alg: LieRinehartAlgebra) -> "LeftConnectionOnL":
        return cls(tuple(tuple(alg.zero_l() for _ in range(alg.n)) for _ in range(alg.n)))


class EndoOfL(Record):
    """A-linear endomorphism of L; images[j] = E(e_j) in basis coordinates."""

    _fields = ("images",)

    def __init__(self, images: tuple[LElement, ...]):
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    def apply(self, xi: LElement) -> LElement:
        if xi.n != self.n:
            raise ValueError("rank mismatch")
        out = None
        for coeff, image in zip(xi.coeffs, self.images):
            term = image.scale(coeff)
            out = term if out is None else out + term
        return LElement(()) if out is None else out  # rank 0 has no terms


def trace_endo(endo: EndoOfL) -> PolyElement:
    if not endo.n:
        return PolyElement.zero(0)
    out = endo.images[0].coeffs[0]
    for i in range(1, endo.n):
        out = out + endo.images[i].coeffs[i]
    return out


# -- Lie derivative and top connections ---------------------------------


def lie_trace(alg: LieRinehartAlgebra, alpha: LElement) -> PolyElement:
    """Coefficient of the Lie derivative of the basis volume along alpha."""
    out = PolyElement.zero(alg.m)
    for j in range(alg.n):
        out = out + alg.bracket(alpha, alg.basis_l(j)).coeffs[j]
    return out


def lie_derivative_top(alg: LieRinehartAlgebra, alpha: LElement,
                       b: PolyElement) -> PolyElement:
    """Lie derivative on the top power, of b e_1^..^e_n: a derivation over the anchor."""
    coeff = b * lie_trace(alg, alpha)
    # the anchor kills constants, so rho(alpha) is built only for a
    # non-constant coefficient, as in `connection_apply_l`
    if not b.is_constant():
        coeff = alg.anchor_apply(alpha, b) + coeff
    return coeff


def connection_apply_top(alg: LieRinehartAlgebra, conn: TopConnection,
                         alpha: LElement, b: PolyElement) -> PolyElement:
    """nabla_alpha of b e_1^..^e_n: A-linear in alpha, Leibniz over the anchor in b."""
    if conn.n != alg.n or alpha.n != alg.n:
        raise ValueError("rank mismatch")
    g = PolyElement.zero(alg.m)
    for a, gi in zip(alpha.coeffs, conn.gamma):
        g = g + a * gi
    coeff = b * g
    if not b.is_constant():  # as in `lie_derivative_top`
        coeff = alg.anchor_apply(alpha, b) + coeff
    return coeff


def connection_apply_l(alg: LieRinehartAlgebra, conn: LeftConnectionOnL,
                       alpha: LElement, xi: LElement) -> LElement:
    """nabla_alpha xi for general elements of L."""
    if conn.n != alg.n or alpha.n != alg.n or xi.n != alg.n:
        raise ValueError("rank mismatch")
    out = [PolyElement.zero(alg.m) for _ in range(alg.n)]
    # the anchor kills constants, so rho(alpha) is built only when some
    # coefficient of xi is not constant, as in `LieRinehartAlgebra.bracket`
    if not all(b.is_constant() for b in xi.coeffs):
        rho_alpha = alg.anchor_of(alpha)
        for k in range(alg.n):
            out[k] = rho_alpha(xi.coeffs[k])
    for i, a in enumerate(alpha.coeffs):
        if not a:
            continue
        for j, b in enumerate(xi.coeffs):
            if not b:
                continue
            ab = a * b
            for k, ck in enumerate(conn.table[i][j].coeffs):
                if ck:
                    out[k] = out[k] + ab * ck
    return LElement(tuple(out))


# -- torsion and curvature ----------------------------------------------


def torsion(alg: LieRinehartAlgebra, conn: LeftConnectionOnL) -> list[list[LElement]]:
    """T[i][j] = nabla_{e_i} e_j - nabla_{e_j} e_i - [e_i, e_j].

    Evaluated on the pairs i < j alone: T[i][i] = 0 and T[j][i] = -T[i][j]
    hold by construction.
    """
    if conn.n != alg.n:
        raise ValueError("rank mismatch")
    n = alg.n
    out = [[alg.zero_l()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t = conn.table[i][j] - conn.table[j][i] - alg.bracket_basis(i, j)
            out[i][j], out[j][i] = t, -t
    return out


def is_torsion_free(alg: LieRinehartAlgebra, conn: LeftConnectionOnL) -> bool:
    """Whether every entry of `torsion` vanishes, read off the pairs i < j
    as `torsion` does, up to the first that does not."""
    if conn.n != alg.n:
        raise ValueError("rank mismatch")
    return all(conn.table[i][j] == conn.table[j][i] + alg.bracket_basis(i, j)
               for i in range(alg.n) for j in range(i + 1, alg.n))


def curvature_top(alg: LieRinehartAlgebra, conn: TopConnection) -> list[list[PolyElement]]:
    """R[i][j] = e_i(gamma_j) - e_j(gamma_i) - sum_k c[i][j][k] gamma_k."""
    if conn.n != alg.n:
        raise ValueError("rank mismatch")
    n = alg.n
    out = [[PolyElement.zero(alg.m) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            value = alg.anchor[i](conn.gamma[j]) - alg.anchor[j](conn.gamma[i])
            for k, ck in enumerate(alg.bracket_basis(i, j).coeffs):
                if ck:
                    value = value - ck * conn.gamma[k]
            out[i][j] = value
    return out


def is_flat(alg: LieRinehartAlgebra, conn: TopConnection) -> bool:
    return all(not entry for row in curvature_top(alg, conn) for entry in row)


# -- covariant derivative ------------------------------------------------


def covariant_derivative(alg: LieRinehartAlgebra, conn: TopConnection,
                         f: AltForm) -> AltForm:
    """Covariant derivative of a top-valued form, one degree up.

    Computed in scatter form: each nonzero value v = f(K) is added into
    every output it reaches, the terms (-1)^(j-1) nabla_{e_i} v at
    K + i, where i sits in slot t and j = p + t, and the terms
    (-1)^(p+1) (-1)^(j+k) c^l_ab v at R + a + b for R = K - l, where
    f(e_l, e_R) = (-1)^(slot of l in K) v and a, b sit in slots with
    labels j < k.  That is the module's formula, with the sign convention
    unchanged, summed over the entries of f instead of over the output
    tuples, so a form with one nonzero value, such as phi_iso(e_S), costs
    one entry.  Each term is added with `ground.add_multiple`, a negative
    one as the sum at sign -1; the signs are the slot counts above, not
    `wedge_sign`, since the duality check compares this code with D.
    Input of degree n (or more) maps to the zero form one degree up:
    there are no increasing tuples of that length left.
    """
    if conn.n != alg.n or f.n != alg.n:
        raise ValueError("rank mismatch")
    n, m = alg.n, alg.m
    q = f.degree
    if q >= n:
        return AltForm(n, m, n + 1)
    p = n - q  # first absolute argument label in the sign convention
    # the nonzero c^l_ab, with a < b in increasing order as the formula sums them
    brackets = [(a, b, alg.bracket_terms(a, b)) for a, b in sorted(alg.structure)]
    acc: dict[int, PolyElement] = {}

    for k, v in f.components.items():
        for i in range(n):
            if k >> i & 1:
                continue
            nabla = v * conn.gamma[i]
            if not alg.anchor[i].is_zero():
                nabla = alg.anchor[i](v) + nabla
            if nabla:
                t = (k & ((1 << i) - 1)).bit_count()
                add_multiple(acc, {k | (1 << i): nabla}, sign=-1 if (p + t - 1) % 2 else 1)
        for a, b, terms in brackets:
            pair = (1 << a) | (1 << b)
            for l, c in terms:
                rest = k ^ (1 << l)
                if not k >> l & 1 or rest & pair:
                    continue
                target = rest | pair
                s = (target & ((1 << a) - 1)).bit_count()
                t = (target & ((1 << b) - 1)).bit_count()
                slot = (k & ((1 << l) - 1)).bit_count()
                add_multiple(acc, {target: c * v}, sign=-1 if (p + 1 + s + t + slot) % 2 else 1)
    return AltForm._make(n, m, q + 1, acc)


# -- the endomorphism-valued map and traces -------------------------------


def phi_map(alg: LieRinehartAlgebra, conn: LeftConnectionOnL,
            alpha: LElement) -> EndoOfL:
    """xi -> [alpha, xi] - nabla_alpha xi, which is A-linear in xi."""
    images = tuple(alg.bracket(alpha, alg.basis_l(j))
                   - connection_apply_l(alg, conn, alpha, alg.basis_l(j))
                   for j in range(alg.n))
    return EndoOfL(images)


def phi_trace(alg: LieRinehartAlgebra, conn: LeftConnectionOnL,
              alpha: LElement) -> PolyElement:
    """Tr phi_alpha, read off the diagonal of `phi_map` without building it.

    e_j has constant coefficients, so the e_j coefficient of
    phi_alpha(e_j) = [alpha, e_j] - nabla_alpha e_j is
    sum_i a_i (c^j_ij - Gamma[i][j]_j) - rho_j(a_j), and the trace is
    sum_i a_i t_i - sum_j rho_j(a_j) with t_i = sum_j (c^j_ij - Gamma[i][j]_j).
    """
    if conn.n != alg.n or alpha.n != alg.n:
        raise ValueError("rank mismatch")
    out = PolyElement.zero(alg.m)
    for i, a in enumerate(alpha.coeffs):
        if a:
            t = PolyElement.zero(alg.m)
            for j, entry in enumerate(conn.table[i]):
                t = t + alg.bracket_basis(i, j).coeffs[j] - entry.coeffs[j]
            out = out + a * t
    for rho, a in zip(alg.anchor, alpha.coeffs):
        out = out - rho(a)
    return out


def induced_top_connection(alg: LieRinehartAlgebra,
                           conn: LeftConnectionOnL) -> TopConnection:
    """gamma_i = sum_k Gamma[i][k][k], the trace of the Christoffel rows."""
    if conn.n != alg.n:
        raise ValueError("rank mismatch")
    gamma = []
    for i in range(alg.n):
        g = PolyElement.zero(alg.m)
        for k in range(alg.n):
            g = g + conn.table[i][k].coeffs[k]
        gamma.append(g)
    return TopConnection(tuple(gamma))


# -- right module structure on Hom(top, top) ------------------------------


def identity_top_form(alg: LieRinehartAlgebra) -> AltForm:
    """The identity of Hom(top, top) as a degree-n form."""
    return AltForm._make(alg.n, alg.m, alg.n, {(1 << alg.n) - 1: PolyElement.one(alg.m)})


def generalized_lie_derivative(alg: LieRinehartAlgebra, conn: TopConnection,
                               alpha: LElement, f: AltForm) -> AltForm:
    """lambda_alpha on Hom(top, top): f -> nabla_alpha(f x) - f(lambda_alpha x)."""
    if f.n != alg.n:
        raise ValueError("rank mismatch")
    if f.degree != alg.n:
        raise ValueError("expected a top-degree form")
    full = (1 << alg.n) - 1
    b = f.components.get(full, PolyElement.zero(alg.m))
    value = (connection_apply_top(alg, conn, alpha, b)
             - b * lie_derivative_top(alg, alpha, PolyElement.one(alg.m)))
    return AltForm._make(alg.n, alg.m, alg.n, {full: value} if value else {})


def dual_right_connection(alg: LieRinehartAlgebra, conn: TopConnection,
                          f: AltForm, alpha: LElement) -> AltForm:
    """The right connection f o alpha = -lambda_alpha(f) on Hom(top, top)."""
    return -generalized_lie_derivative(alg, conn, alpha, f)


def divergence_rank_one(endo: Callable, basis: AltForm) -> PolyElement:
    """Scalar of an endomorphism of the top-degree forms, free of rank one: E(b) = div * b.

    The basis form's coefficient must be a nonzero rational constant so
    that it is a unit of A.
    """
    if basis.degree != basis.n:
        raise ValueError("basis form must have top degree")
    full, zero = (1 << basis.n) - 1, PolyElement.zero(basis.m)
    base_coeff = basis.components.get(full, zero)
    if not base_coeff.is_constant() or not base_coeff:
        raise ValueError("basis coefficient must be a nonzero constant")
    return endo(basis).components.get(full, zero) * (Fraction(1) / base_coeff.constant_value())
