"""Lie-Rinehart algebras (A, L) with L free of finite rank n.

The data is a basis e_1..e_n of L, an anchor sending each e_i to a
derivation of A, and structure functions c[i][j][k] in A with
[e_i, e_j] = sum_k c[i][j][k] e_k for i < j.  Antisymmetry is structural:
only i < j is stored and [e_j, e_i] := -[e_i, e_j].

Brackets of general elements extend by the Leibniz rule

    [a X, b Y] = a*b*[X, Y] + a*X(b)*Y - b*Y(a)*X

and the remaining axioms (anchor is a bracket homomorphism, Jacobi) are
checkable on basis tuples via :meth:`LieRinehartAlgebra.verify_axioms`;
by multilinearity that suffices for general elements.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .poly import DerivationOfA, PolyElement
from .record import Record


class LElement(Record):
    """Element of L in basis coordinates: alpha = sum_i coeffs[i] * e_i."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[PolyElement, ...]):
        self.coeffs = coeffs

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "LElement") -> "LElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return LElement(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LElement") -> "LElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return LElement(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LElement":
        return LElement(tuple(-a for a in self.coeffs))

    def scale(self, p: PolyElement) -> "LElement":
        return LElement(tuple(p * a if a else a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        parts = [f"({c})*e{i + 1}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


class AxiomViolation(Record):
    _fields = ("kind", "indices", "detail")

    def __init__(self, kind: str, indices: tuple[int, ...], detail: str):
        self.kind = kind  # "anchor_homomorphism" or "jacobi"
        self.indices = indices  # 0-based basis indices
        self.detail = detail

    def __str__(self) -> str:
        human = ", ".join(f"e{i + 1}" for i in self.indices)
        return f"{self.kind} fails on ({human}): {self.detail}"


class LieRinehartAlgebra(Record):
    """(A, L) with A = Q[x1..xm] and L free with basis e_1..e_n.

    ``structure`` maps (i, j) with i < j (0-based) to [e_i, e_j]; missing
    pairs mean the bracket vanishes.
    """

    _fields = ("m", "n", "anchor", "structure", "name")

    def __init__(self, m: int, n: int, anchor: tuple[DerivationOfA, ...],
                 structure: Mapping[tuple[int, int], LElement] | None = None, name: str = ""):
        structure = {} if structure is None else structure
        if len(anchor) != n:
            raise ValueError(f"anchor has {len(anchor)} rows, expected n={n}")
        for d in anchor:
            if d.m != m:
                raise ValueError("anchor derivation has wrong variable count")
        for (i, j), value in structure.items():
            if not 0 <= i < j < n:
                raise ValueError(f"structure key {(i, j)} must satisfy 0 <= i < j < n")
            if value.n != n:
                raise ValueError(f"structure value at {(i, j)} has wrong rank")
        self.m = m
        self.n = n
        self.anchor = anchor
        self.structure = structure
        self.name = name
        # (S, T) bitmasks -> [e_S, e_T] as a bvcalc.ground map, constants at
        # m = 0 and polynomials at m > 0; all 4^n pairs filled at once by
        # bvcalc.bv.bracket_table on first use
        self.gerstenhaber_table = {}
        # lie_trace(e_i) for i < n, filled on first use by bvcalc.correspond
        self.lie_traces = []
        # derived from the fields, which no code changes, so set once here
        self._zero_l = LElement(tuple(PolyElement.zero(m) for _ in range(n)))
        self._basis = tuple(LElement(tuple(PolyElement.one(m) if j == i
                                           else PolyElement.zero(m)
                                           for j in range(n)))
                            for i in range(n))
        table = tuple(tuple(structure[(i, j)] if i < j and (i, j) in structure
                            else (-structure[(j, i)] if j < i and (j, i) in structure
                                  else self._zero_l)
                            for j in range(n))
                      for i in range(n))
        self._bracket_table = table
        self._bracket_terms = tuple(tuple(tuple((k, c) for k, c in enumerate(br.coeffs) if c)
                                          for br in row)
                                    for row in table)
        self._anchor_is_zero = all(d.is_zero() for d in anchor)

    # -- constructors ------------------------------------------------

    @classmethod
    def coordinate(cls, m: int, name: str = "") -> "LieRinehartAlgebra":
        """A = Q[x1..xm], L = Der(A) with basis d/dx1..d/dxm, zero structure."""
        anchor = tuple(DerivationOfA.coordinate(m, i) for i in range(m))
        return cls(m=m, n=m, anchor=anchor, structure={}, name=name or f"coordinate-{m}d")

    @classmethod
    def from_structure_constants(cls, n: int, brackets: Mapping[tuple[int, int], Sequence],
                                 name: str = "") -> "LieRinehartAlgebra":
        """Ground-field Lie algebra (m = 0) from rational structure constants."""
        structure = {}
        for (i, j), coeffs in brackets.items():
            structure[(i, j)] = LElement(tuple(PolyElement.const(0, c) for c in coeffs))
        anchor = tuple(DerivationOfA.zero(0) for _ in range(n))
        return cls(m=0, n=n, anchor=anchor, structure=structure, name=name)

    @classmethod
    def abelian(cls, n: int, name: str = "") -> "LieRinehartAlgebra":
        return cls.from_structure_constants(n, {}, name=name or f"abelian-dim{n}")

    # -- basic elements ----------------------------------------------

    def zero_l(self) -> LElement:
        return self._zero_l

    def basis_l(self, i: int) -> LElement:
        if not 0 <= i < self.n:
            raise ValueError(f"basis index {i} out of range")
        return self._basis[i]

    # -- anchor and bracket ------------------------------------------

    def anchor_of(self, alpha: LElement) -> DerivationOfA:
        """The derivation sum_i alpha_i * anchor(e_i)."""
        if alpha.n != self.n:
            raise ValueError("rank mismatch")
        out = None
        if not self._anchor_is_zero:
            for a, rho in zip(alpha.coeffs, self.anchor):
                if a and not rho.is_zero():
                    term = rho.scale(a)
                    out = term if out is None else out + term
        return DerivationOfA.zero(self.m) if out is None else out

    def anchor_apply(self, alpha: LElement, a: PolyElement) -> PolyElement:
        """alpha acting on a through the anchor."""
        return self.anchor_of(alpha)(a)

    def bracket_basis(self, i: int, j: int) -> LElement:
        """[e_i, e_j] for any i, j, with structural antisymmetry."""
        return self._bracket_table[i][j]

    def bracket_terms(self, i: int, j: int) -> tuple[tuple[int, PolyElement], ...]:
        """The nonzero components (k, c^k_ij) of [e_i, e_j], k increasing."""
        return self._bracket_terms[i][j]

    def bracket(self, alpha: LElement, beta: LElement) -> LElement:
        """Bracket of general elements by the Leibniz extension."""
        if alpha.n != self.n or beta.n != self.n:
            raise ValueError("rank mismatch")
        out = [PolyElement.zero(self.m) for _ in range(self.n)]
        # sum_{i<j} (a_i b_j - a_j b_i) [e_i, e_j]
        for (i, j), cij in self.structure.items():
            left = alpha.coeffs[i] * beta.coeffs[j] if alpha.coeffs[i] and beta.coeffs[j] \
                else None
            right = alpha.coeffs[j] * beta.coeffs[i] if alpha.coeffs[j] and beta.coeffs[i] \
                else None
            if left is None and right is None:
                continue
            coeff = left - right if left is not None and right is not None \
                else (left if left is not None else -right)
            if coeff:
                for k, ck in enumerate(cij.coeffs):
                    if ck:
                        out[k] = out[k] + coeff * ck
        # + sum_k rho(alpha)(b_k) e_k - sum_k rho(beta)(a_k) e_k.  The anchor
        # kills constants, so rho(alpha) is built only when some b_k is not
        # constant, and rho(beta) only when some a_k is not: a basis element
        # on one side, as in every bracket with e_i, needs one anchor at most
        if not self._anchor_is_zero:
            if not all(b.is_constant() for b in beta.coeffs):
                rho_alpha = self.anchor_of(alpha)
                for k, b in enumerate(beta.coeffs):
                    if b:
                        out[k] = out[k] + rho_alpha(b)
            if not all(a.is_constant() for a in alpha.coeffs):
                rho_beta = self.anchor_of(beta)
                for k, a in enumerate(alpha.coeffs):
                    if a:
                        out[k] = out[k] - rho_beta(a)
        return LElement(tuple(out))

    # -- axiom checking ----------------------------------------------

    def verify_axioms(self) -> list[AxiomViolation]:
        """Check anchor homomorphism on basis pairs and Jacobi on triples.

        Returns the list of violations; empty means the data is a genuine
        Lie-Rinehart algebra (basis checks suffice by multilinearity).
        """
        violations = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                lhs = self.anchor[i].commutator(self.anchor[j])
                rhs = self.anchor_of(self.bracket_basis(i, j))
                if not (lhs - rhs).is_zero():
                    violations.append(AxiomViolation(
                        kind="anchor_homomorphism", indices=(i, j),
                        detail=f"[rho(e{i + 1}), rho(e{j + 1})] = {lhs} but "
                               f"rho([e{i + 1}, e{j + 1}]) = {rhs}"))
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for k in range(j + 1, self.n):
                    total = (self.bracket(self.basis_l(i), self.bracket_basis(j, k))
                             + self.bracket(self.basis_l(j), self.bracket_basis(k, i))
                             + self.bracket(self.basis_l(k), self.bracket_basis(i, j)))
                    if not total.is_zero():
                        violations.append(AxiomViolation(
                            kind="jacobi", indices=(i, j, k),
                            detail=f"cyclic sum = {total}"))
        return violations


def build_poisson_cotangent(pi: Sequence[Sequence[PolyElement]],
                            name: str = "") -> LieRinehartAlgebra:
    """Lie-Rinehart structure on the cotangent module of a bivector pi.

    Takes an antisymmetric m x m matrix of polynomials and returns the
    rank-m algebra with basis thought of as dx_i, anchor
    rho(dx_i) = sum_j pi[i][j] d/dx_j and structure
    c[i][j][k] = d(pi[i][j])/dx_k.  The caller must run verify_axioms:
    the result is a valid algebra exactly when pi satisfies the Jacobi
    identity for Poisson bivectors.
    """
    m = len(pi)
    rows = [tuple(row) for row in pi]
    for row in rows:
        if len(row) != m:
            raise ValueError("bivector matrix must be square")
    for i in range(m):
        for j in range(m):
            if rows[i][j] != -rows[j][i]:
                raise ValueError(f"bivector not antisymmetric at ({i + 1}, {j + 1})")
    anchor = tuple(DerivationOfA(rows[i]) for i in range(m))
    structure = {}
    for i in range(m):
        for j in range(i + 1, m):
            coeffs = tuple(rows[i][j].diff(k) for k in range(m))
            if any(coeffs):
                structure[(i, j)] = LElement(coeffs)
    return LieRinehartAlgebra(m=m, n=m, anchor=anchor, structure=structure,
                              name=name or "poisson-cotangent")
