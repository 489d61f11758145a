"""Multivectors as maps from bitmasks to coefficients.

A multivector is a map {mask: value} with nonzero values, where bit i of
the mask stands for e_{i+1} (the bitmap form of basis blades in Dorst,
Fontijne and Mann, *Geometric Algebra for Computer Science*, 2007).  The
sign of e_S ^ e_T is then a parity of bit counts, with no sorting of index
tuples.  `value` and `coefficient` hold the one value convention, each the
other's inverse: when A = Q (m = 0) a value is an int or Fraction, and
when m > 0 it is the `PolyElement` coefficient itself.  The helpers below
take either, since they only add, subtract, negate and multiply values; a
sign is applied by subtracting, or by negating where the sum has no entry
yet, and no int sign or zero start value meets a `PolyElement`, so no
product or sum promotes an int.  `Multivector` stays the public type:
these maps are the working form of the pair loops of `bv.is_generator`
and `correspond.check_bracket_pairing_identity`, of the bracket
[e_S, e_T] that `bv.basis_bracket` computes on each pair, and of the
D(e_S) table on each `bv.GeneratorD`, at every m.  Every wedge those
need has a basis element e_S on one side, so there is no general
product of two maps.
"""

from __future__ import annotations

from functools import cache

from .exterior import Multivector
from .poly import PolyElement


def value(coeff: PolyElement):
    """A coefficient as a map value: its int or Fraction constant (0 for zero) at m = 0,
    the `PolyElement` itself at m > 0."""
    return coeff if coeff.m else coeff.constant_term()


def coefficient(m: int, c) -> PolyElement:
    """The inverse of `value`: a map value as a coefficient in Q[x1..xm]."""
    return c if m else PolyElement.const(0, c)


def to_mask(key: tuple[int, ...]) -> int:
    """The bitmask of an index tuple."""
    mask = 0
    for i in key:
        mask |= 1 << i
    return mask


@cache
def to_key(mask: int) -> tuple[int, ...]:
    """The increasing index tuple of a bitmask, memoized: at most 2^n masks per rank n in use."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def wedge_sign(s: int, t: int) -> int:
    """The sign of e_S ^ e_T = sign * e_{S | T}; 0 when S and T overlap.

    It is the parity of the pairs (i in S, j in T) with j < i, counted for
    each j in T as the bits of S above j.
    """
    if s & t:
        return 0
    inversions = 0
    while t:
        low = t & -t
        inversions += (s & -(low << 1)).bit_count()
        t ^= low
    return -1 if inversions & 1 else 1


def add_multiple(acc: dict, u: dict, c=None, sign: int = 1) -> None:
    """acc += sign * c * u in place, dropping zeros; c is a value (1 if None), sign 1 or -1.

    It is the wedge u ^ e_(empty set)."""
    add_wedge_basis(acc, u, 0, c, sign)


def add_wedge_basis(acc: dict, u: dict, t: int, c=None, sign: int = 1) -> None:
    """acc += sign * c * (u ^ e_T) in place, dropping zeros: one add or subtract per term of u,
    and a negation only where acc has no entry yet."""
    for s, a in u.items():
        w = wedge_sign(s, t)
        if w:
            if c is not None:
                a = c * a
            mask = s | t
            prev = acc.get(mask)
            if prev is None:
                if a:
                    acc[mask] = a if w == sign else -a
            else:
                total = prev + a if w == sign else prev - a
                if total:
                    acc[mask] = total
                else:
                    del acc[mask]


def add_basis_wedge(acc: dict, s: int, v: dict, c=None, sign: int = 1) -> None:
    """acc += sign * c * (e_S ^ v) in place, dropping zeros: one add or subtract per term of v,
    and a negation only where acc has no entry yet."""
    for t, b in v.items():
        w = wedge_sign(s, t)
        if w:
            if c is not None:
                b = c * b
            mask = s | t
            prev = acc.get(mask)
            if prev is None:
                if b:
                    acc[mask] = b if w == sign else -b
            else:
                total = prev + b if w == sign else prev - b
                if total:
                    acc[mask] = total
                else:
                    del acc[mask]


def from_multivector(u: Multivector) -> dict:
    """u as {mask: value}, each coefficient through `value`."""
    return {to_mask(key): value(coeff) for key, coeff in u.components.items()}


def to_multivector(n: int, u: dict, m: int = 0) -> Multivector:
    """A map back to a rank-n `Multivector` over Q[x1..xm], each value through `coefficient`."""
    return Multivector._make(n, {to_key(mask): coefficient(m, c) for mask, c in u.items()})
