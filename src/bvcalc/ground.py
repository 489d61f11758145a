"""Multivectors as maps from bitmasks to coefficients.

A multivector is a map {mask: value} with nonzero values, where bit i of
the mask stands for e_{i+1} (the bitmap form of basis blades in Dorst,
Fontijne and Mann, *Geometric Algebra for Computer Science*, 2007).  The
sign of e_S ^ e_T is then a parity of bit counts, with no sorting of index
tuples.  When A = Q (m = 0) every value is an int or Fraction; when
m > 0 it is a `PolyElement`, and the helpers below take either, since they
only add, negate and multiply values.  `Multivector` stays the public
type: these maps are the working form of the m = 0 basis passes of
`bv.is_generator` and `correspond.check_bracket_pairing_identity`, of the
m > 0 pair loop of `bv.is_generator`, of the one bracket table
`bv.bracket_table` fills per algebra, and of the D(e_S) table on each
m = 0 `bv.GeneratorD`.  Every wedge those need has a basis element e_S on
one side, so there is no general product of two maps.
"""

from __future__ import annotations

from .exterior import Multivector
from .poly import PolyElement


def value(coeff: PolyElement):
    """The int or Fraction value of an m = 0 coefficient; 0 for zero."""
    return coeff.terms.get((), 0)


def to_mask(key: tuple[int, ...]) -> int:
    """The bitmask of an index tuple."""
    mask = 0
    for i in key:
        mask |= 1 << i
    return mask


def to_key(mask: int) -> tuple[int, ...]:
    """The increasing index tuple of a bitmask."""
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


def add_multiple(acc: dict, u: dict, c) -> None:
    """acc += c * u in place, dropping zeros; c is a constant or a `PolyElement`."""
    for mask, x in u.items():
        total = acc.get(mask, 0) + c * x
        if total:
            acc[mask] = total
        else:
            acc.pop(mask, None)


def add_wedge_basis(acc: dict, u: dict, t: int, c=1) -> None:
    """acc += c * (u ^ e_T) in place, dropping zeros: one sign and one add per term of u."""
    for s, a in u.items():
        sign = wedge_sign(s, t)
        if sign:
            mask = s | t
            total = acc.get(mask, 0) + sign * c * a
            if total:
                acc[mask] = total
            else:
                acc.pop(mask, None)


def add_basis_wedge(acc: dict, s: int, v: dict, c=1) -> None:
    """acc += c * (e_S ^ v) in place, dropping zeros: one sign and one add per term of v."""
    for t, b in v.items():
        sign = wedge_sign(s, t)
        if sign:
            mask = s | t
            total = acc.get(mask, 0) + sign * c * b
            if total:
                acc[mask] = total
            else:
                acc.pop(mask, None)


def from_multivector(u: Multivector) -> dict:
    """u as {mask: value}: the int or Fraction constant at m = 0, the coefficient itself at m > 0."""
    return {to_mask(key): coeff if coeff.m else value(coeff)
            for key, coeff in u.components.items()}


def to_multivector(n: int, u: dict) -> Multivector:
    """An m = 0 map back to a rank-n `Multivector`; used to print witnesses."""
    return Multivector(n, [(to_key(mask), PolyElement.const(0, c)) for mask, c in u.items()])
