"""Bitmask keys, the sign of the wedge on them, and maps from bitmasks to values.

The exterior algebra has one key: the bitmask of a basis subset S, where
bit i stands for e_{i+1} (the bitmap form of basis blades in Dorst,
Fontijne and Mann, *Geometric Algebra for Computer Science*, 2007).
`Multivector` and `AltForm` store their components on these masks, and
index tuples appear only where callers pass them in and where labels
print, through `to_mask` and `to_key`.  The sign of e_S ^ e_T is a parity
of bit counts (`wedge_sign`), with no sorting of index tuples.  Every
exact check walks the subsets in one order, the masks of `subsets`: by
degree, then in `itertools.combinations` order.  That order decides each
first-failure witness and the row order of the `homology` boundary
matrices, and no other module enumerates subsets.

The pair loops of `bv.is_generator` and
`correspond.check_bracket_pairing_identity`, the bracket [e_S, e_T] that
`bv.basis_bracket` computes on each pair, and the D(e_S) table on each
`bv.GeneratorD` work on maps {mask: value} with nonzero values, keyed as
`Multivector.components` is, so only values are converted between the
two.  `value` and `coefficient` hold the one value convention, each the
other's inverse, and `values` applies `value` to a whole map: when A = Q
(m = 0) a value is an int or Fraction, and when m > 0 it is the
`PolyElement` coefficient itself.  The m = 0 values stay plain numbers
because maps of `PolyElement` constants made the `generator` suite about
40% slower on generated abelian-6, book-5 and book-8 (234-273 ms rose
to 326-371 ms per run at 4 trials, the minimum of 9 runs).

Every signed sum of maps in the package goes through one loop,
`add_wedge`, which adds the wedge of a map with one basis element e_S,
on either side; the sum of two maps, `add_multiple`, is its case
S = (), and `Multivector.wedge` adds one such wedge per term of its
left factor.  A difference is the sum at sign -1.  At S = () a key is
read only through `key | 0`, so any int keys will do: the scatter terms
of `connections.covariant_derivative`, and the row-indexed boundary
columns of `homology` in the `d o d` composition and in `exact_rank`'s
elimination, are summed with `add_multiple` too.  The one deliberate
exception is `PolyElement`, which sums its monomial terms in its own
loop, since this module imports `poly`.  It takes either kind
of value, and `PolyElement` coefficients too, as `Multivector` and
`AltForm` pass them, since it only adds, subtracts, negates and
multiplies values; a sign is applied by subtracting, or by negating
where the sum has no entry yet, and no int sign or zero start value
meets a `PolyElement`, so no product or sum promotes an int.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

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


@cache
def subsets(n: int, degree: int | None = None) -> tuple[int, ...]:
    """The masks of the `degree`-subsets of range(n) in `combinations` order, memoized;
    with no degree, every subset, by degree and then in that order."""
    if degree is None:
        return tuple(s for p in range(n + 1) for s in subsets(n, p))
    return tuple(to_mask(key) for key in combinations(range(n), degree))


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

    It is the wedge u ^ e_(empty set), so it reads each key only through
    `key | 0`: any int keys, such as the row indices of a boundary column,
    are summed alike.  A difference is the sum at sign -1."""
    add_wedge(acc, u, 0, c, sign)


def add_wedge(acc: dict, u, v, c=None, sign: int = 1) -> None:
    """acc += sign * c * (u ^ v) in place, dropping zeros, where exactly one of u and v is
    the bitmask of a basis element e_S and the other a map: one add or subtract per term
    of the map, and a negation only where acc has no entry yet."""
    left = isinstance(u, int)
    blade, terms = (u, v) if left else (v, u)
    for key, a in terms.items():
        w = wedge_sign(blade, key) if left else wedge_sign(key, blade)
        if w:
            if c is not None:
                a = c * a
            mask = key | blade
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


def values(u: dict) -> dict:
    """A map of coefficients, such as `Multivector.components`, as a map of values."""
    return {mask: value(coeff) for mask, coeff in u.items()}
