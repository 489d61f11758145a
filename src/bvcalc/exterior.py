"""Exterior algebra of a free rank-n module, the top power, and duality.

`Multivector` and `AltForm` store their nonzero components sparsely, each
keyed by the bitmask of its basis subset, bit i standing for e_{i+1}, as
every map of `bvcalc.ground` is.  Index tuples enter only through the
constructors, `component` and `value_on_increasing`, and leave only
through `terms` and the printed labels.  A constructor checks that
every index is an int in range(n), then normalizes arbitrary tuples: it
sorts each key with its permutation sign (`sort_with_sign`), sends a
repeated index to 0, merges equal keys and drops zeros.  The two types share one implementation of their
arithmetic, `_Blades`: sums, negations, scalings, the zero test,
equality and hashing act on the masks, and each type adds only the
shape two operands must share.  The wedge product takes its signs from
`ground.wedge_sign`.  The canonical pairing wedges a degree-p and a
degree-(n-p) multivector into the top power, and its adjoint identifies
degree-p multivectors with alternating (n-p)-forms valued in the top
power.  `phi_iso` builds that adjoint from wedges, so its signs come
from `wedge_sign`; for free L it is also a signed re-indexing on
complements, which is how `phi_inverse` computes it, with `merge_sign`
counting the inversions of index tuples.  The two halves share no sign
code, so each is the other's test.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from .algebra import LElement
from .ground import add_multiple, add_wedge, to_key, to_mask
from .poly import PolyElement
from .record import Record


def _in_range(key: Iterable, n: int, what: str) -> tuple[int, ...]:
    """`key` as a tuple; ValueError names it as `what` unless each entry is an int in range(n)."""
    indices = tuple(key)
    if any(not isinstance(i, int) or not 0 <= i < n for i in indices):
        raise ValueError(f"{what} {key} out of range for rank {n}")
    return indices


def sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning (sorted, sign); sign 0 on repeats."""
    idx = list(indices)
    sign = 1
    # insertion sort; inputs are tiny
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def merge_sign(left: Sequence[int], right: Sequence[int]) -> int:
    """Sign of sorting the concatenation of two increasing tuples; 0 on overlap."""
    if set(left) & set(right):
        return 0
    inversions = 0
    for s in left:
        inversions += sum(1 for t in right if t < s)
    return -1 if inversions % 2 else 1


def basis_label(key: Sequence[int]) -> str:
    """The 1-based label e{1,2} of the basis multivector on a 0-based index tuple."""
    return "e{" + ",".join(str(i + 1) for i in key) + "}"


class _Blades:
    """The arithmetic of a map `components` from subset bitmasks to nonzero values.

    A subclass gives `_shape()`, the tuple two operands must share, a
    classmethod `_make(*shape, components)` that builds it on a canonical
    map, and the `_mismatch` message for operands of different shapes.
    """

    __slots__ = ()

    def _like(self, components: dict):
        return self._make(*self._shape(), components)

    def is_zero(self) -> bool:
        return not self.components

    def _plus(self, other, sign: int):
        if self._shape() != other._shape():
            raise ValueError(self._mismatch)
        acc = dict(self.components)
        add_multiple(acc, other.components, sign=sign)
        return self._like(acc)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._like({k: -v for k, v in self.components.items()})

    def scale(self, p):
        return self._like({k: w for k, v in self.components.items() if (w := p * v)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._shape() == other._shape() and self.components == other.components

    def __hash__(self):
        return hash((*self._shape(),
                     frozenset((k, hash(v)) for k, v in self.components.items())))


class Multivector(_Blades):
    """Element of the exterior algebra over A, possibly inhomogeneous.

    `components` maps the bitmask of each basis subset S to the nonzero
    coefficient of e_S; the constructor takes (index tuple, coefficient) pairs.
    """

    __slots__ = ("n", "components")
    _mismatch = "rank mismatch"

    def __init__(self, n: int, components: Mapping | Iterable = ()):
        items = components.items() if isinstance(components, Mapping) else components
        acc: dict[int, PolyElement] = {}
        for key, coeff in items:
            sorted_key, sign = sort_with_sign(_in_range(key, n, "index"))
            if sign == 0 or not coeff:
                continue
            add_multiple(acc, {to_mask(sorted_key): coeff}, sign=sign)
        self.n = n
        self.components = acc

    @classmethod
    def _make(cls, n: int, canonical: dict) -> "Multivector":
        out = object.__new__(cls)
        out.n = n
        out.components = canonical
        return out

    @classmethod
    def zero(cls, n: int) -> "Multivector":
        return cls._make(n, {})

    @classmethod
    def scalar(cls, n: int, coeff: PolyElement) -> "Multivector":
        return cls._make(n, {0: coeff} if coeff else {})

    @classmethod
    def basis(cls, n: int, indices: Sequence[int], coeff: PolyElement | None = None,
              m: int | None = None) -> "Multivector":
        if coeff is None:
            if m is None:
                raise ValueError("need a coefficient or a variable count")
            coeff = PolyElement.one(m)
        return cls(n, [(tuple(indices), coeff)])

    @classmethod
    def from_lelement(cls, le: LElement) -> "Multivector":
        return cls._make(le.n, {1 << i: c for i, c in enumerate(le.coeffs) if c})

    def component(self, indices: Sequence[int], m: int) -> PolyElement:
        key, sign = sort_with_sign(_in_range(indices, self.n, "index"))
        value = self.components.get(to_mask(key)) if sign else None
        if value is None:
            return PolyElement.zero(m)
        return value if sign == 1 else -value

    def terms(self) -> Iterator[tuple[tuple[int, ...], PolyElement]]:
        """The (increasing index tuple, coefficient) pairs, by degree, then by tuple."""
        return iter(sorted(((to_key(s), c) for s, c in self.components.items()),
                           key=lambda kv: (len(kv[0]), kv[0])))

    def _shape(self) -> tuple[int]:
        return (self.n,)

    def degree(self) -> int | None:
        """Exterior degree of a homogeneous multivector; None if zero."""
        degrees = {s.bit_count() for s in self.components}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError("inhomogeneous multivector has no degree")
        return degrees.pop()

    def wedge(self, other: "Multivector") -> "Multivector":
        """Exterior product: e_S ^ e_T = `wedge_sign`(S, T) e_(S | T), term by term."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        acc: dict[int, PolyElement] = {}
        for s, a in self.components.items():
            add_wedge(acc, s, other.components, a)
        return Multivector._make(self.n, acc)

    def __str__(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for key, value in self.terms():
            parts.append(f"({value})*{basis_label(key)}" if key else f"({value})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Multivector(n={self.n}, {self!s})"


class TopElement(Record):
    """Element of the top exterior power, as a multiple of e_1^...^e_n."""

    _fields = ("n", "coefficient")

    def __init__(self, n: int, coefficient: PolyElement):
        self.n = n
        self.coefficient = coefficient

    def __add__(self, other: "TopElement") -> "TopElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return TopElement(self.n, self.coefficient + other.coefficient)

    def __sub__(self, other: "TopElement") -> "TopElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return TopElement(self.n, self.coefficient - other.coefficient)

    def __neg__(self) -> "TopElement":
        return TopElement(self.n, -self.coefficient)

    def scale(self, p) -> "TopElement":
        return TopElement(self.n, p * self.coefficient)

    def is_zero(self) -> bool:
        return not self.coefficient

    def __str__(self) -> str:
        return f"({self.coefficient})*e{{1..{self.n}}}"


def full_tuple(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def top_pairing(u: Multivector, v: Multivector, m: int) -> TopElement:
    """Pair complementary-degree multivectors into the top power."""
    if u.n != v.n:
        raise ValueError("rank mismatch")
    n = u.n
    du, dv = u.degree(), v.degree()
    if du is not None and dv is not None and du + dv != n:
        raise ValueError(f"degrees {du} and {dv} are not complementary for n={n}")
    return TopElement(n, u.wedge(v).component(full_tuple(n), m))


class AltForm(_Blades):
    """Alternating A-multilinear form on L valued in the top power.

    A form of degree q stores its nonzero values on increasing q-tuples of
    basis elements, keyed by the bitmask of the tuple, each value the
    coefficient on e_1^...^e_n; the constructor takes (increasing tuple,
    value) pairs.  Values on arbitrary arguments follow by multilinear
    alternating expansion.
    Degree n+1 is admitted as the zero space (no increasing tuples exist).
    """

    __slots__ = ("n", "m", "degree", "components")
    _mismatch = "form shape mismatch"

    def __init__(self, n: int, m: int, degree: int, components: Mapping | Iterable = ()):
        if not 0 <= degree <= n + 1:
            raise ValueError(f"form degree {degree} out of range for rank {n}")
        items = components.items() if isinstance(components, Mapping) else components
        acc: dict[int, PolyElement] = {}
        for key, value in items:
            key = _in_range(key, n, "key")
            if len(key) != degree or any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"key {key} is not an increasing {degree}-tuple")
            add_multiple(acc, {to_mask(key): value})
        self.n = n
        self.m = m
        self.degree = degree
        self.components = acc

    @classmethod
    def _make(cls, n: int, m: int, degree: int, canonical: dict) -> "AltForm":
        out = object.__new__(cls)
        out.n, out.m, out.degree, out.components = n, m, degree, canonical
        return out

    def value_on_increasing(self, key: tuple[int, ...]) -> PolyElement:
        """The value on an increasing index tuple; 0 on any other tuple."""
        key = _in_range(key, self.n, "key")
        mask = to_mask(key)
        value = self.components.get(mask) if to_key(mask) == key else None
        return PolyElement.zero(self.m) if value is None else value

    def _shape(self) -> tuple[int, int, int]:
        return (self.n, self.m, self.degree)

    def __str__(self) -> str:
        if not self.components:
            return f"0-form(deg {self.degree})"
        parts = []
        for key, value in sorted((to_key(k), v) for k, v in self.components.items()):
            label = "(" + ",".join(str(i + 1) for i in key) + ")"
            parts.append(f"{label} -> {value}")
        return "; ".join(parts)


def phi_iso(u: Multivector, m: int, degree: int | None = None) -> AltForm:
    """Adjoint of the top pairing: a degree-p multivector as an (n-p)-form.

    The form's value on a basis tuple T is the top coefficient of
    u ^ e_T.  That coefficient is nonzero only when T is the complement
    of a key of u, so u is wedged with those e_T alone; every other value
    is 0.  The optional degree argument disambiguates the zero
    multivector; nonzero input must be homogeneous.
    """
    n = u.n
    p = u.degree()
    if p is None:
        if degree is None:
            raise ValueError("zero multivector needs an explicit degree")
        return AltForm(n, m, n - degree)
    if degree is not None and degree != p:
        raise ValueError(f"multivector has degree {p}, not {degree}")
    full, one = (1 << n) - 1, PolyElement.one(m)
    return AltForm._make(n, m, n - p, {
        full ^ s: u.wedge(Multivector._make(n, {full ^ s: one})).components[full]
        for s in u.components})


def phi_inverse(f: AltForm) -> Multivector:
    """Inverse of phi_iso: signed re-indexing on complementary tuples."""
    n = f.n
    if f.degree > n:
        return Multivector.zero(n)
    full = (1 << n) - 1
    acc = {}
    for t, value in f.components.items():
        sign = merge_sign(to_key(full ^ t), to_key(t))
        acc[full ^ t] = value if sign == 1 else -value
    return Multivector._make(n, acc)
