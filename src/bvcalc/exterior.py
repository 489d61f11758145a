"""Exterior algebra of a free rank-n module, the top power, and duality.

Multivectors are stored sparsely on strictly increasing basis index
tuples; construction normalizes arbitrary tuples: it sorts each key with
its permutation sign (`sort_with_sign`), sends a repeated index to 0,
merges equal keys and drops zeros.  Sums, wedge products and scalings of
`Multivector` and `AltForm` are built by passing their terms to that
constructor, so the normalization is written once per type.  The
canonical pairing wedges a degree-p and a degree-(n-p) multivector into
the top power, and its adjoint identifies degree-p multivectors with
alternating (n-p)-forms valued in the top power.  `phi_iso` builds that
adjoint from wedges, so its signs come from the insertion sort; for free
L it is also a signed re-indexing on complements, which is how
`phi_inverse` computes it, with `merge_sign` counting inversions.  The
two halves share no sign code, so each is the other's test.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from .algebra import LElement
from .poly import PolyElement
from .record import Record


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


class Multivector:
    """Element of the exterior algebra over A, possibly inhomogeneous."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: Mapping | Iterable = ()):
        items = components.items() if isinstance(components, Mapping) else components
        acc: dict[tuple[int, ...], PolyElement] = {}
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
        return cls._make(n, {(): coeff} if coeff else {})

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
        return cls._make(le.n, {(i,): c for i, c in enumerate(le.coeffs) if c})

    def component(self, indices: Sequence[int], m: int) -> PolyElement:
        key, sign = sort_with_sign(tuple(indices))
        if sign == 0:
            return PolyElement.zero(m)
        value = self.components.get(key)
        if value is None:
            return PolyElement.zero(m)
        return value if sign == 1 else -value

    def terms(self) -> Iterator[tuple[tuple[int, ...], PolyElement]]:
        return iter(sorted(self.components.items(), key=lambda kv: (len(kv[0]), kv[0])))

    def is_zero(self) -> bool:
        return not self.components

    def degree(self) -> int | None:
        """Exterior degree of a homogeneous multivector; None if zero."""
        degrees = {len(k) for k in self.components}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError("inhomogeneous multivector has no degree")
        return degrees.pop()

    def __add__(self, other: "Multivector") -> "Multivector":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return Multivector(self.n, [*self.components.items(), *other.components.items()])

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector._make(self.n, {k: -v for k, v in self.components.items()})

    def scale(self, p) -> "Multivector":
        return Multivector(self.n, [(k, p * v) for k, v in self.components.items()])

    def wedge(self, other: "Multivector") -> "Multivector":
        """Exterior product: the constructor sorts each joined key with its Koszul sign."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return Multivector(self.n, [(s_key + t_key, s_val * t_val)
                                    for s_key, s_val in self.components.items()
                                    for t_key, t_val in other.components.items()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    def __hash__(self):
        return hash((self.n, frozenset((k, hash(v)) for k, v in self.components.items())))

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


class AltForm:
    """Alternating A-multilinear form on L valued in the top power.

    A form of degree q stores its values on increasing q-tuples of basis
    elements, each value the coefficient on e_1^...^e_n.  Values on
    arbitrary arguments follow by multilinear alternating expansion.
    Degree n+1 is admitted as the zero space (no increasing tuples exist).
    """

    __slots__ = ("n", "m", "degree", "components")

    def __init__(self, n: int, m: int, degree: int, components: Mapping | Iterable = ()):
        if not 0 <= degree <= n + 1:
            raise ValueError(f"form degree {degree} out of range for rank {n}")
        items = components.items() if isinstance(components, Mapping) else components
        acc: dict[tuple[int, ...], PolyElement] = {}
        for key, value in items:
            key = tuple(key)
            if len(key) != degree or any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"key {key} is not an increasing {degree}-tuple")
            if any(not 0 <= i < n for i in key):
                raise ValueError(f"key {key} out of range for rank {n}")
            if value:
                acc[key] = acc.get(key, PolyElement.zero(m)) + value
                if not acc[key]:
                    del acc[key]
        self.n = n
        self.m = m
        self.degree = degree
        self.components = acc

    def value_on_increasing(self, key: tuple[int, ...]) -> PolyElement:
        return self.components.get(key, PolyElement.zero(self.m))

    def __add__(self, other: "AltForm") -> "AltForm":
        if (self.n, self.m, self.degree) != (other.n, other.m, other.degree):
            raise ValueError("form shape mismatch")
        return AltForm(self.n, self.m, self.degree,
                       [*self.components.items(), *other.components.items()])

    def __sub__(self, other: "AltForm") -> "AltForm":
        return self + (-other)

    def __neg__(self) -> "AltForm":
        return AltForm(self.n, self.m, self.degree, [(k, -v) for k, v in self.components.items()])

    def scale(self, p) -> "AltForm":
        return AltForm(self.n, self.m, self.degree,
                       [(k, p * v) for k, v in self.components.items()])

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        if not isinstance(other, AltForm):
            return NotImplemented
        return ((self.n, self.m, self.degree) == (other.n, other.m, other.degree)
                and self.components == other.components)

    def __hash__(self):
        return hash((self.n, self.m, self.degree,
                     frozenset((k, hash(v)) for k, v in self.components.items())))

    def __str__(self) -> str:
        if not self.components:
            return f"0-form(deg {self.degree})"
        parts = []
        for key in sorted(self.components):
            label = "(" + ",".join(str(i + 1) for i in key) + ")"
            parts.append(f"{label} -> {self.components[key]}")
        return "; ".join(parts)


def phi_iso(u: Multivector, m: int, degree: int | None = None) -> AltForm:
    """Adjoint of the top pairing: a degree-p multivector as an (n-p)-form.

    The form's value on a basis tuple T is the top coefficient of
    u ^ e_T.  That coefficient can be nonzero only when T is the
    complement of a key of u, so u is wedged with those e_T alone, in
    increasing order as `itertools.combinations` lists them; every other
    value is 0.  The optional degree argument disambiguates the zero
    multivector; nonzero input must be homogeneous.
    """
    n = u.n
    p = u.degree()
    if p is None:
        if degree is None:
            raise ValueError("zero multivector needs an explicit degree")
        p = degree
    elif degree is not None and degree != p:
        raise ValueError(f"multivector has degree {p}, not {degree}")
    complements = sorted(tuple(i for i in range(n) if i not in s_key) for s_key in u.components)
    return AltForm(n, m, n - p, [
        (t_key, u.wedge(Multivector.basis(n, t_key, m=m)).component(full_tuple(n), m))
        for t_key in complements])


def phi_inverse(f: AltForm) -> Multivector:
    """Inverse of phi_iso: signed re-indexing on complementary tuples."""
    n = f.n
    if f.degree > n:
        return Multivector.zero(n)
    acc = {}
    for t_key, value in f.components.items():
        s_key = tuple(i for i in range(n) if i not in t_key)
        sign = merge_sign(s_key, t_key)
        acc[s_key] = value if sign == 1 else -value
    return Multivector(n, acc)
