"""Exact sparse polynomials over Q and derivations of the polynomial ring.

The base algebra everywhere in this package is A = Q[x1..xm] with
arbitrary-precision rational coefficients.  A polynomial is stored as a
map from exponent tuples (length m) to nonzero coefficients, each an
``int`` or a ``Fraction``; zero coefficients are never kept, so ``==`` is
structural equality and agrees with mathematical equality.  m = 0 is
allowed and gives A = Q, the ground-field case.

Integer values enter as ``int`` (a ``Fraction`` with denominator 1 is
stored as its numerator), so the integer-coefficient data that most
checks draw never pays for ``Fraction`` arithmetic.  A sum or product
that involves a ``Fraction`` stays a ``Fraction`` even when its value is
an integer; that is harmless, since ``int`` and ``Fraction`` of equal
value compare equal, hash equal and print the same.

Terms are kept in the order arithmetic produces them, and that order is
what a report prints.  The arithmetic skips work that cannot change the
result:

- a product with a one-term constant operand scales the other operand's
  terms in their order, and returns that operand itself when the
  constant is 1;
- a sum with a zero operand, or a difference with a zero right side,
  returns the other operand;
- a derivation applied to a constant is zero at once.

Each shortcut gives the same terms, in the same order, as the general
double loop of ``__mul__`` and the loops of ``__add__`` and ``__sub__``;
the oracle tests in ``tests/test_poly.py`` pin that.  Since a result may
be one of its operands, no code changes a ``terms`` dict in place.

No floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from collections.abc import Iterable, Iterator, Mapping

from .record import Record


def _coerce_coeff(value) -> int | Fraction:
    if isinstance(value, int):  # bool included: True is stored as 1
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact coefficient expected (int or Fraction), got {type(value).__name__}")


def _term_order(item):
    # graded lexicographic: total degree first, then exponents
    exps = item[0]
    return (sum(exps), exps)


class PolyElement:
    """Element of A = Q[x1..xm], exact and immutable by convention."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Mapping[tuple, object] | Iterable = ()):
        if m < 0:
            raise ValueError("variable count must be non-negative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != m:
                raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {m}")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            c = acc.get(exps, 0) + _coerce_coeff(coeff)
            if c:
                acc[exps] = c
            elif exps in acc:
                del acc[exps]
        self.m = m
        self.terms = dict(sorted(acc.items(), key=_term_order, reverse=True))

    @classmethod
    def _make(cls, m: int, canonical: dict) -> "PolyElement":
        # fast path for arithmetic and `sampling.random_poly`: `canonical`
        # already has tuple keys and nonzero int or Fraction values
        self = object.__new__(cls)
        self.m = m
        self.terms = canonical
        return self

    @classmethod
    def zero(cls, m: int) -> "PolyElement":
        return cls._make(m, {})

    @classmethod
    def const(cls, m: int, value) -> "PolyElement":
        c = _coerce_coeff(value)
        return cls._make(m, {(0,) * m: c} if c else {})

    @classmethod
    def one(cls, m: int) -> "PolyElement":
        return cls.const(m, 1)

    @classmethod
    def variable(cls, m: int, i: int) -> "PolyElement":
        if not 0 <= i < m:
            raise ValueError(f"variable index {i} out of range for m={m}")
        exps = tuple(1 if j == i else 0 for j in range(m))
        return cls._make(m, {exps: 1})

    def _check_same_ring(self, other: "PolyElement") -> None:
        if self.m != other.m:
            raise ValueError(f"mismatched variable counts: {self.m} vs {other.m}")

    def _promote(self, other) -> "PolyElement | None":
        if isinstance(other, PolyElement):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyElement.const(self.m, other)
        return None

    def __add__(self, other) -> "PolyElement":
        other = self._promote(other)
        if other is None:
            return NotImplemented
        self._check_same_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            s = acc.get(exps)
            s = c if s is None else s + c
            if s:
                acc[exps] = s
            else:
                del acc[exps]
        return PolyElement._make(self.m, acc)

    __radd__ = __add__

    def __neg__(self) -> "PolyElement":
        return PolyElement._make(self.m, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "PolyElement":
        other = self._promote(other)
        if other is None:
            return NotImplemented
        self._check_same_ring(other)
        if not other.terms:
            return self
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            s = acc.get(exps)
            s = -c if s is None else s - c
            if s:
                acc[exps] = s
            else:
                del acc[exps]
        return PolyElement._make(self.m, acc)

    def __rsub__(self, other) -> "PolyElement":
        return (-self) + other

    def __mul__(self, other) -> "PolyElement":
        other = self._promote(other)
        if other is None:
            return NotImplemented
        self._check_same_ring(other)
        terms1, terms2 = self.terms, other.terms
        # a nonzero constant operand scales the other's terms in their order
        if len(terms2) == 1 and not any(next(iter(terms2))):
            c2 = next(iter(terms2.values()))
            if c2 == 1:
                return self
            return PolyElement._make(self.m, {e: c1 * c2 for e, c1 in terms1.items()})
        if len(terms1) == 1 and not any(next(iter(terms1))):
            c1 = next(iter(terms1.values()))
            if c1 == 1:
                return other
            return PolyElement._make(self.m, {e: c1 * c2 for e, c2 in terms2.items()})
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in terms1.items():
            for e2, c2 in terms2.items():
                exps = tuple(map(add, e1, e2))
                c = c1 * c2
                s = acc.get(exps)
                s = c if s is None else s + c
                if s:
                    acc[exps] = s
                elif exps in acc:
                    del acc[exps]
        return PolyElement._make(self.m, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PolyElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = PolyElement.one(self.m)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def diff(self, i: int) -> "PolyElement":
        """Formal partial derivative with respect to x_{i+1} (0-based i)."""
        if not 0 <= i < self.m:
            raise ValueError(f"variable index {i} out of range for m={self.m}")
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = exps[:i] + (e - 1,) + exps[i + 1:]
            acc[new] = acc.get(new, 0) + c * e
        return PolyElement._make(self.m, {e: c for e, c in acc.items() if c})

    def is_constant(self) -> bool:
        # the keys are distinct, so a constant has at most one term, keyed (0, .., 0)
        terms = self.terms
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, always as a Fraction.

        The stored coefficient may be an ``int``; callers such as
        `divergence_rank_one` get a ``Fraction`` whatever the storage.
        """
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(next(iter(self.terms.values())))

    def items(self) -> Iterator[tuple[tuple[int, ...], int | Fraction]]:
        return iter(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.terms.items():
            factors = []
            if c != 1 or sum(exps) == 0:
                factors.append(str(c))
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"PolyElement({self.m}, {self!s})"


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries a 0-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column + 1})")
        self.message = message
        self.column = column


def parse_poly(text: str, m: int) -> PolyElement:
    """Parse polynomial text like ``3/2*x1^2*x2 - x2`` exactly.

    Grammar: terms joined by + and -, each term a '*'-separated product of
    rational constants and powers ``xi^k`` of the variables x1..xm.  No
    parentheses and no floating point.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def is_digit(at: int) -> bool:
        # ASCII only: other Unicode digits pass `str.isdigit`
        return at < n and "0" <= text[at] <= "9"

    def parse_uint() -> int:
        nonlocal pos
        start = pos
        while is_digit(pos):
            pos += 1
        if pos == start:
            raise PolyParseError("expected a digit", pos)
        try:
            return int(text[start:pos])
        except ValueError:
            raise PolyParseError(f"number has too many digits ({pos - start})", start) from None

    def parse_atom() -> PolyElement:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise PolyParseError("unexpected end of input", pos)
        ch = text[pos]
        if ch == "x":
            pos += 1
            col = pos
            idx = parse_uint()
            if not 1 <= idx <= m:
                raise PolyParseError(f"variable x{idx} out of range (m={m})", col - 1)
            return PolyElement.variable(m, idx - 1)
        if is_digit(pos):
            num = parse_uint()
            if pos < n and text[pos] == "/":
                pos += 1
                col = pos
                den = parse_uint()
                if den == 0:
                    raise PolyParseError("zero denominator", col)
                return PolyElement.const(m, Fraction(num, den))
            return PolyElement.const(m, num)
        raise PolyParseError(f"unexpected character {ch!r}", pos)

    def parse_factor() -> PolyElement:
        nonlocal pos
        atom = parse_atom()
        skip_ws()
        if pos < n and text[pos] == "^":
            pos += 1
            skip_ws()
            col = pos
            exp = parse_uint()
            return atom ** exp if col != pos else atom  # parse_uint raised otherwise
        return atom

    def parse_term() -> PolyElement:
        nonlocal pos
        result = parse_factor()
        skip_ws()
        while pos < n and text[pos] == "*":
            pos += 1
            result = result * parse_factor()
            skip_ws()
        return result

    skip_ws()
    if pos >= n:
        raise PolyParseError("empty polynomial", pos)
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    result = parse_term() * sign
    skip_ws()
    while pos < n:
        ch = text[pos]
        if ch not in "+-":
            raise PolyParseError(f"expected + or - but found {ch!r}", pos)
        pos += 1
        term = parse_term()
        result = result + (term if ch == "+" else -term)
        skip_ws()
    return result


class DerivationOfA(Record):
    """A derivation of A, written sum_j components[j] * d/dx_{j+1}.

    Anchors of Lie-Rinehart algebras take values here.
    """

    _fields = ("components",)

    def __init__(self, components: tuple[PolyElement, ...]):
        self.components = components

    @property
    def m(self) -> int:
        return len(self.components)

    @classmethod
    def zero(cls, m: int) -> "DerivationOfA":
        return cls(tuple(PolyElement.zero(m) for _ in range(m)))

    @classmethod
    def coordinate(cls, m: int, i: int) -> "DerivationOfA":
        """The coordinate derivation d/dx_{i+1}."""
        return cls(tuple(PolyElement.one(m) if j == i else PolyElement.zero(m) for j in range(m)))

    def __call__(self, p: PolyElement) -> PolyElement:
        if p.m != self.m:
            raise ValueError(f"mismatched variable counts: {self.m} vs {p.m}")
        out = PolyElement.zero(self.m)
        if p.is_constant():
            return out
        for j, comp in enumerate(self.components):
            if comp:
                partial = p.diff(j)
                if partial:
                    out = out + comp * partial
        return out

    def __add__(self, other: "DerivationOfA") -> "DerivationOfA":
        if self.m != other.m:
            raise ValueError("mismatched variable counts")
        return DerivationOfA(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "DerivationOfA") -> "DerivationOfA":
        return self + other.scale(PolyElement.const(self.m, -1))

    def scale(self, p: PolyElement) -> "DerivationOfA":
        return DerivationOfA(tuple(p * c if c else c for c in self.components))

    def is_zero(self) -> bool:
        return not any(self.components)

    def commutator(self, other: "DerivationOfA") -> "DerivationOfA":
        """The derivation self o other - other o self (a first-order operator)."""
        if self.m != other.m:
            raise ValueError("mismatched variable counts")
        return DerivationOfA(tuple(self(c2) - other(c1)
                                   for c1, c2 in zip(self.components, other.components)))

    def __str__(self) -> str:
        parts = [f"({c})*d/dx{j + 1}" for j, c in enumerate(self.components) if c]
        return " + ".join(parts) if parts else "0"
