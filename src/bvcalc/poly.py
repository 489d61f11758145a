"""Exact sparse polynomials over Q and derivations of the polynomial ring.

The base algebra everywhere in this package is A = Q[x1..xm] with
arbitrary-precision rational coefficients.  A polynomial is stored as a
map from monomial keys to nonzero coefficients, each an ``int`` or a
``Fraction``; zero coefficients are never kept, so ``==`` is structural
equality and agrees with mathematical equality.  m = 0 is allowed and
gives A = Q, the ground-field case.

A monomial x1^e1 .. xm^em is keyed by one ``int`` of m + 1 fields of
W = 32 bits each (packed exponent vectors, as in Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007):

    key = (e1 + .. + em) << W*m | e1 << W*(m-1) | .. | em

The total degree is the top field and the exponents of x1..xm follow in
that order, so the graded lexicographic order, total degree first and
then exponents, is plain integer order, the constant monomial is key 0,
the key of a product of monomials is the sum of their keys, and
d/dx_{i+1} lowers a key by one fixed step.  Only this module knows the
layout: the constructor takes, and `items` yields, exponent tuples.  A
field must not carry into the next one, so every key has total degree
below 2^W: the constructor and every product raise ``ValueError``
rather than return a larger one.  `parse_poly` caps each k in ``x^k``,
and the total degree of each polynomial it returns, at MAX_EXPONENT =
2^16 - 1: a product reaches degree 2^W only if it multiplies 2^16 such
polynomials together, far more than the loader or any check forms.

Integer values enter as ``int`` (a ``Fraction`` with denominator 1 is
stored as its numerator), so the integer-coefficient data that most
checks draw never pays for ``Fraction`` arithmetic.  A sum or product
that involves a ``Fraction`` stays a ``Fraction`` even when its value is
an integer; that is harmless, since ``int`` and ``Fraction`` of equal
value compare equal, hash equal and print the same.

The constructor sorts terms by descending key.  Arithmetic keeps terms
in the order it produces them, and that order is what a report prints.
The arithmetic skips work that cannot change the result:

- a product with a one-term constant operand scales the other operand's
  terms in their order, and returns that operand itself when the
  constant is 1;
- a sum with a zero operand, or a difference with a zero right side,
  returns the other operand;
- a derivation applied to a constant is zero at once.

Each shortcut gives the same terms, in the same order, as the general
double loop of ``__mul__`` and the loop of ``__add__``.  A difference is
the sum at sign -1 in that one loop: it negates each term of its right
side as it adds it, copies nothing more than a sum does, and gives the
terms of ``self + -other`` in their order.  The oracle tests in
``tests/test_poly.py`` pin that.  These loops are the one deliberate
exception to `bvcalc.ground`'s single accumulation loop: ``ground``
imports this module, and ``__mul__`` is the package's hottest code.
Since a result may be one of its operands, no code changes a ``terms``
dict in place.

No floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Iterable, Iterator, Mapping

from .record import Record

W = 32  # bits per key field
_FIELD = (1 << W) - 1  # the largest value of a field
MAX_EXPONENT = (1 << 16) - 1  # the largest k `parse_poly` accepts in x^k

_STEPS: dict[int, tuple[int, ...]] = {}


def monomial_steps(m: int) -> tuple[int, ...]:
    """The key increments that multiply a monomial by x1, .., xm.

    Adding steps to key 0 builds the key of any monomial, whatever the
    order of the additions.
    """
    steps = _STEPS.get(m)
    if steps is None:
        top = 1 << W * m
        steps = _STEPS[m] = tuple(top + (1 << W * (m - 1 - i)) for i in range(m))
    return steps


def _exponents(key: int, m: int) -> tuple[int, ...]:
    return tuple(key >> W * (m - 1 - i) & _FIELD for i in range(m))


def _coerce_coeff(value) -> int | Fraction:
    if isinstance(value, int):  # bool included: True is stored as 1
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact coefficient expected (int or Fraction), got {type(value).__name__}")


def _make(m: int, terms: dict) -> "PolyElement":
    """A polynomial on `terms` as they are: monomial keys, nonzero int or Fraction values."""
    self = object.__new__(PolyElement)
    self.m = m
    self.terms = terms
    return self


class PolyElement:
    """Element of A = Q[x1..xm], exact and immutable by convention."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Mapping[tuple, object] | Iterable = ()):
        if m < 0:
            raise ValueError("variable count must be non-negative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        steps = monomial_steps(m)
        acc: dict[int, int | Fraction] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != m:
                raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {m}")
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            if sum(exps) > _FIELD:
                raise ValueError(f"total degree of {exps} is above 2^{W} - 1")
            key = sum(e * step for e, step in zip(exps, steps))
            c = acc.get(key, 0) + _coerce_coeff(coeff)
            if c:
                acc[key] = c
            elif key in acc:
                del acc[key]
        self.m = m
        self.terms = dict(sorted(acc.items(), reverse=True))

    _make = staticmethod(_make)  # the name perfbench/layers.py counts constructions under

    @classmethod
    def zero(cls, m: int) -> "PolyElement":
        return _make(m, {})

    @classmethod
    def const(cls, m: int, value) -> "PolyElement":
        c = _coerce_coeff(value)
        return _make(m, {0: c} if c else {})

    @classmethod
    def one(cls, m: int) -> "PolyElement":
        return _make(m, {0: 1})

    @classmethod
    def variable(cls, m: int, i: int) -> "PolyElement":
        if not 0 <= i < m:
            raise ValueError(f"variable index {i} out of range for m={m}")
        return _make(m, {monomial_steps(m)[i]: 1})

    def _promote(self, other) -> "PolyElement | None":
        if isinstance(other, PolyElement):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyElement.const(self.m, other)
        return None

    def _mismatch(self, other: "PolyElement") -> ValueError:
        return ValueError(f"mismatched variable counts: {self.m} vs {other.m}")

    def __add__(self, other, sign: int = 1) -> "PolyElement":
        """self + sign * other, sign 1 or -1: other's terms follow self's, in their order."""
        if other.__class__ is not PolyElement:
            other = self._promote(other)
            if other is None:
                return NotImplemented
        if self.m != other.m:
            raise self._mismatch(other)
        if not other.terms:
            return self
        if not self.terms:
            return other if sign > 0 else -other
        acc = dict(self.terms)
        for key, c in other.terms.items():
            s = acc.get(key)
            if s is None:
                acc[key] = c if sign > 0 else -c
            else:
                s = s + c if sign > 0 else s - c
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return _make(self.m, acc)

    __radd__ = __add__

    def __neg__(self) -> "PolyElement":
        return _make(self.m, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> "PolyElement":
        return self.__add__(other, -1)

    def __rsub__(self, other) -> "PolyElement":
        return (-self) + other

    def __mul__(self, other) -> "PolyElement":
        if other.__class__ is not PolyElement:
            other = self._promote(other)
            if other is None:
                return NotImplemented
        m = self.m
        if m != other.m:
            raise self._mismatch(other)
        terms1, terms2 = self.terms, other.terms
        # a nonzero constant operand scales the other's terms in their order
        if len(terms2) == 1 and 0 in terms2:
            c2 = terms2[0]
            if c2 == 1:
                return self
            return _make(m, {key: c1 * c2 for key, c1 in terms1.items()})
        if len(terms1) == 1 and 0 in terms1:
            c1 = terms1[0]
            if c1 == 1:
                return other
            return _make(m, {key: c1 * c2 for key, c2 in terms2.items()})
        acc: dict[int, int | Fraction] = {}
        for k1, c1 in terms1.items():
            for k2, c2 in terms2.items():
                key = k1 + k2
                c = c1 * c2
                s = acc.get(key)
                s = c if s is None else s + c
                if s:
                    acc[key] = s
                elif key in acc:
                    del acc[key]
        # the largest key, the sum of the operands' largest, comes from one pair
        # and never cancels, and it holds the largest degree
        if acc and max(acc) >> W * m > _FIELD:
            raise ValueError(f"product degree is above 2^{W} - 1")
        return _make(m, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PolyElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = PolyElement.one(self.m)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if other.__class__ is not PolyElement:
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
        m = self.m
        if not 0 <= i < m:
            raise ValueError(f"variable index {i} out of range for m={m}")
        shift = W * (m - 1 - i)
        step = monomial_steps(m)[i]
        return _make(m, {key - step: c * e for key, c in self.terms.items()
                         if (e := key >> shift & _FIELD)})

    def is_constant(self) -> bool:
        # the keys are distinct, so a constant has at most one term, keyed 0
        terms = self.terms
        return not terms or (len(terms) == 1 and 0 in terms)

    def constant_term(self) -> int | Fraction:
        """The coefficient of the monomial 1, as stored (0 when there is none)."""
        return self.terms.get(0, 0)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, always as a Fraction.

        The stored coefficient may be an ``int``; callers such as
        `divergence_rank_one` get a ``Fraction`` whatever the storage.
        """
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.constant_term())

    def items(self) -> Iterator[tuple[tuple[int, ...], int | Fraction]]:
        """(exponent tuple, coefficient) for each term, in the stored order."""
        m = self.m
        return ((_exponents(key, m), c) for key, c in self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.items():
            factors = []
            if c != 1 or not any(exps):
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
    rational constants and powers ``xi^k`` of the variables x1..xm, with
    k at most MAX_EXPONENT.  No parentheses and no floating point.  A term
    of total degree above MAX_EXPONENT is an error at the factor that
    takes it there, so no product the parser forms nears 2^W.
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
            if exp > MAX_EXPONENT:
                raise PolyParseError(f"exponent {exp} is above {MAX_EXPONENT}", col)
            return atom ** exp
        return atom

    def parse_term() -> PolyElement:
        nonlocal pos
        result = parse_factor()
        skip_ws()
        while pos < n and text[pos] == "*":
            pos += 1
            skip_ws()
            col = pos
            result = result * parse_factor()
            # a term is one monomial: its key, if any, holds the degree
            degree = max(result.terms, default=0) >> W * m
            if degree > MAX_EXPONENT:
                raise PolyParseError(f"total degree {degree} is above {MAX_EXPONENT}", col)
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
        if self.m != other.m:
            raise ValueError("mismatched variable counts")
        return DerivationOfA(tuple(a - b for a, b in zip(self.components, other.components)))

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
