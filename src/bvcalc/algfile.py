"""The algebra description file format and its loader.

A file is line oriented: ``key = value`` with ``#`` comments, each key
(with its indices) at most once.  Indices in files are 1-based;
everything becomes 0-based on load.  `KEYS` lists every key with its
index count: ``anchor`` takes two, ``c`` and ``Gamma`` three, and the
scalar keys take no ``[i]``, so ``n[1] = 2`` is rejected on its line.

    name = nonabelian-dim2
    m = 0                     # variable count of A = Q[x1..xm]
    n = 2                     # rank of L, at least 1
    anchor[i][j] = <poly>     # coefficient of d/dx_j in rho(e_i), default 0
    c[i][j][k] = <poly>       # [e_i, e_j] = sum_k c[i][j][k] e_k, needs i < j
    gamma = [<poly>, ...]     # optional connection on the top power
    r = [<poly>, ...]         # optional right connection on A
    Gamma[i][j][k] = <poly>   # optional connection on L
    expect_nonflat = true     # the square-zero check is expected to fail
    suites = axioms, generator  # optional default suite selection

Polynomial values use the exact syntax of `bvcalc.poly.parse_poly`.
Loading validates the Lie-Rinehart axioms; a violating file is rejected
with the offending basis tuple.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from pathlib import Path

from .algebra import LElement, LieRinehartAlgebra
from .bv import RightConnectionOnA
from .connections import LeftConnectionOnL, TopConnection
from .correspond import right_from_top, top_from_right
from .poly import DerivationOfA, PolyElement, PolyParseError, parse_poly
from .record import Record

# The names a `suites =` line may use; `bvcalc.suites` runs them in this order.
SUITE_NAMES = ("axioms", "generator", "bijections", "duality",
               "bracket-expansion", "linear-connection", "homology")


class AlgebraFileError(ValueError):
    """Parse or validation failure, located by line (and column if known)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


class LoadedAlgebra(Record):
    """An algebra plus the optional connection blocks found in its file."""

    _fields = ("algebra", "gamma", "r", "Gamma", "expect_nonflat", "suites", "source")

    def __init__(self, algebra: LieRinehartAlgebra, gamma: TopConnection | None = None,
                 r: RightConnectionOnA | None = None, Gamma: LeftConnectionOnL | None = None,
                 expect_nonflat: bool = False, suites: tuple[str, ...] | None = None,
                 source: str = ""):
        self.algebra = algebra
        self.gamma = gamma
        self.r = r
        self.Gamma = Gamma
        self.expect_nonflat = expect_nonflat
        self.suites = suites
        self.source = source

    def top_connection(self) -> TopConnection:
        """The effective top connection: explicit gamma, from r, or flat zero."""
        if self.gamma is not None:
            return self.gamma
        if self.r is not None:
            return top_from_right(self.algebra, self.r)
        alg = self.algebra
        return TopConnection(tuple(PolyElement.zero(alg.m) for _ in range(alg.n)))

    def right_connection(self) -> RightConnectionOnA:
        if self.r is not None:
            return self.r
        return right_from_top(self.algebra, self.top_connection())


# Every key of the file format and the number of `[i]` indices it takes.
KEYS = {"name": 0, "m": 0, "n": 0, "gamma": 0, "r": 0, "expect_nonflat": 0, "suites": 0,
        "anchor": 2, "c": 3, "Gamma": 3}

# ASCII digits only: other Unicode digits pass `str.isdigit` and `\d`
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)$", re.ASCII)
_UINT_RE = re.compile(r"[0-9]+")


def _uint(text: str, what: str, line_no: int) -> int:
    """An ASCII decimal integer; one longer than `int` converts is an input error."""
    try:
        return int(text)
    except ValueError:
        raise AlgebraFileError(f"{what} has too many digits ({len(text)})", line_no) from None


def _indices(bracket_part: str, line_no: int) -> tuple[int, ...]:
    return tuple(_uint(s, "index", line_no) for s in re.findall(r"\[(\d+)\]", bracket_part))


def _shorten(text: str) -> str:
    """`text` for a message: its first 20 characters and `...` when it is longer."""
    return text if len(text) <= 20 else text[:20] + "..."


def _parse_vector(m: int, n: int, key: str, value: str, line_no: int,
                  column: int) -> tuple[PolyElement, ...]:
    """Parse the stripped `[p, ...]` value of `key`, which starts at 0-based
    `column` of its line and must hold `n` entries."""
    if not (value.startswith("[") and value.endswith("]")):
        raise AlgebraFileError("expected a bracketed vector like [0, 1]", line_no)
    inner = value[1:-1]
    out = []
    column += 1
    for piece in inner.split(",") if inner.strip() else ():
        try:
            out.append(parse_poly(piece, m))
        except PolyParseError as exc:
            raise AlgebraFileError(f"bad polynomial {_shorten(piece.strip())!r}: {exc.message}",
                                   line_no, column + exc.column + 1) from exc
        column += len(piece) + 1
    if len(out) != n:
        raise AlgebraFileError(f"{key} must have {n} entries", line_no)
    return tuple(out)


def load(path: str | Path) -> LoadedAlgebra:
    """Load and validate an algebra file; raises AlgebraFileError on problems."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise AlgebraFileError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise AlgebraFileError(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                               data.count(b"\n", 0, exc.start) + 1) from exc
    return loads(text, source=str(path))


def loads(text: str, source: str = "<string>") -> LoadedAlgebra:
    m = n = None
    expect_nonflat = False
    suites: tuple[str, ...] | None = None
    # key -> 1-based indices -> (value, line, 0-based column of the value in its line)
    located: dict[str, dict[tuple[int, ...], tuple[str, int, int]]] = {key: {} for key in KEYS}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise AlgebraFileError("expected 'key = value'", line_no)
        key_part, value = line.split("=", 1)
        key_part = key_part.strip()
        value = value.strip()
        match = _KEY_RE.match(key_part)
        if not match:
            raise AlgebraFileError(f"malformed key {_shorten(key_part)!r}", line_no)
        key = match.group(1)
        indices = _indices(match.group(2), line_no)
        if key not in KEYS:
            raise AlgebraFileError(f"unknown key {_shorten(key)!r}", line_no)
        if len(indices) != KEYS[key]:
            raise AlgebraFileError(f"expected {KEYS[key]} indices, found {len(indices)}", line_no)
        entries = located[key]
        if indices in entries:
            raise AlgebraFileError(f"duplicate key {_shorten(key_part)!r}, first set on line "
                                   f"{entries[indices][1]}", line_no)
        entries[indices] = (value, line_no, len(raw) - len(raw.split("=", 1)[1].lstrip()))

        if key in ("m", "n"):
            if not _UINT_RE.fullmatch(value):
                raise AlgebraFileError(f"{key} must be a non-negative integer", line_no)
            number = _uint(value, key, line_no)
            if key == "m":
                m = number
            elif number == 0:
                raise AlgebraFileError("n must be at least 1: rank 0 has nothing to check",
                                       line_no)
            else:
                n = number
        elif key == "expect_nonflat":
            if value not in ("true", "false"):
                raise AlgebraFileError("expect_nonflat must be true or false", line_no)
            expect_nonflat = value == "true"
        elif key == "suites":
            suites = tuple(s.strip() for s in value.split(",") if s.strip())
            if not suites:  # run_suite would read () as unset and run every suite
                raise AlgebraFileError("suites must name at least one suite; "
                                       f"choose from {', '.join(SUITE_NAMES)}", line_no)
            unknown = [_shorten(s) for s in suites if s not in SUITE_NAMES]
            if unknown:
                raise AlgebraFileError(f"unknown suite(s): {', '.join(unknown)}; "
                                       f"choose from {', '.join(SUITE_NAMES)}", line_no)

    if m is None or n is None:
        raise AlgebraFileError("file must set both m and n")

    def walk(key: str, in_range: Callable[..., bool],
             bound: str) -> Iterator[tuple[tuple[int, ...], PolyElement]]:
        """The 0-based indices and parsed polynomial of each `key` entry; an
        entry whose 1-based indices fail `in_range` is rejected with `bound`."""
        for indices, (value, line_no, column) in located[key].items():
            if not in_range(*indices):
                label = key + "".join(f"[{i}]" for i in indices)
                raise AlgebraFileError(f"{label} {bound}", line_no)
            try:
                poly = parse_poly(value, m)
            except PolyParseError as exc:
                raise AlgebraFileError(exc.message, line_no, column + exc.column + 1) from exc
            yield tuple(i - 1 for i in indices), poly

    anchor_rows = [[PolyElement.zero(m) for _ in range(m)] for _ in range(n)]
    for (i, j), poly in walk("anchor", lambda i, j: 1 <= i <= n and 1 <= j <= m,
                             f"out of range for n={n}, m={m}"):
        anchor_rows[i][j] = poly

    structure: dict[tuple[int, int], list[PolyElement]] = {}
    for (i, j, k), poly in walk("c", lambda i, j, k: 1 <= i < j <= n and 1 <= k <= n,
                                f"needs 1 <= i < j <= n and 1 <= k <= n (n={n})"):
        structure.setdefault((i, j), [PolyElement.zero(m) for _ in range(n)])[k] = poly

    name = located["name"].get((), ("",))[0]
    algebra = LieRinehartAlgebra(
        m=m, n=n,
        anchor=tuple(DerivationOfA(tuple(row)) for row in anchor_rows),
        structure={key: LElement(tuple(row)) for key, row in structure.items() if any(row)},
        name=name or Path(source).stem)

    violations = algebra.verify_axioms()
    if violations:
        raise AlgebraFileError("axioms fail: " + "; ".join(str(v) for v in violations))

    gamma_line, r_line = located["gamma"].get(()), located["r"].get(())
    gamma = TopConnection(_parse_vector(m, n, "gamma", *gamma_line)) if gamma_line else None
    r = RightConnectionOnA(_parse_vector(m, n, "r", *r_line)) if r_line else None

    if gamma is not None and r is not None:
        if right_from_top(algebra, gamma).r != r.r:
            raise AlgebraFileError("gamma and r are both given but do not correspond",
                                   max(gamma_line[1], r_line[1]))

    big_gamma = None
    if located["Gamma"]:
        table = [[[PolyElement.zero(m) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for (i, j, k), poly in walk("Gamma", lambda *idx: all(1 <= i <= n for i in idx),
                                    f"out of range (n={n})"):
            table[i][j][k] = poly
        big_gamma = LeftConnectionOnL(tuple(tuple(LElement(tuple(table[i][j]))
                                                  for j in range(n))
                                            for i in range(n)))

    return LoadedAlgebra(algebra=algebra, gamma=gamma, r=r, Gamma=big_gamma,
                         expect_nonflat=expect_nonflat, suites=suites, source=source)
