"""Seeded random data for the exact identity checks.

Every identity in this package is polynomial, so evaluating it on a
modest number of random sparse polynomials (at most MAX_TERMS terms of
degree at most `degree_bound`, integer coefficients in
[COEFF_MIN, COEFF_MAX]) gives a high-confidence exact check while
staying fast.  All sampling is driven by `random.Random` seeded from
strings, so a run is reproducible from (seed, check name) alone.

`random_poly` draws through `rng.getrandbits` exactly as `randint` and
`randrange` do (the same code in CPython 3.10 to 3.13), and builds the
monomial keys of `bvcalc.poly` from `monomial_steps`.  In
`tests/test_sampling.py`, `test_random_poly_is_the_constructor_on_the_same_draws`
pins that: it draws through `randint` and `randrange` into the public
`PolyElement` constructor and asks for the same terms, the same text and
the same generator state after every call.  The tests before it pin the
streams to literals.
"""

from __future__ import annotations

import random
from itertools import combinations

from .algebra import LElement
from .exterior import Multivector
from .poly import PolyElement, monomial_steps

COEFF_MIN, COEFF_MAX = -9, 9
MAX_TERMS = 3


def check_rng(seed: int, label: str) -> random.Random:
    """Independent deterministic stream per (seed, check label)."""
    return random.Random(f"{seed}:{label}")


def check_draw_arguments(trials: int, degree_bound: int) -> None:
    """Reject a trial count below 1 or a degree bound below 0, naming the argument."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if degree_bound < 0:
        raise ValueError(f"degree_bound must be at least 0, got {degree_bound}")


def _below(getrandbits, n: int) -> int:
    # `Random._randbelow_with_getrandbits`, which `randrange` and `randint` call
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_poly(rng: random.Random, m: int, degree_bound: int = 3) -> PolyElement:
    """Draws merged by monomial, zeros dropped, in the kernel's term order.

    That is what `PolyElement(m, draws)` makes of the same draws, without
    its checks on exponents and coefficients, which these draws pass: a
    term draws its count of variable factors from randint(0, degree_bound),
    each factor from randrange(m), then its coefficient.
    """
    if degree_bound < 0:
        raise ValueError(f"degree_bound must be at least 0, got {degree_bound}")
    getrandbits = rng.getrandbits
    steps = monomial_steps(m)
    acc: dict[int, int] = {}
    for _ in range(1 + _below(getrandbits, MAX_TERMS)):
        key = 0
        if m:
            for _ in range(_below(getrandbits, degree_bound + 1)):
                key += steps[_below(getrandbits, m)]
        acc[key] = acc.get(key, 0) + COEFF_MIN + _below(getrandbits, COEFF_MAX - COEFF_MIN + 1)
    return PolyElement._make(m, dict(sorted(((k, c) for k, c in acc.items() if c), reverse=True)))


def random_poly_vector(rng: random.Random, m: int, length: int,
                       degree_bound: int = 3) -> tuple[PolyElement, ...]:
    return tuple(random_poly(rng, m, degree_bound) for _ in range(length))


def random_lelement(rng: random.Random, alg, degree_bound: int = 3) -> LElement:
    return LElement(random_poly_vector(rng, alg.m, alg.n, degree_bound))


def random_multivector(rng: random.Random, alg, degree_bound: int = 3) -> Multivector:
    """Random mixed multivector: each basis subset is kept with probability 1/2."""
    n = alg.n
    terms = []
    for p in range(n + 1):
        for key in combinations(range(n), p):
            if rng.random() < 0.5:
                continue
            terms.append((key, random_poly(rng, alg.m, degree_bound)))
    return Multivector(n, terms)


def random_christoffel(rng: random.Random, alg, degree_bound: int = 3):
    """Random full Christoffel table for a connection on L."""
    return tuple(tuple(random_lelement(rng, alg, degree_bound) for _ in range(alg.n))
                 for _ in range(alg.n))
