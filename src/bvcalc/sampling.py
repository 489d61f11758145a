"""Seeded random data for the exact identity checks.

Every identity in this package is polynomial, so evaluating it on a
modest number of random sparse polynomials (at most MAX_TERMS terms of
degree at most `degree_bound`, integer coefficients in
[COEFF_MIN, COEFF_MAX]) gives a high-confidence exact check while
staying fast.  All sampling is driven by `random.Random` seeded from
strings, so a run is reproducible from (seed, check name) alone.
"""

from __future__ import annotations

import random
from itertools import combinations

from .algebra import LElement
from .exterior import Multivector
from .poly import PolyElement, _term_order

COEFF_MIN, COEFF_MAX = -9, 9
MAX_TERMS = 3


def check_rng(seed: int, label: str) -> random.Random:
    """Independent deterministic stream per (seed, check label)."""
    return random.Random(f"{seed}:{label}")


def random_poly(rng: random.Random, m: int, degree_bound: int = 3) -> PolyElement:
    """Draws merged by exponent, zeros dropped, in the kernel's term order.

    That is what `PolyElement(m, draws)` makes of the same draws, without
    its checks on exponents and coefficients, which integer draws pass.
    """
    acc: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, MAX_TERMS)):
        exps = [0] * m
        if m:
            for _ in range(rng.randint(0, degree_bound)):
                exps[rng.randrange(m)] += 1
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + rng.randint(COEFF_MIN, COEFF_MAX)
    return PolyElement._make(m, dict(sorted(((e, c) for e, c in acc.items() if c),
                                            key=_term_order, reverse=True)))


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
