"""Seeded random data for the exact identity checks.

Every identity in this package is polynomial, so evaluating it on a
modest number of random sparse polynomials (bounded degree, bounded
integer coefficients) gives a high-confidence exact check while staying
fast.  All sampling is driven by `random.Random` seeded from strings, so
a run is reproducible from (seed, check name) alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .algebra import LElement
from .exterior import Multivector
from .poly import PolyElement


@dataclass(frozen=True)
class SampleConfig:
    """Bounds for randomized polynomial data."""

    degree_bound: int = 3
    coeff_min: int = -9
    coeff_max: int = 9
    max_terms: int = 3


def check_rng(seed: int, label: str) -> random.Random:
    """Independent deterministic stream per (seed, check label)."""
    return random.Random(f"{seed}:{label}")


def random_poly(rng: random.Random, m: int, config: SampleConfig = SampleConfig()) -> PolyElement:
    terms = []
    for _ in range(rng.randint(1, config.max_terms)):
        exps = [0] * m
        if m:
            for _ in range(rng.randint(0, config.degree_bound)):
                exps[rng.randrange(m)] += 1
        terms.append((tuple(exps), rng.randint(config.coeff_min, config.coeff_max)))
    return PolyElement(m, terms)


def random_poly_vector(rng: random.Random, m: int, length: int,
                       config: SampleConfig = SampleConfig()) -> tuple[PolyElement, ...]:
    return tuple(random_poly(rng, m, config) for _ in range(length))


def random_lelement(rng: random.Random, alg, config: SampleConfig = SampleConfig()) -> LElement:
    return LElement(random_poly_vector(rng, alg.m, alg.n, config))


def random_multivector(rng: random.Random, alg, degree: int | None = None,
                       config: SampleConfig = SampleConfig()) -> Multivector:
    """Random multivector; homogeneous when a degree is given, mixed otherwise."""
    n = alg.n
    degrees = [degree] if degree is not None else list(range(n + 1))
    terms = []
    for p in degrees:
        for key in combinations(range(n), p):
            if degree is None and rng.random() < 0.5:
                continue
            terms.append((key, random_poly(rng, alg.m, config)))
    return Multivector(n, terms)


def random_christoffel(rng: random.Random, alg, config: SampleConfig = SampleConfig()):
    """Random full Christoffel table for a connection on L."""
    return tuple(tuple(random_lelement(rng, alg, config) for _ in range(alg.n))
                 for _ in range(alg.n))
