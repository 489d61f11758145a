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

from .algebra import LElement
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


def coefficient_passes(m: int, trials: int, seed: int, label: str, degree_bound: int) -> list:
    """The passes of a randomized identity check, each a function giving its next coefficient.

    Every identity the package checks is Q-linear in each coefficient
    (Koszul 1985; Huebschmann 1999).  So at m = 0 one pass with every
    coefficient 1 decides it, and `trials`, `seed` and `degree_bound`
    make no difference.  At m > 0 there are `trials` passes of
    `random_poly(rng, m, degree_bound)` draws on the one stream
    `check_rng(seed, label)`.  `bv.is_generator` uses them there only as
    shape probes, after the passes on x_1, .., x_m that prove its identity
    for an operator of first order in the coefficient; for the duality
    and pairing checks of `bvcalc.correspond`, the only other callers, a
    passing check at m > 0 is evidence, not proof.
    `trials` below 1 or `degree_bound` below 0 raises ``ValueError`` at
    every m, before anything is drawn.
    """
    check_draw_arguments(trials, degree_bound)
    if not m:
        one = PolyElement.one(0)
        return [lambda: one]
    rng = check_rng(seed, label)
    return [lambda: random_poly(rng, m, degree_bound)] * trials


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


def random_christoffel(rng: random.Random, alg, degree_bound: int = 3):
    """Random full Christoffel table for a connection on L."""
    return tuple(tuple(random_lelement(rng, alg, degree_bound) for _ in range(alg.n))
                 for _ in range(alg.n))
