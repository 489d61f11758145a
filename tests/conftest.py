import importlib.util
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from bvcalc.algebra import LElement, LieRinehartAlgebra
from bvcalc.algfile import loads
from bvcalc.catalog import CATALOG_NAMES, load_catalog
from bvcalc.exterior import Multivector
from bvcalc.poly import PolyElement

settings.register_profile(
    "exact",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=40,
)
settings.load_profile("exact")

# heisenberg-dim3 extended by e4 and a non-unimodular e5 acting by
# ad(e5) = -diag(1, 1, 2, 1): [e1, e2] = e3, [e_i, e5] = lambda_i e_i
RANK5 = LieRinehartAlgebra.from_structure_constants(5, {
    (0, 1): (0, 0, 1, 0, 0),
    (0, 4): (1, 0, 0, 0, 0),
    (1, 4): (0, 1, 0, 0, 0),
    (2, 4): (0, 0, 2, 0, 0),
    (3, 4): (0, 0, 0, 1, 0),
}, name="rank5")


# the start of every `bv.certify_every_connection` witness: the failing direction i
# (1..n for the diagonal) and the subset R
CERTIFICATE_WITNESS = re.compile(r"i=\d+(\.\.\d+)? R=e\{[\d,]*\}: ")

# out-of-range arguments of a randomized check, each with its ValueError message
BAD_DRAW_ARGUMENTS = [
    ({"trials": 0}, "trials must be at least 1, got 0"),
    ({"trials": -3}, "trials must be at least 1, got -3"),
    ({"degree_bound": -1}, "degree_bound must be at least 0, got -1"),
]


def exponent_vectors(m: int, max_degree: int = 3):
    return st.lists(st.integers(min_value=0, max_value=max_degree), min_size=m, max_size=m) \
        .filter(lambda exps: sum(exps) <= max_degree).map(tuple)


def polys(m: int, max_degree: int = 3, max_terms: int = 4):
    coeffs = st.integers(min_value=-9, max_value=9)
    term = st.tuples(exponent_vectors(m, max_degree), coeffs)
    return st.lists(term, max_size=max_terms).map(lambda terms: PolyElement(m, terms))


def fresh_copy(alg: LieRinehartAlgebra) -> LieRinehartAlgebra:
    """The same algebra with new, empty caches."""
    return LieRinehartAlgebra(alg.m, alg.n, alg.anchor, alg.structure, alg.name)


def lelements(alg: LieRinehartAlgebra, max_degree: int = 2, max_terms: int = 2):
    return st.tuples(*[polys(alg.m, max_degree, max_terms) for _ in range(alg.n)]) \
        .map(lambda cs: LElement(tuple(cs)))


def multivectors(n: int, m: int, max_degree: int = 2, max_terms: int = 2):
    key = st.lists(st.integers(min_value=0, max_value=n - 1), unique=True, max_size=n) \
        .map(lambda ids: tuple(sorted(ids)))
    term = st.tuples(key, polys(m, max_degree, max_terms))
    return st.lists(term, max_size=3).map(lambda terms: Multivector(n, terms))


@pytest.fixture(scope="session")
def catalog():
    return {name: load_catalog(name) for name in CATALOG_NAMES}


@pytest.fixture(scope="session")
def coordinate_2d(catalog):
    return catalog["coordinate-2d"].algebra


@pytest.fixture(scope="session")
def nonabelian_dim2(catalog):
    return catalog["nonabelian-dim2"].algebra


@pytest.fixture(scope="session")
def sl2(catalog):
    return catalog["sl2"].algebra


def load_generated(name, seed=0):
    """The `perfbench/inputs.py` file for `name` at `seed`, loaded as a user file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return loads(inputs.algebra_text(name, seed))
