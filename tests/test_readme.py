"""The README's library tour runs as written, and its comments hold."""

import re
from pathlib import Path

from bvcalc import (
    Multivector,
    PolyElement,
    check_generator_duality,
    homology_dims,
    phi_map,
    rinehart_complex,
    trace_endo,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_and_gives_its_commented_values():
    tour = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    names = {}
    exec(compile(tour, str(README), "exec"), names)
    alg, D = names["alg"], names["D"]
    minus_one = Multivector.scalar(2, PolyElement.const(2, -1))
    assert D(Multivector(2, [((0,), names["x"])])) == minus_one
    assert check_generator_duality(alg, D, names["gamma"]) == (True, None)
    e1 = alg.basis_l(0)
    assert trace_endo(phi_map(alg, names["conn"], e1)) \
        == D(Multivector.from_lelement(e1)).component((), alg.m)
    assert homology_dims(rinehart_complex(names["sl2"], names["gen"])) == (1, 0, 0, 1)
