"""`ground.add_wedge`, the one signed-wedge accumulation loop, against a dense oracle.

The oracle sums acc + sign * c * (e_B ^ u) or (u ^ e_B) over every subset of
range(n) on index tuples, each sign from `exterior.merge_sign`, which shares
no code with `ground.wedge_sign`.
"""

from hypothesis import given
from hypothesis import strategies as st

from bvcalc.exterior import merge_sign
from bvcalc.ground import add_wedge
from bvcalc.poly import PolyElement

from conftest import polys


def indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def dense_add_wedge(n, acc, blade, u, blade_first, c, sign, zero):
    """acc + sign * c * (e_B ^ u) if blade_first, else acc + sign * c * (u ^ e_B),
    as a list indexed by every mask below 2^n."""
    out = [acc.get(mask, zero) for mask in range(1 << n)]
    for mask, value in u.items():
        w = merge_sign(indices(blade), indices(mask)) if blade_first else \
            merge_sign(indices(mask), indices(blade))
        if w:
            term = value if c is None else c * value
            out[blade | mask] = out[blade | mask] + term if w == sign else out[blade | mask] - term
    return out


def nonzero(kind):
    if kind == "int":
        return st.integers(min_value=-3, max_value=3).filter(bool)
    if kind == "fraction":
        return st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    return polys(1, max_degree=1, max_terms=2).filter(bool)


@st.composite
def wedge_cases(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    kind = draw(st.sampled_from(("int", "fraction", "poly")))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    u = draw(st.dictionaries(masks, nonzero(kind), max_size=6))
    acc = draw(st.dictionaries(masks, nonzero(kind), max_size=6))
    blade = draw(masks)
    blade_first = draw(st.booleans())
    c = draw(st.none() | nonzero(kind))
    sign = draw(st.sampled_from((1, -1)))
    zero = PolyElement.zero(1) if kind == "poly" else 0
    if draw(st.booleans()):  # make the first nonzero term cancel an entry of acc
        for mask, value in u.items():
            if not blade & mask:
                term = dense_add_wedge(n, {}, blade, {mask: value}, blade_first, c, sign, zero)
                acc[blade | mask] = -term[blade | mask]
                break
    return n, acc, blade, u, blade_first, c, sign, zero


@given(wedge_cases())
def test_add_wedge_matches_the_dense_sum_on_index_tuples(case):
    n, acc, blade, u, blade_first, c, sign, zero = case
    result = dict(acc)
    if blade_first:
        add_wedge(result, blade, u, c, sign)
    else:
        add_wedge(result, u, blade, c, sign)
    dense = dense_add_wedge(n, acc, blade, u, blade_first, c, sign, zero)
    expected = {mask: value for mask, value in enumerate(dense) if value}
    assert result == expected
    # the entries of acc keep their places, and new masks follow in the order of u
    new = [blade | mask for mask in u if not blade & mask and blade | mask not in acc]
    assert list(result) == [mask for mask in [*acc, *new] if mask in expected]

