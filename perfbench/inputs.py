"""Generated `.alg` inputs: ground-field Lie algebras from four families.

Each family is given by integer structure constants on a basis
e_1..e_n.  The workload seed permutes that basis and flips the signs of
some basis vectors before the file is written, so every seed gives a
different file for an isomorphic algebra: the Betti numbers, the
verdicts and (up to ordering) the cost stay the same.  `bvcalc` loads
the file exactly as it loads a user file, which validates the axioms.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

Constants = dict[tuple[int, int, int], int]  # (i, j, k) -> c, [e_i, e_j] = c e_k, 1-based, i < j


def abelian(n: int) -> Constants:
    return {}


def book(n: int) -> Constants:
    """[e_i, e_n] = e_i for i < n: solvable, not unimodular."""
    return {(i, n, i): 1 for i in range(1, n)}


def filiform(n: int) -> Constants:
    """[e_1, e_i] = e_{i+1} for 2 <= i < n."""
    return {(1, i, i + 1): 1 for i in range(2, n)}


def heisenberg(n: int) -> Constants:
    """[e_i, e_{i+k}] = e_n for i <= k, where n = 2k + 1."""
    if n % 2 == 0:
        raise ValueError(f"the Heisenberg algebra has odd rank, got {n}")
    k = (n - 1) // 2
    return {(i, i + k, n): 1 for i in range(1, k + 1)}


FAMILIES = {"abelian": abelian, "book": book, "filiform": filiform, "heisenberg": heisenberg}


def split_name(name: str) -> tuple[str, int]:
    """'heisenberg-7' -> ('heisenberg', 7)."""
    family, _, rank = name.rpartition("-")
    return family, int(rank)


def reindexed(constants: Constants, n: int, rng: random.Random) -> Constants:
    """The same algebra on the basis f_{perm(i)} = sign_i e_i."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    out: Constants = {}
    for (i, j, k), c in constants.items():
        a, b = perm[i - 1], perm[j - 1]
        value = c * sign[i - 1] * sign[j - 1] * sign[k - 1]
        if a > b:
            a, b, value = b, a, -value
        out[(a, b, perm[k - 1])] = value
    return out


def render(name: str, n: int, constants: Constants) -> str:
    lines = [f"# generated input: {name}", f"name = {name}", "m = 0", f"n = {n}"]
    lines += [f"c[{i}][{j}][{k}] = {c}" for (i, j, k), c in sorted(constants.items())]
    return "\n".join(lines) + "\n"


def algebra_text(name: str, seed: int) -> str:
    family, n = split_name(name)
    rng = random.Random(f"{name}:{seed}")
    return render(name, n, reindexed(FAMILIES[family](n), n, rng))


def write_input(directory: Path, name: str, seed: int) -> tuple[Path, str]:
    """Write the seeded file for `name`; return its path and sha256."""
    text = algebra_text(name, seed)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.alg"
    path.write_text(text, encoding="utf-8")
    return path, hashlib.sha256(text.encode("utf-8")).hexdigest()
