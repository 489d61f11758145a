"""Correctness oracle for the benchmark; it imports nothing from `bvcalc`.

An operation is one `check=` line of a `check` report or one Betti
vector of a `homology` report.  It fails when its status or Betti
numbers differ from the reference, when the exit code is not the
expected one, or when a traceback appears.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

from inputs import split_name

PASS, EXPECTED_FAIL, SKIP = "pass", "expected-fail", "skip"

# The checks of one `bvcalc check` report, in report order.
SUITE_CHECKS = (
    "axioms.structure",
    "generator.identity",
    "generator.random-connections",
    "generator.flatness-coherence",
    "generator.square-zero",
    "bijections.right-roundtrips",
    "bijections.top-cycles",
    "duality.matched-pair",
    "duality.perturbed-detected",
    "bracket-expansion.pairing-identity",
    "linear-connection.trace-identity",
    "linear-connection.torsionfree-lift",
    "linear-connection.divergence-identity",
)
HOMOLOGY_CHECKS = ("homology.d-squared", "homology.euler", "homology.betti")

# Betti numbers with no closed form here, pinned from the seed commit
# (sl2 and nonabelian-dim2 are also the values the README documents).
PINNED_BETTI = {
    "nonabelian-dim2": (0, 1, 1),
    "sl2": (1, 0, 0, 1),
    "book-5": (0, 0, 0, 0, 1, 1),
    "book-7": (0, 0, 0, 0, 0, 0, 1, 1),
    "filiform-7": (1, 2, 4, 6, 6, 4, 2, 1),
}


def abelian_betti(n: int) -> tuple[int, ...]:
    """Abelian rank n: every boundary vanishes, so b_p = C(n, p)."""
    return tuple(comb(n, p) for p in range(n + 1))


def heisenberg_betti(n: int) -> tuple[int, ...]:
    """Heisenberg rank 2k+1: b_p = C(2k, p) - C(2k, p-2) for p <= k, mirrored."""
    k = (n - 1) // 2
    half = [comb(2 * k, p) - (comb(2 * k, p - 2) if p >= 2 else 0) for p in range(k + 1)]
    return tuple(half + half[::-1])


def expected_betti(name: str) -> tuple[int, ...]:
    """Reference Betti numbers of a generated input such as 'heisenberg-7'."""
    family, n = split_name(name)
    if family == "abelian":
        return abelian_betti(n)
    if family == "heisenberg":
        return heisenberg_betti(n)
    return PINNED_BETTI[name]


@dataclass(frozen=True)
class Expect:
    """Reference outcome of one invocation.

    `checks` maps each check of a `check` report to its status and is
    None for a `homology` report; `betti` is None when homology is
    skipped.
    """

    checks: dict[str, str] | None
    betti: tuple[int, ...] | None
    exit_code: int = 0


def check_expect(betti: tuple[int, ...] | None, nonflat: bool = False) -> Expect:
    """Reference for `bvcalc check`: every check passes, with two exceptions.

    The square-zero check is an expected failure on a non-flat entry, and
    homology is one skipped check when it does not apply (m > 0 or a
    generator that does not square to zero).
    """
    checks = {name: PASS for name in SUITE_CHECKS}
    if nonflat:
        checks["generator.square-zero"] = EXPECTED_FAIL
    if betti is None:
        checks["homology.betti"] = SKIP
    else:
        checks.update({name: PASS for name in HOMOLOGY_CHECKS})
    return Expect(checks=checks, betti=betti)


def homology_expect(betti: tuple[int, ...]) -> Expect:
    return Expect(checks=None, betti=betti)


_CHECK_RE = re.compile(r'^check=(\S+) status=(\S+)(?: detail="([^"]*)")?')
_BETTI_RE = re.compile(r"betti=([0-9,]+)")


def _betti(text: str | None) -> tuple[int, ...] | None:
    match = _BETTI_RE.search(text or "")
    return tuple(int(b) for b in match.group(1).split(",")) if match else None


def judge(expect: Expect, exit_code: int, stdout: str, stderr: str) -> tuple[int, int, list[str]]:
    """Compare one invocation's output with its reference.

    Returns (attempted, failed, problems).  A check line that is missing,
    repeated or not in the reference is a failed operation.
    """
    broken = []
    if exit_code != expect.exit_code:
        broken.append(f"exit code {exit_code}, expected {expect.exit_code}")
    if "Traceback (most recent call last)" in stderr:
        broken.append("traceback on stderr")

    if expect.checks is None:
        found = next((_betti(line) for line in stdout.splitlines()
                      if line.startswith("betti=")), None)
        problems = list(broken)
        if found != expect.betti:
            problems.append(f"betti {found}, expected {expect.betti}")
        return 1, int(bool(problems)), problems

    seen: dict[str, list[tuple[str, str | None]]] = {}
    for line in stdout.splitlines():
        match = _CHECK_RE.match(line)
        if match:
            seen.setdefault(match.group(1), []).append((match.group(2), match.group(3)))
    problems = []
    failed = 0
    for name, status in expect.checks.items():
        lines = seen.get(name, [])
        why = list(broken)
        if len(lines) != 1:
            why.append(f"{len(lines)} lines")
        elif lines[0][0] != status:
            why.append(f"status {lines[0][0]}, expected {status}")
        elif name == "homology.betti" and expect.betti is not None \
                and _betti(lines[0][1]) != expect.betti:
            why.append(f"betti {_betti(lines[0][1])}, expected {expect.betti}")
        if why:
            failed += 1
            problems.append(f"{name}: {'; '.join(why)}")
    extra = sorted(set(seen) - set(expect.checks))
    problems += [f"{name}: not in the reference" for name in extra]
    return len(expect.checks) + len(extra), failed + len(extra), problems
