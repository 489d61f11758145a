#!/usr/bin/env python3
"""Benchmark of the `bvcalc` CLI: three workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is the checkout's own
`src/bvcalc`.  Workloads (each is one pass over a list of invocations):

  catalog      `check NAME --format machine` on the 9 bundled algebras at
               the default 32 trials; random polynomials, so `poly` and
               `fractions` dominate; includes the expected-fail entry.
  ground-rank  `check FILE --trials 4` on generated abelian-6 and book-5
               (m = 0): the 4^n basis-pair loops of `exterior`, `algebra`
               and `bv` on constant coefficients.
  betti        `homology FILE` on generated heisenberg-7, filiform-7, book-7
               and abelian-8: boundary matrices and exact linear algebra.

Invocations run one at a time from this process (a closed loop with one
client).  The seed reaches the program only as `--seed` (pass k of a run
uses seed*1000 + k) and through the generated `.alg` inputs.

With `--trace 0` the run repeats passes until `--seconds` have elapsed
and reports the median pass:
  wall_s       wall time of the pass's invocations, each from start to exit
  cpu_s        user + system CPU time of the pass's child processes
  setup_s      per invocation, interpreter launch through `import bvcalc.cli`
               and `algfile.load`, summed over a pass (median of one repeat
               before each pass, and at least 5 repeats)
  peak_rss_mb  largest maximum RSS of any child process in the pass
With `--trace 1` it runs one plain pass and one pass under cProfile and
reports the per-layer metrics of `layers.py` plus trace.overhead (traced
wall / plain wall).  `--seconds` does not apply to a traced run.

wall_s and cpu_s are given at reference speed.  A shared virtual machine
can switch between speed regimes every few seconds (on a 2-vCPU VM the
same pure-Python loop took 0.07 s or 0.11 s), which moved whole runs by up
to 40%.  So this process times a fixed reference loop before and
after each invocation, and once a second during it while the invocation
is stopped (SIGSTOP/SIGCONT; the pauses are not counted), and scales the
invocation's times by REFERENCE_S over the mean of those timings.  The
loop is the benchmark's own code, so a change to `bvcalc` moves the
scaled times as much as the raw ones.  The raw times are printed and kept
in the run record.  setup_s is raw: the start-up it measures did not
follow the reference loop.

Every output is checked by `oracle.py`.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the exit
code is 1 when an operation failed and 2 when the program is missing.
Records, profiles and report hashes are kept under perfbench/.work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import pstats
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import layers
import oracle

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

SETUP_REPEATS = 5
REFERENCE_LOOP = 700_000
REFERENCE_S = 0.06  # seconds the reference loop takes at reference speed
SAMPLE_EVERY_S = 1.0  # a running invocation is paused this often to time the reference loop
PASS_SEED_STRIDE = 1000  # pass k of the run with seed s gives bvcalc --seed s*1000 + k
INVOCATION_TIMEOUT_S = 150

# name -> (reference Betti numbers, or None where homology is skipped; non-flat)
CATALOG = {
    "abelian-dim2": (oracle.abelian_betti(2), False),
    "coordinate-2d": (None, False),
    "coordinate-3d": (None, False),
    "heisenberg-dim3": (oracle.heisenberg_betti(3), False),
    "nonabelian-dim2": (oracle.PINNED_BETTI["nonabelian-dim2"], False),
    "nonabelian-dim2-nonflat": (None, True),
    "poisson-linear-2d": (None, False),
    "poisson-symplectic-2d": (None, False),
    "sl2": (oracle.PINNED_BETTI["sl2"], False),
}
GROUND_RANK = ("abelian-6", "book-5")
BETTI = ("heisenberg-7", "filiform-7", "book-7", "abelian-8")
WORKLOADS = ("catalog", "ground-rank", "betti")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Invocation:
    label: str  # algebra name, unique within a workload
    source: str  # catalog name, or an input path relative to ROOT
    args: tuple[str, ...]  # bvcalc arguments without --seed
    expect: oracle.Expect


@dataclass
class Pass:
    wall: float = 0.0  # at reference speed
    cpu: float = 0.0  # at reference speed
    raw_wall: float = 0.0
    raw_cpu: float = 0.0
    rss_mb: float = 0.0
    invocation_wall: dict[str, float] = field(default_factory=dict)  # raw
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    report_sha256: dict[str, str] = field(default_factory=dict)


def build(workload: str, seed: int) -> tuple[list[Invocation], dict[str, str]]:
    """The workload's invocations and the sha256 of every input they read."""
    if workload == "catalog":
        catalog_dir = SRC / "bvcalc" / "catalog"
        hashes = {name: _sha256((catalog_dir / f"{name}.alg").read_bytes()) for name in CATALOG}
        return [Invocation(name, name, ("check", name, "--format", "machine"),
                           oracle.check_expect(betti, nonflat))
                for name, (betti, nonflat) in CATALOG.items()], hashes
    directory = WORK / "inputs" / f"{workload}-seed{seed}"
    invocations, hashes = [], {}
    for name in GROUND_RANK if workload == "ground-rank" else BETTI:
        path, hashes[name] = inputs.write_input(directory, name, seed)
        source = path.relative_to(ROOT).as_posix()
        if workload == "ground-rank":
            invocations.append(Invocation(name, source,
                                          ("check", source, "--trials", "4", "--format", "machine"),
                                          oracle.check_expect(oracle.expected_betti(name))))
        else:
            invocations.append(Invocation(name, source, ("homology", source, "--format", "machine"),
                                          oracle.homology_expect(oracle.expected_betti(name))))
    return invocations, hashes


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # set and dict order, hence call counts, repeat exactly
    return env


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    started: float
    wall: float  # excludes the pauses for reference timings
    cpu: float
    rss_mb: float
    references: list[float]  # reference-loop times taken while the child was paused


def spawn(argv: list[str], sample: bool = False) -> Child:
    """Run one child to completion; resource usage comes from wait4.

    With `sample`, the child is stopped every SAMPLE_EVERY_S seconds while
    this process times the reference loop, so that the speed of the host
    is known through long invocations too; nothing else runs meanwhile.
    """
    scratch = WORK / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    with open(scratch / "stdout", "w+b") as out, open(scratch / "stderr", "w+b") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        references, paused, ended = [], 0.0, None
        try:
            interval = SAMPLE_EVERY_S if sample else INVOCATION_TIMEOUT_S
            while not select.select([pidfd], [], [], interval)[0]:
                if time.monotonic() - started > INVOCATION_TIMEOUT_S:
                    proc.kill()
                    break
                if not sample:
                    continue
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):  # it exited before the stop arrived
                    ended = status, usage
                    break
                pause_start = time.monotonic()
                references.append(reference_time())
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.monotonic() - pause_start
            status, usage = ended or os.wait4(proc.pid, 0)[1:]
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.monotonic() - started - paused
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(code=proc.returncode,
                     stdout=out.read().decode("utf-8", "replace"),
                     stderr=err.read().decode("utf-8", "replace"),
                     started=started, wall=wall,
                     cpu=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss / 1024,
                     references=references)


def reference_time() -> float:
    """Wall time of a fixed pure-Python loop in this process."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - started


def speed_scale(references: list[float]) -> float:
    """Factor that takes a time measured among these reference timings to reference speed."""
    return REFERENCE_S / statistics.mean(references)


def setup_time(source: str) -> float:
    child = spawn([sys.executable, str(CHILD), "setup", source])
    if child.code != 0:
        raise RuntimeError(f"set-up of {source} failed:\n{child.stderr}")
    return float(child.stdout.strip()) - child.started


def program_seed(seed: int, pass_index: int) -> int:
    return seed * PASS_SEED_STRIDE + pass_index


def run_pass(workload: str, invocations: list[Invocation], pseed: int,
             profile_dir: Path | None = None) -> Pass:
    result = Pass()
    sample = profile_dir is None  # a pause would be charged to the profiled function
    before = reference_time()
    for inv in invocations:
        args = [*inv.args, "--seed", str(pseed)]
        if profile_dir is None:
            argv = [sys.executable, "-m", "bvcalc.cli", *args]
        else:
            argv = [sys.executable, str(CHILD), "profile", str(profile_dir / f"{inv.label}.prof"),
                    *args]
        child = spawn(argv, sample=sample)
        after = reference_time()
        scale = speed_scale([before, *child.references, after])
        before = after
        result.wall += child.wall * scale
        result.cpu += child.cpu * scale
        result.raw_wall += child.wall
        result.raw_cpu += child.cpu
        result.invocation_wall[inv.label] = child.wall
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        attempted, failed, problems = oracle.judge(inv.expect, child.code, child.stdout,
                                                   child.stderr)
        result.attempted += attempted
        result.failed += failed
        result.problems += [f"{inv.label} seed={pseed}: {p}" for p in problems]
        report = child.stdout.replace(f"{ROOT}{os.sep}", "")
        result.report_sha256[f"{workload}/{inv.label}/seed={pseed}"] = _sha256(report.encode())
    return result


def measure(workload: str, invocations: list[Invocation], seed: int,
            seconds: float) -> tuple[dict[str, float], dict[str, float], list[Pass]]:
    def setup_pass() -> float:
        return sum(setup_time(inv.source) for inv in invocations)

    # One set-up repeat before each pass, so that set-up is sampled across the run.
    setups: list[float] = []
    passes: list[Pass] = []
    started = time.monotonic()
    while not passes or time.monotonic() - started < seconds:
        setups.append(setup_pass())
        passes.append(run_pass(workload, invocations, program_seed(seed, len(passes))))
    setups += [setup_pass() for _ in range(SETUP_REPEATS - len(setups))]
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    raw = {
        "wall_s": statistics.median(p.raw_wall for p in passes),
        "cpu_s": statistics.median(p.raw_cpu for p in passes),
    }
    return metrics, raw, passes


def trace(workload: str, invocations: list[Invocation],
          seed: int) -> tuple[dict[str, float], dict[str, float], list[Pass]]:
    profile_dir = WORK / "profiles" / f"{workload}-seed{seed}"
    shutil.rmtree(profile_dir, ignore_errors=True)
    profile_dir.mkdir(parents=True)
    plain = run_pass(workload, invocations, program_seed(seed, 0))
    traced = run_pass(workload, invocations, program_seed(seed, 0), profile_dir=profile_dir)
    files = sorted(str(p) for p in profile_dir.glob("*.prof"))
    metrics = dict.fromkeys(layers.metric_names(), 0.0)
    if files:
        stats = pstats.Stats(*files)
        stats.dump_stats(str(profile_dir / "all.pstats"))
        program = json.loads(Path(files[0] + ".json").read_text(encoding="utf-8"))
        metrics.update(layers.attribute(stats.stats, program))
    metrics["trace.overhead"] = traced.raw_wall / plain.raw_wall
    return metrics, {}, [plain, traced]


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            commit = done.stdout.strip() or commit
        except OSError:  # git is not installed
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bvcalc").rglob("*")):
        if path.suffix in (".py", ".alg"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def compare_report_hashes(current: dict[str, str]) -> dict[str, list[str]]:
    """Compare report hashes with earlier runs in this checkout and with the baseline.

    A changed hash is reported, not counted as a failure: a report's
    details may change on purpose while every verdict stays the same.
    """
    registry_path = WORK / "report-hashes.json"
    registry = json.loads(registry_path.read_text()) if registry_path.exists() else {}
    baseline_path = BENCH / "baseline.json"
    baseline = (json.loads(baseline_path.read_text()).get("report_sha256", {})
                if baseline_path.exists() else {})
    changed = {"vs_earlier_runs": [], "vs_baseline": []}
    for key, sha in current.items():
        if registry.get(key, sha) != sha:
            changed["vs_earlier_runs"].append(key)
        if baseline.get(key, sha) != sha:
            changed["vs_baseline"].append(key)
        registry.setdefault(key, sha)
    registry_path.write_text(json.dumps(registry, indent=0, sort_keys=True))
    return changed


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return {"calls": "count", "self_s": "s", "cum_s": "s", "overhead": "ratio"}[
        name.rsplit(".", 1)[1]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn(), which kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "bvcalc" / "cli.py").is_file():
        print(f"error: no bvcalc sources under {SRC}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    invocations, input_sha256 = build(args.workload, args.seed)
    for inv in invocations:  # warm-up: byte-compile the program, fill the page cache
        setup_time(inv.source)
    if args.trace:
        metrics, raw, passes = trace(args.workload, invocations, args.seed)
    else:
        metrics, raw, passes = measure(args.workload, invocations, args.seed, args.seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    report_sha256 = {k: v for p in passes for k, v in p.report_sha256.items()}
    changed = compare_report_hashes(report_sha256)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "raw_metrics": raw,
        "raw_pass_wall_s": [p.raw_wall for p in passes],
        "invocation_wall_s": {inv.label: [p.invocation_wall[inv.label] for p in passes]
                              for inv in invocations},
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted, "problems": [q for p in passes for q in p.problems],
        "environment": {**environment(), "loadavg_before": load_before,
                        "loadavg_after": os.getloadavg()},
        "input_sha256": input_sha256, "report_sha256": report_sha256,
        "report_hash_changes": changed,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
     ).write_text(json.dumps(record, indent=1))

    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for kind, keys in changed.items():
        if keys:
            print(f"note: {len(keys)} report hash(es) changed {kind.replace('_', ' ')}: "
                  + ", ".join(keys[:5]))
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"environment={json.dumps(record['environment'])}")
    for name, value in metrics.items():
        line = f"  {name:45s} {value:.6g} {unit_of(name)}"
        print(line + (f"  (raw {raw[name]:.6g})" if name in raw else ""))
    print(f"  {'failed_share':45s} {record['failed_share']:.6g} share "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
