#!/usr/bin/env python3
"""Write perfbench/baseline.json from the run records in perfbench/.work/results.

    python3 perfbench/baseline.py

Only records of the program version (source_sha256) that the newest
record measured are used.  For each workload it keeps the median and
quartiles of every end-to-end metric over the untraced runs, the
per-layer metrics of the traced run with the lowest seed, and the report
hash of the first pass of every run, which `run.py` compares against.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from run import PASS_SEED_STRIDE

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / ".work" / "results"


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"),
                                                         key=lambda p: p.stat().st_mtime)]
    if not records:
        raise SystemExit(f"no run records under {RESULTS}")
    environment = records[-1]["environment"]
    source = environment["source_sha256"]
    records = [r for r in records if r["environment"]["source_sha256"] == source]

    end_to_end, per_layer, report_sha256 = {}, {}, {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        plain = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = sorted((r for r in records if r["workload"] == workload and r["trace"]),
                        key=lambda r: r["seed"])
        if plain:
            end_to_end[workload] = {"runs": len(plain), "seeds": sorted(r["seed"] for r in plain)}
            for name in plain[0]["metrics"]:
                values = [r["metrics"][name] for r in plain]
                q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                                  else [values[0]] * 3)
                end_to_end[workload][name] = {"median": median, "q1": q1, "q3": q3}
        if traced:
            per_layer[workload] = {"seed": traced[0]["seed"], **traced[0]["metrics"]}
        for r in plain + traced:
            report_sha256.update({k: v for k, v in r["report_sha256"].items()
                                  if int(k.rsplit("=", 1)[1]) % PASS_SEED_STRIDE == 0})

    baseline = {
        "environment": {k: environment[k] for k in ("commit", "source_sha256", "python", "nproc")},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "report_sha256": dict(sorted(report_sha256.items())),
    }
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
