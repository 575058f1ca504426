"""Compare two sets of untraced benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds result files that ``run.py --trace 0`` wrote (copy
``perfbench/out/*-trace0.json`` of each commit into its own directory). For
every workload and end-to-end metric of ``BENCHMARK.json`` it prints both
sides' median and quartiles and a verdict:

* ``better``: every head run beats every base run, or at least 9 in 10
  (base, head) pairs favour head, and in both cases the medians differ by
  more than the base runs' own quartile distance;
* ``unresolved``: otherwise, when either side's quartile distance is wider
  than the metric's bound, so the runs cannot tell;
* ``worse``: the head median is worse than the base median by more than
  the bound;
* ``within-bound``: none of the above: no worse than the bound allows,
  and no gain that the spread resolves.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("manifest", {}).get("trace") == 0:
            by_workload.setdefault(record["manifest"]["workload"], []).append(record["result"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    if len(base) < 2 or len(head) < 2:
        return "unresolved"
    worse_sign = 1.0 if better == "lower" else -1.0
    (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
    gap = abs(hm - bm) > b3 - b1
    head_wins = [worse_sign * (h - b) < 0 for b in base for h in head]
    if all(head_wins) and gap:
        return "better"
    if max((b3 - b1) / abs(bm), (h3 - h1) / abs(hm)) > bound:
        return "unresolved"
    if worse_sign * (hm - bm) / abs(bm) > bound:
        return "worse"
    if sum(head_wins) >= 0.9 * len(head_wins) and gap:
        return "better"
    return "within-bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(Path(argv[0])), load(Path(argv[1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"{'workload':16} {'metric':14} {'base q1/median/q3':>36} {'head q1/median/q3':>36} "
          f"{'change':>8}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, h_runs = base.get(workload, []), head.get(workload, [])
        if not b_runs or not h_runs:
            print(f"{workload:16} (no results on {'base' if not b_runs else 'head'} side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in b_runs]
            h = [r["metrics"][name]["value"] for r in h_runs]
            bq = quartiles(b) if len(b) > 1 else (b[0],) * 3
            hq = quartiles(h) if len(h) > 1 else (h[0],) * 3
            change = (hq[1] - bq[1]) / abs(bq[1])
            print(f"{workload:16} {name:14} {'%.4g / %.4g / %.4g' % bq:>36} {'%.4g / %.4g / %.4g' % hq:>36} "
                  f"{change:+8.2%}  {verdict(b, h, metric['better'], metric['bound'])}")
        for side, runs in (("base", b_runs), ("head", h_runs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print(f"{workload:16} {side}: {len(runs)} runs, {failed}/{attempted} operations failed, "
                  f"checks {'passed' if correct else 'FAILED'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
