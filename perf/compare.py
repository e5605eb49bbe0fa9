"""Compare two result files of ``perf/run.py``: ``compare.py A.json B.json``.

For every workload and end-to-end metric it prints both medians, the ratio
B/A with its base A, the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  it is not, but the run-to-run spread of A or B (distance
  between the quartiles over the median) is wider than the bound, and not
  every run of B reads better than every run of A, so "unchanged" cannot be
  claimed;
* ``ok``          otherwise.

Exits non-zero on any ``worse``, on a higher share of failed operations in B,
or when B holds an incorrect run.
"""

from __future__ import annotations

import json
import statistics
import sys

import common


def untraced(result: dict, workload: str) -> list[dict]:
    return [r for r in result["workloads"].get(workload, {}).get("runs", []) if not r["trace"]]


def values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs]


def spread(vals: list[float]) -> float:
    """Interquartile distance over the median; 0 with fewer than two runs."""
    if len(vals) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / q2


def failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    if worse_by > bound:
        return "worse", worse_by
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved", worse_by
    return "ok", worse_by


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    spec = common.load_spec()
    with open(argv[1], encoding="utf-8") as fh:
        result_a = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        result_b = json.load(fh)
    status = 0
    print(f"A = {argv[1]} ({result_a['provenance']['git_sha'][:12]}, "
          f"{result_a['provenance']['date']})")
    print(f"B = {argv[2]} ({result_b['provenance']['git_sha'][:12]}, "
          f"{result_b['provenance']['date']})")
    print(f"{'workload':20s} {'metric':15s} {'A median':>11s} {'B median':>11s} "
          f"{'B/A':>7s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = untraced(result_a, workload), untraced(result_b, workload)
        if not runs_a or not runs_b:
            print(f"{workload:20s} missing from {'A' if not runs_a else 'B'}")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            a, b = values(runs_a, metric["name"]), values(runs_b, metric["name"])
            word, _ = verdict(a, b, metric["better"], metric["bound"])
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:20s} {metric['name']:15s} {med_a:11.5g} {med_b:11.5g} "
                  f"{med_b / med_a:7.3f} {spread(a):8.3f} {spread(b):8.3f} "
                  f"{metric['bound']:6.2f}  {word} ({metric['unit']}, {metric['better']} is "
                  f"better, base A={med_a:.5g}, n={len(a)}/{len(b)})")
            status |= word == "worse"
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        incorrect = sum(1 for r in runs_b if not r["correct"])
        word = "worse" if share_b > share_a or incorrect else "ok"
        print(f"{workload:20s} {'failed_share':15s} {share_a:11.5g} {share_b:11.5g} "
              f"{'':7s} {'':8s} {'':8s} {'0':>6s}  {word} ({incorrect} incorrect run(s) in B)")
        status |= word == "worse"
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
