#!/usr/bin/env python3
"""Compare benchmark trajectory points (root-level BENCH_*.json files).

    bench_compare.py POINT            the point's parent runs vs its change runs
    bench_compare.py OLD NEW          OLD's change runs vs NEW's change runs
    bench_compare.py --self-check POINT

For every workload it prints each end-to-end metric's median on both sides
and the relative delta of the medians, against that metric's bound in
BENCHMARK.json. It exits 1 when a delta is worse than its bound, or when the
newer side has an incorrect run or a larger share of failed operations.
Only untraced runs count (a traced run's numbers carry the tracing).

--self-check holds the comparison to three facts on POINT: a side compared
with itself moves nothing and passes; each metric moved past its bound in
the bad direction fails; and the same move in the good direction passes.
"""

import copy
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent / "BENCHMARK.json"


def bounds():
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def side(point, which):
    """Untraced runs of one side, by workload."""
    out = {}
    for run in point["runs"]:
        if run["side"] == which and run["trace"] == 0:
            out.setdefault(run["workload"], []).append(run["result"])
    return out


def compare(old, new, quiet=False):
    """Returns the list of failures of `new` against `old`."""
    limits = bounds()
    failures = []
    say = (lambda *a: None) if quiet else print
    for workload in sorted(set(old) & set(new)):
        a, b = old[workload], new[workload]
        say(f"{workload}: {len(a)} vs {len(b)} runs")
        for label, results in (("old", a), ("new", b)):
            if not all(r["correct"] for r in results):
                failures.append(f"{workload}: an incorrect run ({label})")
        share = lambda rs: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
        if share(b) > share(a):
            failures.append(f"{workload}: failed share {share(a):.2%} -> {share(b):.2%}")
        say(f"  {'metric':<24}{'old':>12}{'new':>12}{'delta':>9}{'bound':>8}")
        for metric, (better, bound) in limits.items():
            va = [r["metrics"][metric]["value"] for r in a if metric in r["metrics"]]
            vb = [r["metrics"][metric]["value"] for r in b if metric in r["metrics"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            delta = 0.0 if ma == mb else (mb - ma) / abs(ma) if ma else float("inf")
            worse = delta > bound if better == "lower" else delta < -bound
            mark = "  OUTSIDE" if worse else ""
            say(f"  {metric:<24}{ma:>12.4g}{mb:>12.4g}{delta:>+9.1%}{bound:>8.1%}{mark}")
            if worse:
                failures.append(f"{workload} {metric}: {delta:+.1%} (bound {bound:.1%})")
    return failures


def scaled(results, metric, factor):
    out = copy.deepcopy(results)
    for rs in out.values():
        for r in rs:
            if metric in r["metrics"]:
                r["metrics"][metric]["value"] *= factor
    return out


def self_check(point):
    change = side(point, "change")
    problems = []
    if compare(change, change, quiet=True):
        problems.append("a side compared with itself fails")
    for metric, (better, bound) in bounds().items():
        worse = 1 + 2 * bound if better == "lower" else 1 - 2 * bound
        better_by = 1 / worse
        if not compare(change, scaled(change, metric, worse), quiet=True):
            problems.append(f"{metric} moved past its bound the bad way passes")
        if compare(change, scaled(change, metric, better_by), quiet=True):
            problems.append(f"{metric} moved the good way fails")
    for p in problems:
        print("self-check:", p)
    print(f"self-check: {'ok' if not problems else 'FAILED'} on {len(change)} workloads")
    return not problems


def main(args):
    if len(args) == 2 and args[0] == "--self-check":
        return 0 if self_check(json.loads(Path(args[1]).read_text())) else 1
    if len(args) == 1:
        point = json.loads(Path(args[0]).read_text())
        old, new = side(point, "parent"), side(point, "change")
    elif len(args) == 2:
        old = side(json.loads(Path(args[0]).read_text()), "change")
        new = side(json.loads(Path(args[1]).read_text()), "change")
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = compare(old, new)
    for f in failures:
        print("outside:", f)
    print("within bounds" if not failures else f"{len(failures)} outside bounds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
