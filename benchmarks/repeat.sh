#!/usr/bin/env bash
# repeat.sh N [SECONDS] — how steady is the benchmark on this machine?
#
# Builds once, then makes N full passes over the four workloads, each pass
# with another seed. Odd and even passes form two interleaved sets ("A" and
# "B") of the same code, so slow drift of the machine lands in both. For
# every end-to-end metric of every workload it prints the median, the
# quartiles, the spread (Q3-Q1 as a share of the median, as Python's
# statistics.quantiles(n=4) gives them) and the gap between the medians of
# set A and set B. The benchmark's bounds must sit well above both.
#
# Run from anywhere; reads and writes only under benchmarks/.
set -euo pipefail
passes=${1:?usage: repeat.sh N [SECONDS]}
seconds=${2:-15}
here=$(cd "$(dirname "$0")" && pwd)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$here/target}/release/tep-benchmarks
mkdir -p "$here/out"
log="$here/out/repeat.$$.jsonl"
: >"$log"
for pass in $(seq 1 "$passes"); do
  for w in ingest_mixed fetch_deep fetch_small audit_live; do
    printf 'pass %s/%s %s\n' "$pass" "$passes" "$w" >&2
    line=$("$bin" --workload "$w" --seed $((2009 + pass)) --seconds "$seconds" --trace 0 | tail -n 1)
    printf '{"pass": %s, "workload": "%s", "result": %s}\n' "$pass" "$w" "$line" >>"$log"
  done
done
python3 - "$log" <<'EOF'
import json, statistics, sys
runs = [json.loads(l) for l in open(sys.argv[1])]
bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
print(f"{len(runs)} runs, {len(bad)} incorrect or with failed operations")
print(f'{"workload":<13}{"metric":<23}{"median":>12}{"q1":>12}{"q3":>12}{"spread%":>9}{"A-B gap%":>9}')
for w in dict.fromkeys(r["workload"] for r in runs):
    mine = [r for r in runs if r["workload"] == w]
    for m in mine[0]["result"]["metrics"]:
        v = [r["result"]["metrics"][m]["value"] for r in mine]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        a = [x for r, x in zip(mine, v) if r["pass"] % 2 == 1]
        b = [x for r, x in zip(mine, v) if r["pass"] % 2 == 0]
        gap = abs(statistics.median(a) - statistics.median(b)) / med * 100 if a and b else 0.0
        print(f"{w:<13}{m:<23}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{(q3 - q1) / med * 100:>9.2f}{gap:>9.2f}")
EOF
echo "raw results: $log"
