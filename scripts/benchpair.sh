#!/usr/bin/env bash
# Alternated parent/change pairs of the repo's benchmark, the way the
# choosing-metrics guide asks a perf change to be measured: the parent
# commit and this checkout each build and run their own benchmark/run.sh
# on the same seeds, which side goes first alternates from pair to pair,
# and the run ends with `--compare` (medians against BENCHMARK.json's
# bounds) and the per-pair win count.
#
#   PARENT=<ref> PAIRS=10 WORKLOADS="gw-scan srv-records" WINDOW=24 scripts/benchpair.sh
#
# (`make benchpair` passes its SECONDS as WINDOW: bash keeps SECONDS for
# itself.) Everything lands under .bench_build/: the parent's tree in
# parent/ (from `git archive`, so nothing is registered in .git), one
# JSON report per run in A.jsonl (parent) and B.jsonl (change) — both
# started afresh — and each run's own output in pair.log. Nothing here is
# timed by `make check`.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="${PARENT:?set PARENT to the commit to measure against, e.g. PARENT=HEAD~1}"
pairs="${PAIRS:-10}"
workloads="${WORKLOADS:-lib-screened gw-scan srv-records gw-session}"
window="${WINDOW:-24}"
build="$root/.bench_build"
A="$build/A.jsonl" B="$build/B.jsonl" log="$build/pair.log"

mkdir -p "$build"
rm -rf "$build/parent" "$A" "$B" "$log"
mkdir "$build/parent"
git -C "$root" archive "$parent" | tar -x -C "$build/parent"
echo "benchpair: A = $(git -C "$root" rev-parse --short "$parent") in .bench_build/parent, B = this checkout; $pairs pairs x {$workloads} x ${window}s"

run_side() { # side workload seed
	local dir="$root" out="$B"
	if [ "$1" = A ]; then dir="$build/parent" out="$A"; fi
	printf '  %s %-12s seed %s ... ' "$1" "$2" "$3"
	(cd "$dir" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$window" --trace 0 --out "$out") >>"$log" 2>&1 ||
		{ echo "failed; see $log"; exit 1; }
	echo ok
}

for ((k = 0; k < pairs; k++)); do
	order="A B"
	if ((k % 2)); then order="B A"; fi
	echo "pair $((k + 1))/$pairs ($order)"
	for w in $workloads; do
		for side in $order; do
			run_side "$side" "$w" $((2025 + k))
		done
	done
done

status=0
(cd "$root" && bash benchmark/run.sh --compare "$A" "$B") || status=$?

# Per-pair wins: run k of a workload in A against run k in B.
values() { # file workload metric
	grep "\"workload\":\"$2\"" "$1" | sed -n "s/.*\"$3\":{\"value\":\([-+0-9.eE]*\).*/\1/p"
}
echo
echo "per-pair wins (B = change against A = parent; a gain needs 9 of 10, ties count for neither):"
for w in $workloads; do
	for m in setup_s:lower throughput_mbps:higher latency_p50_us:lower allocs_per_op:lower; do
		paste <(values "$A" "$w" "${m%%:*}") <(values "$B" "$w" "${m%%:*}") |
			awk -v w="$w" -v m="${m%%:*}" -v better="${m##*:}" '
				$1 == $2 { t++; next }
				(better == "higher") == ($2 > $1) { b++; next }
				{ a++ }
				END { printf "  %-13s %-16s B wins %d, A wins %d, ties %d of %d pairs\n", w, m, b, a, t, NR }'
	done
done
exit "$status"
