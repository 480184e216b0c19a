#!/usr/bin/env bash
# The ROADMAP's "alternating pairs" rule as one command: the box drifts
# 20-40 % over minutes, so a base-vs-checkout claim is only as good as
# runs interleaved in time. Unpacks <base ref> under .bench_build/base,
# runs bench/run.sh there and in the checkout alternately (swapping
# which goes first each pair, seeds 1 and 2), then prints the harness's
# verdict and each side's median [q1, q3] per end-to-end metric. Given
# a metric regex, it then makes one traced run (--trace 1, seed 1) per
# side and prints "metric base head change%" for the per-layer metrics
# the regex matches: the layer a claim says it moved. After the pairs,
# each side makes one more untraced run under GODEBUG=gctrace=1 (kept
# out of the comparison) and "gc_cycles base head" prints how many
# collections each ran: the GC pacing a memory change moves. The
# workload argument may list several, space-separated: each gets its
# own pairs and its own "== workload ==" block, one after the other.
#
#	make bench-pairs BASE=HEAD~1 WORKLOAD=sim_4096 PAIRS=10 LAYERS='^overlay\.'
#	make bench-pairs BASE=HEAD~1 WORKLOAD='daemon_udp_256 sim_4096' PAIRS=6
set -euo pipefail
usage="usage: bench-pairs.sh <base git ref> <workload ...> [pairs] [layer metric regex]"
base="${1:?$usage}"
workloads="${2:?$usage}"
pairs="${3:-10}"
layers="${4:-}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
basedir="$root/.bench_build/base"

# git archive, not a worktree: the copy needs no entry in .git and is
# thrown away with .bench_build.
rm -rf "$basedir"
mkdir -p "$basedir"
git -C "$root" archive "$base" | tar -x -C "$basedir"

run() { # side seed
	local dir="$root"
	[ "$1" = base ] && dir="$basedir"
	(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$2" --out "$out/$1.jsonl") >/dev/null
	echo "$workload pair $((i + 1))/$pairs seed $2: $1 done" >&2
}
gc_cycles() { # side: collections in one untraced run of the binary its pairs built
	local dir="$root"
	[ "$1" = base ] && dir="$basedir"
	(cd "$dir" && GODEBUG=gctrace=1 .bench_build/rekeybench --workload "$workload" --seed 1 --out "$out/$1-gc.jsonl" 2>&1 >/dev/null) |
		grep -c '^gc [0-9]* @' || true
}
layer_values() { # side: "metric value" per matching metric of its traced run
	grep -o '"[^"]*":{"value":[^,}]*' "$out/$1-traced.jsonl" | sed 's/^"\([^"]*\)":{"value":/\1 /' |
		re="$layers" awk '$1 ~ ENVIRON["re"]'
}

cd "$root"
for workload in $workloads; do
	out="$root/.bench_build/pairs-$workload"
	rm -rf "$out"
	mkdir -p "$out"
	for ((i = 0; i < pairs; i++)); do
		seed=$((1 + i / 2 % 2))
		if ((i % 2 == 0)); then
			run base "$seed"
			run head "$seed"
		else
			run head "$seed"
			run base "$seed"
		fi
	done

	echo "== $workload =="
	bash bench/run.sh --compare "$out/base.jsonl" "$out/head.jsonl" || true
	for m in setup_s interval_ms_p50 interval_ms_p90 members_per_s mem_bytes_per_member allocs_per_member; do
		for side in base head; do
			grep -o "\"$m\":{\"value\":[^,}]*" "$out/$side.jsonl" | sed 's/.*://' | sort -g |
				awk -v m="$m" -v side="$side" '{ a[NR] = $1 }
					END { med = NR % 2 ? a[(NR + 1) / 2] : (a[NR / 2] + a[NR / 2 + 1]) / 2
					      printf "%-22s %-4s median %.6g [q1 %.6g, q3 %.6g] n=%d\n", m, side, med, a[int((NR + 3) / 4)], a[int((3 * NR + 1) / 4)], NR }'
		done
	done

	echo "gc_cycles $(gc_cycles base) $(gc_cycles head)"

	[ -n "$layers" ] || continue
	for side in base head; do
		dir="$root"
		[ "$side" = base ] && dir="$basedir"
		(cd "$dir" && bash bench/run.sh --workload "$workload" --seed 1 --trace 1 --out "$out/$side-traced.jsonl") >/dev/null
		echo "$workload traced: $side done" >&2
	done
	printf "%-34s %12s %12s %8s\n" metric base head change
	awk 'NR == FNR { base[$1] = $2; next }
		$1 in base { b = base[$1]
		             printf "%-34s %12.6g %12.6g %8s\n", $1, b, $2, b == 0 ? "n/a" : sprintf("%+.1f%%", 100 * ($2 - b) / b) }' \
		<(layer_values base) <(layer_values head)
done
