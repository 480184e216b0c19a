#!/usr/bin/env bash
# The ROADMAP's "alternating pairs" rule as one command: the box drifts
# 20-40 % over minutes, so a base-vs-checkout claim is only as good as
# runs interleaved in time. Unpacks <base ref> under .bench_build/base,
# runs bench/run.sh there and in the checkout alternately (swapping
# which goes first each pair, seeds 1 and 2), then prints the harness's
# verdict and each side's median [q1, q3] per end-to-end metric.
#
#	make bench-pairs BASE=HEAD~1 WORKLOAD=sim_4096 PAIRS=10
set -euo pipefail
base="${1:?usage: bench-pairs.sh <base git ref> <workload> [pairs]}"
workload="${2:?usage: bench-pairs.sh <base git ref> <workload> [pairs]}"
pairs="${3:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
basedir="$root/.bench_build/base"
out="$root/.bench_build/pairs-$workload"

# git archive, not a worktree: the copy needs no entry in .git and is
# thrown away with .bench_build.
rm -rf "$basedir" "$out"
mkdir -p "$basedir" "$out"
git -C "$root" archive "$base" | tar -x -C "$basedir"

run() { # side seed
	local dir="$root"
	[ "$1" = base ] && dir="$basedir"
	(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$2" --out "$out/$1.jsonl") >/dev/null
	echo "pair $((i + 1))/$pairs seed $2: $1 done" >&2
}
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

cd "$root"
bash bench/run.sh --compare "$out/base.jsonl" "$out/head.jsonl" || true
for m in setup_s interval_ms_p50 interval_ms_p90 members_per_s mem_bytes_per_member allocs_per_member; do
	for side in base head; do
		grep -o "\"$m\":{\"value\":[^,}]*" "$out/$side.jsonl" | sed 's/.*://' | sort -g |
			awk -v m="$m" -v side="$side" '{ a[NR] = $1 }
				END { med = NR % 2 ? a[(NR + 1) / 2] : (a[NR / 2] + a[NR / 2 + 1]) / 2
				      printf "%-22s %-4s median %.6g [q1 %.6g, q3 %.6g] n=%d\n", m, side, med, a[int((NR + 3) / 4)], a[int((3 * NR + 1) / 4)], NR }'
	done
done
