#!/usr/bin/env bash
# Paired drift audit of one benchmark workload: this checkout against an
# earlier commit.
#
#   scripts/drift.sh BASE WORKLOAD PAIRS [SEED]
#   make drift BASE=<commit> WORKLOAD=<name> PAIRS=<n> [SEED=<n>]
#
# It clones the repository at BASE into a fresh directory under $TMPDIR,
# then runs `benchmark/run.sh --workload WORKLOAD --seconds 6 --trace 0`
# (plus `--seed SEED` when given) PAIRS times on each checkout, the two
# sides of a pair back to back and alternating which side goes first. It
# prints, for every end-to-end metric BENCHMARK.json names, each side's
# median and quartiles and how many pairs this checkout won (ties count
# for neither), then every pair's values. Each run's JSON line is kept
# in base.jsonl and change.jsonl in that directory, whose path it prints.
# A run that is not correct, or that reports failed operations, is
# counted and makes the script exit non-zero.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 BASE WORKLOAD PAIRS [SEED]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3 seed=${4:-}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="$(mktemp -d "${TMPDIR:-/tmp}/drift.XXXXXX")"
git clone --quiet --no-checkout "$root" "$dir/base"
git -C "$dir/base" checkout --quiet --detach "$base"
args=(--workload "$workload" --seconds 6 --trace 0)
if [ -n "$seed" ]; then
	args+=(--seed "$seed")
fi
run() { # side checkout
	bash "$2/benchmark/run.sh" "${args[@]}" | tail -n 1 >>"$dir/$1.jsonl"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run base "$dir/base"
		run change "$root"
	else
		run change "$root"
		run base "$dir/base"
	fi
	echo "drift: pair $((i + 1))/$pairs done" >&2
done
echo "drift: $workload, $pairs pairs${seed:+, seed $seed}: base $(git -C "$dir/base" rev-parse --short HEAD) against $root; runs in $dir"
awk '
# BENCHMARK.json: the end-to-end metrics and which way is better.
FILENAME ~ /BENCHMARK.json$/ {
	if ($0 ~ /"end_to_end"/) e2e = 1
	else if ($0 ~ /"per_layer"/) e2e = 0
	if (e2e && match($0, /"name": *"[^"]*"/)) {
		s = substr($0, RSTART, RLENGTH); sub(/"name": *"/, "", s); sub(/"$/, "", s)
		names[++nm] = s
	}
	if (e2e && match($0, /"better": *"[^"]*"/)) higher[names[nm]] = ($0 ~ /higher/)
	next
}
{
	side = (FILENAME ~ /base.jsonl$/) ? "base" : "change"
	n[side]++
	if ($0 !~ /"correct":true/ || $0 !~ /"failed":0[,}]/) bad[side]++
	for (i = 1; i <= nm; i++) {
		pat = "\"" names[i] "\":\\{\"value\":[-0-9.eE+]+"
		if (match($0, pat)) {
			s = substr($0, RSTART, RLENGTH); sub(/.*"value":/, "", s)
			v[side, names[i], n[side]] = s + 0
		}
	}
}
# q returns quantile p of the k values in a (sorted in place), interpolated.
function q(a, k, p,    i, j, t, x, f) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	x = 1 + p * (k - 1); f = int(x)
	return f >= k ? a[k] : a[f] + (x - f) * (a[f + 1] - a[f])
}
END {
	k = (n["base"] < n["change"]) ? n["base"] : n["change"]
	printf "%-26s %14s %14s %14s %14s %14s %14s %8s %6s\n", "metric", "base q1", "base median", "base q3", "change q1", "change med", "change q3", "change", "wins"
	for (i = 1; i <= nm; i++) {
		m = names[i]; wins = 0
		for (j = 1; j <= k; j++) {
			b[j] = v["base", m, j]; c[j] = v["change", m, j]
			if (higher[m] ? c[j] > b[j] : c[j] < b[j]) wins++
		}
		bm = q(b, k, 0.5); cm = q(c, k, 0.5)
		printf "%-26s %14.6g %14.6g %14.6g %14.6g %14.6g %14.6g %+7.1f%% %3d/%d\n", m, q(b, k, 0.25), bm, q(b, k, 0.75), q(c, k, 0.25), cm, q(c, k, 0.75), bm ? 100 * (cm - bm) / bm : 0, wins, k
	}
	print ""
	for (j = 1; j <= k; j++) {
		line = sprintf("pair %2d (%s first):", j, (j % 2) ? "base" : "change")
		for (i = 1; i <= nm; i++) line = line sprintf(" %s %.6g→%.6g", names[i], v["base", names[i], j], v["change", names[i], j])
		print line
	}
	if (bad["base"] + bad["change"] > 0) {
		printf "drift: %d base and %d change runs not correct or with failed operations\n", bad["base"], bad["change"]
		exit 1
	}
}' "$root/BENCHMARK.json" "$dir/base.jsonl" "$dir/change.jsonl"
