#!/usr/bin/env bash
# pairs.sh — alternated parent/change pairs of the repository benchmark, the
# one command behind a performance claim.
#
#   scripts/pairs.sh <rev> <workload> <seeds>
#
# Builds bench/ twice: at <rev> (any git revision, e.g. the parent commit),
# from a `git archive` of it under $TMPDIR, and from the working tree. Then,
# for each seed, it runs one whole timed run of <workload> per side — the
# parent first on the 1st, 3rd, ... seed, the change first on the others —
# each with -out in the temporary tree (a `-rep` child would exit as soon as
# its standard input closed). <seeds> is a range "1-10", a list "1,4,7" or
# one seed.
#
# It prints, per seed, the parent's and the change's value of every
# end-to-end metric and `failed`; then per metric the median [q1, q3] of each
# side (quartiles are the medians of the lower and upper halves), the
# change's wins out of the pairs (lower is better for all six), and the gap
# between the medians against the parent's IQR.
#
# Exit status 1 when a run fails an operation (`failed` > 0), or when, on a
# simulated workload (every one but tcp-*), dissem_p50_ms, dissem_tail_ms or
# net_bytes_per_peer_block differs between the two sides for a seed: those
# are simulated numbers and must be bit-identical. 2 on a usage or build
# error.
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: scripts/pairs.sh <rev> <workload> <seeds>" >&2
	exit 2
fi
rev=$1 workload=$2 spec=$3
root=$(cd "$(dirname "$0")/.." && pwd)

case $spec in
*-*) seeds=$(seq "${spec%-*}" "${spec#*-}") ;;
*) seeds=${spec//,/ } ;;
esac

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

short=$(git -C "$root" rev-parse --short "$rev^{commit}")
mkdir -p "$tmp/parent"
git -C "$root" archive "$short" | tar -x -C "$tmp/parent"
go build -C "$tmp/parent/bench" -o "$tmp/bench-parent" . || exit 2
go build -C "$root/bench" -o "$tmp/bench-change" . || exit 2

metrics="setup_s wall_s heap_peak_bytes_per_peer dissem_p50_ms dissem_tail_ms net_bytes_per_peer_block"
exact=""
case $workload in
tcp-*) ;;
*) exact="dissem_p50_ms dissem_tail_ms net_bytes_per_peer_block" ;;
esac

# run <side> <seed>: one whole run; its last line is the result object, from
# which the six metrics and `failed` go to $tmp/<side>.<seed> as
# "name value" lines.
run() {
	"$tmp/bench-$1" -workload "$workload" -seed "$2" -out "$tmp/out-$1-$2" >"$tmp/log-$1-$2" 2>&1 || true
	local last
	last=$(tail -n 1 "$tmp/log-$1-$2")
	case $last in
	'{"correct"'*) ;;
	*)
		echo "pairs: $1 run, seed $2, printed no result object:" >&2
		tail -n 5 "$tmp/log-$1-$2" >&2
		exit 2
		;;
	esac
	{
		echo "failed $(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$last")"
		for m in $metrics; do
			echo "$m $(sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p" <<<"$last")"
		done
	} >"$tmp/$1.$2"
}

val() { awk -v m="$3" '$1 == m { print $2 }' "$tmp/$1.$2"; }

i=0
for s in $seeds; do
	if [ $((i % 2)) = 0 ]; then
		run parent "$s"
		run change "$s"
	else
		run change "$s"
		run parent "$s"
	fi
	i=$((i + 1))
done

status=0
echo "pairs: $workload, parent $short vs working tree, seeds $spec (parent first on odd pair numbers; each metric: parent, change)"
printf '%-5s %-9s' seed failed
for m in $metrics; do printf ' %27s' "$m"; done
printf '\n'
for s in $seeds; do
	fp=$(val parent "$s" failed) fc=$(val change "$s" failed)
	printf '%-5s %-9s' "$s" "$fp/$fc"
	for m in $metrics; do printf ' %13.7g %13.7g' "$(val parent "$s" "$m")" "$(val change "$s" "$m")"; done
	printf '\n'
	if [ "$fp" != 0 ] || [ "$fc" != 0 ]; then
		echo "FAIL: seed $s: failed operations (parent $fp, change $fc)"
		status=1
	fi
	for m in $exact; do
		if [ "$(val parent "$s" "$m")" != "$(val change "$s" "$m")" ]; then
			echo "FAIL: seed $s: simulated metric $m differs (parent $(val parent "$s" "$m"), change $(val change "$s" "$m"))"
			status=1
		fi
	done
done

printf '%-25s %-38s %-38s %9s %7s %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" "Δ median" wins "|gap| vs parent IQR"
for m in $metrics; do
	for s in $seeds; do echo "$(val parent "$s" "$m") $(val change "$s" "$m")"; done |
		awk -v m="$m" '
		function quart(a, n, lo, hi,    k, mid) {
			k = hi - lo + 1; mid = lo + int(k / 2)
			return k % 2 ? a[mid] : (a[mid - 1] + a[mid]) / 2
		}
		function summary(a, n, out,    i, j, v) {
			for (i = 2; i <= n; i++) {
				v = a[i]
				for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
				a[j + 1] = v
			}
			out["med"] = quart(a, n, 1, n)
			out["q1"] = n < 2 ? out["med"] : quart(a, n, 1, int(n / 2))
			out["q3"] = n < 2 ? out["med"] : quart(a, n, n - int(n / 2) + 1, n)
		}
		{ p[NR] = $1 + 0; c[NR] = $2 + 0; if (c[NR] < p[NR]) wins++; if ($2 == $1) ties++ }
		END {
			n = NR
			summary(p, n, ps); summary(c, n, cs)
			iqr = ps["q3"] - ps["q1"]; gap = ps["med"] - cs["med"]
			agap = gap < 0 ? -gap : gap
			delta = ps["med"] ? 100 * (cs["med"] - ps["med"]) / ps["med"] : 0
			verdict = ties == n ? "identical" : sprintf("%.4g %s %.4g", agap, agap > iqr ? ">" : "<=", iqr)
			printf "%-25s %-38s %-38s %+8.1f%% %3d/%-3d %s\n", m,
				sprintf("%.6g [%.6g, %.6g]", ps["med"], ps["q1"], ps["q3"]),
				sprintf("%.6g [%.6g, %.6g]", cs["med"], cs["q1"], cs["q3"]),
				delta, wins, n, verdict
		}'
done
if [ -n "$exact" ] && [ $status = 0 ]; then
	echo "bit-identical on every seed: failed $exact"
fi
exit $status
