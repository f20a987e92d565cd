#!/usr/bin/env bash
# reach.sh — which statements of internal/ does any program in this
# repository execute?
#
# Builds every program under cmd/ and examples/ with `go build -cover` and
# the repository benchmark with `-cover -coverpkg=fabricgossip/...` (bench/
# is a nested module, so plain -cover would instrument only bench itself),
# runs the sweep below with GOCOVERDIR set, and prints, for non-test code
# in internal/: the unreached share per package, the unreached statements
# per file, every function no program enters, and the difference between
# that list and reach.keep (the machine-readable form of README's
# "Reachability" table). Every unreached coverage block, as
# "file:line.col,line.col stmts", goes to $REACH_OUT/unreached.blocks. Exit
# status 1 when a function is unreached and not in reach.keep, or is in
# reach.keep and reached.
#
#   scripts/reach.sh                 build, sweep, report
#   scripts/reach.sh build           instrumented binaries into $REACH_OUT/bin
#   scripts/reach.sh sweep [noscale] run the programs; noscale leaves out the
#                                    1000-peer and 10k steps (CI runs those
#                                    itself, on $REACH_OUT/bin/scenarios with
#                                    GOCOVERDIR=$REACH_OUT/cov/main). After a
#                                    noscale sweep alone, report exits 1 on
#                                    membership.rumorQueue.popFront: only the
#                                    >= 1000-peer SWIM steps overflow a rumor
#                                    queue, so run those first, as CI does
#   scripts/reach.sh report          textfmt + tables + unreached.blocks +
#                                    reach.keep check
#
# REACH_OUT (default .reach, git-ignored) holds binaries, counters and the
# programs' output. Toolchain only: go build -cover, go tool covdata.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${REACH_OUT:-$root/.reach}
case $out in /*) ;; *) out=$PWD/$out ;; esac
bin=$out/bin
log=$out/log

build() {
	rm -rf "$out"
	mkdir -p "$bin" "$out/cov/main" "$out/cov/bench" "$log"
	for d in "$root"/cmd/* "$root"/examples/*; do
		go build -C "$root" -cover -o "$bin/$(basename "$d")" "./${d#"$root"/}"
	done
	go build -C "$root/bench" -cover -coverpkg=fabricgossip/... -o "$bin/bench" .
}

scen() { "$bin/scenarios" "$@" >>"$log/scenarios.txt"; }

sweep() {
	export GOCOVERDIR=$out/cov/main
	cd "$out"

	# The catalog, both protocols, one/two/four organizations.
	for orgs in 1 2 4; do
		scen -scenario all -peers 20 -orgs $orgs -variant both -seed 42
	done
	scen -scenario all -peers 40 -trace
	scen -scenario all -peers 80 -orgs 4 -check -stats -trace-jsonl trace.jsonl \
		-metrics-out metrics.json -timeseries 5s -flight 64 -flight-dir "$out"
	scen -list
	# Bad input is input: the rejection paths are reached, not kept.
	! scen -scenario no-such-scenario 2>/dev/null

	if [ "${1:-}" != noscale ]; then
		# The scale steps of .github/workflows/ci.yml up to 10 x 1000 (CI
		# runs its 100k smoke uninstrumented, so both sweeps are this list).
		scen -scenario crash-restart -peers 1000 -variant both -check
		scen -scenario org-partition-heal,org-leader-failover,org-cold-join -peers 1000 -orgs 4 -variant both -check
		scen -scenario org-mixed-protocols -peers 1000 -orgs 4 -check
		scen -scenario org-outage-orderer-down,org-asym-consortium -peers 1000 -orgs 4 -variant both -check
		scen -scenario org-view-convergence,org-flapping-members -peers 1000 -variant both -check
		scen -scenario sharded-view-convergence -peers 1600 -orgs 2 -check -stats
		scen -scenario txload-steady,txload-hotkey-contention -peers 1000 -orgs 4 -variant both -check
		scen -scenario consenter-minority-loss,consenter-majority-loss-and-heal,consenter-wan-separated,consenter-election-under-txload -peers 1000 -orgs 4 -check -stats
		scen -scenario sharded-crash-restart -peers 10000 -orgs 10 -check
		scen -scenario sharded-crash-restart -peers 10000 -orgs 10 -check -stats -trace-jsonl trace-10k.jsonl \
			-metrics-out metrics-10k.json -timeseries 5s -flight 256 -flight-dir "$out"
	fi

	"$bin/figures" -exp all -quick -seed 1 >"$log/figures.txt"
	for d in "$root"/examples/*; do
		"$bin/$(basename "$d")" >"$log/example-$(basename "$d").txt"
	done

	# The live runtime, its /metrics endpoint scraped once while it runs;
	# 20 blocks at 300 ms outlast the 4 s state-info and 5 s alive timers.
	"$bin/gossipnet" -peers 8 -blocks 20 -metrics-addr 127.0.0.1:19464 >"$log/gossipnet.txt" &
	local pid=$! scraped=0
	for _ in $(seq 50); do
		if curl -fs http://127.0.0.1:19464/metrics >"$log/gossipnet-metrics.txt" 2>/dev/null; then
			scraped=1
			break
		fi
		sleep 0.1
	done
	wait $pid
	[ $scraped = 1 ] || { echo "reach: gossipnet /metrics never answered" >&2; exit 2; }

	# The repository benchmark: seven timed workloads (each repetition is a
	# child process of the same instrumented binary) and the traced passes
	# that run the layer drills.
	export GOCOVERDIR=$out/cov/bench
	"$bin/bench" -workload all -seconds 4 -out "$out/bench-out" >"$log/bench.txt"
	for w in paper-100-enhanced sim-crash-10k sim-swim-1600 sim-txload tcp-paper; do
		"$bin/bench" -workload $w -trace 1 -seconds 4 -out "$out/bench-out" >>"$log/bench.txt"
	done
	cd "$root"
}

# report merges the two counter sets block by block (a block is reached when
# either module's programs executed it), lists the unreached blocks and
# checks the function list against reach.keep.
report() {
	cd "$root"
	for m in main bench; do
		go tool covdata textfmt -i="$out/cov/$m" -pkg=fabricgossip/internal/... -o "$out/$m.cov"
		go tool covdata func -i="$out/cov/$m" -pkg=fabricgossip/internal/... >"$out/$m.func"
	done

	awk '
	FNR == 1 { next }                      # "mode:" line
	{ n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
	END {
		for (b in n) {
			f = b; sub(/:.*/, "", f); sub(/^fabricgossip\//, "", f)
			p = f; sub(/\/[^\/]*$/, "", p)
			ft[f] += n[b]; pt[p] += n[b]; t += n[b]
			if (!(b in hit)) {
				fu[f] += n[b]; pu[p] += n[b]; u += n[b]
				k = b; sub(/^fabricgossip\//, "", k)
				printf "block\t%s %d\n", k, n[b]
			}
		}
		for (p in pt) printf "pkg\t%s\t%d\t%d\t%.1f\n", p, pu[p], pt[p], 100 * pu[p] / pt[p]
		for (f in fu) printf "file\t%s\t%d\t%d\n", f, fu[f], ft[f]
		printf "total\t%d\t%d\t%.1f\n", u, t, 100 * u / t
	}' "$out/main.cov" "$out/bench.cov" >"$out/stmts.tsv"
	awk -F'\t' '$1 == "block" { print $2 }' "$out/stmts.tsv" |
		LC_ALL=C sort -t: -k1,1 -k2,2n >"$out/unreached.blocks"

	# covdata func lines: <import path>/<file>:<line>:\t<func>\t<pct>%
	awk '
	$1 == "total" || NF < 3 { next }
	{
		f = $1; sub(/:[0-9]+:$/, "", f); sub(/^fabricgossip\//, "", f)
		k = f " " $2
		seen[k] = 1
		if ($NF + 0 > 0) hit[k] = 1
	}
	END { for (k in seen) if (!(k in hit)) print k }' "$out/main.func" "$out/bench.func" |
		sort >"$out/unreached.txt"

	echo "== unreached statements in internal/, per package (unreached / total)"
	grep '^pkg' "$out/stmts.tsv" | sort -t$'\t' -k5,5nr |
		awk -F'\t' '{ printf "  %-34s %4d / %4d  %5.1f %%\n", $2, $3, $4, $5 }'
	echo "== files with unreached statements"
	grep '^file' "$out/stmts.tsv" | sort -t$'\t' -k3,3nr |
		awk -F'\t' '{ printf "  %-44s %4d / %4d\n", $2, $3, $4 }'
	echo "== functions no program enters: $(wc -l <"$out/unreached.txt")"
	sed 's/^/  /' "$out/unreached.txt"
	awk -F'\t' '$1 == "total" { printf "== total: %d of %d statements in internal/ unreached (%.1f %%)\n", $2, $3, $4 }' "$out/stmts.tsv"
	echo "== unreached blocks ($(wc -l <"$out/unreached.blocks")): $out/unreached.blocks"

	# reach.keep: "<file> <func><TAB><class>", # comments and blank lines.
	grep -v '^\s*\(#\|$\)' "$root/reach.keep" | cut -f1 | sort >"$out/keep.txt"
	local bad=0 unlisted stale
	unlisted=$(comm -23 "$out/unreached.txt" "$out/keep.txt")
	stale=$(comm -13 "$out/unreached.txt" "$out/keep.txt")
	if [ -n "$unlisted" ]; then
		echo "== unreached and not in reach.keep (delete it, run it, or add it with its class):"
		sed 's/^/  /' <<<"$unlisted"
		bad=1
	fi
	if [ -n "$stale" ]; then
		echo "== in reach.keep but reached (or gone): remove the line"
		sed 's/^/  /' <<<"$stale"
		bad=1
	fi
	[ $bad = 0 ] && echo "== reach.keep matches"
	return $bad
}

case ${1:-all} in
build) build ;;
sweep) sweep "${2:-}" ;;
report) report ;;
all) build && sweep && report ;;
*) echo "usage: reach.sh [build | sweep [noscale] | report]" >&2; exit 2 ;;
esac
