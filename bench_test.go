package fabricgossip

// One benchmark per evaluation artifact (Figures 4-14, Table II, §IV
// analytics), each running a reduced-scale instance of the same workload
// the cmd/figures tool regenerates at full scale, plus micro-benchmarks of
// the hot paths (codec, engine, gossip step, Raft ordering).
//
// Benchmarks report domain metrics via b.ReportMetric:
//
//	tail_ms      p99.9 dissemination latency (latency figures)
//	peer_MBps    regular-peer bandwidth (bandwidth figures)
//	conflicts    invalidated transactions (Table II)
//	conflict_rate  workload-plane validation conflict fraction
//	commit_tail_ms workload-plane p99.9 submit-to-commit latency
//	sim_events   discrete events per scenario run (deterministic)
//	events_per_s engine throughput (wall-clock; trajectory only, not gated)
//	allocs_op    heap allocations per delivered message (hot-path contract)
//
// cmd/benchdiff compares two exported BENCH_*.json artifacts and gates CI
// on the deterministic units.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"fabricgossip/internal/analysis"
	"fabricgossip/internal/chaincode"
	"fabricgossip/internal/endorse"
	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/gossip/original"
	"fabricgossip/internal/harness"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/membership"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/msp"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/obs"
	"fabricgossip/internal/order"
	"fabricgossip/internal/raft"
	"fabricgossip/internal/scenario"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

const (
	benchPeers  = 50
	benchBlocks = 40
)

// baseline collects every domain metric the benchmarks report so one
// `-bench` pass can be exported as a machine-readable artifact: set
// BENCH_BASELINE=<path> and TestMain writes a JSON map keyed
// "<benchmark>/<unit>" after the run. CI uploads it per commit, so the
// perf trajectory (tail_ms, peer_MBps, sim_events, ...) accumulates.
var baseline = struct {
	mu      sync.Mutex
	metrics map[string]float64
}{metrics: map[string]float64{}}

// reportMetric mirrors b.ReportMetric into the baseline collector.
func reportMetric(b *testing.B, value float64, unit string) {
	b.ReportMetric(value, unit)
	baseline.mu.Lock()
	baseline.metrics[b.Name()+"/"+unit] = value
	baseline.mu.Unlock()
}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_BASELINE"); path != "" && code == 0 {
		baseline.mu.Lock()
		data, err := json.MarshalIndent(baseline.metrics, "", "  ")
		baseline.mu.Unlock()
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench baseline:", err)
			code = 1
		}
	}
	os.Exit(code)
}

func benchDissemination(b *testing.B, p harness.Params, wantBandwidth bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		res, err := harness.RunDissemination(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 { // report metrics from the last run
			if wantBandwidth {
				gen := int(time.Duration(p.NumBlocks)*p.BlockInterval/p.Bucket) + 1
				reportMetric(b, res.Traffic.NodeAverage(res.RegularID, gen), "peer_MBps")
			} else {
				all := res.Latencies.All()
				reportMetric(b, float64(all.Quantile(0.999))/1e6, "tail_ms")
			}
		}
	}
}

func quick(v harness.Variant) harness.Params {
	return harness.QuickScale(harness.DefaultParams(v, 1), benchPeers, benchBlocks)
}

// BenchmarkFig4PeerLatencyOriginal regenerates Figure 4's workload: peer
// latency under the stock infect-and-die + pull gossip.
func BenchmarkFig4PeerLatencyOriginal(b *testing.B) {
	benchDissemination(b, quick(harness.VariantOriginal), false)
}

// BenchmarkFig5BlockLatencyOriginal regenerates Figure 5's workload (same
// run, block-level view).
func BenchmarkFig5BlockLatencyOriginal(b *testing.B) {
	benchDissemination(b, quick(harness.VariantOriginal), false)
}

// BenchmarkFig6BandwidthOriginal regenerates Figure 6's workload: per-peer
// bandwidth under the stock gossip.
func BenchmarkFig6BandwidthOriginal(b *testing.B) {
	benchDissemination(b, quick(harness.VariantOriginal), true)
}

// BenchmarkFig7PeerLatencyEnhanced regenerates Figure 7's workload:
// enhanced gossip with fout=4-equivalent parameters.
func BenchmarkFig7PeerLatencyEnhanced(b *testing.B) {
	benchDissemination(b, quick(harness.VariantEnhanced), false)
}

// BenchmarkFig8BlockLatencyEnhanced regenerates Figure 8's workload.
func BenchmarkFig8BlockLatencyEnhanced(b *testing.B) {
	benchDissemination(b, quick(harness.VariantEnhanced), false)
}

// BenchmarkFig9BandwidthEnhanced regenerates Figure 9's workload.
func BenchmarkFig9BandwidthEnhanced(b *testing.B) {
	benchDissemination(b, quick(harness.VariantEnhanced), true)
}

// BenchmarkFig10LeaderFanoutAblation regenerates Figure 10's ablation: the
// leader pushes with fleaderout = fout instead of delegating.
func BenchmarkFig10LeaderFanoutAblation(b *testing.B) {
	p := harness.QuickScale(harness.Fig10Params(1), benchPeers, benchBlocks)
	benchDissemination(b, p, true)
}

// BenchmarkFig11NoDigestAblation regenerates Figure 11's ablation: bodies
// pushed on every hop (digests disabled).
func BenchmarkFig11NoDigestAblation(b *testing.B) {
	p := harness.QuickScale(harness.Fig11Params(1), benchPeers, 10)
	benchDissemination(b, p, true)
}

// BenchmarkFig12PeerLatencyFout2 regenerates Figure 12's workload: the
// conservative fout=2 configuration.
func BenchmarkFig12PeerLatencyFout2(b *testing.B) {
	p := harness.QuickScale(harness.Fig12Params(1), benchPeers, benchBlocks)
	benchDissemination(b, p, false)
}

// BenchmarkFig13BlockLatencyFout2 regenerates Figure 13's workload.
func BenchmarkFig13BlockLatencyFout2(b *testing.B) {
	p := harness.QuickScale(harness.Fig12Params(1), benchPeers, benchBlocks)
	benchDissemination(b, p, false)
}

// BenchmarkFig14BandwidthFout2 regenerates Figure 14's workload.
func BenchmarkFig14BandwidthFout2(b *testing.B) {
	p := harness.QuickScale(harness.Fig12Params(1), benchPeers, benchBlocks)
	benchDissemination(b, p, true)
}

// BenchmarkTable2Conflicts regenerates Table II's workload at reduced
// scale: the counter-increment EOV pipeline, both variants at one block
// period; the conflicts metric is original-minus-enhanced headroom.
func BenchmarkTable2Conflicts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := harness.DefaultConflictParams(harness.VariantOriginal, time.Second, int64(i+1))
		p.NumPeers = 30
		p.Keys = 30
		p.Rounds = 10
		res, err := harness.RunConflictExperiment(p)
		if err != nil {
			b.Fatal(err)
		}
		p.Variant = harness.VariantEnhanced
		res2, err := harness.RunConflictExperiment(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportMetric(b, float64(res.Conflicts), "conflicts_orig")
			reportMetric(b, float64(res2.Conflicts), "conflicts_enh")
		}
	}
}

// BenchmarkAnalyticsTTL benchmarks the §IV analytic pipeline: TTL scan and
// pe computation across fan-outs.
func BenchmarkAnalyticsTTL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, fout := range []int{2, 3, 4, 5} {
			if _, err := analysis.TTLFor(100, fout, 1e-6); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkInfectAndDieMonteCarlo benchmarks the §IV infect-and-die reach
// simulation (10k trials at n=100, fout=3 is the figure-quality setting).
func BenchmarkInfectAndDieMonteCarlo(b *testing.B) {
	rng := sim.NewRand(1)
	for i := 0; i < b.N; i++ {
		st := analysis.SimulateInfectAndDie(100, 3, 100, rng)
		if st.MeanReached < 80 {
			b.Fatal("implausible reach")
		}
	}
}

// --- fault/churn scenario benchmarks (internal/scenario) ---

func benchScenario(b *testing.B, name string, peers int, v harness.Variant) {
	b.Helper()
	var events uint64
	for i := 0; i < b.N; i++ {
		rep, err := scenario.RunNamed(name, scenario.Options{
			Peers: peers, Variant: v, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CaughtUp != rep.Survivors {
			b.Fatalf("%d of %d survivors caught up", rep.CaughtUp, rep.Survivors)
		}
		events += rep.EngineEvents
	}
	reportMetric(b, float64(events)/float64(b.N), "sim_events")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		reportMetric(b, float64(events)/secs, "events_per_s")
	}
}

// BenchmarkScenarioCrashRestart tracks the crash/restart-with-catchup
// scenario at the paper's organization size.
func BenchmarkScenarioCrashRestart(b *testing.B) {
	benchScenario(b, "crash-restart", 100, harness.VariantEnhanced)
}

// BenchmarkScenarioChurn tracks rolling crash/restart waves.
func BenchmarkScenarioChurn(b *testing.B) {
	benchScenario(b, "churn", 100, harness.VariantEnhanced)
}

// BenchmarkScenarioPartitionHeal tracks the split-brain + recovery path.
func BenchmarkScenarioPartitionHeal(b *testing.B) {
	benchScenario(b, "partition-heal", 100, harness.VariantOriginal)
}

// BenchmarkScenarioCrashRestart1000 is the scale benchmark behind the
// engine's hot-path work: a thousand-peer fault scenario must complete in
// seconds of wall time.
func BenchmarkScenarioCrashRestart1000(b *testing.B) {
	benchScenario(b, "crash-restart", 1000, harness.VariantEnhanced)
}

// --- multi-organization benchmarks (harness.Network) ---

func benchScenarioOrgs(b *testing.B, name string, peers, orgs int, v harness.Variant) {
	b.Helper()
	var events uint64
	var tail float64
	for i := 0; i < b.N; i++ {
		rep, err := scenario.RunNamed(name, scenario.Options{
			Peers: peers, Orgs: orgs, Variant: v, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CaughtUp != rep.Survivors {
			b.Fatalf("%d of %d survivors caught up", rep.CaughtUp, rep.Survivors)
		}
		events += rep.EngineEvents
		tail = float64(rep.Latency.P999) / 1e6
	}
	reportMetric(b, float64(events)/float64(b.N), "sim_events")
	reportMetric(b, tail, "tail_ms")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		reportMetric(b, float64(events)/secs, "events_per_s")
	}
}

// BenchmarkScenarioOrgPartitionHeal tracks the whole-org partition plus
// orderer-backlog-restream path at 4 organizations.
func BenchmarkScenarioOrgPartitionHeal(b *testing.B) {
	benchScenarioOrgs(b, "org-partition-heal", 100, 4, harness.VariantEnhanced)
}

// BenchmarkScenarioOrgColdJoin tracks the deep whole-org catch-up path.
func BenchmarkScenarioOrgColdJoin(b *testing.B) {
	benchScenarioOrgs(b, "org-cold-join", 100, 4, harness.VariantEnhanced)
}

// BenchmarkScenarioOrgMixedProtocols tracks both protocols sharing one
// channel (alternating per organization).
func BenchmarkScenarioOrgMixedProtocols(b *testing.B) {
	benchScenarioOrgs(b, "org-mixed-protocols", 100, 4, harness.VariantEnhanced)
}

// BenchmarkScenarioOrgOutageOrdererDown tracks the anchor-peer cross-org
// recovery path: a whole organization and then the ordering service crash,
// and the org restarts cold with the orderer still down, recovering through
// remote anchors over WAN links. Beyond the usual event fingerprint it
// exports the recovery plane's own metrics: sync_bytes (StateRequest +
// StateResponse traffic, deterministic per seed) and sync_tail_ms (the
// p99.9 catch-up latency) — both gated by cmd/benchdiff.
func BenchmarkScenarioOrgOutageOrdererDown(b *testing.B) {
	var events uint64
	var syncBytes, syncTail float64
	for i := 0; i < b.N; i++ {
		rep, err := scenario.RunNamed("org-outage-orderer-down", scenario.Options{
			Peers: 100, Orgs: 4, Variant: harness.VariantEnhanced, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CaughtUp != rep.Survivors {
			b.Fatalf("%d of %d survivors caught up", rep.CaughtUp, rep.Survivors)
		}
		events += rep.EngineEvents
		syncBytes = float64(rep.SyncBytes)
		syncTail = float64(rep.Recoveries.P999) / 1e6
	}
	reportMetric(b, float64(events)/float64(b.N), "sim_events")
	reportMetric(b, syncBytes, "sync_bytes")
	reportMetric(b, syncTail, "sync_tail_ms")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		reportMetric(b, float64(events)/secs, "events_per_s")
	}
}

// BenchmarkScenarioOrgAsymConsortium tracks the heterogeneous-org-size
// layout (one datacenter org plus two small branches).
func BenchmarkScenarioOrgAsymConsortium(b *testing.B) {
	benchScenarioOrgs(b, "org-asym-consortium", 100, 3, harness.VariantEnhanced)
}

// BenchmarkScenarioViewConvergence1000 is the dense-membership acceptance
// run: a cold thousand-peer organization under the SWIM extensions
// (piggybacked events, probe-based suspicion, view shuffling) must
// converge its views to >= 0.95 steady-state completeness. Beyond the
// usual event fingerprint it exports the membership plane's own metrics:
// view_completeness (either-drift: a drop means views went sparse, a rise
// means the baseline was stale) and leader_convergence_ms (increase =
// regression), both gated by cmd/benchdiff.
func BenchmarkScenarioViewConvergence1000(b *testing.B) {
	var events uint64
	var compl, convMs float64
	for i := 0; i < b.N; i++ {
		rep, err := scenario.RunNamed("org-view-convergence", scenario.Options{
			Peers: 1000, Variant: harness.VariantEnhanced, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CaughtUp != rep.Survivors {
			b.Fatalf("%d of %d survivors caught up", rep.CaughtUp, rep.Survivors)
		}
		if rep.ViewCompleteness < 0.95 {
			b.Fatalf("view completeness = %.3f at 1x1000, want >= 0.95", rep.ViewCompleteness)
		}
		events += rep.EngineEvents
		compl = rep.ViewCompleteness
		convMs = float64(rep.LeaderConvergence) / 1e6
	}
	reportMetric(b, float64(events)/float64(b.N), "sim_events")
	reportMetric(b, compl, "view_completeness")
	reportMetric(b, convMs, "leader_convergence_ms")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		reportMetric(b, float64(events)/secs, "events_per_s")
	}
}

// BenchmarkScenarioFlappingMembers tracks the suspicion/refutation path
// under sustained packet loss plus genuine churn (org-flapping-members):
// the view must stay complete while lossy-but-live peers are refuted
// rather than flapped through dead.
func BenchmarkScenarioFlappingMembers(b *testing.B) {
	var events uint64
	var compl float64
	for i := 0; i < b.N; i++ {
		rep, err := scenario.RunNamed("org-flapping-members", scenario.Options{
			Peers: 300, Variant: harness.VariantEnhanced, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CaughtUp != rep.Survivors {
			b.Fatalf("%d of %d survivors caught up", rep.CaughtUp, rep.Survivors)
		}
		events += rep.EngineEvents
		compl = rep.ViewCompleteness
	}
	reportMetric(b, float64(events)/float64(b.N), "sim_events")
	reportMetric(b, compl, "view_completeness")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		reportMetric(b, float64(events)/secs, "events_per_s")
	}
}

// BenchmarkScenarioTxloadHotkeyContention tracks the transaction workload
// plane's full execute-order-validate path under Zipf hot-key contention
// (txload-hotkey-contention at 2 orgs x 20 peers). Beyond the usual event
// fingerprint it exports the workload plane's own metrics: conflict_rate
// (either-drift: a drop can mean the MVCC path stopped detecting
// collisions, not that contention improved) and commit_tail_ms (the p99.9
// submit-to-commit latency; increase = regression) — both gated by
// cmd/benchdiff.
func BenchmarkScenarioTxloadHotkeyContention(b *testing.B) {
	var events uint64
	var rate, commitTail float64
	for i := 0; i < b.N; i++ {
		rep, err := scenario.RunNamed("txload-hotkey-contention", scenario.Options{
			Peers: 40, Orgs: 2, Variant: harness.VariantEnhanced, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CaughtUp != rep.Survivors {
			b.Fatalf("%d of %d survivors caught up", rep.CaughtUp, rep.Survivors)
		}
		w := rep.Workload
		if w == nil || w.Committed == 0 {
			b.Fatalf("no transactions committed: %+v", w)
		}
		if w.Submitted != w.Committed+w.Conflicts {
			b.Fatalf("accounting leak: %d submitted, %d committed + %d conflicts",
				w.Submitted, w.Committed, w.Conflicts)
		}
		events += rep.EngineEvents
		rate = w.ConflictRate()
		commitTail = float64(w.Latency.P999) / 1e6
	}
	reportMetric(b, float64(events)/float64(b.N), "sim_events")
	reportMetric(b, rate, "conflict_rate")
	reportMetric(b, commitTail, "commit_tail_ms")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		reportMetric(b, float64(events)/secs, "events_per_s")
	}
}

// BenchmarkScenarioConsenterFailover tracks the Raft ordering cluster's
// failover path (consenter-minority-loss at 2 orgs x 20 peers: one of
// three consenters crashes under transaction load). Beyond the usual event
// fingerprint it exports the cluster's health metrics: election_ms (total
// leaderless time — growth means elections got slower or more frequent)
// and deliver_gap_ms (the widest pause any organization saw between
// first-time deliveries — the client-visible cost of a failover) — both
// gated by cmd/benchdiff.
func BenchmarkScenarioConsenterFailover(b *testing.B) {
	var events uint64
	var electionMs, gapMs float64
	for i := 0; i < b.N; i++ {
		rep, err := scenario.RunNamed("consenter-minority-loss", scenario.Options{
			Peers: 40, Orgs: 2, Variant: harness.VariantEnhanced, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CaughtUp != rep.Survivors {
			b.Fatalf("%d of %d survivors caught up", rep.CaughtUp, rep.Survivors)
		}
		w := rep.Workload
		if w == nil || w.Committed == 0 {
			b.Fatalf("no transactions committed: %+v", w)
		}
		if w.Submitted != w.Committed+w.Conflicts {
			b.Fatalf("accounting leak: %d submitted, %d committed + %d conflicts",
				w.Submitted, w.Committed, w.Conflicts)
		}
		events += rep.EngineEvents
		electionMs = float64(rep.Leaderless) / 1e6
		gapMs = float64(rep.DeliverGap) / 1e6
	}
	reportMetric(b, float64(events)/float64(b.N), "sim_events")
	reportMetric(b, electionMs, "election_ms")
	reportMetric(b, gapMs, "deliver_gap_ms")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		reportMetric(b, float64(events)/secs, "events_per_s")
	}
}

// --- 10k- and 100k-peer benchmark tiers (per-org shards) ---

// benchScenarioSharded is the scale-tier body shared by the 10k and 100k
// benchmarks: one of the sharded-* catalog entries at 10 organizations,
// WAN-separated, so one shard engine per organization plus one for the
// ordering service. sim_events is deterministic and gated; events_per_s is
// the wall-clock trajectory, reported but never gated. Per-shard event
// queues stay ~10x shallower than one global heap would, which pays even on
// a single core; multi-core runners add genuine parallelism on top.
// Beyond the usual event fingerprint it exports bytes_per_peer
// — the run's live-heap high-water (Report.HeapHighWater: the largest heap
// a collection marked live, garbage excluded) divided by the peer count,
// the per-peer memory-footprint contract of the dense-state layout
// (either-drift gated: growth means per-peer state regressed, a large drop
// means the baseline went stale). Which collection happens to land nearest
// the peak still varies a little between runs, so the gate tolerance
// absorbs that; the structural regressions it exists to catch (a
// reintroduced per-peer map, a leaked per-peer buffer) move the number by
// integer factors.
func benchScenarioSharded(b *testing.B, name string, peers int) {
	b.Helper()
	// The live-heap gauge moves only when a collection completes. At the
	// default pacing (one per doubling of the heap) a 10k run completes a
	// handful, and bytes_per_peer swings ±8 % between identical runs with
	// how near the peak the nearest one landed — as wide as the gate. At
	// 25 % growth per cycle it holds within ±3 %, for a third more wall
	// time (events_per_s is informational, and the baseline's figures for
	// these tiers are recorded at this pacing).
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	var events uint64
	var heapHigh uint64
	for i := 0; i < b.N; i++ {
		// The live-heap gauge holds what the last collection marked, which
		// before this run is whatever earlier benchmarks left reachable;
		// collect first so bytes_per_peer measures this run, not the
		// suite's execution order.
		runtime.GC()
		rep, err := scenario.RunNamed(name, scenario.Options{
			Peers: peers, Orgs: 10, Variant: harness.VariantEnhanced,
			Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CaughtUp != rep.Survivors {
			b.Fatalf("%d of %d survivors caught up", rep.CaughtUp, rep.Survivors)
		}
		events += rep.EngineEvents
		heapHigh = rep.HeapHighWater
	}
	reportMetric(b, float64(events)/float64(b.N), "sim_events")
	reportMetric(b, float64(heapHigh)/float64(peers), "bytes_per_peer")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		reportMetric(b, float64(events)/secs, "events_per_s")
	}
}

// BenchmarkScenarioShardedCrashRestart10k is the headline scale run:
// crash-restart with catch-up across 10 orgs x 1000 peers, one event loop
// per organization plus one for the ordering service.
func BenchmarkScenarioShardedCrashRestart10k(b *testing.B) {
	benchScenarioSharded(b, "sharded-crash-restart", 10000)
}

// BenchmarkScenarioShardedMembership10k runs SWIM membership convergence
// (piggybacked dissemination, probe-based suspicion, view shuffling) at
// 10 orgs x 1000 peers on per-org shards.
func BenchmarkScenarioShardedMembership10k(b *testing.B) {
	benchScenarioSharded(b, "sharded-view-convergence", 10000)
}

// BenchmarkScenarioShardedCrashRestart100k is the 100k-peer tier: the same
// crash-restart workload at 10 orgs x 10,000 peers. At this scale the run
// is dominated by per-peer state, so the benchmark exists primarily to gate
// bytes_per_peer — the dense index-addressed membership/gossip/statesync
// tables, the shared per-block encoding cache, and the aggregated workload
// pool together hold the footprint near 13 KB/peer where the map-based
// layout needed 40+ KB/peer. Expect a couple of minutes per iteration.
func BenchmarkScenarioShardedCrashRestart100k(b *testing.B) {
	benchScenarioSharded(b, "sharded-crash-restart", 100000)
}

// BenchmarkMultiOrgDissemination measures the fault-free Figure 1 shape on
// harness.Network directly: 4 orgs x 25 peers, per-org epidemics over a
// shared LAN, reporting the aggregate p99.9 first-reception latency.
func BenchmarkMultiOrgDissemination(b *testing.B) {
	const (
		orgs        = 4
		peersPerOrg = 25
		blocks      = 20
	)
	var tail float64
	for i := 0; i < b.N; i++ {
		lat := make([]time.Duration, 0, orgs*peersPerOrg*blocks)
		starts := make([]map[uint64]time.Duration, orgs)
		for o := range starts {
			starts[o] = make(map[uint64]time.Duration)
		}
		specs := make([]harness.OrgSpec, orgs)
		for o := range specs {
			specs[o] = harness.OrgSpec{Peers: peersPerOrg}
		}
		net, err := harness.NewNetwork(harness.NetworkParams{Seed: int64(i + 1), Orgs: specs},
			harness.WithNetworkCoreHook(func(global int, core *gossip.Core) {
				org := global / peersPerOrg
				core.OnFirstReception(func(blk *ledger.Block, at time.Duration) {
					if start, ok := starts[org][blk.Num]; ok {
						lat = append(lat, at-start)
					} else {
						starts[org][blk.Num] = at
					}
				})
			}))
		if err != nil {
			b.Fatal(err)
		}
		net.StartAll()
		for j, blk := range harness.BuildChain(blocks, 10, 512, int64(i+1)) {
			blk := blk
			net.Engine.At(time.Duration(j)*300*time.Millisecond, func() { net.Append(blk) })
		}
		net.RunUntil(time.Duration(blocks)*300*time.Millisecond + 10*time.Second)
		net.StopAll()
		if want := orgs * (peersPerOrg - 1) * blocks; len(lat) != want {
			b.Fatalf("recorded %d latencies, want %d", len(lat), want)
		}
		d := metrics.NewDistribution(lat)
		tail = float64(d.Quantile(0.999)) / 1e6
	}
	reportMetric(b, tail, "tail_ms")
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkHotPathDeliveryAllocs locks the allocation-free per-message
// contract end to end: Send -> Traffic.Record -> pooled AfterMsg -> engine
// dispatch -> handler. The allocs_op metric enters the baseline artifact,
// so cmd/benchdiff fails CI if any future change reintroduces a per-message
// allocation. The model is jitter-light and the traffic bucket spans the
// probe so only the steady-state path runs.
func BenchmarkHotPathDeliveryAllocs(b *testing.B) {
	engine := sim.NewEngine(1)
	model := netmodel.Model{PropMin: time.Microsecond, PropMax: 2 * time.Microsecond}
	traffic := netmodel.NewSimTraffic(time.Hour)
	net := transport.NewSimNetwork(engine, model, traffic)
	src := net.AddNode()
	dst := net.AddNode()
	delivered := 0
	dst.SetHandler(func(wire.NodeID, wire.Message) { delivered++ })
	msg := &wire.StateInfo{Height: 1}
	cycle := func() {
		_ = src.Send(dst.ID(), msg)
		engine.RunFor(10 * time.Microsecond)
	}
	for i := 0; i < 500; i++ {
		cycle() // warm the event pool, queue capacity and traffic slots
	}
	reportMetric(b, testing.AllocsPerRun(2000, cycle), "allocs_op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// BenchmarkObsOverheadDelivery locks the observability plane's hot-path
// contract: with a metrics registry attached to the transport (wire
// counters and the size histogram live) but tracing off, the per-message
// delivery path still allocates nothing — the obs_overhead metric is the
// allocation count with instruments armed, gated at zero by cmd/benchdiff.
func BenchmarkObsOverheadDelivery(b *testing.B) {
	engine := sim.NewEngine(1)
	model := netmodel.Model{PropMin: time.Microsecond, PropMax: 2 * time.Microsecond}
	traffic := netmodel.NewSimTraffic(time.Hour)
	net := transport.NewSimNetwork(engine, model, traffic)
	src := net.AddNode()
	dst := net.AddNode()
	reg := obs.NewRegistry()
	net.SetObs([]*transport.WireObs{transport.NewWireObs(reg, nil)})
	delivered := 0
	dst.SetHandler(func(wire.NodeID, wire.Message) { delivered++ })
	msg := &wire.StateInfo{Height: 1}
	cycle := func() {
		_ = src.Send(dst.ID(), msg)
		engine.RunFor(10 * time.Microsecond)
	}
	for i := 0; i < 500; i++ {
		cycle() // warm the event pool, queue capacity and traffic slots
	}
	reportMetric(b, testing.AllocsPerRun(2000, cycle), "obs_overhead")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
	if v, ok := reg.Snapshot().Get("wire_msgs_total", "dir", "out"); !ok || v == 0 {
		b.Fatal("registry saw no sends — the instruments were not armed")
	}
}

// BenchmarkEnhancedPushEnvelopeAllocs locks the pooled-envelope contract
// of the enhanced push path: a leader push draws its wire.Data envelope
// from the protocol's free list with the reference count preset to the
// fan-out, the transport releases it as deliveries terminate, and at steady
// state the whole push — envelope, send, dispatch, handler — allocates
// nothing. The warmup lets the first epidemic run to TTL exhaustion on both
// peers, so the measured cycles are pure re-pushes of a seen block: no
// epidemic state grows and every envelope comes back to the pool. The
// allocs_op metric is gated by cmd/benchdiff.
func BenchmarkEnhancedPushEnvelopeAllocs(b *testing.B) {
	eng := sim.NewEngine(1)
	model := netmodel.Model{PropMin: time.Microsecond, PropMax: 2 * time.Microsecond}
	net := transport.NewSimNetwork(eng, model, netmodel.NewSimTraffic(time.Hour))
	leaderEP := net.AddNode()
	followerEP := net.AddNode()
	peers := []wire.NodeID{leaderEP.ID(), followerEP.ID()}
	ecfg := enhanced.Config{Fout: 3, TTL: 9, TTLDirect: 2, FLeaderOut: 1,
		UseDigests: true, RequestTimeout: 250 * time.Millisecond}
	quietCore := func(ep *transport.SimEndpoint, proto gossip.Protocol) *gossip.Core {
		cfg := gossip.DefaultConfig(ep.ID(), peers)
		cfg.StateInfoInterval = 0
		cfg.AliveInterval = 0
		cfg.RecoveryInterval = 0
		cfg.SuspectTimeout = time.Hour
		core := gossip.New(cfg, ep, eng, eng.Rand("gossip/"+ep.ID().String()), proto)
		core.Start()
		return core
	}
	leader := enhanced.New(ecfg)
	quietCore(leaderEP, leader)
	quietCore(followerEP, enhanced.New(ecfg))
	blk := harness.BuildChain(1, 10, 512, 1)[0]
	cycle := func() {
		leader.OnOrdererBlock(blk)
		eng.RunFor(10 * time.Microsecond)
	}
	for i := 0; i < 500; i++ {
		cycle() // run the epidemic to TTL exhaustion, warm the free lists
	}
	reportMetric(b, testing.AllocsPerRun(2000, cycle), "allocs_op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkEnhancedDigestDelivery is the paper workload's dominant event: a
// one-offer PushDigest sent through SimNetwork and handled by an enhanced
// core that already holds the body. "duplicate" re-offers a pair the core
// has seen, so the delivery ends in the dedup check; "spread" offers a new
// pair each time, which the core forwards as a pooled digest to Fout = 4
// peers. TTL is the largest the protocol takes (63) so every held block has
// 61 digest hops to offer fresh; the receiver is rebuilt, off the clock,
// when they run out. Both allocs_op rows are gated by cmd/benchdiff.
func BenchmarkEnhancedDigestDelivery(b *testing.B) {
	const held = 200 // below the default Retention: no state is pruned
	ecfg := enhanced.Config{Fout: 4, TTL: 63, TTLDirect: 2, FLeaderOut: 1,
		UseDigests: true, RequestTimeout: 500 * time.Millisecond}
	for _, spread := range []bool{false, true} {
		name := "duplicate"
		if spread {
			name = "spread"
		}
		b.Run(name, func(b *testing.B) {
			eng := sim.NewEngine(1)
			model := netmodel.Model{PropMin: time.Microsecond, PropMax: 2 * time.Microsecond}
			net := transport.NewSimNetwork(eng, model, netmodel.NewSimTraffic(time.Hour))
			eps := make([]*transport.SimEndpoint, 6) // 0 sends, 1 receives, the rest are spread targets
			peers := make([]wire.NodeID, len(eps))
			for i := range eps {
				eps[i] = net.AddNode()
				peers[i] = eps[i].ID()
			}
			chain := harness.BuildChain(held, 1, 16, 1)
			receiver := func() {
				cfg := gossip.DefaultConfig(eps[1].ID(), peers)
				cfg.StateInfoInterval, cfg.AliveInterval, cfg.RecoveryInterval = 0, 0, 0
				core := gossip.New(cfg, eps[1], eng, eng.Rand("gossip"), enhanced.New(ecfg))
				core.Start()
				for _, blk := range chain {
					core.AddBlock(blk)
				}
				// Counter 63 has no hop left: it only sizes the tracking
				// state for every held block before the clock runs.
				_ = eps[0].Send(eps[1].ID(), &wire.PushDigest{Offers: []wire.BlockOffer{{Num: held - 1, Counter: 63}}})
				eng.RunFor(10 * time.Microsecond)
			}
			receiver()
			msg := &wire.PushDigest{Offers: []wire.BlockOffer{{Num: 0, Counter: ecfg.TTLDirect}}}
			next := 0 // index of the next fresh pair: block next/61, counter TTLDirect+next%61
			const fresh = held * 61
			cycle := func() {
				if spread {
					msg.Offers[0] = wire.BlockOffer{Num: uint64(next / 61), Counter: ecfg.TTLDirect + uint32(next%61)}
					next++
				}
				_ = eps[0].Send(eps[1].ID(), msg)
				eng.RunFor(10 * time.Microsecond)
			}
			for i := 0; i < 500; i++ {
				cycle() // warm the event pool, the digest free list and the scratch buffers
			}
			reportMetric(b, testing.AllocsPerRun(5000, cycle), "allocs_op")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next == fresh {
					b.StopTimer()
					receiver()
					next = 0
					b.StartTimer()
				}
				cycle()
			}
		})
	}
}

// BenchmarkRandomPeersReuse locks the per-tick sampling contract: a draw
// through RandomPeersInto with an owned buffer is allocation-free, so the
// periodic state-info/alive/push ticks allocate nothing for peer sampling.
// The allocs_op metric is gated by cmd/benchdiff.
func BenchmarkRandomPeersReuse(b *testing.B) {
	engine := sim.NewEngine(1)
	net := transport.NewSimNetwork(engine, netmodel.LAN(), nil)
	peers := make([]wire.NodeID, 1000)
	for i := range peers {
		peers[i] = wire.NodeID(i)
	}
	ep := net.AddNode()
	core := gossip.New(gossip.DefaultConfig(ep.ID(), peers), ep, engine, engine.Rand("gossip"),
		original.New(original.Config{Fout: 3}))
	var buf []wire.NodeID
	cycle := func() {
		buf = core.RandomPeersInto(4, buf)
		if len(buf) != 4 {
			b.Fatal("short sample")
		}
	}
	cycle() // grow the buffer once
	reportMetric(b, testing.AllocsPerRun(2000, cycle), "allocs_op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkOriginalPullRound is one pull exchange of the stock protocol
// between two cores at height 1 000 with the default 100-number digest
// window: hello, digest (the window plus two strays the responder holds
// above a 3-block gap), request for the two strays. The bodies sent in reply
// are dropped on the wire, so every round asks again and the steady state
// repeats. Each handler reads the block store under one lock and the
// digest's number list is sized once; allocs_op — the messages, the two
// lists, the tick's timer — is gated by cmd/benchdiff, so a digest grown
// number by number (seven more allocations at this shape) fails CI.
func BenchmarkOriginalPullRound(b *testing.B) {
	engine := sim.NewEngine(1)
	// Constant delay: rounds are exactly TPull apart, so the once-per-round
	// request filter passes every time.
	model := netmodel.Model{PropMin: time.Millisecond, PropMax: time.Millisecond}
	traffic := netmodel.NewSimTraffic(time.Hour)
	net := transport.NewSimNetwork(engine, model, traffic)
	net.SetDropRate(1)
	for _, mt := range []wire.MsgType{wire.TypePullHello, wire.TypePullDigest, wire.TypePullRequest} {
		net.SetLossExempt(mt, true)
	}
	cfg := original.DefaultConfig()
	silent := cfg
	silent.TPull = 0 // the responder opens no rounds of its own
	peers := []wire.NodeID{0, 1}
	var cores [2]*gossip.Core
	for i, pc := range []original.Config{cfg, silent} {
		ep := net.AddNode()
		gcfg := gossip.DefaultConfig(ep.ID(), peers)
		gcfg.AliveInterval, gcfg.StateInfoInterval, gcfg.RecoveryInterval = 0, 0, 0
		cores[i] = gossip.New(gcfg, ep, engine, engine.Rand(fmt.Sprint("gossip", i)), original.New(pc))
		cores[i].Start()
	}
	for _, blk := range harness.BuildChain(1005, 1, 16, 1) {
		if blk.Num < 1000 {
			cores[0].AddBlock(blk)
		}
		if blk.Num < 1000 || blk.Num >= 1003 {
			cores[1].AddBlock(blk)
		}
	}
	cycle := func() { engine.RunFor(cfg.TPull) }
	for i := 0; i < 10; i++ {
		cycle() // past the random first-round phase; warm the event pool
	}
	reportMetric(b, testing.AllocsPerRun(500, cycle), "allocs_op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	rounds := traffic.CountOf(wire.TypePullHello)
	if got := traffic.CountOf(wire.TypePullData); rounds < uint64(b.N) || got != 2*rounds {
		b.Fatalf("%d rounds served %d bodies, want two strays requested every round", rounds, got)
	}
}

// BenchmarkMembershipLeader locks the leader-query contract: Leader walks
// the sorted tracked slice and answers from the first live probe — no
// allocation and no per-call sort, even over a thousand-peer view (the old
// implementation allocated and sorted the full live list on every tick).
// The allocs_op metric is gated by cmd/benchdiff.
func BenchmarkMembershipLeader(b *testing.B) {
	v := membership.New(membership.Config{Self: 500, Expiration: time.Hour}, nil)
	for i := 0; i < 1000; i++ {
		if i != 500 {
			v.Observe(wire.NodeID(i), 1, 0)
		}
	}
	now := time.Second
	cycle := func() {
		if v.Leader(now) != 0 {
			b.Fatal("wrong leader")
		}
	}
	reportMetric(b, testing.AllocsPerRun(2000, cycle), "allocs_op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkMembershipPiggybackIdle locks the piggyback steady state: with
// the SWIM extensions enabled but no pending rumors — a stable
// organization — every ordinary send through the core costs one queue
// check and allocates nothing beyond the raw delivery path. The allocs_op
// metric is gated by cmd/benchdiff.
func BenchmarkMembershipPiggybackIdle(b *testing.B) {
	engine := sim.NewEngine(1)
	model := netmodel.Model{PropMin: time.Microsecond, PropMax: 2 * time.Microsecond}
	net := transport.NewSimNetwork(engine, model, netmodel.NewSimTraffic(time.Hour))
	src := net.AddNode()
	dst := net.AddNode()
	cfg := gossip.DefaultConfig(src.ID(), []wire.NodeID{src.ID(), dst.ID()})
	cfg.StateInfoInterval = 0
	cfg.AliveInterval = 0
	cfg.RecoveryInterval = 0
	cfg.SuspectTimeout = 10 * time.Second
	cfg.PiggybackMax = 32
	cfg.ShuffleInterval = time.Hour // enabled, but never fires in the probe window
	core := gossip.New(cfg, src, engine, engine.Rand("gossip"), original.New(original.Config{Fout: 1}))
	msg := &wire.StateInfo{Height: 1}
	cycle := func() {
		core.Send(dst.ID(), msg)
		engine.RunFor(10 * time.Microsecond)
	}
	for i := 0; i < 500; i++ {
		cycle() // warm the event pool and drain any bootstrap rumors
	}
	if qs := core.MembershipStats(); qs.Queued != 0 {
		b.Fatalf("rumor queue not drained: %+v", qs)
	}
	reportMetric(b, testing.AllocsPerRun(2000, cycle), "allocs_op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkStateSyncServe locks the zero-copy serve contract end to end: a
// StateRequest for an already-frozen range travels through the simulated
// transport, hits the provider's batch cache and is answered by re-sending
// the cached pre-encoded StateResponse — zero allocations and zero
// re-encoding of the block trees at steady state. The allocs_op metric is
// gated by cmd/benchdiff.
func BenchmarkStateSyncServe(b *testing.B) {
	engine := sim.NewEngine(1)
	model := netmodel.Model{PropMin: time.Microsecond, PropMax: 2 * time.Microsecond}
	traffic := netmodel.NewSimTraffic(time.Hour)
	net := transport.NewSimNetwork(engine, model, traffic)
	serverEP := net.AddNode()
	client := net.AddNode()
	peers := []wire.NodeID{serverEP.ID(), client.ID()}
	core := gossip.New(gossip.DefaultConfig(serverEP.ID(), peers), serverEP, engine,
		engine.Rand("gossip"), original.New(original.Config{Fout: 3}))
	for _, blk := range harness.BuildChain(32, 10, 512, 1) {
		core.AddBlock(blk)
	}
	responses := 0
	client.SetHandler(func(_ wire.NodeID, m wire.Message) {
		if _, ok := m.(*wire.StateResponse); ok {
			responses++
		}
	})
	req := &wire.StateRequest{From: 0, To: 32}
	cycle := func() {
		_ = client.Send(serverEP.ID(), req)
		engine.RunFor(10 * time.Microsecond)
	}
	for i := 0; i < 200; i++ {
		cycle() // freeze + cache the batch, warm the event pool
	}
	reportMetric(b, testing.AllocsPerRun(2000, cycle), "allocs_op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	if responses == 0 {
		b.Fatal("no responses served")
	}
	if stats := core.StateSyncStats(); stats.ServedCached == 0 {
		b.Fatal("serve path never hit the frozen-batch cache")
	}
}

// BenchmarkBuildChain builds the paper's chain (1000 blocks x 50 tx x 3 KB,
// 160 MB), the set-up the repository benchmark times; RunDissemination
// streams the same chain beside its engine. One drawer goroutine draws the
// payloads while GOMAXPROCS hashers hash the blocks already drawn (at
// procs=1 the drawer hashes too), and procs=1's allocs_op — one payload slab
// per block in place of fifty payloads — is gated by cmd/benchdiff.
func BenchmarkBuildChain(b *testing.B) {
	for _, bc := range []struct {
		name  string
		procs int
	}{{"procs=1", 1}, {"procs=all", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bc.procs))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				if len(harness.BuildChain(1000, 50, 3000, 1)) != 1000 {
					b.Fatal("short chain")
				}
			}
			runtime.ReadMemStats(&after)
			if bc.procs == 1 {
				reportMetric(b, float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs_op")
			}
		})
	}
}

// BenchmarkWireMarshalBlock measures encoding one paper-sized block
// (50 tx x ~3.2 KB) that has been encoded before: the flat buffer, the sink,
// and one copy of the encoding cached on the block.
func BenchmarkWireMarshalBlock(b *testing.B) {
	blk := harness.BuildChain(1, 50, 3000, 1)[0]
	msg := &wire.Data{Block: blk, Counter: 3}
	b.SetBytes(int64(msg.EncodedSize()))
	reportMetric(b, testing.AllocsPerRun(50, func() { wire.Marshal(msg) }), "allocs_op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(wire.Marshal(msg)) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkWireUnmarshalBlock measures decoding the same block: the tree's
// nodes and strings are allocated, its byte fields alias the input.
func BenchmarkWireUnmarshalBlock(b *testing.B) {
	blk := harness.BuildChain(1, 50, 3000, 1)[0]
	data := wire.Marshal(&wire.Data{Block: blk, Counter: 3})
	b.SetBytes(int64(len(data)))
	reportMetric(b, testing.AllocsPerRun(50, func() {
		if _, err := wire.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}), "allocs_op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPForwardBlock measures the live runtime's forwarding step: a
// peer that received a paper-sized block over loopback sends it on. The
// destination is a bare socket drained into one buffer, so allocs_op counts
// the send side alone — the message, the encoder's sink — and the benchmark
// fails if a forward allocates anything that grows with the block (a
// re-encoding, a frame copy): the bytes leave as they arrived.
func BenchmarkTCPForwardBlock(b *testing.B) {
	drain, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer drain.Close()
	go func() {
		conn, err := drain.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for buf := make([]byte, 256<<10); ; {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	book := transport.StaticAddressBook{2: drain.Addr().String()}
	var eps [2]*transport.TCPEndpoint
	for i := range eps {
		if eps[i], err = transport.ListenTCP(wire.NodeID(i), "127.0.0.1:0", book, nil); err != nil {
			b.Fatal(err)
		}
		defer eps[i].Close()
		book[wire.NodeID(i)] = eps[i].Addr()
	}
	received := make(chan *wire.Data, 1)
	eps[1].SetHandler(func(_ wire.NodeID, m wire.Message) { received <- m.(*wire.Data) })
	if err := eps[0].Send(1, &wire.Data{Block: harness.BuildChain(1, 50, 3000, 1)[0], Counter: 3}); err != nil {
		b.Fatal(err)
	}
	in := <-received
	forward := func() {
		if err := eps[1].Send(2, &wire.Data{Block: in.Block, Counter: in.Counter + 1}); err != nil {
			b.Fatal(err)
		}
	}
	forward() // dial
	b.SetBytes(int64(in.EncodedSize()))
	reportMetric(b, testing.AllocsPerRun(200, forward), "allocs_op")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forward()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N); perOp > 4096 {
		b.Fatalf("forwarding a %d-byte block allocated %d bytes", in.EncodedSize(), perOp)
	}
}

// BenchmarkSimEngine measures raw event throughput of the discrete-event
// engine (the floor under every experiment's run time).
func BenchmarkSimEngine(b *testing.B) {
	e := sim.NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		e.After(time.Microsecond, tick)
	}
	e.After(0, tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if count == 0 {
		b.Fatal("no events ran")
	}
}

// BenchmarkLedgerCommit measures validating and committing a 50-tx block.
func BenchmarkLedgerCommit(b *testing.B) {
	blocks := harness.BuildChain(b.N, 50, 256, 1)
	led := ledger.NewLedger(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := led.Commit(blocks[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLedgerCommitShared measures what a chain costs a network: 200
// ledgers on one chain commit 32 blocks of sim-txload's shape (100
// transactions of 64 B), each block validated and applied once and handed
// to the other 199 as the recorded result. The allocs_op metric is gated by
// cmd/benchdiff.
func BenchmarkLedgerCommitShared(b *testing.B) {
	const peers = 200
	blocks := harness.BuildChain(32, 100, 64, 1)
	commitAll := func() {
		chain := ledger.NewChain(nil)
		leds := make([]*ledger.Ledger, peers)
		for i := range leds {
			leds[i] = chain.NewLedger()
		}
		for _, blk := range blocks {
			for _, l := range leds {
				if _, err := l.Commit(blk); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	reportMetric(b, testing.AllocsPerRun(3, commitAll), "allocs_op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commitAll()
	}
}

// BenchmarkValidateBlock measures the validation phase of one sim-txload
// block: 100 counter increments, each endorsed by two ed25519 endorsers
// under the workload's 1-of-2 policy, checked through a one-entry verdict
// cache so every check verifies a signature. The policy pass runs on one
// worker (procs=1) or GOMAXPROCS (procs=all), then the MVCC pass; procs=1's
// allocs_op is gated by cmd/benchdiff.
func BenchmarkValidateBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	provider, err := msp.NewProvider(rng)
	if err != nil {
		b.Fatal(err)
	}
	var ids []*msp.Identity
	var endorsers []*endorse.Endorser
	for i := 0; i < 2; i++ {
		id, signer, err := provider.Enroll(msp.RolePeer, "org0", fmt.Sprintf("peer%d", i), rng)
		if err != nil {
			b.Fatal(err)
		}
		e := endorse.NewEndorser(id, signer, ledger.NewStateDB())
		e.Install(chaincode.Counter{})
		ids, endorsers = append(ids, id), append(endorsers, e)
	}
	blk := &ledger.Block{}
	for i := 0; i < 100; i++ {
		args, nonce := []string{"incr", fmt.Sprintf("key-%d", i)}, []byte{byte(i)}
		var rs []*endorse.Response
		for _, e := range endorsers {
			r, err := e.Endorse("client", "counter", args, nonce)
			if err != nil {
				b.Fatal(err)
			}
			rs = append(rs, r)
		}
		tx, err := endorse.AssembleTransaction("client", "counter", nonce, rs)
		if err != nil {
			b.Fatal(err)
		}
		blk.Txs = append(blk.Txs, tx)
	}
	blk.DataHash = ledger.ComputeDataHash(blk.Txs)
	check := endorse.NewPolicy(1, ids...).CheckerN(1)
	state := ledger.NewStateDB()
	validate := func() {
		for _, code := range ledger.ValidateBlock(state, blk, check) {
			if code != ledger.CodeValid {
				b.Fatalf("transaction validated %v", code)
			}
		}
	}
	for _, bc := range []struct {
		name  string
		procs int
	}{{"procs=1", 1}, {"procs=all", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bc.procs))
			if bc.procs == 1 {
				reportMetric(b, testing.AllocsPerRun(5, validate), "allocs_op")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				validate()
			}
		})
	}
}

// BenchmarkRaftOrdering measures end-to-end ordered-entry throughput of a
// three-node Raft cluster under the simulated LAN.
func BenchmarkRaftOrdering(b *testing.B) {
	engine := sim.NewEngine(1)
	model := netmodel.Model{PropMin: 200 * time.Microsecond, PropMax: 500 * time.Microsecond}
	net := transport.NewSimNetwork(engine, model, nil)
	ids := []wire.NodeID{0, 1, 2}
	applied := 0
	var leaderNode *raft.Node
	for i := 0; i < 3; i++ {
		ep := net.AddNode()
		n := raft.New(raft.DefaultConfig(ids[i], ids), ep, engine, engine.Rand("raft"))
		if i == 0 {
			n.OnApply(func([]byte) { applied++ })
			leaderNode = n
		} else {
			n.OnApply(func([]byte) {})
		}
		n.Start()
	}
	engine.RunUntil(2 * time.Second)
	_ = leaderNode
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := []byte(fmt.Sprintf("entry-%d", i))
		engine.After(0, func() {
			for _, nd := range []*raft.Node{leaderNode} {
				_ = nd.Propose(payload)
			}
		})
		engine.RunFor(2 * time.Millisecond)
	}
	engine.RunFor(time.Second)
	if applied == 0 {
		b.Fatal("nothing applied")
	}
}

// BenchmarkOrderBlockCutter measures the block cutter under a solo
// consenter at the paper's 50-tx cap.
func BenchmarkOrderBlockCutter(b *testing.B) {
	engine := sim.NewEngine(1)
	cut := 0
	svc := order.NewService(order.DefaultConfig(), engine, order.NewSolo(engine, 0), nil,
		func(*ledger.Block) { cut++ })
	txs := harness.BuildChain(1, 50, 256, 1)[0].Txs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Broadcast(txs[i%len(txs)]); err != nil {
			b.Fatal(err)
		}
		engine.RunFor(time.Microsecond)
	}
	engine.RunFor(time.Minute)
	if b.N >= 50 && cut == 0 {
		b.Fatal("no blocks cut")
	}
}
