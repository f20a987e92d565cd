package fabricgossip

// One benchmark per distinct run behind an evaluation artifact (Figures
// 4-14, Table II, §IV analytics), each a reduced-scale instance of the
// workload the cmd/figures tool regenerates at full scale, plus
// micro-benchmarks of the hot paths (codec, engine, gossip step, Raft
// ordering).
//
// Benchmarks report domain metrics via b.ReportMetric:
//
//	tail_ms      p99.9 dissemination latency (latency figures)
//	peer_MBps    regular-peer bandwidth (bandwidth figures)
//	conflicts    invalidated transactions (Table II)
//	conflict_rate  workload-plane validation conflict fraction
//	commit_tail_ms workload-plane p99.9 submit-to-commit latency
//	sim_events   discrete events per scenario run (deterministic)
//	events_per_s engine throughput (wall-clock; trajectory only, never checked)
//	allocs_op    heap allocations per delivered message (hot-path contract)
//
// Each benchmark is also its own regression gate. A simulated figure is
// deterministic per seed, so the seed-1 iteration (the one every
// -benchtime 1x run executes) must reproduce the constant written at the
// call site exactly; an allocation count or a per-peer heap figure must stay
// at or under its ceiling. A deliberate behaviour change updates the
// constant in the same commit.

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
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

// pin fails the benchmark unless a seed-1 figure equals the value recorded
// for it.
func pin[T comparable](b *testing.B, what string, got, want T) {
	b.Helper()
	if got != want {
		b.Fatalf("seed 1 %s = %v, want %v", what, got, want)
	}
}

// pinMs reports a seed-1 duration in milliseconds under unit and pins it.
func pinMs(b *testing.B, unit string, got, want time.Duration) {
	b.Helper()
	b.ReportMetric(float64(got)/1e6, unit)
	pin(b, unit, got, want)
}

// atMost reports a cost figure under unit and fails when it exceeds ceiling.
// Call it after b.ResetTimer, which deletes the metrics reported before it.
func atMost(b *testing.B, unit string, got, ceiling float64) {
	b.Helper()
	b.ReportMetric(got, unit)
	if got > ceiling {
		b.Fatalf("%s = %v, want ≤ %v", unit, got, ceiling)
	}
}

// benchDissemination runs the workload once per iteration, seeds 1..b.N,
// and hands the seed-1 result to seed1.
func benchDissemination(b *testing.B, p harness.Params, seed1 func(*harness.DisseminationResult)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		res, err := harness.RunDissemination(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			seed1(res)
		}
	}
}

// benchTail pins the run's p99.9 dissemination latency (tail_ms).
func benchTail(b *testing.B, p harness.Params, want time.Duration) {
	b.Helper()
	benchDissemination(b, p, func(res *harness.DisseminationResult) {
		pinMs(b, "tail_ms", res.Latencies.All().Quantile(0.999), want)
	})
}

// benchBandwidth pins the regular peer's average bandwidth (peer_MBps).
func benchBandwidth(b *testing.B, p harness.Params, want float64) {
	b.Helper()
	benchDissemination(b, p, func(res *harness.DisseminationResult) {
		gen := int(time.Duration(p.NumBlocks)*p.BlockInterval/p.Bucket) + 1
		mbps := res.Traffic.NodeAverage(res.RegularID, gen)
		b.ReportMetric(mbps, "peer_MBps")
		pin(b, "peer_MBps", mbps, want)
	})
}

func quick(v harness.Variant) harness.Params {
	return harness.QuickScale(harness.DefaultParams(v, 1), benchPeers, benchBlocks)
}

// BenchmarkFig4PeerLatencyOriginal regenerates the run behind Figures 4
// and 5 (peer- and block-level latency) under the stock infect-and-die +
// pull gossip.
func BenchmarkFig4PeerLatencyOriginal(b *testing.B) {
	benchTail(b, quick(harness.VariantOriginal), 4047735249)
}

// BenchmarkFig6BandwidthOriginal regenerates Figure 6's workload: per-peer
// bandwidth under the stock gossip.
func BenchmarkFig6BandwidthOriginal(b *testing.B) {
	benchBandwidth(b, quick(harness.VariantOriginal), 0.8995550428571429)
}

// BenchmarkFig7PeerLatencyEnhanced regenerates the run behind Figures 7
// and 8: enhanced gossip with fout=4-equivalent parameters.
func BenchmarkFig7PeerLatencyEnhanced(b *testing.B) {
	benchTail(b, quick(harness.VariantEnhanced), 224220719)
}

// BenchmarkFig9BandwidthEnhanced regenerates Figure 9's workload.
func BenchmarkFig9BandwidthEnhanced(b *testing.B) {
	benchBandwidth(b, quick(harness.VariantEnhanced), 0.5879929857142857)
}

// BenchmarkFig10LeaderFanoutAblation regenerates Figure 10's ablation: the
// leader pushes with fleaderout = fout instead of delegating.
func BenchmarkFig10LeaderFanoutAblation(b *testing.B) {
	p := harness.QuickScale(harness.Fig10Params(1), benchPeers, benchBlocks)
	benchBandwidth(b, p, 0.7335951285714285)
}

// BenchmarkFig11NoDigestAblation regenerates Figure 11's ablation: bodies
// pushed on every hop (digests disabled).
func BenchmarkFig11NoDigestAblation(b *testing.B) {
	p := harness.QuickScale(harness.Fig11Params(1), benchPeers, 10)
	benchBandwidth(b, p, 3.47696305)
}

// BenchmarkFig12PeerLatencyFout2 regenerates the run behind Figures 12 and
// 13: the conservative fout=2 configuration.
func BenchmarkFig12PeerLatencyFout2(b *testing.B) {
	p := harness.QuickScale(harness.Fig12Params(1), benchPeers, benchBlocks)
	benchTail(b, p, 249937276)
}

// BenchmarkFig14BandwidthFout2 regenerates Figure 14's workload.
func BenchmarkFig14BandwidthFout2(b *testing.B) {
	p := harness.QuickScale(harness.Fig12Params(1), benchPeers, benchBlocks)
	benchBandwidth(b, p, 0.558418857142857)
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
		if i == 0 {
			b.ReportMetric(float64(res.Conflicts), "conflicts_orig")
			b.ReportMetric(float64(res2.Conflicts), "conflicts_enh")
			pin(b, "conflicts_orig", res.Conflicts, 15)
			pin(b, "conflicts_enh", res2.Conflicts, 6)
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

// benchScenario runs a catalog scenario once per iteration, seeds 1..b.N.
// Every run must catch all survivors up and, under a transaction workload,
// commit something and account for every submission. Seed 1's event count
// is pinned to wantEvents, and seed1, when set, reports and pins the
// scenario's own figures from the same run.
func benchScenario(b *testing.B, name string, o scenario.Options, wantEvents uint64, seed1 func(*scenario.Report)) {
	b.Helper()
	var events uint64
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		rep, err := scenario.RunNamed(name, o)
		if err != nil {
			b.Fatal(err)
		}
		if rep.CaughtUp != rep.Survivors {
			b.Fatalf("%d of %d survivors caught up", rep.CaughtUp, rep.Survivors)
		}
		if w := rep.Workload; w != nil && (w.Committed == 0 || w.Submitted != w.Committed+w.Conflicts) {
			b.Fatalf("workload: %d submitted, %d committed, %d conflicts",
				w.Submitted, w.Committed, w.Conflicts)
		}
		if i == 0 {
			pin(b, "sim_events", rep.EngineEvents, wantEvents)
			if seed1 != nil {
				seed1(rep)
			}
		}
		events += rep.EngineEvents
	}
	b.ReportMetric(float64(events)/float64(b.N), "sim_events")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events_per_s")
	}
}

// enhancedAt is a scenario run of the enhanced protocol on peers peers in
// orgs organizations (0: the scenario's default).
func enhancedAt(peers, orgs int) scenario.Options {
	return scenario.Options{Peers: peers, Orgs: orgs, Variant: harness.VariantEnhanced}
}

// tail pins a scenario's p99.9 dissemination latency (tail_ms).
func tail(b *testing.B, want time.Duration) func(*scenario.Report) {
	return func(rep *scenario.Report) { pinMs(b, "tail_ms", rep.Latency.P999, want) }
}

// BenchmarkScenarioCrashRestart tracks the crash/restart-with-catchup
// scenario at the paper's organization size.
func BenchmarkScenarioCrashRestart(b *testing.B) {
	benchScenario(b, "crash-restart", enhancedAt(100, 0), 38113, nil)
}

// BenchmarkScenarioChurn tracks rolling crash/restart waves.
func BenchmarkScenarioChurn(b *testing.B) {
	benchScenario(b, "churn", enhancedAt(100, 0), 58264, nil)
}

// BenchmarkScenarioPartitionHeal tracks the split-brain + recovery path.
func BenchmarkScenarioPartitionHeal(b *testing.B) {
	o := scenario.Options{Peers: 100, Variant: harness.VariantOriginal}
	benchScenario(b, "partition-heal", o, 33969, nil)
}

// BenchmarkScenarioCrashRestart1000 is the scale benchmark behind the
// engine's hot-path work: a thousand-peer fault scenario must complete in
// seconds of wall time.
func BenchmarkScenarioCrashRestart1000(b *testing.B) {
	benchScenario(b, "crash-restart", enhancedAt(1000, 0), 398099, nil)
}

// --- multi-organization benchmarks (harness.Network) ---

// BenchmarkScenarioOrgPartitionHeal tracks the whole-org partition plus
// orderer-backlog-restream path at 4 organizations.
func BenchmarkScenarioOrgPartitionHeal(b *testing.B) {
	benchScenario(b, "org-partition-heal", enhancedAt(100, 4), 45789, tail(b, 167407625))
}

// BenchmarkScenarioOrgColdJoin tracks the deep whole-org catch-up path.
func BenchmarkScenarioOrgColdJoin(b *testing.B) {
	benchScenario(b, "org-cold-join", enhancedAt(100, 4), 55343, tail(b, 174110997))
}

// BenchmarkScenarioOrgMixedProtocols tracks both protocols sharing one
// channel (alternating per organization).
func BenchmarkScenarioOrgMixedProtocols(b *testing.B) {
	benchScenario(b, "org-mixed-protocols", enhancedAt(100, 4), 39889, tail(b, 8424574041))
}

// BenchmarkScenarioOrgOutageOrdererDown tracks the anchor-peer cross-org
// recovery path: a whole organization and then the ordering service crash,
// and the org restarts cold with the orderer still down, recovering through
// remote anchors over WAN links. Beyond the usual event fingerprint it
// pins the recovery plane's own figures: sync_bytes (StateRequest +
// StateResponse traffic) and sync_tail_ms (the p99.9 catch-up latency).
func BenchmarkScenarioOrgOutageOrdererDown(b *testing.B) {
	benchScenario(b, "org-outage-orderer-down", enhancedAt(100, 4), 51259, func(rep *scenario.Report) {
		b.ReportMetric(float64(rep.SyncBytes), "sync_bytes")
		pin(b, "sync_bytes", rep.SyncBytes, 1766071)
		pinMs(b, "sync_tail_ms", rep.Recoveries.P999, 12027950068)
	})
}

// BenchmarkScenarioOrgAsymConsortium tracks the heterogeneous-org-size
// layout (one datacenter org plus two small branches).
func BenchmarkScenarioOrgAsymConsortium(b *testing.B) {
	benchScenario(b, "org-asym-consortium", enhancedAt(100, 3), 48828, tail(b, 196903694))
}

// BenchmarkScenarioViewConvergence1000 is the dense-membership acceptance
// run: a cold thousand-peer organization under the SWIM extensions
// (piggybacked events, probe-based suspicion, view shuffling) converges its
// views. Beyond the usual event fingerprint it pins the membership plane's
// own figures: view_completeness (seed 1 reaches every view entry) and
// leader_convergence_ms.
func BenchmarkScenarioViewConvergence1000(b *testing.B) {
	benchScenario(b, "org-view-convergence", enhancedAt(1000, 0), 701674, func(rep *scenario.Report) {
		b.ReportMetric(rep.ViewCompleteness, "view_completeness")
		pin(b, "view_completeness", rep.ViewCompleteness, 1.0)
		pinMs(b, "leader_convergence_ms", rep.LeaderConvergence, 12500*time.Millisecond)
	})
}

// BenchmarkScenarioFlappingMembers tracks the suspicion/refutation path
// under sustained packet loss plus genuine churn (org-flapping-members):
// the view must stay complete while lossy-but-live peers are refuted
// rather than flapped through dead.
func BenchmarkScenarioFlappingMembers(b *testing.B) {
	benchScenario(b, "org-flapping-members", enhancedAt(300, 0), 238640, func(rep *scenario.Report) {
		b.ReportMetric(rep.ViewCompleteness, "view_completeness")
		pin(b, "view_completeness", rep.ViewCompleteness, 1.0)
	})
}

// BenchmarkScenarioTxloadHotkeyContention tracks the transaction workload
// plane's full execute-order-validate path under Zipf hot-key contention
// (txload-hotkey-contention at 2 orgs x 20 peers). Beyond the usual event
// fingerprint it pins the workload plane's own figures: conflict_rate
// (through the committed and conflicting counts it is derived from) and
// commit_tail_ms (the p99.9 submit-to-commit latency).
func BenchmarkScenarioTxloadHotkeyContention(b *testing.B) {
	benchScenario(b, "txload-hotkey-contention", enhancedAt(40, 2), 25069, func(rep *scenario.Report) {
		w := rep.Workload
		b.ReportMetric(w.ConflictRate(), "conflict_rate")
		pin(b, "committed/conflicts", [2]int{w.Committed, w.Conflicts}, [2]int{194, 695})
		pinMs(b, "commit_tail_ms", w.Latency.P999, 592158005)
	})
}

// BenchmarkScenarioConsenterFailover tracks the Raft ordering cluster's
// failover path (consenter-minority-loss at 2 orgs x 20 peers: one of
// three consenters crashes under transaction load). Beyond the usual event
// fingerprint it pins the cluster's health figures: election_ms (total
// leaderless time) and deliver_gap_ms (the widest pause any organization
// saw between first-time deliveries — the client-visible cost of a
// failover) and peak_log, the longest any consenter's Raft log grew: with
// compaction at the cluster low-water, the crashed consenter's lag rather
// than the run's length.
func BenchmarkScenarioConsenterFailover(b *testing.B) {
	benchScenario(b, "consenter-minority-loss", enhancedAt(40, 2), 19259, func(rep *scenario.Report) {
		pinMs(b, "election_ms", rep.Leaderless, 173179196)
		pinMs(b, "deliver_gap_ms", rep.DeliverGap, 1181602943)
		peak, _ := rep.Obs.Get("raft_log_peak_entries")
		b.ReportMetric(peak, "peak_log")
		pin(b, "peak_log", peak, 192)
	})
}

// --- 10k- and 100k-peer benchmark tiers (per-org shards) ---

// benchScenarioSharded is the scale-tier body shared by the 10k and 100k
// benchmarks: one of the sharded-* catalog entries at 10 organizations,
// WAN-separated, so one shard engine per organization plus one for the
// ordering service. sim_events is pinned; events_per_s is the wall-clock
// trajectory, reported but never checked. Per-shard event queues hold ~10x
// fewer events than one global queue would, which pays even on a single
// core; multi-core runners add genuine parallelism on top.
// Beyond the usual event fingerprint it reports bytes_per_peer — the seed-1
// run's live-heap high-water (Report.HeapHighWater: the largest heap a
// collection marked live, garbage excluded) divided by the peer count, the
// per-peer memory-footprint contract of the dense-state layout — and fails
// when it exceeds maxBytesPerPeer. Which collection happens to land nearest
// the peak still varies a little between runs, so the ceiling sits 10 %
// above the recorded figure; the structural regressions it exists to catch
// (a reintroduced per-peer map, a leaked per-peer buffer) move the number by
// integer factors.
func benchScenarioSharded(b *testing.B, name string, peers int, wantEvents uint64, maxBytesPerPeer float64) {
	b.Helper()
	// The live-heap gauge moves only when a collection completes. At the
	// default pacing (one per doubling of the heap) a 10k run completes a
	// handful, and bytes_per_peer swings ±8 % between identical runs with
	// how near the peak the nearest one landed — nearly the ceiling's
	// headroom. At 25 % growth per cycle it holds within ±3 %, for a third
	// more wall time (events_per_s is informational, and the ceilings are
	// recorded at this pacing).
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	// The gauge holds what the last collection marked, which before this
	// run is whatever earlier benchmarks left reachable; collect first so
	// bytes_per_peer measures this run, not the suite's execution order.
	runtime.GC()
	benchScenario(b, name, enhancedAt(peers, 10), wantEvents, func(rep *scenario.Report) {
		atMost(b, "bytes_per_peer", float64(rep.HeapHighWater)/float64(peers), maxBytesPerPeer)
	})
}

// BenchmarkScenarioShardedCrashRestart10k is the headline scale run:
// crash-restart with catch-up across 10 orgs x 1000 peers, one event loop
// per organization plus one for the ordering service.
func BenchmarkScenarioShardedCrashRestart10k(b *testing.B) {
	benchScenarioSharded(b, "sharded-crash-restart", 10000, 4449914, 8939)
}

// BenchmarkScenarioShardedMembership10k runs SWIM membership convergence
// (piggybacked dissemination, probe-based suspicion, view shuffling) at
// 10 orgs x 1000 peers on per-org shards.
func BenchmarkScenarioShardedMembership10k(b *testing.B) {
	benchScenarioSharded(b, "sharded-view-convergence", 10000, 7008104, 72886)
}

// BenchmarkScenarioShardedCrashRestart100k is the 100k-peer tier: the same
// crash-restart workload at 10 orgs x 10,000 peers. At this scale the run
// is dominated by per-peer state, so the benchmark exists primarily to hold
// bytes_per_peer — the dense index-addressed membership/gossip/statesync
// tables, the shared per-block encoding cache, and the aggregated workload
// pool together hold the footprint near 8 KB/peer where the map-based
// layout needed 40+ KB/peer. Expect a couple of minutes per iteration.
func BenchmarkScenarioShardedCrashRestart100k(b *testing.B) {
	benchScenarioSharded(b, "sharded-crash-restart", 100000, 45786797, 8843)
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
		if i == 0 {
			pinMs(b, "tail_ms", metrics.NewDistribution(lat).Quantile(0.999), 186845069)
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkHotPathDeliveryAllocs locks the allocation-free per-message
// contract end to end: Send -> Traffic.Record -> pooled AfterMsg -> engine
// dispatch -> handler. allocs_op must stay 0, so the benchmark fails if any
// future change reintroduces a per-message allocation. The model is jitter-light and the traffic bucket spans the
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
	allocs := testing.AllocsPerRun(2000, cycle)
	b.ReportAllocs()
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 0)
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
// allocation count with instruments armed, held at zero.
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
	allocs := testing.AllocsPerRun(2000, cycle)
	b.ReportAllocs()
	b.ResetTimer()
	atMost(b, "obs_overhead", allocs, 0)
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
// epidemic state grows and every envelope comes back to the pool;
// allocs_op must stay 0.
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
	allocs := testing.AllocsPerRun(2000, cycle)
	b.ReportAllocs()
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 0)
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
// when they run out. Both allocs_op figures must stay 0.
func BenchmarkEnhancedDigestDelivery(b *testing.B) {
	const held = 200 // below the retention window: no state is pruned
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
			allocs := testing.AllocsPerRun(5000, cycle)
			b.ReportAllocs()
			b.ResetTimer()
			atMost(b, "allocs_op", allocs, 0)
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
// allocs_op must stay 0.
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
	allocs := testing.AllocsPerRun(2000, cycle)
	b.ReportAllocs()
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 0)
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkOriginalPullRound is one pull exchange of the stock protocol
// between two cores at height 1 000 with the default 100-number digest
// window: hello, digest (the window plus two strays the responder holds
// above a 3-block gap), request for the two strays. The bodies sent in reply
// are dropped on the wire, so every round asks again and the steady state
// repeats. Each handler reads the block store under one lock, and the
// digest carries its window as a run, so only the strays are a list, sized
// once. allocs_op — the messages, the two lists, the tick's timer — has a
// ceiling of 11, so a digest grown number by number (seven more allocations
// at this shape) fails the benchmark; bytes_op has a ceiling of 512, so a
// digest that writes its window out as a list again (1 120 B a round) fails
// it too.
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
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, cycle)
	runtime.ReadMemStats(&after)
	b.ReportAllocs()
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 11) // 10 recorded
	// AllocsPerRun makes one warm-up call before its runs.
	atMost(b, "bytes_op", float64(after.TotalAlloc-before.TotalAlloc)/(runs+1), 512) // 256 recorded
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
// allocs_op must stay 0.
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
	allocs := testing.AllocsPerRun(2000, cycle)
	b.ReportAllocs()
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 0)
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkMembershipPiggybackIdle locks the piggyback steady state: with
// the SWIM extensions enabled but no pending rumors — a stable
// organization — every ordinary send through the core costs one queue
// check and allocates nothing beyond the raw delivery path; allocs_op must
// stay 0.
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
	allocs := testing.AllocsPerRun(2000, cycle)
	b.ReportAllocs()
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 0)
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkStateSyncServe times the serve path end to end: a StateRequest
// for a 32-block range travels through the simulated transport and is
// answered by a fresh StateResponse whose batch references the encodings
// cached on the blocks — a slice of block pointers and two small structs,
// no re-encoding of the block trees. allocs_op has a ceiling (8 measured).
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
		cycle() // warm the event pool
	}
	allocs := testing.AllocsPerRun(2000, cycle)
	b.ReportAllocs()
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 8)
	for i := 0; i < b.N; i++ {
		cycle()
	}
	if responses == 0 {
		b.Fatal("no responses served")
	}
}

// BenchmarkBuildChain builds the paper's chain (1000 blocks x 50 tx x 3 KB,
// 160 MB), the set-up the repository benchmark times; RunDissemination
// streams the same chain beside its engine. One drawer goroutine draws the
// payloads while GOMAXPROCS hashers hash the blocks already drawn (at
// procs=1 the drawer hashes too), and procs=1's allocs_op — one payload slab
// per block in place of fifty payloads — has a ceiling. It reads
// runtime.MemStats across goroutines, so it drifts by tens between runs.
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
				atMost(b, "allocs_op", float64(after.Mallocs-before.Mallocs)/float64(b.N), 488614) // 444 195 recorded
			}
		})
	}
}

// BenchmarkWireMarshalBlock measures encoding one paper-sized block
// (50 tx x ~3.2 KB) built in this process: the sink and the flat buffer,
// which the block is walked into on every call (nothing is cached on it).
func BenchmarkWireMarshalBlock(b *testing.B) {
	blk := harness.BuildChain(1, 50, 3000, 1)[0]
	msg := &wire.Data{Block: blk, Counter: 3}
	b.SetBytes(int64(msg.EncodedSize()))
	allocs := testing.AllocsPerRun(50, func() { wire.Marshal(msg) })
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 2)
	for i := 0; i < b.N; i++ {
		if len(wire.Marshal(msg)) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkWireUnmarshalBlock measures decoding the same block as a peer
// that stores and forwards it does: the transactions are scanned, not built
// (the block keeps them as bytes of the input until a reader asks), and the
// byte fields alias the input.
func BenchmarkWireUnmarshalBlock(b *testing.B) {
	blk := harness.BuildChain(1, 50, 3000, 1)[0]
	data := wire.Marshal(&wire.Data{Block: blk, Counter: 3})
	b.SetBytes(int64(len(data)))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := wire.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 4) // 2 recorded
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireMaterializeBlock measures decoding the same block as a peer
// that commits it does: Unmarshal, then Transactions builds the tree's nodes
// and strings. Deferring the build must cost no more than building during
// decode did (554, BenchmarkWireUnmarshalBlock's ceiling before the build
// was deferred).
func BenchmarkWireMaterializeBlock(b *testing.B) {
	blk := harness.BuildChain(1, 50, 3000, 1)[0]
	data := wire.Marshal(&wire.Data{Block: blk, Counter: 3})
	b.SetBytes(int64(len(data)))
	materialize := func() {
		m, err := wire.Unmarshal(data)
		if err != nil {
			b.Fatal(err)
		}
		if len(m.(*wire.Data).Block.Transactions()) != 50 {
			b.Fatal("built a block of the wrong size")
		}
	}
	allocs := testing.AllocsPerRun(50, materialize)
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 554) // 504 recorded
	for i := 0; i < b.N; i++ {
		materialize()
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
	allocs := testing.AllocsPerRun(200, forward)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 2)
	for i := 0; i < b.N; i++ {
		forward()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N); perOp > 4096 {
		b.Fatalf("forwarding a %d-byte block allocated %d bytes", in.EncodedSize(), perOp)
	}
}

// BenchmarkTCPSendBuiltBlock measures the ordering service's send step on
// the live runtime: a paper-sized block built in this process leaves for a
// bare socket drained into one buffer. The block is walked into the frame's
// head on each send, so one send may allocate what one wire.Marshal of the
// message does (the encoding, rounded up to whole pages by the allocator)
// plus 4 KiB, and the benchmark fails if a send allocates more (a head grown
// by doubling) or leaves the block holding a second copy of itself (a cached
// encoding).
func BenchmarkTCPSendBuiltBlock(b *testing.B) {
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
	ep, err := transport.ListenTCP(0, "127.0.0.1:0", transport.StaticAddressBook{1: drain.Addr().String()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	blk := harness.BuildChain(1, 50, 3000, 1)[0]
	send := func() {
		if err := ep.Send(1, &wire.Data{Block: blk, Counter: 3}); err != nil {
			b.Fatal(err)
		}
	}
	send() // dial
	b.SetBytes(int64(wire.BlockEncodedSize(blk)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wire.Marshal(&wire.Data{Block: blk, Counter: 3})
	runtime.ReadMemStats(&after)
	encoding := after.TotalAlloc - before.TotalAlloc
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if blk.WireEncoding() != nil {
		b.Fatal("sending a built block cached an encoding on it")
	}
	perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)
	atMost(b, "alloc_bytes_op", float64(perOp), float64(encoding+4096))
}

// BenchmarkEngineQueue gates the engine's queue in steady state: one
// AfterMsg+Step with the queue held at the paper run's, a 10k-tier shard's
// and the 100k tier's pending counts, delays drawn from the simulated
// workloads' mix (README "Hot-path architecture"). allocs_op must stay 0
// at every size.
func BenchmarkEngineQueue(b *testing.B) {
	mix := []struct {
		permille int
		lo, hi   time.Duration
	}{
		{3, 0, time.Millisecond},
		{500, time.Millisecond, 10 * time.Millisecond},
		{370, 10 * time.Millisecond, 150 * time.Millisecond},
		{2, 150 * time.Millisecond, time.Second},
		{100, time.Second, 4 * time.Second},
		{25, 4 * time.Second, 10 * time.Second},
	}
	rng := sim.NewRand(1)
	delays := make([]time.Duration, 1<<16)
	for i := range delays {
		p, k := rng.Intn(1000), 0
		for ; p >= mix[k].permille; k++ {
			p -= mix[k].permille
		}
		delays[i] = mix[k].lo + time.Duration(rng.Int63n(int64(mix[k].hi-mix[k].lo)))
	}
	for _, pending := range []int{2000, 18000, 200000} {
		b.Run(fmt.Sprintf("pending=%dk", pending/1000), func(b *testing.B) {
			e := sim.NewEngine(1)
			h := func(from, to uint64, msg any) {}
			var msg any = &wire.StateInfo{Height: 1}
			k := 0
			push := func() {
				k++
				e.AfterMsg(delays[k%len(delays)], h, 0, 1, msg)
			}
			cycle := func() {
				push()
				e.Step()
			}
			for i := 0; i < pending; i++ {
				push()
			}
			for i := 0; i < 20*pending; i++ {
				cycle() // past the longest delay: the steady state
			}
			allocs := testing.AllocsPerRun(1000, cycle)
			b.ResetTimer()
			atMost(b, "allocs_op", allocs, 0)
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
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
// to the other 199 as the recorded result. allocs_op has a ceiling.
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
	allocs := testing.AllocsPerRun(3, commitAll)
	b.ReportAllocs()
	b.ResetTimer()
	atMost(b, "allocs_op", allocs, 624) // 568 recorded
	for i := 0; i < b.N; i++ {
		commitAll()
	}
}

// BenchmarkValidateBlock measures the validation phase of one sim-txload
// block: 100 counter increments, each endorsed by two ed25519 endorsers
// under the workload's 1-of-2 policy, checked through a one-entry verdict
// cache so every check verifies a signature. The policy pass runs on one
// worker (procs=1) or GOMAXPROCS (procs=all), then the MVCC pass; procs=1's
// allocs_op has a ceiling.
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				validate()
			}
			if bc.procs == 1 {
				b.StopTimer()
				atMost(b, "allocs_op", testing.AllocsPerRun(5, validate), 231) // 210 recorded
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
