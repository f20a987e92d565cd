package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"fabricgossip/internal/harness"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/obs"
	"fabricgossip/internal/scenario"
	"fabricgossip/internal/wire"
	"fabricgossip/internal/workload"
)

// workloads is the benchmark's fixed workload set. Sizes are chosen so at
// least three repetitions (set-up included) fit in runSeconds on a 2-core
// box; see README.md for the probe numbers behind each.
var workloads = []workloadDef{
	{
		Name:      "paper-100-original",
		Why:       "The paper's section V-A baseline (100 peers x 1000 blocks x 160 KB) on stock push+pull gossip and the sequential engine: the denominator of the headline tail and bandwidth ratios.",
		Simulated: true,
		New:       newPaper(harness.VariantOriginal),
	},
	{
		Name:      "paper-100-enhanced",
		Why:       "The paper's contribution on identical inputs (fout 4, TTL 9): digests do the work and statesync serves nothing, so recovery-plane changes must not move it.",
		Simulated: true,
		New:       newPaper(harness.VariantEnhanced),
	},
	{
		Name:      "sim-crash-10k",
		Why:       "10k peers in 10 orgs on the sharded engine, a tenth crash and rejoin: the per-message hot path (sim, simnet, netmodel, wire sizes, gossip) plus statesync catch-up; ledger and crypto idle.",
		Simulated: true,
		New:       newCatalog("sharded-crash-restart", 10000, 10, 400, 4),
	},
	{
		Name:      "sim-swim-1600",
		Why:       "Two 800-peer orgs converging SWIM views (piggyback, suspicion, shuffles): membership does nearly all the work and holds nearly all the memory at the O(org) view cost.",
		Simulated: true,
		New:       newCatalog("sharded-view-convergence", 1600, 2, 120, 2),
	},
	{
		Name:      "sim-txload",
		Why:       "Endorse, order (3-node Raft), gossip, validate, commit at 200 tx/s on 4 orgs x 50 peers, below saturation: ledger and ed25519 dominate, the mirror image of sim-crash-10k.",
		Simulated: true,
		New:       newTxload,
	},
	{
		Name: "tcp-small",
		Why:  "Live runtime, 8 loopback TCP peers, 12 KB blocks, closed loop window 1: per-message cost of the real path (marshal, frame alloc, write under the conn mutex, read loop, handler).",
		New:  newTCP("tcp-small", tcpShape{txPerBlock: 10, payload: 1024, warm: 300, timed: 1200}),
	},
	{
		Name: "tcp-paper",
		Why:  "Same runtime with the paper's 160 KB blocks: per-byte cost (marshal copy, a fresh buffer per frame and per read) dominates, so buffer pooling shows here and per-message work on tcp-small.",
		New:  newTCP("tcp-paper", tcpShape{txPerBlock: 50, payload: 3000, warm: 50, timed: 300}),
	},
}

// newPaper is the paper's dissemination experiment: one organization on the
// sequential engine, blocks injected open-loop on the virtual clock.
func newPaper(v harness.Variant) func(int64, bool, string) (repFunc, drillShape, error) {
	return func(seed int64, toy bool, _ string) (repFunc, drillShape, error) {
		p := harness.DefaultParams(v, seed)
		p.Tail = 30 * time.Second
		if toy {
			// Enough blocks that the collector runs while the chain is live.
			p = harness.QuickScale(p, 20, 120)
		}
		shape := drillShape{txPerBlock: p.TxPerBlock, payload: p.TxPayload, members: p.NumPeers, pending: 1024}
		return func(traced bool) (*rep, error) { return paperRep(p, traced) }, shape, nil
	}
}

func paperRep(p harness.Params, traced bool) (*rep, error) {
	r := &rep{peers: p.NumPeers, blocks: p.NumBlocks, layer: map[string]float64{}}
	if err := timeSetup(r, func() error {
		_, err := harness.NewOrg(p)
		return err
	}, func() { harness.BuildChain(p.NumBlocks, p.TxPerBlock, p.TxPayload, p.Seed) }); err != nil {
		return nil, err
	}

	var res *harness.DisseminationResult
	var err error
	r.measured = measure(func() { res, err = harness.RunDissemination(p) })
	if err != nil {
		return nil, err
	}
	lat := metrics.Summarize(res.Latencies.All())
	r.samples, r.p50 = lat.N, lat.P50
	r.tail, r.tailName = tailOf(lat)
	r.netBytes = res.Traffic.TotalBytes()
	r.attempted = p.NumBlocks
	if missing := p.NumBlocks - res.WallBlocks; missing > 0 {
		r.fail(missing, "%d of %d blocks did not reach all %d peers", missing, p.NumBlocks, p.NumPeers)
	}
	h := sha256.New()
	fmt.Fprintln(h, lat, r.netBytes, res.WallBlocks, res.BodyTransmissions)
	r.fingerprint = hex.EncodeToString(h.Sum(nil))

	var types typeCounts
	for t, cb := range res.Traffic.Breakdown() {
		types[t] = cb[0]
	}
	types.fill(r, p.NumBlocks*(p.NumPeers-1))
	r.layer["transport.sim_bytes"] = float64(r.netBytes)
	r.layer["statesync.bytes"] = float64(res.Traffic.BytesOf(wire.TypeStateRequest) + res.Traffic.BytesOf(wire.TypeStateResponse))
	r.layer["gossip.commits"] = float64(res.WallBlocks * p.NumPeers)
	if traced {
		events, peak, total, err := paperEngineCounts(p)
		if err != nil {
			return nil, err
		}
		if total != r.netBytes {
			r.fail(r.attempted, "bench re-drive moved %d bytes, RunDissemination %d: the event count is of another run", total, r.netBytes)
		}
		r.layer["sim.events"] = float64(events)
		r.layer["sim.peak_pending"] = float64(peak)
		r.cost = &costCounts{events: float64(events), types: types}
	}
	return r, nil
}

// paperEngineCounts re-drives RunDissemination's schedule on a bench-built
// harness.Org, because RunDissemination does not expose its engine: the
// executed-event count and queue high-water come from here. The caller
// checks the byte total against RunDissemination's, so a drift between the
// two schedules fails the run instead of mislabelling a count.
func paperEngineCounts(p harness.Params) (events uint64, peak int, totalBytes uint64, err error) {
	org, err := harness.NewOrg(p)
	if err != nil {
		return 0, 0, 0, err
	}
	engine, traffic := org.Engine, org.Traffic
	org.StartAll()
	if p.BackgroundBytesPerSec > 0 {
		half := int(p.BackgroundBytesPerSec / 2)
		for _, id := range org.Peers {
			id := id
			engine.Every(time.Second, func() {
				traffic.Record(id, id, wire.TypeAlive, half, engine.Now())
			})
		}
	}
	for i, b := range harness.BuildChain(p.NumBlocks, p.TxPerBlock, p.TxPayload, p.Seed) {
		b := b
		engine.At(time.Duration(i)*p.BlockInterval, func() { org.DeliverBlock(b) })
	}
	engine.RunUntil(time.Duration(p.NumBlocks-1)*p.BlockInterval + p.Tail)
	org.StopAll()
	return engine.Executed(), engine.PeakPending(), traffic.TotalBytes(), nil
}

// newCatalog runs a catalog scenario at a fixed topology on the sharded
// engine; the toy variant keeps the script and shrinks the topology.
func newCatalog(name string, peers, orgs, toyPeers, toyOrgs int) func(int64, bool, string) (repFunc, drillShape, error) {
	return func(seed int64, toy bool, _ string) (repFunc, drillShape, error) {
		peers, orgs := peers, orgs
		if toy {
			peers, orgs = toyPeers, toyOrgs
		}
		def, err := scenario.Lookup(name)
		if err != nil {
			return nil, drillShape{}, err
		}
		sc := def.Build(scenario.Uniform(orgs, peers/orgs))
		sc.Name, sc.Description = def.Name, def.Description
		return newScenario(sc, scenario.Options{Peers: peers, Orgs: orgs, Seed: seed})
	}
}

// txloadScenario is the benchmark's own script: the full execute-order-
// validate pipeline at 200 tx/s, about 40 % of the modelled 500 tx/s
// validation capacity (at 800 tx/s the model saturates: p50 commit 4.5 s,
// 75 % conflicts), with a three-node Raft ordering cluster.
func txloadScenario(load time.Duration) scenario.Scenario {
	return scenario.Scenario{
		Name:       "bench-txload",
		Warmup:     time.Second,
		Tail:       10 * time.Second,
		Consenters: 3,
		Workload: &workload.Config{
			ClientsPerOrg:   txClientsPerOrg,
			Rate:            12.5,
			Arrival:         workload.ArrivalPoisson,
			Keys:            4096,
			EndorsersPerOrg: txEndorsersPerOrg,
			MaxTxPerBlock:   100,
			BatchTimeout:    500 * time.Millisecond,
		},
		Events: []scenario.Event{
			{At: time.Second, Action: scenario.StartWorkload{}},
			{At: time.Second + load, Action: scenario.StopWorkload{}},
		},
	}
}

const (
	txClientsPerOrg   = 4
	txEndorsersPerOrg = 2
)

func newTxload(seed int64, toy bool, _ string) (repFunc, drillShape, error) {
	sc, opt := txloadScenario(20*time.Second), scenario.Options{Peers: 200, Orgs: 4, Seed: seed}
	if toy {
		sc, opt = txloadScenario(2*time.Second), scenario.Options{Peers: 16, Orgs: 4, Seed: seed}
	}
	return newScenario(sc, opt)
}

func newScenario(sc scenario.Scenario, opt scenario.Options) (repFunc, drillShape, error) {
	// Scenario blocks are the runner's default shape unless the workload
	// plane cuts them, which fills blocks to about 100 small transactions.
	shape := drillShape{txPerBlock: 10, payload: 512, members: opt.Peers / opt.Orgs, pending: 1024}
	if sc.Workload != nil {
		shape.txPerBlock, shape.payload = sc.Workload.MaxTxPerBlock, 64
	}
	return func(traced bool) (*rep, error) { return scenarioRep(sc, opt, traced) }, shape, nil
}

func scenarioRep(sc scenario.Scenario, opt scenario.Options, traced bool) (*rep, error) {
	r := &rep{peers: opt.Peers, layer: map[string]float64{}}
	specs := make([]harness.OrgSpec, opt.Orgs)
	for o := range specs {
		specs[o] = harness.OrgSpec{Peers: opt.Peers / opt.Orgs}
	}
	if err := timeSetup(r, func() error {
		// The parameters scenario.Run derives from (sc, opt).
		_, err := harness.NewNetwork(harness.NetworkParams{
			Seed: opt.Seed, Variant: harness.VariantEnhanced, Orgs: specs,
			Bucket: time.Second, TrafficTotals: true,
			WANDelay: sc.WANDelay, Consenters: sc.Consenters, Sharded: sc.Sharded,
		})
		return err
	}, func() {
		if sc.Blocks > 0 {
			harness.BuildChain(sc.Blocks, 10, 512, opt.Seed)
		}
	}); err != nil {
		return nil, err
	}

	opt.Trace = traced
	var rpt *scenario.Report
	var err error
	r.measured = measure(func() { rpt, err = scenario.Run(sc, opt) })
	if err != nil {
		return nil, err
	}
	r.blocks = rpt.BlocksInjected
	r.samples, r.p50 = rpt.Latency.N, rpt.Latency.P50
	r.tail, r.tailName = tailOf(rpt.Latency)
	r.netBytes = rpt.TotalBytes
	r.fingerprint = rpt.Fingerprint()

	r.attempted = rpt.Peers
	if n := rpt.Survivors - rpt.CaughtUp; n > 0 {
		r.fail(n, "%d of %d surviving peers not caught up", n, rpt.Survivors)
	}
	if n := rpt.PendingRecoveries; n > 0 {
		r.fail(n, "%d recoveries still pending", n)
	}
	if n := rpt.OrderViolations; n > 0 {
		r.fail(n, "%d order violations", n)
	}
	if sc.MeasureMembership && rpt.ViewCompleteness < 0.99 {
		r.fail(1, "view completeness %.4f below 0.99", rpt.ViewCompleteness)
	}
	if w := rpt.Workload; w != nil {
		r.attempted += w.Submitted
		if n := w.Submitted - w.Committed - w.Conflicts; n != 0 {
			r.fail(abs(n), "workload accounting open: %d submitted, %d committed, %d conflicts", w.Submitted, w.Committed, w.Conflicts)
		}
		if n := w.EndorseErrors + w.SubmitErrors + int(w.CommitErrors); n > 0 {
			r.fail(n, "%d workload endorse/submit/commit errors", n)
		}
	}

	l := r.layer
	l["sim.events"] = float64(rpt.EngineEvents)
	l["sim.peak_pending"] = float64(rpt.PeakPending)
	l["sim.barriers_full"] = float64(rpt.BarrierFull)
	l["sim.barriers_elided"] = float64(rpt.BarrierElided)
	l["transport.sim_bytes"] = float64(rpt.TotalBytes)
	l["statesync.msgs"] = float64(rpt.SyncMessages)
	l["statesync.bytes"] = float64(rpt.SyncBytes)
	l["statesync.recoveries"] = float64(rpt.Recoveries.N)
	l["statesync.recovery_p99_ms"] = ms(rpt.Recoveries.P99)
	l["membership.transitions"] = float64(rpt.Transitions)
	l["membership.leader_convergence_ms"] = ms(rpt.LeaderConvergence)
	l["membership.view_completeness"] = rpt.ViewCompleteness
	l["raft.elections"] = float64(rpt.Elections)
	l["raft.leaderless_ms"] = ms(rpt.Leaderless)
	if w := rpt.Workload; w != nil {
		l["workload.submitted"] = float64(w.Submitted)
		l["workload.committed"] = float64(w.Committed)
		l["workload.conflicts"] = float64(w.Conflicts)
		l["workload.retries"] = float64(w.Retries)
		l["workload.errors"] = float64(w.ProposalConflicts + w.EndorseErrors + w.SubmitErrors + int(w.CommitErrors))
		l["workload.commit_p50_ms"] = ms(w.Latency.P50)
		l["workload.commit_p99_ms"] = ms(w.Latency.P99)
		l["workload.conflict_rate"] = w.ConflictRate()
		l["order.tx_ordered"] = float64(w.OrderedTx)
		l["order.blocks_cut"] = float64(w.BlocksCut)
		if w.BlocksCut > 0 {
			l["order.cut_by_timeout_share"] = float64(w.CutByTimeout) / float64(w.BlocksCut)
		}
	}
	if traced {
		tc := reduceTrace(rpt.Events)
		tc.types.fill(r, rpt.BlocksInjected*(rpt.Peers-rpt.Orgs))
		l["raft.appends"] = float64(tc.appends)
		l["gossip.commits"] = float64(tc.commits)
		l["obs.trace_events"] = float64(len(rpt.Events))
		r.cost = scenarioCost(sc, rpt, tc)
	}
	return r, nil
}

// timeSetup times what a user pays before a simulation can start: building
// the network and the input chain. The results are discarded — Run and
// RunDissemination build their own — so nothing built here is live during
// the timed section. A cheap set-up is repeated (up to 25 times or 100 ms)
// and the fastest taken, since one sub-millisecond sample is mostly noise.
func timeSetup(r *rep, build func() error, chain func()) error {
	best := time.Duration(-1)
	for start, n := time.Now(), 0; n == 0 || (n < 25 && time.Since(start) < 100*time.Millisecond); n++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		t1 := time.Now()
		chain()
		t2 := time.Now()
		if total := t2.Sub(t0); best < 0 || total < best {
			best = total
			r.buildS, r.chainS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
		}
	}
	r.setup = best
	return nil
}

// typeCounts counts sent messages by wire type.
type typeCounts [wire.NumMsgTypes]uint64

// class sums the types the observability plane files under one send kind.
func (c *typeCounts) class(k obs.EventKind) (n uint64) {
	for t := 1; t < wire.NumMsgTypes; t++ {
		if obs.WireSendKind(wire.MsgType(t)) == k {
			n += c[t]
		}
	}
	return n
}

// fill writes the per-layer message counts. idealBodies is the number of
// block bodies a perfect protocol sends: each block once to every peer that
// is not handed it by the ordering service.
func (c *typeCounts) fill(r *rep, idealBodies int) {
	var total uint64
	for _, n := range c {
		total += n
	}
	bodies := c.class(obs.EvGossipSend)
	r.layer["transport.sim_msgs"] = float64(total)
	r.layer["gossip.body_msgs"] = float64(bodies)
	r.layer["gossip.digest_msgs"] = float64(c.class(obs.EvDigestSend))
	r.layer["membership.msgs"] = float64(c.class(obs.EvMemberSend))
	r.layer["statesync.msgs"] = float64(c.class(obs.EvSyncSend))
	r.layer["raft.msgs"] = float64(c.class(obs.EvRaftSend))
	if idealBodies > 0 {
		r.layer["gossip.redundant_body_ratio"] = float64(bodies) / float64(idealBodies)
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
