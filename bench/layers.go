package main

import (
	"fmt"
	"strings"
	"time"

	"fabricgossip/internal/obs"
	"fabricgossip/internal/scenario"
	"fabricgossip/internal/wire"
)

// costCounts are the traced repetition's counts the layer table multiplies
// by drill unit costs. They are exact per seed.
type costCounts struct {
	events float64
	types  typeCounts
	// shuffleBytes and digestBytes are the encoded volumes of shuffle and
	// MemberEvents messages: handling cost scales with entries, hence bytes.
	shuffleBytes float64
	digestBytes  float64
	// swimTicks counts heartbeat-period ticks of SWIM-enabled peers and
	// swimJoins the peers their views learned (zero without SWIM, where
	// views stay sparse and a join is one cheap heartbeat observation).
	swimTicks float64
	swimJoins float64

	// The transaction pipeline (sim-txload only; zero elsewhere).
	txCommits    float64 // (peer, transaction) validations and commits
	policyMisses float64 // policy checks that verified signatures
	verifies     float64 // ed25519 verifications
	signs        float64 // ed25519 signatures
	endorsements float64 // Endorser.Endorse calls
	broadcasts   float64 // transactions through Service.Broadcast
	raftEntries  float64 // entries through the consenter cluster
}

// traceCounts is Report.Events reduced in one pass: sent messages by wire
// type, membership payload volumes, and the commit and append points.
type traceCounts struct {
	types        typeCounts
	shuffleBytes float64
	digestBytes  float64
	commits      uint64
	commitTxs    float64 // transactions in committed blocks, summed over peers
	appends      uint64
}

func reduceTrace(events []obs.Event) traceCounts {
	var tc traceCounts
	for _, e := range events {
		switch e.Kind {
		case obs.EvGossipSend, obs.EvDigestSend, obs.EvSyncSend, obs.EvMemberSend, obs.EvRaftSend, obs.EvOrderSend:
			t := wire.MsgType(e.Num)
			tc.types[t]++
			switch t {
			case wire.TypeMemberEvents:
				tc.digestBytes += float64(e.Aux)
			case wire.TypeShuffleRequest, wire.TypeShuffleResponse:
				tc.shuffleBytes += float64(e.Aux)
			}
		case obs.EvBlockCommit:
			tc.commits++
			tc.commitTxs += float64(e.Aux)
		case obs.EvAppend:
			tc.appends++
		}
	}
	return tc
}

// scenarioCost derives the layer table's counts from a traced scenario
// report.
func scenarioCost(sc scenario.Scenario, rpt *scenario.Report, tc traceCounts) *costCounts {
	c := &costCounts{
		events: float64(rpt.EngineEvents), types: tc.types,
		shuffleBytes: tc.shuffleBytes, digestBytes: tc.digestBytes,
	}
	if sc.Workload != nil {
		c.txCommits = tc.commitTxs
	}
	if sc.SwimMembership {
		// The runner's fault tuning beats heartbeats and shuffles every 2 s.
		c.swimTicks = float64(rpt.Peers) * float64(sc.End()/(2*time.Second))
		c.swimJoins = float64(rpt.Transitions)
	}
	if w := rpt.Workload; w != nil {
		endorsers := float64(sc.Workload.EndorsersPerOrg)
		ordered := float64(w.OrderedTx)
		// One verdict cache per organization: each org verifies each
		// transaction's endorsements once; endorsing peers also verify the
		// orderer's signature on every block.
		c.policyMisses = float64(rpt.Orgs) * ordered
		c.verifies = c.policyMisses*endorsers + float64(rpt.Orgs)*endorsers*float64(w.BlocksCut)
		c.signs = ordered*endorsers + float64(w.BlocksCut)
		c.endorsements = ordered * endorsers
		c.broadcasts = ordered
		if rpt.Consenters > 0 {
			c.raftEntries = float64(tc.appends) / float64(rpt.Consenters)
		}
	}
	return c
}

// layerTable estimates each layer's busy seconds in the traced repetition as
// count x drill unit cost (self time: nested drills are subtracted), writes
// them into v as <layer>.busy_s with the unexplained remainder of the
// untraced repetition's CPU seconds as bench.unattributed_pct, and renders
// the table. CPU seconds, not wall: a sharded run keeps several cores busy.
func layerTable(name string, r *rep, members int, v map[string]float64) string {
	c := r.cost
	if c == nil {
		return ""
	}
	var msgs float64
	for _, n := range c.types {
		msgs += float64(n)
	}
	count := func(ts ...wire.MsgType) (n float64) {
		for _, t := range ts {
			n += float64(c.types[t])
		}
		return n
	}
	pos := func(x float64) float64 { return max(x, 0) }
	sendSelf := pos(v["transport.sim_send_ns"] - v["sim.dispatch_ns"] - v["netmodel.delay_ns"] - v["netmodel.record_ns"] - v["wire.size_ns"])
	members = max(members, 3)
	shufflePerByte := v["membership.handle_ns"] / float64((&wire.ShuffleRequest{Entries: memberEntries(shuffleSample, members)}).EncodedSize())
	digestPerByte := v["membership.digest_ns"] / float64((&wire.MemberEvents{Events: memberEntries(digestEvents, members)}).EncodedSize())

	busyNs := map[string]float64{
		"sim":       c.events * v["sim.dispatch_ns"],
		"transport": msgs * sendSelf,
		"netmodel":  msgs * (v["netmodel.delay_ns"] + v["netmodel.record_ns"]),
		"wire":      msgs * v["wire.size_ns"],
		"gossip":    float64(c.types.class(obs.EvGossipSend)+c.types.class(obs.EvDigestSend)) * v["gossip.handle_ns"],
		"membership": count(wire.TypeAlive)*v["membership.observe_ns"] +
			c.shuffleBytes*shufflePerByte + c.digestBytes*digestPerByte + c.swimTicks*v["membership.tick_ns"] +
			c.swimJoins*v["membership.join_ns"],
		"statesync": count(wire.TypeStateRequest)*v["statesync.serve_ns"] +
			count(wire.TypeStateInfo)*v["statesync.observe_ns"],
		"ledger": c.txCommits * v["ledger.commit_ns_per_tx"],
		"crypto": c.verifies*v["crypto.verify_ns"] + c.signs*v["crypto.sign_ns"],
		"endorse": c.endorsements*pos(v["endorse.endorse_ns"]-v["crypto.sign_ns"]) +
			c.policyMisses*pos(v["endorse.check_miss_ns"]-txEndorsersPerOrg*v["crypto.verify_ns"]) +
			pos(c.txCommits-c.policyMisses)*v["endorse.check_hit_ns"],
		"order": c.broadcasts * v["order.broadcast_ns"],
		"raft":  c.raftEntries * v["raft.commit_ns"],
		// Run and RunDissemination build their own network and chain: the
		// set-up work timed before the repetition recurs inside it.
		"harness": (v["harness.build_s"] + v["harness.chain_build_s"]) * 1e9,
	}

	cpu := v["bench.cpu_s"]
	var b strings.Builder
	fmt.Fprintf(&b, "layer table %s: estimated busy time of one repetition (count x drill ns), share of %.3f CPU s\n", name, cpu)
	var sum float64
	for _, layer := range tableLayers {
		s := busyNs[layer] / 1e9
		v[layer+".busy_s"] = s
		sum += s
		fmt.Fprintf(&b, "  %-11s %8.3f s  %5.1f %%\n", layer, s, 100*s/cpu)
	}
	gc := v["bench.gc_cpu_s"] // measured, not estimated
	sum += gc
	fmt.Fprintf(&b, "  %-11s %8.3f s  %5.1f %%\n", "runtime gc", gc, 100*gc/cpu)
	v["bench.unattributed_pct"] = 100 * (cpu - sum) / cpu
	fmt.Fprintf(&b, "  %-11s %8.3f s  %5.1f %%\n", "unattributed", cpu-sum, v["bench.unattributed_pct"])
	return b.String()
}
