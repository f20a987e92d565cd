package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"fabricgossip/internal/metrics"
	"fabricgossip/internal/obs"
	"fabricgossip/internal/workload"
)

// OrgReport is one organization's slice of a scenario run: its own gossip
// domain's delivery, catch-up, recovery and latency figures.
type OrgReport struct {
	Org     int
	Variant string
	Peers   int

	// Delivered counts distinct blocks the ordering service streamed into
	// this organization.
	Delivered int

	// Survivors is how many of the organization's peers were live at the
	// end; CaughtUp how many of them had committed every injected block.
	Survivors         int
	CaughtUp          int
	PendingRecoveries int

	// Recovery summarizes the organization's rejoin-with-catchup
	// latencies; Latency its intra-org dissemination latencies (first
	// reception relative to the block entering the organization).
	Recovery metrics.Summary
	Latency  metrics.Summary

	// InBytes is the total bytes entering the organization's NICs;
	// Overhead relates it to the ideal minimum of every delivered block
	// reaching each member exactly once.
	InBytes  uint64
	Overhead float64
}

// Report is everything a scenario run measured. All fields derive
// deterministically from (scenario, Options); Fingerprint hashes them so
// two runs can be compared byte for byte.
type Report struct {
	Scenario string
	Variant  string
	Peers    int
	Orgs     int
	Seed     int64

	// BlocksInjected counts distinct blocks the ordering service delivered
	// into at least one organization.
	BlocksInjected int
	// BlockBytes is the encoded size of one workload block.
	BlockBytes int

	// Survivors is how many peers were live at the end of the run;
	// CaughtUp how many of them had committed every injected block in
	// order. The catalog's scenarios all end with Survivors == CaughtUp.
	Survivors int
	CaughtUp  int
	// OrderViolations is always 0 in a returned report: a run that commits
	// out of order fails Run instead (check.go). It stays because String
	// prints it, so every fingerprint hashes it, and the repository
	// benchmark reads it.
	OrderViolations int

	// Recoveries summarizes rejoin-with-catchup latency: restart (or
	// staggered join) to fully caught up. PendingRecoveries counts peers
	// that were still behind when the run ended.
	Recoveries        metrics.Summary
	PendingRecoveries int

	// Latency summarizes dissemination latency network-wide: each peer's
	// first reception relative to the block entering its organization.
	Latency metrics.Summary

	// Transitions counts membership live/dead observations across all
	// peers (failure detection and rejoin events).
	Transitions int

	// TotalBytes is all bytes leaving any NIC; Overhead relates it to the
	// ideal minimum of every block reaching every other peer exactly once.
	TotalBytes uint64
	Overhead   float64

	// SyncBytes and SyncMessages attribute the recovery plane's share of
	// the traffic: StateRequest plus StateResponse bytes and message
	// counts (the statesync engine's fetch/serve volume, including any
	// cross-org anchor transfers). They are deterministic per seed but
	// deliberately excluded from String — and therefore from Fingerprint —
	// so their introduction does not move the checked-in fingerprints of
	// pre-existing catalog entries. TotalBytes already covers them.
	SyncBytes    uint64
	SyncMessages uint64

	// ViewSamples counts membership-view samples taken (zero unless the
	// scenario sets MeasureMembership; the membership report line — and
	// its contribution to the fingerprint — exists only then, so
	// pre-existing fingerprints are unaffected). ViewCompleteness is the
	// steady-state (final-sample) mean over live peers of |live view ∩
	// actually live| / |actually live| within each peer's organization:
	// 1.0 means every live peer sees the whole live organization.
	// LeaderConvergence is when every live peer's believed leader last
	// settled on its organization's true leader (the run's end if they
	// never all agreed).
	ViewSamples       int
	ViewCompleteness  float64
	LeaderConvergence time.Duration

	// Consenters is the ordering cluster's size. Elections counts leader
	// emergences (the initial election included); Leaderless is the total
	// time the cluster had no leader (election_ms); DeliverGap is the
	// widest gap between consecutive first-time block deliveries any
	// organization observed (deliver_gap_ms); AnchorProbes counts
	// cross-org anchor probes fired by org leaders — the spurious-recovery
	// question: an election shorter than the orderer-stall threshold must
	// leave it at zero.
	Consenters   int
	Elections    int
	Leaderless   time.Duration
	DeliverGap   time.Duration
	AnchorProbes uint64

	// Workload is the transaction workload plane's outcome (nil unless
	// the scenario set a Workload config; the workload report lines — and
	// their contribution to the fingerprint — exist only then, so
	// pre-existing fingerprints are unaffected).
	Workload *workload.Stats

	// EngineEvents is the number of discrete events executed, summed over
	// the control engine and every shard.
	EngineEvents uint64

	// PeakPending is the event queues' high-water mark — the largest any
	// single engine's pending set grew. A capacity diagnostic, excluded
	// from String — and therefore from Fingerprint — like SyncBytes.
	PeakPending int

	// BarrierFull and BarrierElided count the window coordinator's
	// edges that ran the full barrier ceremony versus those the adaptive
	// lookahead skipped (provably-no-op edges: no inbox traffic, no control
	// event due, no hook work requested). Wall-side diagnostics like
	// PeakPending — excluded from String and Fingerprint; the elision must
	// be observably free, and the equivalence property test asserts the
	// fingerprints match the fixed-lookahead run's byte for byte.
	BarrierFull   uint64
	BarrierElided uint64

	// HeapHighWater is the largest heap a garbage collection marked live,
	// as read at the run's full barriers and at its end (runtime/metrics
	// /gc/heap/live:bytes). The gauge only moves when a collection
	// completes, so between collections it is a lower bound, a run too
	// short to collect reads what the last collection before it marked,
	// and callers comparing runs in one process collect first (the scale
	// benchmarks do). It is wall-side state, not simulation output, so like
	// PeakPending it is excluded from String — and therefore from
	// Fingerprint. The 10k and 100k benchmark tiers gate bytes_per_peer =
	// HeapHighWater / peers from it.
	HeapHighWater uint64

	// OrgReports breaks the run down per organization, in org order.
	OrgReports []OrgReport

	// Trace is the deterministic event log of the run: the script events
	// (initial-down, faults, deliveries, elections, catch-ups) rendered as
	// text, one line each — a view of the same events a traced run carries
	// in Events. Always populated; Fingerprint hashes it.
	Trace []string

	// Obs is the run's unified metrics inventory: the transport's
	// wire-level instruments merged across emission contexts plus every
	// report counter re-registered under one namespace (see
	// runner.snapshot). Always populated. Like the other wall-side
	// diagnostics it is excluded from String — and therefore from
	// Fingerprint — so its growth never moves checked-in fingerprints.
	Obs *obs.Snapshot

	// Events is the merged structured event trace (Options.Trace only),
	// ordered by (time, emission context, emission order) — deterministic
	// per seed regardless of GOMAXPROCS. Excluded from String and
	// Fingerprint: the trace points are passive, and the determinism test
	// asserts a traced run's fingerprint matches the untraced run's.
	Events []obs.Event

	// Series is the per-window time-series sampling (Options.TimeSeries
	// only). Excluded from String and Fingerprint.
	Series *obs.Series

	// FlightDump is the path of the flight-recorder dump written during
	// this run, if any (Options.FlightRing armed and a violation or leak
	// fired). Excluded from String and Fingerprint.
	FlightDump string
}

// String renders the report (without the trace) as a stable multi-line
// block. Multi-organization runs append one line per organization.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s variant=%s peers=%d orgs=%d seed=%d\n",
		r.Scenario, r.Variant, r.Peers, r.Orgs, r.Seed)
	fmt.Fprintf(&b, "  blocks injected: %d (%d B each)\n", r.BlocksInjected, r.BlockBytes)
	fmt.Fprintf(&b, "  survivors: %d/%d caught up, %d order violations, %d pending recoveries\n",
		r.CaughtUp, r.Survivors, r.OrderViolations, r.PendingRecoveries)
	fmt.Fprintf(&b, "  recoveries: %s\n", r.Recoveries)
	fmt.Fprintf(&b, "  dissemination: %s\n", r.Latency)
	fmt.Fprintf(&b, "  membership transitions: %d\n", r.Transitions)
	if r.ViewSamples > 0 {
		fmt.Fprintf(&b, "  membership view: completeness %.3f, leader convergence %v (%d samples)\n",
			r.ViewCompleteness, r.LeaderConvergence, r.ViewSamples)
	}
	fmt.Fprintf(&b, "  ordering cluster: %d consenters, %d elections, leaderless %v, deliver gap %v, %d anchor probes\n",
		r.Consenters, r.Elections, r.Leaderless, r.DeliverGap, r.AnchorProbes)
	if r.Workload != nil {
		w := r.Workload
		fmt.Fprintf(&b, "  workload: %d submitted, %d committed, %d conflicts (rate %.4f), %d retries\n",
			w.Submitted, w.Committed, w.Conflicts, w.ConflictRate(), w.Retries)
		fmt.Fprintf(&b, "  workload ordering: %d tx ordered, %d blocks cut (%d by size, %d by timeout)\n",
			w.OrderedTx, w.BlocksCut, w.CutBySize, w.CutByTimeout)
		fmt.Fprintf(&b, "  workload errors: %d proposal conflicts, %d endorse, %d submit, %d commit\n",
			w.ProposalConflicts, w.EndorseErrors, w.SubmitErrors, w.CommitErrors)
		fmt.Fprintf(&b, "  workload latency: %s\n", w.Latency)
		if r.Orgs > 1 {
			for _, ow := range w.Orgs {
				fmt.Fprintf(&b, "  workload org %d: %d submitted, %d committed, %d conflicts, %d retries, latency p99=%v\n",
					ow.Org, ow.Submitted, ow.Committed, ow.Conflicts, ow.Retries, ow.Latency.P99)
			}
		}
	}
	fmt.Fprintf(&b, "  traffic: %.2f MB, overhead %.2fx ideal\n", float64(r.TotalBytes)/1e6, r.Overhead)
	if r.Orgs > 1 {
		for _, or := range r.OrgReports {
			fmt.Fprintf(&b, "  org %d [%s]: delivered %d, %d/%d caught up, %d pending; "+
				"recovery p99=%v, latency p99=%v, %.2f MB in, overhead %.2fx\n",
				or.Org, or.Variant, or.Delivered, or.CaughtUp, or.Survivors,
				or.PendingRecoveries, or.Recovery.P99, or.Latency.P99,
				float64(or.InBytes)/1e6, or.Overhead)
		}
	}
	fmt.Fprintf(&b, "  engine events: %d", r.EngineEvents)
	return b.String()
}

// renderTrace renders a run's script events as the text trace, one line
// per event in the order given; kinds outside the script (commits,
// membership, wire traffic, barriers) are skipped, so the merged trace of a
// traced run renders to the same lines as the script trace every run keeps.
// sc supplies what the events only index: the fault script and the
// initial-down set. A delivery prints the first time its (org, block) pair
// appears and whenever it is a redelivery (Aux = 1).
func renderTrace(events []obs.Event, sc Scenario, orgs int) []string {
	type orgBlock struct {
		org int32
		num uint64
	}
	delivered := make(map[orgBlock]bool)
	var out []string
	for _, e := range events {
		var line string
		switch e.Kind {
		case obs.EvFault:
			if e.Aux == 1 {
				line = fmt.Sprintf("start with peers %s down", rangeSpec(sc.InitialDown))
			} else {
				line = sc.Events[e.Num].Action.String()
			}
		case obs.EvDeliver:
			verb := "deliver"
			if key := (orgBlock{e.Peer, e.Num}); !delivered[key] {
				delivered[key] = true
			} else if e.Aux == 1 {
				verb = "redeliver"
			} else {
				continue
			}
			if orgs == 1 {
				line = fmt.Sprintf("%s block %d -> peer %d", verb, e.Num, e.Node)
			} else {
				line = fmt.Sprintf("%s block %d -> org %d peer %d", verb, e.Num, e.Peer, e.Node)
			}
		case obs.EvElection:
			line = fmt.Sprintf("consenter %d elected leader (term %d)", e.Node, e.Num)
		case obs.EvCaughtUp:
			line = fmt.Sprintf("peer %d caught up to height %d, %v after restart", e.Node, e.Num, time.Duration(e.Aux))
		case obs.EvFaultTarget:
			line = fmt.Sprintf("consenter leader is %d", e.Node)
		default:
			continue
		}
		out = append(out, fmt.Sprintf("[%10v] %s", e.At, line))
	}
	return out
}

// Fingerprint returns a hex digest over the report and its full trace: two
// runs with the same scenario, options and seed must produce identical
// fingerprints (the determinism property the test suite enforces).
func (r *Report) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintln(h, r.String())
	for _, line := range r.Trace {
		fmt.Fprintln(h, line)
	}
	return hex.EncodeToString(h.Sum(nil))
}
