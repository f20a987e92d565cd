package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds and
// the default of -seconds): the repetition loop starts no new repetition
// that would end after it, so a run's total time is about this long.
const runSeconds = 15

// metricDef names one metric the program emits. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics have
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // always set end to end, never per layer
	// SimExact marks an end-to-end metric that is simulated — exact per
	// seed — on the sim workloads and host-measured on the tcp workloads.
	SimExact bool `json:"-"`
}

// endToEnd is what a user of the system pays for. Every workload emits every
// one of them (the benchmark contract has one flat list), so each is defined
// for both the simulator and the live runtime.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_peak_bytes_per_peer", Unit: "B", Better: "lower", Bound: 0.25},
	{Name: "dissem_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, SimExact: true},
	{Name: "dissem_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25, SimExact: true},
	{Name: "net_bytes_per_peer_block", Unit: "B", Better: "lower", Bound: 0.25, SimExact: true},
}

// perLayer lists the per-layer metrics of the traced pass, grouped by the
// package they attribute cost to. <layer>.busy_s rows are the layer table:
// count x drill ns, as estimated busy seconds of the traced repetition.
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.peak_pending", Unit: "count", Better: "lower"},
	{Name: "sim.barriers_full", Unit: "count", Better: "lower"},
	{Name: "sim.barriers_elided", Unit: "count", Better: "higher"},
	{Name: "sim.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.dispatch_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.busy_s", Unit: "s", Better: "lower"},

	{Name: "transport.sim_msgs", Unit: "count", Better: "lower"},
	{Name: "transport.sim_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.sim_send_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.sim_send_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.busy_s", Unit: "s", Better: "lower"},
	{Name: "transport.tcp_blocks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.tcp_send_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_send_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_send_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_frames", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.tcp_send_errors", Unit: "count", Better: "lower"},

	{Name: "netmodel.delay_ns", Unit: "ns", Better: "lower"},
	{Name: "netmodel.record_ns", Unit: "ns", Better: "lower"},
	{Name: "netmodel.busy_s", Unit: "s", Better: "lower"},

	{Name: "wire.marshal_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "wire.marshal_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.size_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.busy_s", Unit: "s", Better: "lower"},

	{Name: "gossip.body_msgs", Unit: "count", Better: "lower"},
	{Name: "gossip.digest_msgs", Unit: "count", Better: "lower"},
	{Name: "gossip.redundant_body_ratio", Unit: "ratio", Better: "lower"},
	{Name: "gossip.commits", Unit: "count", Better: "higher"},
	{Name: "gossip.handle_ns", Unit: "ns", Better: "lower"},
	{Name: "gossip.tcp_handle_self_ns", Unit: "ns", Better: "lower"},
	{Name: "gossip.full_dissem_p50_us", Unit: "us", Better: "lower"},
	{Name: "gossip.recv_p99_us", Unit: "us", Better: "lower"},
	{Name: "gossip.busy_s", Unit: "s", Better: "lower"},

	{Name: "membership.msgs", Unit: "count", Better: "lower"},
	{Name: "membership.transitions", Unit: "count", Better: "lower"},
	{Name: "membership.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "membership.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "membership.handle_ns", Unit: "ns", Better: "lower"},
	{Name: "membership.digest_ns", Unit: "ns", Better: "lower"},
	{Name: "membership.join_ns", Unit: "ns", Better: "lower"},
	{Name: "membership.view_bytes", Unit: "B", Better: "lower"},
	{Name: "membership.leader_convergence_ms", Unit: "ms", Better: "lower"},
	{Name: "membership.view_completeness", Unit: "ratio", Better: "higher"},
	{Name: "membership.busy_s", Unit: "s", Better: "lower"},

	{Name: "statesync.msgs", Unit: "count", Better: "lower"},
	{Name: "statesync.bytes", Unit: "B", Better: "lower"},
	{Name: "statesync.recoveries", Unit: "count", Better: "higher"},
	{Name: "statesync.recovery_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "statesync.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "statesync.serve_ns", Unit: "ns", Better: "lower"},
	{Name: "statesync.serve_allocs", Unit: "count", Better: "lower"},
	{Name: "statesync.busy_s", Unit: "s", Better: "lower"},

	{Name: "ledger.commit_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "ledger.commit_allocs_per_tx", Unit: "count", Better: "lower"},
	{Name: "ledger.validate_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "ledger.busy_s", Unit: "s", Better: "lower"},

	{Name: "crypto.verify_ns", Unit: "ns", Better: "lower"},
	{Name: "crypto.sign_ns", Unit: "ns", Better: "lower"},
	{Name: "crypto.hash_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "crypto.busy_s", Unit: "s", Better: "lower"},

	{Name: "endorse.endorse_ns", Unit: "ns", Better: "lower"},
	{Name: "endorse.check_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "endorse.check_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "endorse.busy_s", Unit: "s", Better: "lower"},

	{Name: "order.tx_ordered", Unit: "count", Better: "higher"},
	{Name: "order.blocks_cut", Unit: "count", Better: "lower"},
	{Name: "order.cut_by_timeout_share", Unit: "ratio", Better: "lower"},
	{Name: "order.broadcast_ns", Unit: "ns", Better: "lower"},
	{Name: "order.busy_s", Unit: "s", Better: "lower"},

	{Name: "raft.msgs", Unit: "count", Better: "lower"},
	{Name: "raft.appends", Unit: "count", Better: "lower"},
	{Name: "raft.elections", Unit: "count", Better: "lower"},
	{Name: "raft.leaderless_ms", Unit: "ms", Better: "lower"},
	{Name: "raft.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "raft.busy_s", Unit: "s", Better: "lower"},

	{Name: "workload.submitted", Unit: "count", Better: "higher"},
	{Name: "workload.committed", Unit: "count", Better: "higher"},
	{Name: "workload.conflicts", Unit: "count", Better: "lower"},
	{Name: "workload.retries", Unit: "count", Better: "lower"},
	{Name: "workload.errors", Unit: "count", Better: "lower"},
	{Name: "workload.commit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.commit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.conflict_rate", Unit: "ratio", Better: "lower"},

	{Name: "harness.build_s", Unit: "s", Better: "lower"},
	{Name: "harness.chain_build_s", Unit: "s", Better: "lower"},
	{Name: "harness.busy_s", Unit: "s", Better: "lower"},

	{Name: "obs.trace_events", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.cpu_s", Unit: "s", Better: "lower"},
	{Name: "bench.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "bench.retained_bytes_per_rep", Unit: "B", Better: "lower"},
	{Name: "bench.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "bench.dissem_samples", Unit: "count", Better: "higher"},
	{Name: "bench.gomaxprocs", Unit: "count", Better: "higher"},
}

// tableLayers are the rows of the layer table, in print order; each has a
// <layer>.busy_s metric.
var tableLayers = []string{
	"sim", "transport", "netmodel", "wire", "gossip", "membership",
	"statesync", "ledger", "crypto", "endorse", "order", "raft", "harness",
}

// benchmarkSpec is the exact shape of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// buildSpec assembles BENCHMARK.json from the tables above and checks them
// against the contract's limits, so the file and the program cannot drift.
func buildSpec() (*benchmarkSpec, error) {
	s := &benchmarkSpec{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("spec: bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("spec: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range workloads {
		if err := use(w.Name); err != nil {
			return nil, err
		}
		if len(w.Why) > 200 {
			return nil, fmt.Errorf("spec: why of %q is %d characters", w.Name, len(w.Why))
		}
	}
	checkMetric := func(m metricDef) error {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("spec: bad unit %q on %q", m.Unit, m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("spec: bad direction %q on %q", m.Better, m.Name)
		}
		return nil
	}
	for _, m := range endToEnd {
		if err := checkMetric(m); err != nil {
			return nil, err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return nil, fmt.Errorf("spec: bound %v on %q outside (0, 0.25]", m.Bound, m.Name)
		}
	}
	for _, m := range perLayer {
		if err := checkMetric(m); err != nil {
			return nil, err
		}
		if m.Bound != 0 {
			return nil, fmt.Errorf("spec: per-layer metric %q has a bound", m.Name)
		}
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return nil, fmt.Errorf("spec: %d workloads", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return nil, fmt.Errorf("spec: %d end-to-end metrics", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return nil, fmt.Errorf("spec: %d per-layer metrics", n)
	}
	return s, nil
}

// specJSON renders BENCHMARK.json.
func specJSON() ([]byte, error) {
	s, err := buildSpec()
	if err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
