package scenario

import (
	"reflect"
	"runtime"
	"testing"
)

// TestAdaptiveLookaheadEquivalence pins the adaptive coordinator's safety
// and equivalence properties on the sharded crash-restart workload and the
// sharded transaction pipeline (endorse, order, gossip, validate, commit
// across org and ordering shards), across seeds and GOMAXPROCS settings:
//
//  1. Never a delivery inside an active window: the elided edges keep
//     every sub-window at the conservative lookahead, so SendCross's
//     delivery-inside-window panic invariant still guards every cross-shard
//     send — the runs completing at all proves no admission happened.
//  2. Byte-for-byte equivalence: an edge is only elided when it is provably
//     a no-op (no inbox traffic, no control event due, no hook work
//     requested), so the adaptive run's fingerprint must equal the
//     fixed-lookahead run's exactly, and so must the workload outcome.
//  3. The elision actually engages (BarrierElided > 0) — otherwise the
//     equivalence assertion would be vacuous.
func TestAdaptiveLookaheadEquivalence(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, sc := range []struct {
			name string
			orgs int
		}{{"sharded-crash-restart", 0}, {"sharded-txload-steady", 4}} {
			for _, seed := range []int64{1, 7, 42} {
				opt := Options{Peers: 40, Orgs: sc.orgs, Seed: seed}
				adaptive, err := RunNamed(sc.name, opt)
				if err != nil {
					t.Fatalf("%s procs=%d seed=%d adaptive: %v", sc.name, procs, seed, err)
				}
				opt.FixedLookahead = true
				fixed, err := RunNamed(sc.name, opt)
				if err != nil {
					t.Fatalf("%s procs=%d seed=%d fixed: %v", sc.name, procs, seed, err)
				}
				if adaptive.BarrierElided == 0 {
					t.Errorf("%s procs=%d seed=%d: adaptive run elided no barriers — equivalence check is vacuous",
						sc.name, procs, seed)
				}
				if fixed.BarrierElided != 0 {
					t.Errorf("%s procs=%d seed=%d: fixed-lookahead run elided %d barriers, want 0",
						sc.name, procs, seed, fixed.BarrierElided)
				}
				if af, ff := adaptive.Fingerprint(), fixed.Fingerprint(); af != ff {
					t.Errorf("%s procs=%d seed=%d: adaptive fingerprint %s != fixed %s",
						sc.name, procs, seed, af, ff)
				}
				if !reflect.DeepEqual(adaptive.Workload, fixed.Workload) {
					t.Errorf("%s procs=%d seed=%d: adaptive workload %+v != fixed %+v",
						sc.name, procs, seed, adaptive.Workload, fixed.Workload)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
