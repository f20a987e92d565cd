package scenario

import (
	"runtime"
	"testing"
)

// The cross-shard determinism property: a run's fingerprint is a pure
// function of (scenario, Options) — independent of how the shard goroutines
// are scheduled. Exercised across seeds and GOMAXPROCS ∈ {1, 4}: at 1 the
// windows execute effectively serially, at 4 they genuinely interleave, and
// the coordinator's barrier protocol must make both byte-identical.
// org-outage-orderer-down adds cross-shard anchor recovery (org leaders
// fetching from other orgs' anchors while the orderer is down).
func TestShardedFingerprintIndependentOfParallelism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, name := range []string{"sharded-crash-restart", "sharded-txload-steady", "org-outage-orderer-down"} {
		for _, seed := range []int64{1, 7, 42} {
			var prints []string
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				rep, err := RunNamed(name, Options{Peers: 20, Seed: seed})
				if err != nil {
					t.Fatalf("%s seed=%d procs=%d: %v", name, seed, procs, err)
				}
				prints = append(prints, rep.Fingerprint())
			}
			if prints[0] != prints[1] {
				t.Errorf("%s seed=%d: fingerprint depends on GOMAXPROCS:\n  1: %s\n  4: %s",
					name, seed, prints[0], prints[1])
			}
		}
	}
}
