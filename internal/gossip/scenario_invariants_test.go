package gossip_test

import (
	"strings"
	"testing"

	"fabricgossip/internal/harness"
	"fabricgossip/internal/scenario"
)

// The gossip layer's safety contract under faults: whatever the scenario
// does to the organization — crashes, churn, partitions, slow links, packet
// loss, staggered joins — every peer alive at the end must have committed
// every injected block, in order, with no gaps, with rejoining peers closing
// their holes through the recovery component; under a transaction workload,
// every submitted transaction is ordered and resolved exactly once.
// Table-driven over the entire built-in catalog for both protocol variants.
func TestAllScenariosPreserveCommitInvariants(t *testing.T) {
	const peers = 30
	for _, def := range scenario.Catalog() {
		for _, variant := range []harness.Variant{harness.VariantOriginal, harness.VariantEnhanced} {
			def, variant := def, variant
			t.Run(def.Name+"/"+string(variant), func(t *testing.T) {
				t.Parallel()
				rep, err := scenario.RunNamed(def.Name, scenario.Options{
					Peers:   peers,
					Variant: variant,
					Seed:    23,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.BlocksInjected == 0 {
					t.Fatal("scenario injected no blocks")
				}
				if rep.OrderViolations != 0 {
					t.Fatalf("%d out-of-order or gapped commits\ntrace:\n%s",
						rep.OrderViolations, strings.Join(rep.Trace, "\n"))
				}
				if rep.CaughtUp != rep.Survivors {
					t.Fatalf("only %d of %d survivors committed all %d blocks\ntrace:\n%s",
						rep.CaughtUp, rep.Survivors, rep.BlocksInjected,
						strings.Join(rep.Trace, "\n"))
				}
				if rep.PendingRecoveries != 0 {
					t.Fatalf("%d rejoined peers never caught up\ntrace:\n%s",
						rep.PendingRecoveries, strings.Join(rep.Trace, "\n"))
				}
				// The workload's books close: every submitted transaction
				// was ordered and resolved, from the block its org committed,
				// as committed or conflicted, and no peer lost a block.
				if w := rep.Workload; w != nil {
					if w.Submitted != w.Committed+w.Conflicts {
						t.Errorf("submitted %d != committed %d + conflicts %d",
							w.Submitted, w.Committed, w.Conflicts)
					}
					if w.OrderedTx != uint64(w.Submitted) {
						t.Errorf("ordered %d transactions, submitted %d", w.OrderedTx, w.Submitted)
					}
					if w.CommitErrors != 0 {
						t.Errorf("%d commit errors", w.CommitErrors)
					}
				}
			})
		}
	}
}
