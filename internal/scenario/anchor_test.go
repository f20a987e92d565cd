package scenario

import (
	"testing"
)

// The org-outage-orderer-down entry exists to exercise the anchor-peer
// cross-org recovery path, so the path must be load-bearing: with the
// orderer crashed for good, the downed organization recovers if and only
// if AnchorRecovery is on. Running the identical script with anchors
// disabled must leave every one of the victim org's peers behind.
func TestOrgOutageRecoversOnlyThroughAnchors(t *testing.T) {
	def, err := Lookup("org-outage-orderer-down")
	if err != nil {
		t.Fatal(err)
	}
	top := Uniform(2, 10)
	sc := def.Build(top)
	sc.Name = def.Name
	opt := Options{Peers: 20, Orgs: 2, Seed: 42}

	withAnchors, err := Run(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if withAnchors.CaughtUp != withAnchors.Survivors || withAnchors.PendingRecoveries != 0 {
		t.Fatalf("with anchors: %d/%d caught up, %d pending — the new path failed",
			withAnchors.CaughtUp, withAnchors.Survivors, withAnchors.PendingRecoveries)
	}
	// Anchor transfers are part of the recovery plane's accounted traffic.
	if withAnchors.SyncBytes == 0 || withAnchors.SyncMessages == 0 {
		t.Fatal("with anchors: no state-sync traffic attributed")
	}

	sc.AnchorRecovery = false
	without, err := Run(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	victimSize := top.Size(top.Orgs() - 1)
	if got := without.Survivors - without.CaughtUp; got != victimSize {
		t.Fatalf("without anchors: %d peers behind at the end, want the whole victim org (%d)",
			got, victimSize)
	}
	if without.PendingRecoveries != victimSize {
		t.Fatalf("without anchors: %d pending recoveries, want %d",
			without.PendingRecoveries, victimSize)
	}
}

// An explicit OrgSizes layout bypasses the Peers/Orgs split, so it must
// still satisfy a catalog entry's MinOrgs — otherwise org-targeted scripts
// run on degenerate topologies (the "remote org" being the whole network)
// and report nonsense instead of failing.
func TestOrgSizesMustSatisfyMinOrgs(t *testing.T) {
	_, err := RunNamed("org-outage-orderer-down", Options{OrgSizes: []int{6}, Seed: 1})
	if err == nil {
		t.Fatal("single-org layout accepted by a MinOrgs=2 scenario")
	}
	if _, err := RunNamed("org-outage-orderer-down", Options{OrgSizes: []int{6, 4}, Seed: 1}); err != nil {
		t.Fatalf("two-org layout rejected: %v", err)
	}
}

// The asymmetric consortium entry must actually produce uneven org sizes
// and still converge.
func TestAsymConsortiumShapesUnevenOrgs(t *testing.T) {
	rep, err := RunNamed("org-asym-consortium", Options{Peers: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orgs != 3 {
		t.Fatalf("orgs = %d, want 3", rep.Orgs)
	}
	sizes := make([]int, 0, 3)
	uneven := false
	for _, or := range rep.OrgReports {
		sizes = append(sizes, or.Peers)
		if or.Peers != rep.OrgReports[0].Peers {
			uneven = true
		}
	}
	if !uneven {
		t.Fatalf("org sizes %v are uniform, want an asymmetric layout", sizes)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 20 {
		t.Fatalf("org sizes %v sum to %d, want the requested 20", sizes, total)
	}
	if rep.CaughtUp != rep.Survivors {
		t.Fatalf("%d/%d caught up", rep.CaughtUp, rep.Survivors)
	}
}
