package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
	"time"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/wire"
)

func quickParams(v Variant, seed int64) Params {
	return QuickScale(DefaultParams(v, seed), 40, 30)
}

func TestBuildChainLinkageAndSize(t *testing.T) {
	blocks := BuildChain(5, 50, 3000, 1)
	var prev *ledger.Block
	for _, b := range blocks {
		if err := b.VerifyLinkage(prev); err != nil {
			t.Fatalf("linkage: %v", err)
		}
		prev = b
	}
	// The paper's workload: 50 tx of ~3.2 KB -> ~160 KB blocks.
	size := wire.BlockEncodedSize(blocks[0])
	if size < 150_000 || size > 180_000 {
		t.Fatalf("block size = %d, want ≈160 KB", size)
	}
	// Deterministic from the seed.
	again := BuildChain(5, 50, 3000, 1)
	if again[4].Hash() != blocks[4].Hash() {
		t.Fatal("chain not deterministic")
	}
	if BuildChain(5, 50, 3000, 2)[4].Hash() == blocks[4].Hash() {
		t.Fatal("different seeds produced identical chains")
	}
}

// TestBuildChainPinned pins the chain byte for byte: the sha256 over every
// block's wire encoding, recorded while BuildChain was one sequential loop.
// However the work is split across passes or goroutines, the "chain" stream
// must be drawn in the same order and every hash must come out the same —
// at any GOMAXPROCS.
func TestBuildChainPinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want string
	}{{1, "1c9f49128eaf04e4"}, {7, "7f816a227d53e985"}} {
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			h := sha256.New()
			for _, b := range BuildChain(200, 50, 3000, tc.seed) {
				h.Write(wire.Marshal(&wire.Data{Block: b}))
			}
			runtime.GOMAXPROCS(prev)
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != tc.want {
				t.Errorf("seed %d, GOMAXPROCS %d: chain hash %s, want %s", tc.seed, procs, got, tc.want)
			}
		}
	}
}

func TestRunDisseminationReachesAllPeers(t *testing.T) {
	for _, v := range []Variant{VariantOriginal, VariantEnhanced} {
		v := v
		t.Run(string(v), func(t *testing.T) {
			res, err := RunDissemination(quickParams(v, 3))
			if err != nil {
				t.Fatal(err)
			}
			if res.WallBlocks != res.Params.NumBlocks {
				t.Fatalf("%d of %d blocks fully disseminated", res.WallBlocks, res.Params.NumBlocks)
			}
			// n-1 non-leader peers x blocks observations.
			want := (res.Params.NumPeers - 1) * res.Params.NumBlocks
			if res.Latencies.Count() != want {
				t.Fatalf("recorded %d latencies, want %d", res.Latencies.Count(), want)
			}
		})
	}
}

func TestEnhancedTailBeatsOriginal(t *testing.T) {
	orig, err := RunDissemination(quickParams(VariantOriginal, 5))
	if err != nil {
		t.Fatal(err)
	}
	enh, err := RunDissemination(quickParams(VariantEnhanced, 5))
	if err != nil {
		t.Fatal(err)
	}
	oTail := orig.Latencies.All().Quantile(0.999)
	eTail := enh.Latencies.All().Quantile(0.999)
	// Paper: >10x faster to reach all peers. At reduced scale we demand
	// at least 5x on the p99.9 tail.
	if oTail < 5*eTail {
		t.Fatalf("tail speedup only %.1fx (orig %v, enh %v)", float64(oTail)/float64(eTail), oTail, eTail)
	}
	// Enhanced reaches everything within the push phase: worst case well
	// under the original's pull period.
	if max := enh.Latencies.All().Max(); max > time.Second {
		t.Fatalf("enhanced worst case %v, want < 1s", max)
	}
}

func TestEnhancedBandwidthLowerThanOriginal(t *testing.T) {
	orig, err := RunDissemination(quickParams(VariantOriginal, 7))
	if err != nil {
		t.Fatal(err)
	}
	enh, err := RunDissemination(quickParams(VariantEnhanced, 7))
	if err != nil {
		t.Fatal(err)
	}
	gen := int(time.Duration(orig.Params.NumBlocks)*orig.Params.BlockInterval/orig.Params.Bucket) + 1
	o := orig.Traffic.NodeAverage(orig.RegularID, gen)
	e := enh.Traffic.NodeAverage(enh.RegularID, gen)
	if e >= o {
		t.Fatalf("enhanced regular-peer bandwidth %.3f MB/s not below original %.3f MB/s", e, o)
	}
	// Body transmissions: infect-and-die sends ~reach*fout per block;
	// enhanced sends ~n + o(n).
	oBodies := float64(orig.BodyTransmissions) / float64(orig.Params.NumBlocks)
	eBodies := float64(enh.BodyTransmissions) / float64(enh.Params.NumBlocks)
	if eBodies >= oBodies {
		t.Fatalf("enhanced bodies/block %.1f not below original %.1f", eBodies, oBodies)
	}
}

func TestFig10LeaderCarriesFoutTimesTraffic(t *testing.T) {
	p := QuickScale(Fig10Params(9), 40, 30)
	res, err := RunDissemination(p)
	if err != nil {
		t.Fatal(err)
	}
	gen := int(time.Duration(p.NumBlocks)*p.BlockInterval/p.Bucket) + 1
	leader := res.Traffic.NodeAverage(res.LeaderID, gen)
	regular := res.Traffic.NodeAverage(res.RegularID, gen)
	// Paper Figure 10: with fleaderout = fout the leader's bandwidth is
	// much higher than a regular peer's.
	if leader < regular*1.25 {
		t.Fatalf("leader %.3f MB/s vs regular %.3f MB/s: ablation effect missing", leader, regular)
	}

	// The claim is relative: delegation (fleaderout = 1) must shrink the
	// leader's share of traffic compared to the fig10 ablation.
	pDef := quickParams(VariantEnhanced, 9)
	resDef, err := RunDissemination(pDef)
	if err != nil {
		t.Fatal(err)
	}
	leaderDef := resDef.Traffic.NodeAverage(resDef.LeaderID, gen)
	regularDef := resDef.Traffic.NodeAverage(resDef.RegularID, gen)
	ratioAblation := leader / regular
	ratioDefault := leaderDef / regularDef
	if ratioDefault >= ratioAblation {
		t.Fatalf("delegation did not reduce the leader's traffic share: default %.2f vs ablation %.2f",
			ratioDefault, ratioAblation)
	}
}

func TestFig11DisablingDigestsBlowsUpTraffic(t *testing.T) {
	with := quickParams(VariantEnhanced, 11)
	without := QuickScale(Fig11Params(11), 40, 30)
	rWith, err := RunDissemination(with)
	if err != nil {
		t.Fatal(err)
	}
	rWithout, err := RunDissemination(without)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 11: pushing bodies on every hop multiplies traffic
	// (8 MB/s vs ~0.6 MB/s at full scale).
	bWith := float64(rWith.BodyTransmissions) / float64(with.NumBlocks)
	bWithout := float64(rWithout.BodyTransmissions) / float64(without.NumBlocks)
	if bWithout < 3*bWith {
		t.Fatalf("no-digest bodies/block %.1f vs digest %.1f: blow-up missing", bWithout, bWith)
	}
}

func TestRunDisseminationDeterminism(t *testing.T) {
	p := quickParams(VariantEnhanced, 13)
	a, err := RunDissemination(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDissemination(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Traffic.TotalBytes() != b.Traffic.TotalBytes() {
		t.Fatal("traffic differs across identical runs")
	}
	if a.Latencies.All().Max() != b.Latencies.All().Max() {
		t.Fatal("latencies differ across identical runs")
	}
}

// The repository benchmark re-drives RunDissemination's schedule on an Org
// it builds itself (bench/sim.go's paperEngineCounts: NewOrg, the background
// floor, DeliverBlock per block, RunUntil) to read the engine's event count,
// and fails its run if the byte total differs. Pin that equivalence here,
// where a change to Org or RunDissemination is made. The re-drive keeps a
// background timer per peer where RunDissemination has one for all, so its
// bytes match and its event count exceeds RunDissemination's.
func TestOrgRedriveMatchesRunDissemination(t *testing.T) {
	for _, v := range []Variant{VariantOriginal, VariantEnhanced} {
		p := quickParams(v, 1)
		res, err := RunDissemination(p)
		if err != nil {
			t.Fatal(err)
		}
		org, err := NewOrg(p)
		if err != nil {
			t.Fatal(err)
		}
		org.StartAll()
		half := int(p.BackgroundBytesPerSec / 2)
		for _, id := range org.Peers {
			id := id
			org.Engine.Every(time.Second, func() {
				org.Traffic.Record(id, id, wire.TypeAlive, half, org.Engine.Now())
			})
		}
		for i, b := range BuildChain(p.NumBlocks, p.TxPerBlock, p.TxPayload, p.Seed) {
			b := b
			org.Engine.At(time.Duration(i)*p.BlockInterval, func() { org.DeliverBlock(b) })
		}
		org.Engine.RunUntil(time.Duration(p.NumBlocks-1)*p.BlockInterval + p.Tail)
		org.StopAll()
		if got, want := org.Traffic.TotalBytes(), res.Traffic.TotalBytes(); got != want {
			t.Fatalf("%s: re-driven Org moved %d bytes, RunDissemination %d", v, got, want)
		}
	}
}

func TestConflictExperimentEnhancedWins(t *testing.T) {
	mk := func(v Variant) ConflictParams {
		p := DefaultConflictParams(v, time.Second, 22)
		p.NumPeers = 30
		p.Keys = 30
		p.Rounds = 10
		return p
	}
	orig, err := RunConflictExperiment(mk(VariantOriginal))
	if err != nil {
		t.Fatal(err)
	}
	enh, err := RunConflictExperiment(mk(VariantEnhanced))
	if err != nil {
		t.Fatal(err)
	}
	// Accounting cross-check: ledger counters vs peer commit results.
	if orig.Conflicts != orig.PeerReportedConflicts || enh.Conflicts != enh.PeerReportedConflicts {
		t.Fatalf("accounting mismatch: %+v / %+v", orig, enh)
	}
	if enh.Conflicts >= orig.Conflicts {
		t.Fatalf("enhanced conflicts %d not below original %d", enh.Conflicts, orig.Conflicts)
	}
	if orig.TotalTx != 300 || enh.TotalTx != 300 {
		t.Fatalf("workload size wrong: %d / %d", orig.TotalTx, enh.TotalTx)
	}
}

func TestReportsRender(t *testing.T) {
	res, err := RunDissemination(quickParams(VariantEnhanced, 19))
	if err != nil {
		t.Fatal(err)
	}
	peerRep, err := PeerLatencyReport("fig7", "t", res)
	if err != nil {
		t.Fatal(err)
	}
	blockRep, err := BlockLatencyReport("fig8", "t", res)
	if err != nil {
		t.Fatal(err)
	}
	bwRep := BandwidthReport("fig9", "t", res)
	for _, rep := range []Report{peerRep, blockRep, bwRep} {
		s := rep.String()
		if !strings.Contains(s, rep.ID) || len(rep.Lines) < 5 {
			t.Fatalf("report %s renders badly:\n%s", rep.ID, s)
		}
	}
	an := AnalyticsReport(1)
	if !strings.Contains(an.String(), "TTL") {
		t.Fatal("analytics report missing TTL content")
	}
}

func TestRunExperimentErrors(t *testing.T) {
	if _, err := RunExperiment("fig99", 1, true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"analytics", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table2"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestRunExperimentQuickAllDisseminationKinds(t *testing.T) {
	for _, id := range []string{"fig4", "fig8", "fig9", "analytics"} {
		rep, err := RunExperiment(id, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rep.ID != id {
			t.Fatalf("report id %s, want %s", rep.ID, id)
		}
	}
}

// TestConflictAccountingCrossCheckDeterministic is the focused end-to-end
// pipeline check: at small scale, the experiment's ledger-side conflict
// count must equal what the endorsing peer's commit results report
// (Conflicts == PeerReportedConflicts), conflicts must actually occur (the
// tight keyspace guarantees MVCC collisions), and the whole experiment
// must replay identically for the same seed.
func TestConflictAccountingCrossCheckDeterministic(t *testing.T) {
	mk := func() ConflictParams {
		p := DefaultConflictParams(VariantEnhanced, time.Second, 7)
		p.NumPeers = 12
		p.Keys = 8
		p.Rounds = 6
		return p
	}
	a, err := RunConflictExperiment(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Conflicts != a.PeerReportedConflicts {
		t.Fatalf("ledger counted %d conflicts, peer commit results %d",
			a.Conflicts, a.PeerReportedConflicts)
	}
	if a.Conflicts == 0 {
		t.Fatal("tight keyspace produced no conflicts; the cross-check is vacuous")
	}
	b, err := RunConflictExperiment(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Conflicts != b.Conflicts || a.TotalTx != b.TotalTx ||
		a.MeanTxPerBlock != b.MeanTxPerBlock || a.Blocks != b.Blocks {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}
