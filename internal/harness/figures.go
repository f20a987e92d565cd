package harness

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"fabricgossip/internal/analysis"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// Report is the textual output of one experiment: the rows/series behind
// one of the paper's figures or tables.
type Report struct {
	ID    string
	Title string
	Lines []string
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// PeerLatencyReport renders a Figure 4/7/12-style table: the latency CDFs
// of the fastest, median and slowest peers on the logistic probability
// axis.
func PeerLatencyReport(id, title string, res *DisseminationResult) (Report, error) {
	r := Report{ID: id, Title: title}
	ext, err := res.Latencies.PeerExtremes()
	if err != nil {
		return r, err
	}
	r.addf("%-8s %-9s %12s %12s %12s", "p", "logit(p)", "fastest", "median", "slowest")
	fast := metrics.ProbPlot(ext.Fastest, metrics.PeerLevelTicks)
	med := metrics.ProbPlot(ext.Median, metrics.PeerLevelTicks)
	slow := metrics.ProbPlot(ext.Slowest, metrics.PeerLevelTicks)
	for i := range fast {
		r.addf("%-8g %-+9.3f %11.4fs %11.4fs %11.4fs",
			fast[i].P, fast[i].LogitP,
			fast[i].Latency.Seconds(), med[i].Latency.Seconds(), slow[i].Latency.Seconds())
	}
	r.addf("summary fastest peer: %v", metrics.Summarize(ext.Fastest))
	r.addf("summary median  peer: %v", metrics.Summarize(ext.Median))
	r.addf("summary slowest peer: %v", metrics.Summarize(ext.Slowest))
	return r, nil
}

// BlockLatencyReport renders a Figure 5/8/13-style table: the CDFs of the
// fastest, median and slowest disseminated blocks.
func BlockLatencyReport(id, title string, res *DisseminationResult) (Report, error) {
	r := Report{ID: id, Title: title}
	ext, err := res.Latencies.BlockExtremes()
	if err != nil {
		return r, err
	}
	r.addf("%-8s %-9s %12s %12s %12s", "p", "logit(p)", "fastest", "median", "slowest")
	fast := metrics.ProbPlot(ext.Fastest, metrics.BlockLevelTicks)
	med := metrics.ProbPlot(ext.Median, metrics.BlockLevelTicks)
	slow := metrics.ProbPlot(ext.Slowest, metrics.BlockLevelTicks)
	for i := range fast {
		r.addf("%-8g %-+9.3f %11.4fs %11.4fs %11.4fs",
			fast[i].P, fast[i].LogitP,
			fast[i].Latency.Seconds(), med[i].Latency.Seconds(), slow[i].Latency.Seconds())
	}
	r.addf("summary fastest block: %v", metrics.Summarize(ext.Fastest))
	r.addf("summary median  block: %v", metrics.Summarize(ext.Median))
	r.addf("summary slowest block: %v", metrics.Summarize(ext.Slowest))
	r.addf("blocks fully disseminated to all %d peers: %d / %d",
		res.Params.NumPeers, res.WallBlocks, res.Params.NumBlocks)
	return r, nil
}

// BandwidthReport renders a Figure 6/9/10/11/14-style series: MB/s per
// bucket for the leader peer and a regular peer, with the averages the
// paper draws as dotted lines, plus the per-message-type breakdown.
func BandwidthReport(id, title string, res *DisseminationResult) Report {
	r := Report{ID: id, Title: title}
	leader := res.Traffic.NodeSeries(res.LeaderID, res.NumBuckets)
	regular := res.Traffic.NodeSeries(res.RegularID, res.NumBuckets)
	bucketSec := int(res.Params.Bucket.Seconds())
	stride := 1
	if res.NumBuckets > 48 {
		stride = res.NumBuckets / 48
	}
	r.addf("%-10s %14s %14s", "t (s)", "leader (MB/s)", "regular (MB/s)")
	for i := 0; i < res.NumBuckets; i += stride {
		r.addf("%-10d %14.3f %14.3f", i*bucketSec, leader[i], regular[i])
	}
	r.addf("average leader  peer: %.3f MB/s", res.Traffic.NodeAverage(res.LeaderID, res.NumBuckets))
	r.addf("average regular peer: %.3f MB/s", res.Traffic.NodeAverage(res.RegularID, res.NumBuckets))
	r.addf("total network traffic: %.1f MB over %d buckets",
		float64(res.Traffic.TotalBytes())/1e6, res.NumBuckets)
	r.addf("block size: %.1f KB; full-body transmissions: %d (%.1f per block)",
		float64(res.BlockBytes)/1e3, res.BodyTransmissions,
		float64(res.BodyTransmissions)/float64(res.Params.NumBlocks))

	type row struct {
		mt    wire.MsgType
		count uint64
		bytes uint64
	}
	var rows []row
	for mt, cb := range res.Traffic.Breakdown() {
		rows = append(rows, row{mt, cb[0], cb[1]})
	}
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(cmp.Compare(b.bytes, a.bytes), cmp.Compare(a.mt, b.mt))
	})
	r.addf("%-20s %12s %14s", "message type", "count", "bytes")
	for _, w := range rows {
		r.addf("%-20s %12d %14d", w.mt, w.count, w.bytes)
	}
	return r
}

// AnalyticsReport reproduces the analytic claims of §IV and the appendix:
// the infect-and-die reach, the pe-vs-TTL trade-off, and the TTL lookup
// table.
func AnalyticsReport(seed int64) Report {
	r := Report{ID: "analytics", Title: "§IV analytic claims and TTL lookup table"}
	st := analysis.SimulateInfectAndDie(100, 3, 10_000, sim.NewRand(seed))
	r.addf("infect-and-die push, n=100, fout=3 (paper: mean 94, σ 2.6, 282 sends):")
	r.addf("  Monte Carlo: mean = %.2f peers, σ = %.2f, full-block sends = %.1f, reach-all = %.4f",
		st.MeanReached, st.StdDevReached, st.MeanTransmits, st.ReachAllPercent)
	if ex, err := analysis.ExactInfectAndDie(100, 3); err == nil {
		r.addf("  exact chain: mean = %.2f peers, σ = %.2f, full-block sends = %.1f, reach-all = %.5f",
			ex.Mean, ex.StdDev, ex.MeanTransmits, ex.ReachAll)
	}

	r.addf("carrying capacity and TTL (n = 100, pe = 1e-6):")
	for _, fout := range []int{2, 3, 4, 5} {
		g, err := analysis.CarryingCapacity(100, fout)
		if err != nil {
			r.addf("  fout=%d: %v", fout, err)
			continue
		}
		ttl, err := analysis.TTLFor(100, fout, 1e-6)
		if err != nil {
			r.addf("  fout=%d: %v", fout, err)
			continue
		}
		r.addf("  fout=%d: γ = %6.2f, TTL = %2d, achieved pe = %.2e, E[digests] = %.0f",
			fout, g, ttl, analysis.ImperfectProb(100, fout, ttl), analysis.ExpectedDigests(100, fout, ttl))
	}
	ttl12, _ := analysis.TTLFor(100, 4, 1e-12)
	r.addf("pe = 1e-12 at fout=4 needs TTL = %d (paper: 12)", ttl12)
	r.addf("note: our ψ-recursion certifies pe<=1e-6 at fout=2 with TTL=18; the paper's")
	r.addf("      looser bound needs 19. Experiments pin the paper's TTL=19 (pe = %.2e).",
		analysis.ImperfectProb(100, 2, 19))
	r.addf("exact occupancy-chain analysis (the appendix's coupon-collector extension):")
	for _, c := range []struct{ fout, paperTTL int }{{2, 19}, {3, 11}, {4, 9}} {
		ttl, err := analysis.ExactTTLFor(100, c.fout, 1e-6)
		if err != nil {
			r.addf("  fout=%d: %v", c.fout, err)
			continue
		}
		r.addf("  fout=%d: exact minimal TTL = %d (conservative bound: see above)", c.fout, ttl)
		if pe, err := analysis.ExactPe(100, c.fout, c.paperTTL); err == nil {
			r.addf("  fout=%d: exact pe at the paper's TTL = %d is %.2e", c.fout, c.paperTTL, pe)
		}
	}

	table, err := analysis.TTLTable([]int{25, 50, 100, 200, 500, 1000, 5000}, 4, 1e-6)
	if err != nil {
		r.addf("ttl table: %v", err)
		return r
	}
	r.addf("TTL lookup table (fout=4, pe<=1e-6): n -> TTL")
	for _, e := range table {
		r.addf("  n <= %5d: TTL = %2d (pe = %.2e)", e.N, e.TTL, e.Pe)
	}
	return r
}

// CompareBandwidth summarizes the headline bandwidth claim: the enhanced
// module cuts a regular peer's (and the whole network's) traffic by more
// than 40% (paper §V-C).
func CompareBandwidth(orig, enh *DisseminationResult) Report {
	r := Report{ID: "bandwidth-compare", Title: "original vs enhanced bandwidth (paper: >40% reduction)"}
	// Compare over the generation window only (both runs share it).
	gen := int(time.Duration(orig.Params.NumBlocks)*orig.Params.BlockInterval/orig.Params.Bucket) + 1
	oReg := orig.Traffic.NodeAverage(orig.RegularID, gen)
	eReg := enh.Traffic.NodeAverage(enh.RegularID, gen)
	oTot := float64(orig.Traffic.TotalBytes())
	eTot := float64(enh.Traffic.TotalBytes())
	r.addf("regular peer: original %.3f MB/s -> enhanced %.3f MB/s (%.1f%% reduction)",
		oReg, eReg, 100*(1-eReg/oReg))
	r.addf("total traffic: original %.1f MB -> enhanced %.1f MB (%.1f%% reduction)",
		oTot/1e6, eTot/1e6, 100*(1-eTot/oTot))
	r.addf("full-body transmissions per block: original %.1f -> enhanced %.1f",
		float64(orig.BodyTransmissions)/float64(orig.Params.NumBlocks),
		float64(enh.BodyTransmissions)/float64(enh.Params.NumBlocks))
	return r
}
