// Package metrics collects and summarizes block-dissemination latencies and
// renders them the way the paper's figures do: empirical CDFs plotted on a
// logistic-quantile (probability-plot) axis, where a logistic distribution
// appears as a straight line and heavy tails bend away from it.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"fabricgossip/internal/wire"
)

// Distribution is an immutable empirical distribution over durations.
type Distribution struct {
	sorted []time.Duration
}

// NewDistribution copies and sorts the given samples.
func NewDistribution(samples []time.Duration) *Distribution {
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return &Distribution{sorted: s}
}

// Quantile returns the p-th order statistic (0 < p <= 1). Out-of-range p
// clamps to the extremes; an empty distribution returns 0.
func (d *Distribution) Quantile(p float64) time.Duration { return quantile(d.sorted, p) }

// quantile is the one order-statistic rule every summary in the repository
// goes through: the ceil(p*n)-th smallest of an ascending slice.
func quantile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// Mean returns the sample mean.
func (d *Distribution) Mean() time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d.sorted {
		sum += v
	}
	return sum / time.Duration(len(d.sorted))
}

// Max returns the largest sample.
func (d *Distribution) Max() time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[len(d.sorted)-1]
}

// Logit returns ln(p / (1-p)), the logistic quantile transform the paper
// uses for its probability-plot y axes.
func Logit(p float64) float64 { return math.Log(p / (1 - p)) }

// PeerLevelTicks are the y-axis probability levels of the paper's
// peer-level latency figures (Figs. 4, 7, 12).
var PeerLevelTicks = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25,
	0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999,
}

// BlockLevelTicks are the y-axis probability levels of the paper's
// block-level latency figures (Figs. 5, 8, 13).
var BlockLevelTicks = []float64{
	0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995,
}

// ProbPlotRow is one row of a probability plot: at cumulative probability P
// (logistic y-coordinate LogitP), the distribution's latency is Latency.
type ProbPlotRow struct {
	P       float64
	LogitP  float64
	Latency time.Duration
}

// ProbPlot evaluates the distribution's quantiles at the given probability
// ticks. Ticks finer than 1/N are clamped by Quantile to the extremes,
// mirroring how an empirical CDF plot saturates.
func ProbPlot(d *Distribution, ticks []float64) []ProbPlotRow {
	rows := make([]ProbPlotRow, 0, len(ticks))
	for _, p := range ticks {
		rows = append(rows, ProbPlotRow{P: p, LogitP: Logit(p), Latency: d.Quantile(p)})
	}
	return rows
}

// LatencyRecorder accumulates (block, peer, latency) observations from a
// dissemination experiment and produces the paper's two views:
//
//   - per peer: each peer's latency distribution across all blocks
//     (Figs. 4/7/12 plot the fastest, median and slowest *peers*);
//   - per block: each block's latency distribution across all peers
//     (Figs. 5/8/13 plot the fastest, median and slowest *blocks*).
type LatencyRecorder struct {
	perPeer  map[wire.NodeID][]time.Duration
	perBlock map[uint64][]time.Duration
	count    int
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{
		perPeer:  make(map[wire.NodeID][]time.Duration),
		perBlock: make(map[uint64][]time.Duration),
	}
}

// Record adds one observation: peer received block after latency.
func (r *LatencyRecorder) Record(block uint64, peer wire.NodeID, latency time.Duration) {
	r.perPeer[peer] = append(r.perPeer[peer], latency)
	r.perBlock[block] = append(r.perBlock[block], latency)
	r.count++
}

// Count returns the number of recorded observations.
func (r *LatencyRecorder) Count() int { return r.count }

// Peers returns the number of distinct peers observed.
func (r *LatencyRecorder) Peers() int { return len(r.perPeer) }

// Blocks returns the number of distinct blocks observed.
func (r *LatencyRecorder) Blocks() int { return len(r.perBlock) }

// Extremes bundles the three distributions the paper plots per figure.
type Extremes struct {
	Fastest *Distribution
	Median  *Distribution
	Slowest *Distribution
}

// PeerExtremes ranks peers by mean latency and returns the fastest, median
// and slowest peers' distributions. Peers of equal mean rank by id.
func (r *LatencyRecorder) PeerExtremes() (Extremes, error) {
	if len(r.perPeer) == 0 {
		return Extremes{}, fmt.Errorf("metrics: no peer observations")
	}
	return extremes(r.perPeer, (*Distribution).Mean), nil
}

// BlockExtremes ranks blocks by the time to reach their last peer
// (dissemination completion) and returns the fastest, median and slowest
// blocks' distributions. Blocks of equal completion time rank by number.
func (r *LatencyRecorder) BlockExtremes() (Extremes, error) {
	if len(r.perBlock) == 0 {
		return Extremes{}, fmt.Errorf("metrics: no block observations")
	}
	return extremes(r.perBlock, (*Distribution).Max), nil
}

// extremes ranks a non-empty set of sample series by rank, ties broken by
// key so the picks do not depend on map order.
func extremes[K cmp.Ordered](series map[K][]time.Duration, rank func(*Distribution) time.Duration) Extremes {
	type entry struct {
		key  K
		d    *Distribution
		rank time.Duration
	}
	entries := make([]entry, 0, len(series))
	for k, samples := range series {
		d := NewDistribution(samples)
		entries = append(entries, entry{key: k, d: d, rank: rank(d)})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.key, b.key))
	})
	return Extremes{
		Fastest: entries[0].d,
		Median:  entries[len(entries)/2].d,
		Slowest: entries[len(entries)-1].d,
	}
}

// All returns the pooled distribution over every observation.
func (r *LatencyRecorder) All() *Distribution {
	all := make([]time.Duration, 0, r.count)
	for _, s := range r.perPeer {
		all = append(all, s...)
	}
	return NewDistribution(all)
}

// OverheadRatio relates total transmitted bytes to the ideal minimum of a
// dissemination workload: every one of blocks payloads of payloadBytes
// reaching each of receivers peers exactly once. A perfect protocol scores
// 1.0; redundant pushes, digests, heartbeats and recovery re-fetches raise
// it. Returns 0 when the ideal volume is zero.
func OverheadRatio(totalBytes uint64, payloadBytes, receivers, blocks int) float64 {
	ideal := float64(payloadBytes) * float64(receivers) * float64(blocks)
	if ideal <= 0 {
		return 0
	}
	return float64(totalBytes) / ideal
}

// Summary holds headline statistics of a distribution.
type Summary struct {
	N                   int
	Min, Mean, Max      time.Duration
	P50, P95, P99, P999 time.Duration
}

// Summarize computes a Summary.
func Summarize(d *Distribution) Summary { return summarizeSorted(d.sorted) }

// SummarizeSamples summarizes samples in place: the slice is sorted (not
// copied) and read directly, so a caller that owns its samples gets a
// Summary without allocating. Identical to Summarize(NewDistribution(s)).
func SummarizeSamples(s []time.Duration) Summary {
	slices.Sort(s)
	return summarizeSorted(s)
}

func summarizeSorted(s []time.Duration) Summary {
	n := len(s)
	if n == 0 {
		return Summary{}
	}
	var sum time.Duration
	for _, v := range s {
		sum += v
	}
	return Summary{
		N:    n,
		Min:  s[0],
		Mean: sum / time.Duration(n),
		Max:  s[n-1],
		P50:  quantile(s, 0.50),
		P95:  quantile(s, 0.95),
		P99:  quantile(s, 0.99),
		P999: quantile(s, 0.999),
	}
}

// String formats the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%v p50=%v mean=%v p95=%v p99=%v p99.9=%v max=%v",
		s.N, s.Min, s.P50, s.Mean, s.P95, s.P99, s.P999, s.Max)
}
