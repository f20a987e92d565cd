package netmodel

import (
	"sync"
	"time"

	"fabricgossip/internal/wire"
)

// Traffic accounts every transmitted message: per-node byte series in fixed
// time buckets (the paper aggregates at 10 s), plus per-message-type counts
// used to verify analytic claims such as "each block is transmitted in full
// 282 times under infect-and-die".
//
// Record sits on the per-message hot path of every simulation, so the
// accounting is dense and allocation-free at steady state: node series are
// index-addressed slices exploiting the transport's dense-id contract
// (SimNetwork.AddNode assigns NodeIDs from 0 in creation order), and
// per-type counters are flat arrays indexed by MsgType. Buckets and node
// slots grow amortized as the run progresses.
//
// NewTraffic returns a locked accountant that is safe for concurrent use so
// the TCP transport can share it across connection goroutines; NewSimTraffic
// skips the mutex entirely for the single-threaded simulated runtime, where
// every Record comes from the one engine goroutine.
type Traffic struct {
	mu sync.Mutex
	// concurrent selects the locked paths; false only on the simulated
	// runtime, whose engine is single-threaded by construction.
	concurrent bool
	bucket     time.Duration
	// base/window bound the index-addressed node tables to ids in
	// [base, base+window): in/out are indexed by id-base. A sharded
	// harness gives each organization shard's accountant its own id
	// range, so per-shard tables scale with the organization instead of
	// every shard paying headers for the whole network.
	base   wire.NodeID
	window int
	in     [][]uint64 // indexed by NodeID-base: per-bucket bytes received
	out    [][]uint64 // indexed by NodeID-base: per-bucket bytes sent
	// inBig/outBig catch ids outside the dense window: the TCP runtime
	// lets callers choose arbitrary NodeIDs (ListenTCP), and a sharded
	// accountant sees occasional cross-shard ids. A sparse id must not
	// grow the dense tables to its value. Allocated lazily; a
	// full-window simulated runtime never touches them.
	inBig  map[wire.NodeID][]uint64
	outBig map[wire.NodeID][]uint64
	// totalsOnly drops the per-bucket series and keeps one running total
	// per node per direction (inTot/outTot dense, the maps for sparse
	// ids). Scenario runs only ever read NodeTotals, and at the 100k-peer
	// tier the unread bucket series would be the accountant's dominant
	// allocation (~0.5 KB per node per direction); NodeSeries/NodeAverage
	// read as zero in this mode.
	totalsOnly bool
	inTot      []uint64
	outTot     []uint64
	inBigTot   map[wire.NodeID]uint64
	outBigTot  map[wire.NodeID]uint64
	count      [wire.NumMsgTypes]uint64
	bytes      [wire.NumMsgTypes]uint64
	total      uint64
}

// denseLimit bounds the index-addressed node tables. Simulated networks
// assign ids densely from 0 and stay below it even at the 100k-peer tier;
// ids beyond fall back to the map path.
const denseLimit = 1 << 20

// NewTraffic returns a concurrency-safe accountant aggregating at the given
// bucket width.
func NewTraffic(bucket time.Duration) *Traffic {
	t := NewSimTraffic(bucket)
	t.concurrent = true
	return t
}

// NewSimTraffic returns an accountant for the single-threaded simulated
// runtime: identical accounting, no locking. It must only be used from the
// engine goroutine.
func NewSimTraffic(bucket time.Duration) *Traffic {
	return NewSimTrafficWindow(bucket, 0, denseLimit)
}

// NewSimTrafficWindow returns a single-threaded accountant whose dense
// tables cover ids [base, base+window); ids outside take the sparse map
// path. The sharded harness hands each organization shard its org's id
// range — cross-shard sends touch a handful of remote ids (the orderer, a
// few anchors and leaders), which the map absorbs without the dense tables
// paying a header per network node per shard.
func NewSimTrafficWindow(bucket time.Duration, base wire.NodeID, window int) *Traffic {
	if bucket <= 0 {
		bucket = 10 * time.Second
	}
	if window < 0 {
		window = 0
	} else if window > denseLimit {
		window = denseLimit
	}
	return &Traffic{bucket: bucket, base: base, window: window}
}

// TotalsOnly switches the accountant to per-node running totals: NodeTotals
// (and the per-type/network-wide aggregates) stay exact, the per-bucket
// series is never allocated, and NodeSeries/NodeAverage read as zero. For
// accountants whose consumers never look at time series — the scenario
// runner reads only NodeTotals — this removes the dominant per-node
// allocation at the 100k-peer tier. Must be called before the first Record;
// returns t for chaining.
func (t *Traffic) TotalsOnly() *Traffic {
	t.totalsOnly = true
	return t
}

// denseIdx returns id's index into the dense tables, or false when the id
// lies outside the window.
func (t *Traffic) denseIdx(id wire.NodeID) (int, bool) {
	if id < t.base {
		return 0, false
	}
	i := int(id - t.base)
	return i, i < t.window
}

// bumpIn adds v to id's receive bucket idx, dense or sparse as the window
// dictates. Callers hold the lock (or run single-threaded).
func (t *Traffic) bumpIn(id wire.NodeID, idx int, v uint64) {
	i, dense := t.denseIdx(id)
	if t.totalsOnly {
		if dense {
			t.inTot = bumpTot(t.inTot, i, v)
		} else {
			if t.inBigTot == nil {
				t.inBigTot = make(map[wire.NodeID]uint64)
			}
			t.inBigTot[id] += v
		}
		return
	}
	if dense {
		t.in = bumpNode(t.in, i, idx, v)
	} else {
		t.inBig = bumpBig(t.inBig, id, idx, v)
	}
}

// bumpOut is bumpIn for the send direction.
func (t *Traffic) bumpOut(id wire.NodeID, idx int, v uint64) {
	i, dense := t.denseIdx(id)
	if t.totalsOnly {
		if dense {
			t.outTot = bumpTot(t.outTot, i, v)
		} else {
			if t.outBigTot == nil {
				t.outBigTot = make(map[wire.NodeID]uint64)
			}
			t.outBigTot[id] += v
		}
		return
	}
	if dense {
		t.out = bumpNode(t.out, i, idx, v)
	} else {
		t.outBig = bumpBig(t.outBig, id, idx, v)
	}
}

func (t *Traffic) lock() {
	if t.concurrent {
		t.mu.Lock()
	}
}

func (t *Traffic) unlock() {
	if t.concurrent {
		t.mu.Unlock()
	}
}

// Merge folds other's accounting into t. The sharded runtime keeps one
// accountant per shard (so Record stays lock-free inside windows) and merges
// them into a single view for reporting. other must be quiescent.
func (t *Traffic) Merge(other *Traffic) {
	t.lock()
	defer t.unlock()
	for node, b := range other.in {
		for idx, v := range b {
			if v != 0 {
				t.bumpIn(other.base+wire.NodeID(node), idx, v)
			}
		}
	}
	for node, b := range other.out {
		for idx, v := range b {
			if v != 0 {
				t.bumpOut(other.base+wire.NodeID(node), idx, v)
			}
		}
	}
	for id, b := range other.inBig {
		for idx, v := range b {
			if v != 0 {
				t.bumpIn(id, idx, v)
			}
		}
	}
	for id, b := range other.outBig {
		for idx, v := range b {
			if v != 0 {
				t.bumpOut(id, idx, v)
			}
		}
	}
	// Totals-only storage folds into bucket 0 — a totals-only merge target
	// (the only mode pairing the harness uses) ignores the index anyway.
	for node, v := range other.inTot {
		if v != 0 {
			t.bumpIn(other.base+wire.NodeID(node), 0, v)
		}
	}
	for node, v := range other.outTot {
		if v != 0 {
			t.bumpOut(other.base+wire.NodeID(node), 0, v)
		}
	}
	for id, v := range other.inBigTot {
		if v != 0 {
			t.bumpIn(id, 0, v)
		}
	}
	for id, v := range other.outBigTot {
		if v != 0 {
			t.bumpOut(id, 0, v)
		}
	}
	for mt := range other.count {
		t.count[mt] += other.count[mt]
		t.bytes[mt] += other.bytes[mt]
	}
	t.total += other.total
}

// Record accounts one message of the given type and size sent from -> to
// at virtual/wall time at.
func (t *Traffic) Record(from, to wire.NodeID, mt wire.MsgType, size int, at time.Duration) {
	idx := int(at / t.bucket)
	t.lock()
	t.bumpOut(from, idx, uint64(size))
	t.bumpIn(to, idx, uint64(size))
	if int(mt) < wire.NumMsgTypes {
		t.count[mt]++
		t.bytes[mt] += uint64(size)
	}
	t.total += uint64(size)
	t.unlock()
}

// bumpNode adds v to node's bucket idx, growing the node table and the
// node's bucket series as needed (amortized; the steady state hits the
// in-place add only).
func bumpNode(s [][]uint64, node, idx int, v uint64) [][]uint64 {
	for len(s) <= node {
		s = append(s, nil)
	}
	b := s[node]
	for len(b) <= idx {
		b = append(b, 0)
	}
	b[idx] += v
	s[node] = b
	return s
}

// bumpTot adds v to node's running total, growing the table as needed.
func bumpTot(s []uint64, node int, v uint64) []uint64 {
	for len(s) <= node {
		s = append(s, 0)
	}
	s[node] += v
	return s
}

// bumpBig is bumpNode for the sparse-id overflow map.
func bumpBig(m map[wire.NodeID][]uint64, id wire.NodeID, idx int, v uint64) map[wire.NodeID][]uint64 {
	if m == nil {
		m = make(map[wire.NodeID][]uint64)
	}
	b := m[id]
	for len(b) <= idx {
		b = append(b, 0)
	}
	b[idx] += v
	m[id] = b
	return m
}

// series returns the node's recorded buckets, consulting the dense table or
// the sparse overflow map as the window dictates. Callers hold the lock (or
// run single-threaded).
func (t *Traffic) series(tab [][]uint64, big map[wire.NodeID][]uint64, id wire.NodeID) []uint64 {
	if i, ok := t.denseIdx(id); ok {
		if i < len(tab) {
			return tab[i]
		}
		return nil
	}
	return big[id]
}

// NodeSeries returns the node's traffic in MB/s per bucket (in + out), over
// nBuckets buckets (zero-padded).
func (t *Traffic) NodeSeries(id wire.NodeID, nBuckets int) []float64 {
	t.lock()
	defer t.unlock()
	out := make([]float64, nBuckets)
	secs := t.bucket.Seconds()
	inS, outS := t.series(t.in, t.inBig, id), t.series(t.out, t.outBig, id)
	for i := 0; i < nBuckets; i++ {
		var b uint64
		if i < len(inS) {
			b += inS[i]
		}
		if i < len(outS) {
			b += outS[i]
		}
		out[i] = float64(b) / 1e6 / secs
	}
	return out
}

// NodeAverage returns the node's average traffic in MB/s over the first
// nBuckets buckets.
func (t *Traffic) NodeAverage(id wire.NodeID, nBuckets int) float64 {
	s := t.NodeSeries(id, nBuckets)
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// NodeTotals returns the total bytes the node received and sent across the
// whole run, for per-organization bandwidth accounting in multi-org
// networks.
func (t *Traffic) NodeTotals(id wire.NodeID) (in, out uint64) {
	t.lock()
	defer t.unlock()
	if t.totalsOnly {
		if i, ok := t.denseIdx(id); ok {
			if i < len(t.inTot) {
				in = t.inTot[i]
			}
			if i < len(t.outTot) {
				out = t.outTot[i]
			}
			return in, out
		}
		return t.inBigTot[id], t.outBigTot[id]
	}
	for _, v := range t.series(t.in, t.inBig, id) {
		in += v
	}
	for _, v := range t.series(t.out, t.outBig, id) {
		out += v
	}
	return in, out
}

// TotalBytes returns the total bytes transmitted across the network.
func (t *Traffic) TotalBytes() uint64 {
	t.lock()
	defer t.unlock()
	return t.total
}

// CountOf returns how many messages of the given type were transmitted.
func (t *Traffic) CountOf(mt wire.MsgType) uint64 {
	if int(mt) >= wire.NumMsgTypes {
		return 0
	}
	t.lock()
	defer t.unlock()
	return t.count[mt]
}

// BytesOf returns the bytes transmitted as messages of the given type.
func (t *Traffic) BytesOf(mt wire.MsgType) uint64 {
	if int(mt) >= wire.NumMsgTypes {
		return 0
	}
	t.lock()
	defer t.unlock()
	return t.bytes[mt]
}

// Breakdown returns per-type (count, bytes) pairs for reporting.
func (t *Traffic) Breakdown() map[wire.MsgType][2]uint64 {
	t.lock()
	defer t.unlock()
	out := make(map[wire.MsgType][2]uint64)
	for mt, c := range t.count {
		if c > 0 {
			out[wire.MsgType(mt)] = [2]uint64{c, t.bytes[mt]}
		}
	}
	return out
}
