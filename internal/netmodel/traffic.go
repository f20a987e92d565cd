package netmodel

import (
	"sync"
	"time"

	"fabricgossip/internal/wire"
)

// Traffic accounts every transmitted message: a running byte total per
// direction for every node, a per-bucket byte series (the paper aggregates at
// 10 s) for only the nodes KeepSeries names — the bandwidth figures plot two
// peers, a leader and one regular peer — plus per-message-type counts used to
// verify analytic claims such as "each block is transmitted in full 282 times
// under infect-and-die".
//
// Record sits on the per-message hot path of every simulation, so the
// accounting is dense and allocation-free at steady state: node totals are
// one index-addressed table exploiting the transport's dense-id contract
// (SimNetwork.AddNode assigns NodeIDs from 0 in creation order), and per-type
// counters are flat arrays indexed by MsgType. The table and the kept series
// grow amortized as the run progresses.
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
	// base/window bound the dense table to ids in [base, base+window):
	// nodes is indexed by id-base. A sharded harness gives each organization
	// shard's accountant its own id range, so per-shard tables scale with the
	// organization instead of every shard paying for the whole network.
	base   wire.NodeID
	window int
	nodes  []nodeBytes
	// far holds the totals of ids outside the dense window: the TCP runtime
	// lets callers choose arbitrary NodeIDs (ListenTCP), and a sharded
	// accountant sees a few cross-shard ids (the orderer, remote anchors,
	// clients). A sparse id must not grow the dense table to its value.
	far    map[wire.NodeID]*nodeBytes
	series []nodeSeries
	count  [wire.NumMsgTypes]uint64
	bytes  [wire.NumMsgTypes]uint64
	total  uint64
}

// nodeBytes is one node's running totals.
type nodeBytes struct{ in, out uint64 }

// nodeSeries is a kept node's bytes received plus sent, per bucket.
type nodeSeries struct {
	id      wire.NodeID
	buckets []uint64
}

// denseLimit bounds the index-addressed node table. Simulated networks
// assign ids densely from 0 and stay below it even at the 100k-peer tier;
// ids beyond take the far map.
const denseLimit = 1 << 20

// NewTraffic returns a concurrency-safe accountant whose kept series
// aggregate at the given bucket width.
func NewTraffic(bucket time.Duration) *Traffic {
	t := NewSimTraffic(bucket)
	t.concurrent = true
	return t
}

// NewSimTraffic returns an accountant for the single-threaded simulated
// runtime: identical accounting, no locking. It must only be used from the
// engine goroutine. bucket is the width of the series KeepSeries asks for
// (10 s when not positive).
func NewSimTraffic(bucket time.Duration) *Traffic {
	t := NewSimTrafficWindow(0, denseLimit)
	if bucket > 0 {
		t.bucket = bucket
	}
	return t
}

// NewSimTrafficWindow returns a single-threaded accountant whose dense
// table covers ids [base, base+window); ids outside take the far map. The
// sharded harness hands each organization shard its org's id range —
// cross-shard sends touch a handful of remote ids, which the map absorbs
// without the dense table paying a slot per network node per shard.
func NewSimTrafficWindow(base wire.NodeID, window int) *Traffic {
	window = min(max(window, 0), denseLimit)
	return &Traffic{bucket: 10 * time.Second, base: base, window: window}
}

// KeepSeries names the nodes whose per-bucket series NodeSeries and
// NodeAverage report; every other node has running totals only, and its
// series reads as zero. Must be called before the first Record; returns t
// for chaining.
func (t *Traffic) KeepSeries(ids ...wire.NodeID) *Traffic {
	for _, id := range ids {
		t.series = append(t.series, nodeSeries{id: id})
	}
	return t
}

// TotalsOnly returns t unchanged: running totals are every accountant's
// layout, and series exist only for the nodes KeepSeries names.
//
// Deprecated: a no-op, kept for callers that still spell it out.
func (t *Traffic) TotalsOnly() *Traffic { return t }

// node returns id's totals for update: a slot of the dense table when id
// lies in the window (grown as needed), else its far-map entry. Callers hold
// the lock (or run single-threaded).
func (t *Traffic) node(id wire.NodeID) *nodeBytes {
	if i, ok := t.denseIdx(id); ok {
		if i >= len(t.nodes) {
			t.nodes = append(t.nodes, make([]nodeBytes, i+1-len(t.nodes))...)
		}
		return &t.nodes[i]
	}
	nb := t.far[id]
	if nb == nil {
		if t.far == nil {
			t.far = make(map[wire.NodeID]*nodeBytes)
		}
		nb = new(nodeBytes)
		t.far[id] = nb
	}
	return nb
}

// denseIdx returns id's index into the dense table, or false when the id
// lies outside the window.
func (t *Traffic) denseIdx(id wire.NodeID) (int, bool) {
	if id < t.base {
		return 0, false
	}
	i := int(id - t.base)
	return i, i < t.window
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

// Merge folds other's totals and per-type counts into t. The sharded runtime
// keeps one accountant per shard (so Record stays lock-free inside windows)
// and merges them into a single view for reporting. Series are not merged:
// sharded accountants keep none. other must be quiescent.
func (t *Traffic) Merge(other *Traffic) {
	t.lock()
	defer t.unlock()
	for i, nb := range other.nodes {
		t.add(other.base+wire.NodeID(i), nb)
	}
	for id, nb := range other.far {
		t.add(id, *nb)
	}
	for mt := range other.count {
		t.count[mt] += other.count[mt]
		t.bytes[mt] += other.bytes[mt]
	}
	t.total += other.total
}

// add folds totals into id's, leaving the table untouched for a zero entry.
func (t *Traffic) add(id wire.NodeID, nb nodeBytes) {
	if nb != (nodeBytes{}) {
		p := t.node(id)
		p.in += nb.in
		p.out += nb.out
	}
}

// Record accounts one message of the given type and size sent from -> to
// at virtual/wall time at.
func (t *Traffic) Record(from, to wire.NodeID, mt wire.MsgType, size int, at time.Duration) {
	v := uint64(size)
	t.lock()
	t.node(from).out += v
	t.node(to).in += v
	if len(t.series) > 0 {
		t.recordSeries(from, to, v, at)
	}
	if int(mt) < wire.NumMsgTypes {
		t.count[mt]++
		t.bytes[mt] += v
	}
	t.total += v
	t.unlock()
}

// recordSeries adds v to the bucket at falls in for each kept node at either
// end of the message — twice for a node sending to itself, once per
// direction.
func (t *Traffic) recordSeries(from, to wire.NodeID, v uint64, at time.Duration) {
	idx := int(at / t.bucket)
	for i := range t.series {
		s := &t.series[i]
		if s.id != from && s.id != to {
			continue
		}
		for len(s.buckets) <= idx {
			s.buckets = append(s.buckets, 0)
		}
		if s.id == from {
			s.buckets[idx] += v
		}
		if s.id == to {
			s.buckets[idx] += v
		}
	}
}

// NodeSeries returns the node's traffic in MB/s per bucket (in + out), over
// nBuckets buckets (zero-padded). It reads zero for a node KeepSeries did not
// name.
func (t *Traffic) NodeSeries(id wire.NodeID, nBuckets int) []float64 {
	t.lock()
	defer t.unlock()
	out := make([]float64, nBuckets)
	for _, s := range t.series {
		if s.id != id {
			continue
		}
		secs := t.bucket.Seconds()
		for i := range out[:min(nBuckets, len(s.buckets))] {
			out[i] = float64(s.buckets[i]) / 1e6 / secs
		}
		break
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
	var nb nodeBytes
	if i, ok := t.denseIdx(id); ok {
		if i < len(t.nodes) {
			nb = t.nodes[i]
		}
	} else if p := t.far[id]; p != nil {
		nb = *p
	}
	return nb.in, nb.out
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
