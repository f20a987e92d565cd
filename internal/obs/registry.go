// Package obs is the unified observability plane: a metrics registry
// (counters, gauges, fixed-bucket histograms) shared by the simulated and
// real runtimes, a deterministic structured event-trace layer, and a crash
// flight recorder.
//
// The registry follows the same single-writer discipline as
// netmodel.Traffic: a Registry built with NewRegistry is lock-free and
// must only be touched from one goroutine (one per simulation shard — the
// shard's own event loop), while NewConcurrentRegistry takes atomic/locked
// writes from any goroutine (the TCP runtime). Shard-local registries are
// folded together with Merge at barriers or report time, exactly like the
// scenario runner's per-organization latency samples: determinism comes
// from merging in a fixed order at a quiescent instant, not from
// synchronizing the hot path.
//
// Instruments are registered once, up front, by name plus label pairs; the
// hot path holds the returned pointer and never performs a map lookup, so
// a counter bump or histogram observation allocates nothing.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricKind discriminates the registry's instrument types.
type MetricKind uint8

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v          uint64
	concurrent bool
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c.concurrent {
		atomic.AddUint64(&c.v, n)
		return
	}
	c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c.concurrent {
		return atomic.LoadUint64(&c.v)
	}
	return c.v
}

// Gauge is a settable int64 level (queue depths, outstanding envelopes,
// high-water marks).
type Gauge struct {
	v          int64
	concurrent bool
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g.concurrent {
		atomic.StoreInt64(&g.v, v)
		return
	}
	g.v = v
}

// SetMax raises the gauge to v if v is larger (high-water tracking).
func (g *Gauge) SetMax(v int64) {
	if g.concurrent {
		for {
			cur := atomic.LoadInt64(&g.v)
			if v <= cur || atomic.CompareAndSwapInt64(&g.v, cur, v) {
				return
			}
		}
	}
	if v > g.v {
		g.v = v
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g.concurrent {
		return atomic.LoadInt64(&g.v)
	}
	return g.v
}

// Histogram accumulates observations into fixed buckets declared at
// registration. Bounds are inclusive upper edges; one implicit +Inf bucket
// catches the overflow. Observation is allocation-free: a linear scan over
// a handful of bounds beats binary search at these sizes and touches no
// heap.
type Histogram struct {
	bounds     []float64
	counts     []uint64 // len(bounds)+1; last is +Inf
	sum        float64
	count      uint64
	concurrent bool
	mu         sync.Mutex // taken only when concurrent
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h.concurrent {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// SizeBuckets is the default bucket layout for message-size histograms
// (bytes), spanning heartbeat-sized rumors to full block batches.
var SizeBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// instrument is one registered metric: its identity plus exactly one of
// the value holders.
type instrument struct {
	name   string
	labels string // rendered {k="v",...} or ""
	id     string // name + labels — the registry key and sort key
	kind   MetricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named instruments. The zero value is not usable; build
// with NewRegistry (single-threaded, for shard-local use) or
// NewConcurrentRegistry (locked/atomic, for the real runtime).
type Registry struct {
	concurrent bool
	mu         sync.Mutex // guards the maps; instruments guard themselves
	byID       map[string]*instrument
	order      []*instrument
}

// NewRegistry returns a single-threaded registry: registration and every
// instrument operation must stay on one goroutine (the owning shard's).
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*instrument)}
}

// NewConcurrentRegistry returns a registry safe for concurrent use:
// counters and gauges go through atomics, histograms through a mutex.
func NewConcurrentRegistry() *Registry {
	return &Registry{concurrent: true, byID: make(map[string]*instrument)}
}

// renderLabels builds the canonical sorted `{k="v",...}` form. Empty input
// renders empty. Pairs must alternate key, value.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", pairs))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the existing instrument for id, checking kind agreement,
// or nil.
func (r *Registry) lookup(id string, kind MetricKind) *instrument {
	if ins, ok := r.byID[id]; ok {
		if ins.kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %v, requested as %v", id, ins.kind, kind))
		}
		return ins
	}
	return nil
}

func (r *Registry) register(ins *instrument) {
	r.byID[ins.id] = ins
	r.order = append(r.order, ins)
}

// Counter registers (or returns the existing) counter under name with the
// given alternating key/value label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.counter(name, renderLabels(labels))
}

// counter is Counter by rendered label set: Merge re-registers other's
// instruments by the form they were stored under.
func (r *Registry) counter(name, l string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := name + l
	if ins := r.lookup(id, KindCounter); ins != nil {
		return ins.counter
	}
	c := &Counter{concurrent: r.concurrent}
	r.register(&instrument{name: name, labels: l, id: id, kind: KindCounter, counter: c})
	return c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.gauge(name, renderLabels(labels))
}

// gauge is Gauge by rendered label set (see counter).
func (r *Registry) gauge(name, l string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := name + l
	if ins := r.lookup(id, KindGauge); ins != nil {
		return ins.gauge
	}
	g := &Gauge{concurrent: r.concurrent}
	r.register(&instrument{name: name, labels: l, id: id, kind: KindGauge, gauge: g})
	return g
}

// Histogram registers (or returns the existing) histogram with the given
// inclusive upper bucket bounds (ascending; +Inf is implicit). Re-registering
// with different bounds panics — the merge contract needs one layout per id.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	return r.histogram(name, bounds, renderLabels(labels))
}

// histogram is Histogram by rendered label set (see counter).
func (r *Registry) histogram(name string, bounds []float64, l string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := name + l
	if ins := r.lookup(id, KindHistogram); ins != nil {
		if len(ins.hist.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: %s re-registered with %d bounds, had %d", id, len(bounds), len(ins.hist.bounds)))
		}
		for i := range bounds {
			if ins.hist.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("obs: %s re-registered with different bounds", id))
			}
		}
		return ins.hist
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: %s bounds not ascending: %v", id, bounds))
		}
	}
	h := &Histogram{
		bounds:     append([]float64(nil), bounds...),
		counts:     make([]uint64, len(bounds)+1),
		concurrent: r.concurrent,
	}
	r.register(&instrument{name: name, labels: l, id: id, kind: KindHistogram, hist: h})
	return h
}

// Merge folds other's instruments into r: counters and histogram buckets
// add, gauges take the maximum (the shard-local gauges are high-water style
// levels, and max is the only merge that is associative, commutative and
// idempotent for them). Missing instruments are registered on first sight.
// Call only at quiescent instants (a barrier, or after the run) — Merge
// reads other's values without synchronization.
func (r *Registry) Merge(other *Registry) {
	other.mu.Lock()
	ins := append([]*instrument(nil), other.order...)
	other.mu.Unlock()
	for _, o := range ins {
		switch o.kind {
		case KindCounter:
			r.counter(o.name, o.labels).Add(o.counter.Value())
		case KindGauge:
			r.gauge(o.name, o.labels).SetMax(o.gauge.Value())
		case KindHistogram:
			h := r.histogram(o.name, o.hist.bounds, o.labels)
			if o.hist.concurrent {
				o.hist.mu.Lock()
			}
			if h.concurrent {
				h.mu.Lock()
			}
			for i, c := range o.hist.counts {
				h.counts[i] += c
			}
			h.sum += o.hist.sum
			h.count += o.hist.count
			if h.concurrent {
				h.mu.Unlock()
			}
			if o.hist.concurrent {
				o.hist.mu.Unlock()
			}
		}
	}
}

// Metric is one instrument's snapshot.
type Metric struct {
	Name   string    `json:"name"`
	Labels string    `json:"labels,omitempty"`
	Kind   string    `json:"kind"`
	Value  float64   `json:"value"`
	Count  uint64    `json:"count,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, ordered by id — the
// deterministic export surface behind the JSON and Prometheus emitters.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot copies every instrument's current value, sorted by id.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	ins := append([]*instrument(nil), r.order...)
	r.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool { return ins[i].id < ins[j].id })
	s := &Snapshot{Metrics: make([]Metric, 0, len(ins))}
	for _, in := range ins {
		m := Metric{Name: in.name, Labels: in.labels, Kind: in.kind.String()}
		switch in.kind {
		case KindCounter:
			m.Value = float64(in.counter.Value())
		case KindGauge:
			m.Value = float64(in.gauge.Value())
		case KindHistogram:
			h := in.hist
			if h.concurrent {
				h.mu.Lock()
			}
			m.Count = h.count
			m.Sum = h.sum
			m.Bounds = append([]float64(nil), h.bounds...)
			m.Counts = append([]uint64(nil), h.counts...)
			if h.concurrent {
				h.mu.Unlock()
			}
			if h.count > 0 {
				m.Value = h.sum / float64(h.count)
			}
		}
		s.Metrics = append(s.Metrics, m)
	}
	return s
}

// Get returns the snapshot value for name+labels (counter/gauge value,
// histogram mean) and whether it exists.
func (s *Snapshot) Get(name string, labels ...string) (float64, bool) {
	id := name + renderLabels(labels)
	for _, m := range s.Metrics {
		if m.Name+m.Labels == id {
			return m.Value, true
		}
	}
	return 0, false
}

// WriteJSON emits the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format (hand-rolled: the real runtime must not grow a dependency for
// what is twenty lines of formatting).
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	lastName := ""
	for _, m := range s.Metrics {
		if m.Name != lastName {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
			lastName = m.Name
		}
		switch m.Kind {
		case "histogram":
			cum := uint64(0)
			for i, b := range m.Bounds {
				cum += m.Counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, withLabel(m.Labels, "le", formatBound(b)), cum); err != nil {
					return err
				}
			}
			cum += m.Counts[len(m.Counts)-1]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, withLabel(m.Labels, "le", "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n",
				m.Name, m.Labels, m.Sum, m.Name, m.Labels, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %g\n", m.Name, m.Labels, m.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePrometheus snapshots the registry and emits it in the Prometheus
// text format — the /metrics handler body for the real runtime.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// withLabel splices one extra label into an already-rendered label set.
func withLabel(rendered, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if rendered == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(rendered, "}") + "," + extra + "}"
}

// formatBound renders a bucket edge the way Prometheus expects.
func formatBound(b float64) string {
	if b == math.Trunc(b) && math.Abs(b) < 1e15 {
		return fmt.Sprintf("%d", int64(b))
	}
	return fmt.Sprintf("%g", b)
}
