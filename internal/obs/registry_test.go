package obs

import (
	"bytes"
	"strings"
	"testing"
)

// fill populates a registry with a deterministic pseudo-random workload
// derived from seed, exercising counters, gauges and histogram buckets.
func fill(r *Registry, seed uint64) {
	c := r.Counter("msgs_total", "class", "data")
	g := r.Gauge("peak_pending")
	h := r.Histogram("msg_bytes", SizeBuckets)
	x := seed
	for i := 0; i < 500; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.Add(x % 7)
		g.SetMax(int64(x % 100000))
		h.Observe(float64(x % 2000000))
	}
}

func snapshotEqual(t *testing.T, a, b *Registry) {
	t.Helper()
	var ba, bb bytes.Buffer
	if err := a.Snapshot().WriteJSON(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatalf("snapshots differ:\n%s\n--\n%s", ba.String(), bb.String())
	}
}

// TestMergeCommutative pins A+B == B+A for the full instrument mix — the
// property that makes shard merge order a free choice.
func TestMergeCommutative(t *testing.T) {
	a1, b1 := NewRegistry(), NewRegistry()
	fill(a1, 1)
	fill(b1, 2)
	ab := NewRegistry()
	ab.Merge(a1)
	ab.Merge(b1)
	ba := NewRegistry()
	ba.Merge(b1)
	ba.Merge(a1)
	snapshotEqual(t, ab, ba)
}

// TestMergeAssociative pins (A+B)+C == A+(B+C): barrier-time partial
// merges and one big report-time merge agree.
func TestMergeAssociative(t *testing.T) {
	mk := func(seed uint64) *Registry {
		r := NewRegistry()
		fill(r, seed)
		return r
	}
	left := NewRegistry()
	left.Merge(mk(1))
	left.Merge(mk(2))
	left.Merge(mk(3))

	inner := NewRegistry()
	inner.Merge(mk(2))
	inner.Merge(mk(3))
	right := NewRegistry()
	right.Merge(mk(1))
	right.Merge(inner)

	snapshotEqual(t, left, right)
}

// TestMergeKeepsCommaLabels pins that Merge carries a label value holding
// a comma (or a quote) through unchanged.
func TestMergeKeepsCommaLabels(t *testing.T) {
	src := NewRegistry()
	src.Counter("x", "reason", "length,decode").Add(3)
	src.Gauge("g", "a", `q"uote`, "b", "2").SetMax(7)
	src.Histogram("h", []float64{1}, "k", "a=b,c").Observe(2)
	dst := NewRegistry()
	dst.Merge(src)
	snapshotEqual(t, src, dst)
	if v, ok := dst.Snapshot().Get("x", "reason", "length,decode"); !ok || v != 3 {
		t.Fatalf("merged comma-labelled counter = %v %v, want 3", v, ok)
	}
}

// TestHistogramBuckets pins the inclusive-upper-edge bucketing and the
// implicit overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", []float64{10, 20})
	for _, v := range []float64{5, 10, 11, 20, 21, 1000} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2} // (<=10)=5,10  (<=20)=11,20  +Inf=21,1000
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, h.counts[i], w, h.counts)
		}
	}
	if h.count != 6 || h.sum != 5+10+11+20+21+1000 {
		t.Fatalf("count=%d sum=%g", h.count, h.sum)
	}
}

// TestHotPathAllocs pins the zero-alloc contract of the single-threaded
// instruments: bumping a counter, raising a gauge and observing into a
// histogram must not touch the heap.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", SizeBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.SetMax(42)
		h.Observe(512)
	}); n != 0 {
		t.Fatalf("instrument ops allocated %.1f per run, want 0", n)
	}
}

// TestConcurrentRegistry exercises the locked variant from several
// goroutines (run with -race) and checks the totals.
func TestConcurrentRegistry(t *testing.T) {
	r := NewConcurrentRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []float64{50})
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 100))
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if h.count != 4000 { // every writer's done-send precedes this read
		t.Fatalf("histogram count = %d, want 4000", h.count)
	}
}

// TestPrometheusFormat sanity-checks the text exposition: type headers,
// label rendering, cumulative histogram buckets with +Inf.
func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs_total", "class", "data").Add(7)
	r.Gauge("pending").Set(3)
	h := r.Histogram("bytes", []float64{10})
	h.Observe(5)
	h.Observe(50)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE msgs_total counter",
		`msgs_total{class="data"} 7`,
		"pending 3",
		`bytes_bucket{le="10"} 1`,
		`bytes_bucket{le="+Inf"} 2`,
		"bytes_sum 55",
		"bytes_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegisterIdempotent pins that re-registering the same id returns the
// same instrument regardless of label pair order.
func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", "a", "1", "b", "2")
	b := r.Counter("x", "b", "2", "a", "1")
	if a != b {
		t.Fatal("same id returned distinct counters")
	}
	a.Add(5)
	if v, ok := r.Snapshot().Get("x", "a", "1", "b", "2"); !ok || v != 5 {
		t.Fatalf("snapshot get = %v %v", v, ok)
	}
}
