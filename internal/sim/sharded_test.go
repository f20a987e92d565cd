package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// shardTracer records (time, tag) observations per shard so parallel windows
// never share a slice; merge() produces a canonical ordering for comparison.
type shardTracer struct {
	mu   sync.Mutex
	logs [][]string
}

func newShardTracer(n int) *shardTracer {
	return &shardTracer{logs: make([][]string, n)}
}

func (tr *shardTracer) record(shard int, at time.Duration, tag string) {
	tr.logs[shard] = append(tr.logs[shard], fmt.Sprintf("%v %s", at, tag))
}

func (tr *shardTracer) merged() string {
	var all []string
	for i, l := range tr.logs {
		for j, line := range l {
			// Tag with (shard, position) so the sort is total and stable
			// across runs: per-shard order is the determinism contract.
			all = append(all, fmt.Sprintf("%s [s%d #%04d]", line, i, j))
		}
	}
	sort.Strings(all)
	return strings.Join(all, "\n")
}

// pingPong builds a 2-shard workload where each shard schedules local events
// and bounces cross-shard messages with latency >= lookahead, then returns
// the merged trace.
func pingPong(t *testing.T, parallel bool) string {
	t.Helper()
	const lookahead = 10 * time.Millisecond
	se := NewShardedEngine(7, 2, lookahead)
	se.SetParallel(parallel)
	tr := newShardTracer(2)

	var bounce DeliveryHandler
	bounce = func(from, to uint64, msg any) {
		n := msg.(int)
		dst := int(to)
		eng := se.Shard(dst)
		tr.record(dst, eng.Now(), fmt.Sprintf("recv %d", n))
		if n <= 0 {
			return
		}
		// Reply with a jittered cross-shard latency >= lookahead.
		d := lookahead + time.Duration(eng.Rand("jitter").Intn(5000))*time.Microsecond
		se.SendCross(dst, int(from), eng.Now()+d, bounce, to, from, n-1)
	}

	for s := 0; s < 2; s++ {
		s := s
		eng := se.Shard(s)
		// Local chatter: a periodic timer plus a burst of one-shot events.
		eng.Every(3*time.Millisecond, func() {
			tr.record(s, eng.Now(), "tick")
		})
		for i := 0; i < 4; i++ {
			i := i
			eng.After(time.Duration(i)*7*time.Millisecond, func() {
				tr.record(s, eng.Now(), fmt.Sprintf("local %d", i))
			})
		}
	}
	// Seed two independent ping-pong chains, one starting on each shard.
	se.SendCross(0, 1, lookahead, bounce, 0, 1, 8)
	se.SendCross(1, 0, lookahead+time.Millisecond, bounce, 1, 0, 8)

	se.RunUntil(200 * time.Millisecond)
	return tr.merged()
}

func TestShardedSerialAndParallelWindowsAgree(t *testing.T) {
	serial := pingPong(t, false)
	parallel := pingPong(t, true)
	if serial != parallel {
		t.Fatalf("serial and parallel window execution diverged:\nserial:\n%s\n\nparallel:\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "recv 0") {
		t.Fatalf("ping-pong chain did not complete:\n%s", serial)
	}
}

func TestShardedControlEventsFireAtBarriers(t *testing.T) {
	const lookahead = 10 * time.Millisecond
	se := NewShardedEngine(3, 2, lookahead)
	se.SetParallel(false)

	// A shard event inside the control event's window must run before it:
	// windows are clipped at control timestamps.
	var order []string
	se.Shard(0).After(14*time.Millisecond, func() {
		order = append(order, "shard@14ms")
	})
	se.Control().At(15*time.Millisecond, func() {
		order = append(order, fmt.Sprintf("control@%v", se.Control().Now()))
	})
	se.Shard(1).After(16*time.Millisecond, func() {
		order = append(order, "shard@16ms")
	})
	se.RunUntil(30 * time.Millisecond)

	want := []string{"shard@14ms", "control@15ms", "shard@16ms"}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
}

// A control event and a shard event due at the same instant must resolve
// the same way however the coordinator reaches that instant: through a
// window clipped to the control event, or through an idle hop landing on it.
// Which of the two happens depends on whether some *other* shard has events
// nearby (here: a bystander timer at 90 ms), so before the hop ran the due
// shard events first, an unrelated shard's timers could flip the order — the
// cause of sharded-crash-restart's recovery p99 moving when the ordering
// shard gained Raft heartbeats.
func TestShardedControlTieBreakIgnoresBystanderShards(t *testing.T) {
	run := func(bystander bool) []string {
		se := NewShardedEngine(3, 3, 10*time.Millisecond)
		se.SetParallel(false)
		var order []string
		se.Shard(0).After(100*time.Millisecond, func() { order = append(order, "shard") })
		se.Control().At(100*time.Millisecond, func() { order = append(order, "control") })
		if bystander {
			// Puts a window edge at 90 ms, so 100 ms is reached by a
			// clipped window instead of a hop.
			se.Shard(2).After(90*time.Millisecond, func() {})
		}
		se.RunUntil(200 * time.Millisecond)
		return order
	}
	want := []string{"shard", "control"}
	for _, bystander := range []bool{false, true} {
		got := run(bystander)
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("bystander=%v: order %v, want %v", bystander, got, want)
		}
	}
}

func TestShardedBarrierHooksSeeQuiescentShards(t *testing.T) {
	const lookahead = 5 * time.Millisecond
	se := NewShardedEngine(11, 2, lookahead)
	se.SetParallel(true)

	var executed int
	se.Shard(0).Every(time.Millisecond, func() { executed++ })
	var samples []int
	se.OnBarrier(func() {
		// Hooks run with all shards joined: reading shard state here must
		// be race-free (the -race CI run covers this path) and clocks must
		// agree with the barrier time.
		if got, want := se.Shard(0).Now(), se.Now(); got != want {
			t.Errorf("shard clock %v != barrier time %v", got, want)
		}
		samples = append(samples, executed)
	})
	se.RunUntil(20 * time.Millisecond)

	if executed != 20 {
		t.Fatalf("periodic ran %d times, want 20", executed)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Fatalf("barrier samples not monotonic: %v", samples)
		}
	}
}

func TestShardedLookaheadViolationPanics(t *testing.T) {
	const lookahead = 10 * time.Millisecond
	se := NewShardedEngine(5, 2, lookahead)
	se.SetParallel(false) // propagate the panic to RunUntil's caller

	se.Shard(0).After(2*time.Millisecond, func() {
		// A cross-shard message due inside the current window: faster than
		// the declared lookahead, must refuse loudly instead of reordering.
		se.SendCross(0, 1, se.Shard(0).Now()+time.Millisecond,
			func(from, to uint64, msg any) {}, 0, 1, nil)
	})

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sub-lookahead cross-shard send did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("panic does not explain the lookahead violation: %v", r)
		}
	}()
	se.RunUntil(20 * time.Millisecond)
}

func TestShardedIdleHopSkipsEmptyWindows(t *testing.T) {
	const lookahead = time.Millisecond
	se := NewShardedEngine(9, 2, lookahead)
	se.SetParallel(false)

	fired := false
	se.Shard(1).After(10*time.Second, func() { fired = true })
	barriers := 0
	se.OnBarrier(func() { barriers++ })
	se.RunUntil(10 * time.Second)

	if !fired {
		t.Fatal("distant event did not fire")
	}
	// Without the hop this run would take 10M one-millisecond windows.
	if barriers > 10 {
		t.Fatalf("idle run crossed %d barriers, expected a handful", barriers)
	}
}

func TestShardedSeedsAreIndependent(t *testing.T) {
	se := NewShardedEngine(42, 3, time.Millisecond)
	seen := map[int64]bool{se.Control().Seed(): true}
	for i := 0; i < 3; i++ {
		s := se.Shard(i).Seed()
		if seen[s] {
			t.Fatalf("duplicate shard seed %d", s)
		}
		seen[s] = true
	}
	if se.Control().Seed() != 42 {
		t.Fatalf("control seed %d, want root seed 42", se.Control().Seed())
	}
}

// retained counts the bytes the queue's storage holds, filled or not: both
// heaps' arrays, the buckets' chunks and the spare chunks.
func (q *eventQueue) retained() int {
	chunks := q.spares
	for _, b := range append(q.near[:], q.far[:]...) {
		chunks += (b.n + chunkLen - 1) / chunkLen
	}
	return (cap(q.heap)+cap(q.over))*int(unsafe.Sizeof(&event{})) + chunks*int(unsafe.Sizeof(chunk{}))
}

// A drain spike must not pin its storage: after 100 000 events — spread over
// the heap, near buckets, far buckets and the overflow heap — drain, a small
// working set leaves the queue holding a few tens of kilobytes.
func TestEventQueueShrinksAfterDrainSpike(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 80 {
		t.Fatalf("event is %d bytes, want 80 (an exact size class)", size)
	}
	e := NewEngine(1)
	const spike = 100000
	for i := 0; i < spike; i++ {
		// 2 500 events at the start of each of 40 seconds: the heap, near,
		// far and over all fill.
		e.After(time.Duration(i%2500)*time.Microsecond+time.Duration(i/2500)*time.Second, func() {})
	}
	if e.PeakPending() != spike {
		t.Fatalf("peak pending %d, want %d", e.PeakPending(), spike)
	}
	peak := e.queue.retained()
	if peak < spike*8 {
		t.Fatalf("queue holds %d bytes for %d events", peak, spike)
	}
	e.Run()
	// Steady state after the drain: a small working set again, one event
	// per tick for a page and a half.
	for i := 0; i < 400; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run()
	// The spare chunks may keep spareFloor slots (32 KB); the rest is the
	// backing arrays of the current tick's heap and the overflow heap.
	if r, want := e.queue.retained(), 24*spareFloor; r > want || r > peak/8 {
		t.Fatalf("queue retains %d bytes after the drain spike (%d at its peak), want ≤ %d", r, peak, want)
	}
	if e.PeakPending() != spike {
		t.Fatalf("peak pending %d lost after drain, want %d", e.PeakPending(), spike)
	}
}

func TestAtMsgSchedulesAtAbsoluteTime(t *testing.T) {
	e := NewEngine(1)
	var at []time.Duration
	h := func(from, to uint64, msg any) { at = append(at, e.Now()) }
	e.AtMsg(5*time.Millisecond, h, 0, 1, nil)
	e.AtMsg(2*time.Millisecond, h, 0, 1, nil)
	e.RunUntil(3 * time.Millisecond)
	e.AtMsg(time.Millisecond, h, 0, 1, nil) // past: clamps to now
	e.Run()
	if len(at) != 3 || at[0] != 2*time.Millisecond || at[1] != 3*time.Millisecond || at[2] != 5*time.Millisecond {
		t.Fatalf("AtMsg fire times %v", at)
	}
}

// oneShardRun drives a one-shard coordinator — the whole engine of a
// LAN-only network — through a same-instant shard/control tie and a
// mid-window barrier request, and returns what ran when.
func oneShardRun(t *testing.T, parallel bool) []string {
	t.Helper()
	const lookahead = 150 * time.Microsecond
	se := NewShardedEngine(11, 1, lookahead)
	se.SetAdaptive(true)
	se.SetParallel(parallel)
	eng := se.Shard(0)
	var log []string
	note := func(at time.Duration, what string) { log = append(log, fmt.Sprintf("%v %s", at, what)) }

	// Steady shard chatter, so windows advance edge by edge instead of
	// idle-hopping and the adaptive coordinator has edges to elide.
	jitter := eng.Rand("jitter")
	eng.Every(40*time.Microsecond, func() {
		if jitter.Intn(8) == 0 {
			note(eng.Now(), "tick")
		}
	})
	eng.At(time.Millisecond, func() { note(eng.Now(), "shard") })
	se.Control().At(time.Millisecond, func() { note(se.Control().Now(), "control") })

	const requestAt = 2030 * time.Microsecond
	wanted := false
	se.OnBarrier(func() {
		if wanted {
			wanted = false
			note(se.Now(), "hook")
			if late := se.Now() - requestAt; late <= 0 || late > lookahead {
				t.Errorf("barrier request at %v honoured at %v, want the next window edge", requestAt, se.Now())
			}
		}
	})
	eng.At(requestAt, func() {
		wanted = true
		se.RequestBarrier()
		note(eng.Now(), "request")
	})

	se.RunUntil(3 * time.Millisecond)
	if wanted {
		t.Error("mid-window RequestBarrier was never honoured")
	}
	if _, elided := se.BarrierStats(); elided == 0 {
		t.Error("no edge was elided: the barrier request was never at risk")
	}
	return log
}

func TestOneShardCoordinator(t *testing.T) {
	serial := oneShardRun(t, false)
	parallel := oneShardRun(t, true)
	if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
		t.Fatalf("serial and parallel runs diverged:\nserial:   %v\nparallel: %v", serial, parallel)
	}
	// Shard events due at t run before the control event at t.
	shard, control := -1, -1
	for i, line := range serial {
		switch line {
		case "1ms shard":
			shard = i
		case "1ms control":
			control = i
		}
	}
	if shard < 0 || control < 0 || shard > control {
		t.Fatalf("want the shard event at 1ms before the control event at 1ms, got %v", serial)
	}
}
