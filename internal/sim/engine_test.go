package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(3*time.Second, func() { got = append(got, 3) })
	e.After(1*time.Second, func() { got = append(got, 1) })
	e.After(2*time.Second, func() { got = append(got, 2) })
	if n := e.Run(); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
}

func TestEngineTieBreaksBySchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	e.After(time.Second, func() {
		e.After(time.Second, func() {
			fired = append(fired, e.Now())
		})
		fired = append(fired, e.Now())
	})
	e.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("nested events fired at %v, want [1s 2s]", fired)
	}
}

func TestEngineZeroAndNegativeDelaysClampToNow(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.After(time.Second, func() {
		e.After(-5*time.Second, func() {
			if e.Now() != time.Second {
				t.Errorf("negative delay fired at %v, want 1s", e.Now())
			}
			ran++
		})
		e.After(0, func() { ran++ })
	})
	e.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerStopAfterFireReturnsFalse(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(time.Second, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after firing should report false")
	}
}

func TestRunUntilAdvancesClockAndStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		e.After(d, func() { fired = append(fired, d) })
	}
	n := e.RunUntil(3 * time.Second)
	if n != 2 {
		t.Fatalf("RunUntil executed %d events, want 2", n)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
	n = e.Run()
	if n != 1 || e.Now() != 5*time.Second {
		t.Fatalf("after Run: n=%d now=%v, want 1 and 5s", n, e.Now())
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(10 * time.Second)
	if e.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s", e.Now())
	}
	e.RunFor(5 * time.Second)
	if e.Now() != 15*time.Second {
		t.Fatalf("Now() = %v, want 15s", e.Now())
	}
}

func TestEveryFiresPeriodicallyUntilStopped(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	tm := e.Every(time.Second, func() { fired = append(fired, e.Now()) })
	e.RunUntil(3500 * time.Millisecond)
	tm.Stop()
	e.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("periodic fired %d times (%v), want 3", len(fired), fired)
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if fired[i] != want {
			t.Fatalf("firing %d at %v, want %v", i, fired[i], want)
		}
	}
}

func TestEveryStopFromWithinCallback(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tm Timer
	tm = e.Every(time.Second, func() {
		count++
		if count == 2 {
			tm.Stop()
		}
	})
	e.RunUntil(10 * time.Second)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 0; i < 10; i++ {
		e.After(time.Duration(i)*time.Second, func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	// Remaining events still runnable.
	e.Run()
	if count != 10 {
		t.Fatalf("count after resume = %d, want 10", count)
	}
}

func TestEngineDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		r := e.Rand("test")
		var vals []int64
		e.Every(time.Second, func() { vals = append(vals, r.Int63()) })
		e.RunUntil(20 * time.Second)
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRandStreamsAreIndependent(t *testing.T) {
	e := NewEngine(7)
	a := e.Rand("a").Int63()
	b := e.Rand("b").Int63()
	if a == b {
		t.Fatal("different streams produced identical first values")
	}
	if e.Rand("a") != e.Rand("a") {
		t.Fatal("same stream name should return the same stream")
	}
}

func TestSampleWithout(t *testing.T) {
	r := NewRand(3)
	skip := map[int]bool{2: true, 5: true}
	for trial := 0; trial < 200; trial++ {
		got := r.SampleWithout(10, 4, skip)
		if len(got) != 4 {
			t.Fatalf("sample size %d, want 4", len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 10 {
				t.Fatalf("sample value %d out of range", v)
			}
			if skip[v] {
				t.Fatalf("sampled skipped value %d", v)
			}
			if seen[v] {
				t.Fatalf("duplicate value %d in %v", v, got)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutPanicsWhenTooFewCandidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).SampleWithout(3, 3, map[int]bool{0: true})
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(9)
		var fired []time.Duration
		var maxD time.Duration
		for _, d := range delays {
			d := time.Duration(d) * time.Millisecond
			if d > maxD {
				maxD = d
			}
			e.After(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == maxD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Active cancellation: Stop removes the event from the queue immediately,
// so heavy timer churn cannot bloat the heap.
func TestStopRemovesEventFromQueueImmediately(t *testing.T) {
	e := NewEngine(1)
	timers := make([]Timer, 0, 100)
	for i := 0; i < 100; i++ {
		timers = append(timers, e.After(time.Duration(i+1)*time.Second, func() {}))
	}
	if e.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100", e.Pending())
	}
	for i, tm := range timers {
		if i%2 == 0 {
			tm.Stop()
		}
	}
	if e.Pending() != 50 {
		t.Fatalf("Pending after cancelling half = %d, want 50", e.Pending())
	}
	if n := e.Run(); n != 50 {
		t.Fatalf("Run executed %d events, want 50", n)
	}
}

// refModel is the reference the engine is checked against: every scheduled
// firing with the (time, sequence) key the engine's contract gives it,
// fired by a linear scan for the least key.
type refModel struct {
	t      *testing.T
	e      *Engine
	rng    *rand.Rand
	live   map[int]refEntry
	seq    uint64
	nextID int
	timers []*refTimer
	budget int    // ops callbacks may still run, so the final drain ends
	stops  [5]int // Stops of a live event, by where it was (see where)
}

type refEntry struct {
	at  time.Duration
	seq uint64
}

// refTimer is a Timer handle and the id of its live firing, -1 if none.
type refTimer struct {
	tm       Timer
	ev       *event
	cur      int
	periodic bool
	stopped  bool
	wasOver  bool // placed in the overflow heap when scheduled
}

// movedFromOver counts, beside the queue's own inHeap…inOver, a Stop of an
// event that was placed in the overflow heap and has since moved out of it.
const movedFromOver = inOver + 1

var whereNames = [...]string{"the current tick's heap", "a near bucket", "a far bucket", "the overflow heap", "a bucket, moved in from the overflow heap"}

// where says which part of the queue holds ev.
func (q *eventQueue) where(ev *event) int {
	where, _ := q.locate(ev.at)
	return where
}

// add records a firing the engine has just been asked to schedule.
func (m *refModel) add(at time.Duration) int {
	id := m.nextID
	m.nextID++
	m.live[id] = refEntry{at: at, seq: m.seq}
	m.seq++
	return id
}

// fire checks that the engine fired the reference's least live firing.
func (m *refModel) fire(id int) {
	m.t.Helper()
	want, least := -1, refEntry{}
	for i, en := range m.live {
		if want < 0 || en.at < least.at || en.at == least.at && en.seq < least.seq {
			want, least = i, en
		}
	}
	if id != want || m.e.Now() != least.at {
		m.t.Fatalf("engine fired #%d at %v, reference fires #%d (seq %d) at %v", id, m.e.Now(), want, least.seq, least.at)
	}
	delete(m.live, id)
}

// delay draws a scheduling delay: ties at one instant, tick and page edges
// (±1 ns), the far horizon and ten times beyond it, negative delays.
func (m *refModel) delay() time.Duration {
	now := int64(m.e.Now())
	edge := func(shift uint, ahead int64) time.Duration {
		return time.Duration((now>>shift+ahead)<<shift + m.rng.Int63n(3) - 1 - now)
	}
	switch m.rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return -time.Duration(m.rng.Int63n(int64(time.Second)))
	case 2:
		return time.Duration(m.rng.Intn(4)) * 250 * time.Microsecond
	case 3:
		return edge(tickShift, m.rng.Int63n(4))
	case 4:
		return edge(pageShift, m.rng.Int63n(3))
	case 5:
		return edge(pageShift, farSlots-1+m.rng.Int63n(3))
	case 6:
		return edge(pageShift, 10*farSlots+m.rng.Int63n(3))
	case 7:
		return time.Duration(m.rng.Int63n(int64(150 * time.Millisecond)))
	case 8:
		return time.Duration(m.rng.Int63n(int64(5 * time.Second)))
	}
	return time.Duration(m.rng.Intn(3)) * time.Second
}

// op schedules or stops one firing.
func (m *refModel) op() {
	e := m.e
	switch m.rng.Intn(8) {
	case 0, 1:
		d := m.delay()
		h := &refTimer{}
		h.tm = e.After(d, func() {
			m.fire(h.cur)
			h.cur = -1
			m.nested()
		})
		h.ev = h.tm.(*event)
		h.cur = m.add(e.Now() + max(d, 0))
		h.wasOver = e.queue.where(h.ev) == inOver
		m.timers = append(m.timers, h)
	case 2, 3:
		d := m.delay()
		id := m.add(e.Now() + max(d, 0))
		e.AfterMsg(d, func(_, _ uint64, msg any) {
			m.fire(msg.(int))
			m.nested()
		}, 0, 0, id)
	case 4:
		// At in the past clamps to now.
		at := e.Now() - time.Duration(m.rng.Int63n(int64(time.Second)))
		h := &refTimer{}
		h.tm = e.At(at, func() {
			m.fire(h.cur)
			h.cur = -1
		})
		h.ev = h.tm.(*event)
		h.cur = m.add(max(at, e.Now()))
		m.timers = append(m.timers, h)
	case 5:
		iv := []time.Duration{250 * time.Microsecond, 1 << tickShift, 10 * time.Millisecond, 1 << pageShift, time.Second, 2 * time.Second}[m.rng.Intn(6)]
		h := &refTimer{periodic: true}
		fired := 0
		h.tm = e.Every(iv, func() {
			m.fire(h.cur)
			h.cur = -1
			m.nested()
			if fired++; fired == 20 && !h.stopped {
				h.tm.Stop() // from within the callback: no re-arm
				h.stopped = true
			}
			if !h.stopped { // the engine re-arms once the callback returns
				h.cur = m.add(e.Now() + iv)
			}
		})
		h.ev = h.tm.(*periodic).ev
		h.cur = m.add(e.Now() + iv)
		m.timers = append(m.timers, h)
	default:
		if len(m.timers) == 0 {
			return
		}
		h := m.timers[m.rng.Intn(len(m.timers))]
		if h.cur >= 0 {
			where := e.queue.where(h.ev)
			if where != inOver && h.wasOver {
				where = movedFromOver
			}
			m.stops[where]++
		}
		want := h.cur >= 0 || h.periodic && !h.stopped
		if got := h.tm.Stop(); got != want {
			m.t.Fatalf("Stop = %v, want %v", got, want)
		}
		delete(m.live, h.cur)
		h.cur, h.stopped = -1, true
	}
	if e.Pending() != len(m.live) {
		m.t.Fatalf("Pending = %d, reference holds %d", e.Pending(), len(m.live))
	}
}

// nested runs a few more ops from inside a firing.
func (m *refModel) nested() {
	for k := m.rng.Intn(3); k > 0 && m.budget > 0; k-- {
		m.budget--
		m.op()
	}
}

// The engine fires exactly what a reference that sorts by (time, sequence)
// fires, in its order, for random mixes of After, AfterMsg, At and Every,
// Stop of events wherever they are queued, and RunUntil gaps followed by
// scheduling earlier than the queue's current tick.
func TestEngineMatchesSortedReference(t *testing.T) {
	var stops [5]int
	for seed := int64(1); seed <= 150; seed++ {
		m := &refModel{t: t, e: NewEngine(seed), rng: rand.New(rand.NewSource(seed)), live: map[int]refEntry{}, budget: 600}
		for round := 0; round < 40; round++ {
			for k := m.rng.Intn(8); k > 0; k-- {
				m.op()
			}
			gaps := []time.Duration{0, 300 * time.Microsecond, 1 << tickShift, 100 * time.Millisecond, 2 * time.Second, 20 * time.Second}
			m.e.RunUntil(m.e.Now() + gaps[m.rng.Intn(len(gaps))])
		}
		for _, h := range m.timers {
			if h.periodic && !h.stopped {
				h.tm.Stop()
				delete(m.live, h.cur)
				h.stopped = true
			}
		}
		m.budget = 0
		m.e.Run()
		if len(m.live) != 0 || m.e.Pending() != 0 {
			t.Fatalf("seed %d: %d firings left in the reference, %d pending", seed, len(m.live), m.e.Pending())
		}
		for i, n := range m.stops {
			stops[i] += n
		}
	}
	for i, n := range stops {
		if n == 0 {
			t.Errorf("no Stop hit an event in %s", whereNames[i])
		}
	}
	t.Logf("Stops of a queued event by where it was: %v", stops)
}

// Every must not allocate once in steady state: the periodic timer reuses a
// single event struct across firings.
func TestEverySteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	e.Every(time.Second, func() { ticks++ })
	e.RunFor(10 * time.Second) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		e.RunFor(time.Second) // exactly one tick per run
	})
	if ticks == 0 {
		t.Fatal("periodic never fired")
	}
	if allocs > 0 {
		t.Fatalf("steady-state periodic tick allocates %.1f objects/op, want 0", allocs)
	}
}

func TestEveryStopBetweenFiringsRemovesQueuedEvent(t *testing.T) {
	e := NewEngine(1)
	tm := e.Every(time.Second, func() {})
	e.RunUntil(1500 * time.Millisecond)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (the re-armed tick)", e.Pending())
	}
	if !tm.Stop() {
		t.Fatal("Stop reported false on a live periodic timer")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0", e.Pending())
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
}

func TestExecutedCountsEvents(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.After(time.Duration(i)*time.Second, func() {})
	}
	e.Run()
	if e.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed())
	}
}

func TestAfterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	NewEngine(1).After(time.Second, nil)
}

func TestEveryNonPositiveIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive interval")
		}
	}()
	NewEngine(1).Every(0, func() {})
}
