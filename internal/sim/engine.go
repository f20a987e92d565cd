// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an ordered queue of events.
// Events scheduled for the same instant fire in scheduling order, which —
// together with seeded random streams (see Rand) — makes every run exactly
// reproducible from its seed.
//
// Protocol code is written against the Scheduler interface so that the same
// logic runs unchanged under virtual time (Engine) and real time
// (RealScheduler).
package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// Scheduler abstracts time for protocol code: the discrete-event Engine and
// the wall-clock RealScheduler both implement it.
type Scheduler interface {
	// Now returns the elapsed time since the start of the run.
	Now() time.Duration
	// After schedules fn to run once, d from now. A non-positive d means
	// "as soon as possible" (still asynchronously, never inline).
	After(d time.Duration, fn func()) Timer
}

// Timer is a handle to a scheduled callback.
type Timer interface {
	// Stop cancels the callback if it has not fired yet and reports
	// whether it was cancelled before firing.
	Stop() bool
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use: all events run sequentially on the goroutine that calls
// Run, RunFor or RunUntil, which is what gives simulated protocols their
// determinism.
//
// Cancellation is active: Stop removes the event from the queue immediately
// (from a later tick's bucket, or in O(log k) from a heap of k), so long
// runs with heavy timer churn — thousand-peer fault scenarios cancel and
// re-arm millions of timers — never accumulate dead entries in the queue.
type Engine struct {
	now      time.Duration
	seq      uint64
	queue    eventQueue
	streams  map[string]*Rand
	seed     int64
	stopped  bool
	executed uint64
	// free recycles fired delivery events (AfterMsg) so the steady-state
	// per-message path never allocates: a simulation delivering millions of
	// messages reuses a working set of event structs the size of its peak
	// in-flight count.
	free []*event
	// peakPending is the high-water mark of the event queue, a capacity
	// diagnostic for drain spikes (scenario reports surface it outside the
	// fingerprint).
	peakPending int
}

// NewEngine returns an engine whose random streams derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		streams: make(map[string]*Rand),
		seed:    seed,
	}
}

// Seed returns the root seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of events waiting in the queue. Cancelled
// events are removed eagerly and never counted.
func (e *Engine) Pending() int { return e.queue.n }

// Executed returns the total number of events run since creation.
func (e *Engine) Executed() uint64 { return e.executed }

// PeakPending returns the queue's high-water mark: the largest number of
// events that were ever simultaneously pending.
func (e *Engine) PeakPending() int { return e.peakPending }

// notePeak updates the queue high-water mark after a push.
func (e *Engine) notePeak() {
	if n := e.queue.n; n > e.peakPending {
		e.peakPending = n
	}
}

// NextEventAt returns the timestamp of the earliest pending event, or false
// when the queue is empty. The sharded coordinator uses it to clip windows
// to the next barrier-hosted event and to skip empty windows entirely.
func (e *Engine) NextEventAt() (time.Duration, bool) {
	if e.queue.n == 0 {
		return 0, false
	}
	return e.queue.min().at, true
}

// advanceTo moves the clock forward to t without executing anything (the
// sharded coordinator's idle hop). Events already queued at or before t are
// untouched and fire — at their recorded timestamps — in the next window.
func (e *Engine) advanceTo(t time.Duration) {
	if e.now < t {
		e.now = t
	}
}

// After schedules fn to run at Now()+d. Negative delays are clamped to zero,
// so the event fires after all events already scheduled for the current
// instant.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: After called with nil callback")
	}
	if d < 0 {
		d = 0
	}
	ev := &event{e: e, at: e.now + d, seq: e.seq, fn: fn}
	e.seq++
	e.queue.push(ev)
	e.notePeak()
	return ev
}

// At schedules fn at an absolute virtual time. Times in the past are clamped
// to the current instant.
func (e *Engine) At(t time.Duration, fn func()) Timer {
	return e.After(t-e.now, fn)
}

// DeliveryHandler consumes a pooled delivery event: the payload a transport
// stored with AfterMsg comes back as typed arguments instead of a captured
// closure environment.
type DeliveryHandler func(from, to uint64, msg any)

// AfterMsg schedules h(from, to, msg) at Now()+d on the pooled delivery
// path. It is the allocation-free counterpart of After for the dominant
// event class of a network simulation — message deliveries — which are
// fire-and-forget: no Timer is returned because deliveries are never
// cancelled (faults are checked at fire time by the handler). The (time,
// insertion sequence) ordering contract is exactly After's: an AfterMsg and
// an After scheduled for the same instant fire in scheduling order.
//
// The event struct comes from a free list and returns to it after firing,
// and the arguments live in typed fields, so steady-state delivery performs
// zero heap allocations. Storing msg in the any field is allocation-free
// when msg is already an interface or pointer (interface-to-interface
// conversion copies the two words); callers should not pass bare scalars.
func (e *Engine) AfterMsg(d time.Duration, h DeliveryHandler, from, to uint64, msg any) {
	if h == nil {
		panic("sim: AfterMsg called with nil handler")
	}
	if d < 0 {
		d = 0
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{e: e}
	}
	ev.at = e.now + d
	ev.seq = e.seq
	e.seq++
	ev.deliver = h
	ev.from = from
	ev.to = to
	ev.msg = msg
	e.queue.push(ev)
	e.notePeak()
}

// AtMsg schedules a pooled delivery at an absolute virtual time, clamping
// past times to the current instant. It is At's counterpart on the AfterMsg
// path; the sharded coordinator uses it to requeue cross-shard deliveries at
// their original timestamps.
func (e *Engine) AtMsg(t time.Duration, h DeliveryHandler, from, to uint64, msg any) {
	e.AfterMsg(t-e.now, h, from, to, msg)
}

// Every schedules fn at now+interval, now+2*interval, ... until the returned
// timer is stopped. The first firing is one full interval from now.
//
// The periodic timer owns a single event struct and re-queues it after each
// firing, so steady-state ticking allocates nothing — the dominant event
// source of a large simulation (per-peer heartbeat/state-info/recovery
// timers) stays off the garbage collector entirely.
func (e *Engine) Every(interval time.Duration, fn func()) Timer {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive interval %v", interval))
	}
	p := &periodic{e: e, interval: interval, fn: fn}
	p.tickFn = p.tick // bound once: rebinding per tick would allocate
	p.ev = &event{e: e, fn: p.tickFn}
	p.rearm()
	return p
}

// Step executes the single next event and reports whether one was executed.
func (e *Engine) Step() bool {
	if e.queue.n == 0 {
		return false
	}
	ev := e.queue.popMin()
	if ev.at > e.now {
		e.now = ev.at
	}
	e.executed++
	if h := ev.deliver; h != nil {
		// Pooled delivery event: copy the payload out, recycle the struct
		// before invoking the handler (so the handler's own sends can reuse
		// it), then dispatch.
		from, to, msg := ev.from, ev.to, ev.msg
		ev.deliver = nil
		ev.msg = nil
		e.free = append(e.free, ev)
		h(from, to, msg)
		return true
	}
	fn := ev.fn
	ev.fn = nil // release the closure; also marks the event as fired
	fn()
	return true
}

// Run executes events until the queue drains or Stop is called. It returns
// the number of events executed.
func (e *Engine) Run() int {
	e.stopped = false
	n := 0
	for !e.stopped && e.Step() {
		n++
	}
	return n
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (even if the queue drained earlier). It returns the number of events
// executed.
func (e *Engine) RunUntil(t time.Duration) int {
	e.stopped = false
	n := 0
	for !e.stopped && e.queue.n > 0 && e.queue.min().at <= t {
		e.Step()
		n++
	}
	if e.now < t {
		e.now = t
	}
	return n
}

// RunFor is shorthand for RunUntil(Now()+d).
func (e *Engine) RunFor(d time.Duration) int { return e.RunUntil(e.now + d) }

// Stop makes the currently executing Run/RunUntil return after the current
// event completes. Scheduled events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// event implements Timer. index is the event's position in the owning
// engine's queue — in a heap, or in a bucket — or -1 once it has fired or
// been cancelled; which of those holds it follows from at (see eventQueue).
//
// An event is either a closure event (fn set, scheduled by After/Every) or
// a pooled delivery event (deliver set, scheduled by AfterMsg, recycled via
// the engine's free list after firing). Delivery events never escape as
// Timers, so Stop cannot observe one.
//
// The struct is 80 bytes, an exact allocation size class: one more word
// would put every pending event in the 96-byte class.
type event struct {
	e     *Engine
	at    time.Duration
	seq   uint64
	fn    func()
	index int

	// Typed payload of the pooled delivery path.
	deliver  DeliveryHandler
	from, to uint64
	msg      any
}

func (ev *event) Stop() bool {
	if ev.index < 0 || ev.fn == nil {
		return false // already fired or cancelled
	}
	ev.e.queue.remove(ev)
	ev.fn = nil
	return true
}

// periodic implements Timer for Every, reusing one event across firings.
type periodic struct {
	e        *Engine
	interval time.Duration
	fn       func()
	tickFn   func()
	ev       *event
	stopped  bool
}

func (p *periodic) rearm() {
	ev := p.ev
	ev.at = p.e.now + p.interval
	ev.seq = p.e.seq
	p.e.seq++
	ev.fn = p.tickFn
	p.e.queue.push(ev)
	p.e.notePeak()
}

func (p *periodic) tick() {
	if p.stopped {
		return
	}
	p.fn()
	if !p.stopped {
		p.rearm()
	}
}

func (p *periodic) Stop() bool {
	if p.stopped {
		return false
	}
	p.stopped = true
	if p.ev.index >= 0 {
		p.e.queue.remove(p.ev)
		p.ev.fn = nil
	}
	return true
}

// The calendar's geometry. A tick is 2^20 ns (≈ 1.05 ms) and a page is 256
// ticks (≈ 268 ms). Half of all pushes are deliveries 1–10 ms out and
// another third 10–150 ms out, so most land in a later tick of the current
// page or in the next page. Periodic timers (1 to 10 s) land in the far
// pages, 63 of which (≈ 17 s) are kept ahead of the current one.
const (
	tickShift = 20
	nearBits  = 8
	nearSlots = 1 << nearBits
	nearMask  = nearSlots - 1
	pageShift = tickShift + nearBits
	farSlots  = 64
	farMask   = farSlots - 1

	// chunkLen events and a link fill a chunk: 128 bytes, an exact size
	// class.
	chunkLen = 15
	// spareFloor is the fewest event slots the spare chunks may hold: a
	// block's dissemination wave fills a couple of hundred buckets at once,
	// and refills them from the spares without allocating.
	spareFloor = 4096
)

// eventQueue is a two-level calendar queue (R. Brown, "Calendar Queues",
// CACM 31(10), 1988, with the levels of a hierarchical timing wheel) that
// pops in (time, insertion sequence) order. With cur the current tick:
//
//   - heap holds every event of tick cur or earlier as a min-heap: the
//     current tick's events, and any scheduled behind cur, which is ahead of
//     the clock once a peek has moved it to the next occupied tick;
//   - near[t&nearMask] holds the events of a later tick t of cur's page,
//     unsorted;
//   - far[p&farMask] holds the events of a later page p less than farSlots
//     pages ahead of cur's, unsorted;
//   - over holds everything beyond, as a min-heap.
//
// A push is a store into a bucket or a sift in a heap of one tick's events,
// not of everything pending. When heap empties, the next occupied tick's
// bucket is heapified in its place; when the page is spent, the next
// occupied far page is spread over near, and the events of over that came
// within farSlots pages move into far. Where an event is follows from its
// time and cur alone, so Stop finds its bucket without a search.
type eventQueue struct {
	n    int   // events queued
	cur  int64 // current tick
	heap eventHeap
	near [nearSlots]bucket
	far  [farSlots]bucket
	over eventHeap

	nearUsed [nearSlots / 64]uint64 // bit t&nearMask set: near[t&nearMask] is non-empty
	farUsed  uint64                 // bit p&farMask set: far[p&farMask] is non-empty

	spare  *chunk // emptied chunks kept for reuse, linked through next
	spares int
}

// bucket is an unsorted set of events kept in a stack of chunks: its event
// i, whose index is i, is in the chunk i/chunkLen from the bottom, at
// i%chunkLen. All chunks but the top one are full, so a bucket wastes at
// most one partly filled chunk however many events it holds.
type bucket struct {
	top *chunk
	n   int
}

type chunk struct {
	ev   [chunkLen]*event
	next *chunk // the chunk below in a bucket, or the next spare
}

// topLen is how many events the top chunk of a non-empty bucket holds.
func (b *bucket) topLen() int { return b.n - (b.n-1)/chunkLen*chunkLen }

func (q *eventQueue) push(ev *event) {
	q.n++
	q.place(ev)
}

// Where an event at a given time belongs, relative to cur.
const (
	inHeap = iota
	inNear
	inFar
	inOver
)

// locate says where an event at time at belongs and, for inNear and inFar,
// the slot of its bucket.
func (q *eventQueue) locate(at time.Duration) (where int, slot int64) {
	t := int64(at) >> tickShift
	switch page, curPage := t>>nearBits, q.cur>>nearBits; {
	case t <= q.cur:
		return inHeap, 0
	case page == curPage:
		return inNear, t & nearMask
	case page-curPage < farSlots:
		return inFar, page & farMask
	}
	return inOver, 0
}

// place files ev where its time puts it relative to cur.
func (q *eventQueue) place(ev *event) {
	switch where, i := q.locate(ev.at); where {
	case inHeap:
		q.heap.push(ev)
	case inNear:
		q.nearUsed[i>>6] |= 1 << (i & 63)
		q.add(&q.near[i], ev)
	case inFar:
		q.farUsed |= 1 << i
		q.add(&q.far[i], ev)
	default:
		q.over.push(ev)
	}
}

func (q *eventQueue) add(b *bucket, ev *event) {
	if b.n%chunkLen == 0 {
		c := q.newChunk()
		c.next = b.top
		b.top = c
	}
	b.top.ev[b.n%chunkLen] = ev
	ev.index = b.n
	b.n++
}

// remove takes a queued event out of the queue.
func (q *eventQueue) remove(ev *event) {
	q.n--
	switch where, i := q.locate(ev.at); where {
	case inHeap:
		q.heap.remove(ev.index)
	case inNear:
		if q.cut(&q.near[i], ev.index) {
			q.nearUsed[i>>6] &^= 1 << (i & 63)
		}
	case inFar:
		if q.cut(&q.far[i], ev.index) {
			q.farUsed &^= 1 << i
		}
	default:
		q.over.remove(ev.index)
		q.over = shrink(q.over)
	}
	ev.index = -1
}

// cut removes a bucket's event i by moving its last event into the gap, and
// reports whether the bucket is left empty. Finding event i's chunk walks
// down from the top, one link per chunkLen events scheduled into the bucket
// after it.
func (q *eventQueue) cut(b *bucket, i int) bool {
	top := b.top
	b.n--
	last := top.ev[b.n%chunkLen]
	top.ev[b.n%chunkLen] = nil
	if i != b.n {
		c := top
		for k := b.n/chunkLen - i/chunkLen; k > 0; k-- {
			c = c.next
		}
		c.ev[i%chunkLen] = last
		last.index = i
	}
	if b.n%chunkLen == 0 {
		b.top = top.next
		q.freeChunk(top)
	}
	return b.n == 0
}

// min returns the earliest event. The queue must not be empty.
func (q *eventQueue) min() *event {
	if len(q.heap) == 0 {
		q.advance()
	}
	return q.heap[0]
}

// popMin removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) popMin() *event {
	if len(q.heap) == 0 {
		q.advance()
	}
	q.n--
	return q.heap.popMin()
}

// advance moves cur to the next occupied tick and makes that tick's bucket
// the heap. The heap is empty and the queue is not.
func (q *eventQueue) advance() {
	for {
		for w, word := range q.nearUsed {
			if word == 0 {
				continue
			}
			i := w<<6 | bits.TrailingZeros64(word)
			q.nearUsed[w] = word &^ (1 << (i & 63))
			q.cur = q.cur&^nearMask | int64(i)
			b := &q.near[i]
			for c, n := b.top, b.topLen(); c != nil; c, n = c.next, chunkLen {
				for _, ev := range c.ev[:n] {
					ev.index = len(q.heap)
					q.heap = append(q.heap, ev)
				}
			}
			q.empty(b)
			q.heap = shrink(q.heap) // the array a burst of one tick grew
			q.heap.init()
			return
		}
		// The page is spent: turn to the next one that holds anything.
		page := q.cur >> nearBits
		if q.farUsed != 0 {
			ahead := bits.RotateLeft64(q.farUsed, -int((page+1)&farMask))
			page += 1 + int64(bits.TrailingZeros64(ahead))
		} else {
			page = int64(q.over[0].at) >> pageShift
		}
		q.cur = page << nearBits
		b := &q.far[page&farMask]
		q.farUsed &^= 1 << (page & farMask)
		for c, n := b.top, b.topLen(); c != nil; c, n = c.next, chunkLen {
			for _, ev := range c.ev[:n] {
				q.place(ev)
			}
		}
		q.empty(b)
		for len(q.over) > 0 && int64(q.over[0].at)>>pageShift < page+farSlots {
			q.place(q.over.popMin())
		}
		q.over = shrink(q.over)
		if len(q.heap) > 0 {
			return
		}
	}
}

// empty returns the chunks of a bucket whose events have moved out.
func (q *eventQueue) empty(b *bucket) {
	for c := b.top; c != nil; {
		next := c.next
		q.freeChunk(c)
		c = next
	}
	*b = bucket{}
}

func (q *eventQueue) newChunk() *chunk {
	c := q.spare
	if c == nil {
		return new(chunk)
	}
	q.spare, c.next = c.next, nil
	q.spares--
	return c
}

// freeChunk keeps c for reuse while the spares hold fewer event slots than
// a quarter of the events pending, or spareFloor. Chunks a drained spike
// took are let go as they come back, so the queue's storage follows its
// occupancy down.
func (q *eventQueue) freeChunk(c *chunk) {
	keep := max(q.n/4, spareFloor) / chunkLen
	for q.spares > keep {
		q.spare = q.spare.next
		q.spares--
	}
	if q.spares < keep {
		*c = chunk{next: q.spare}
		q.spare = c
		q.spares++
	}
}

// eventHeap is a min-heap ordered by (time, insertion sequence). It avoids
// container/heap's interface dispatch and maintains each event's index so
// cancellation can remove in place.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.siftUp(ev.index)
}

// init restores heap order over events whose indices already match their
// positions.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *eventHeap) popMin() *event {
	s := *h
	ev := s[0]
	n := len(s) - 1
	s.swap(0, n)
	s[n] = nil
	*h = s[:n]
	if n > 0 {
		h.siftDown(0)
	}
	ev.index = -1
	return ev
}

// remove deletes the event at heap position i.
func (h *eventHeap) remove(i int) {
	s := *h
	n := len(s) - 1
	if i != n {
		s.swap(i, n)
	}
	s[n] = nil
	*h = s[:n]
	if i != n {
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
}

// shrinkMinCap is the smallest backing-array capacity shrink bothers
// reclaiming. Below it an array costs nothing worth a copy.
const shrinkMinCap = 1024

// shrink reallocates s when occupancy falls to a quarter of capacity or
// less, returning the memory of drain spikes: a fault scenario can balloon
// the queue into the millions of pending deliveries and then idle at a few
// thousand timers for the rest of the run. The copy preserves slot order,
// so event indices stay valid, and the new capacity (2x the live count)
// keeps the shrink amortized — it cannot re-trigger until s halves again.
func shrink(s eventHeap) eventHeap {
	if cap(s) < shrinkMinCap || len(s) > cap(s)/4 {
		return s
	}
	ns := make(eventHeap, len(s), 2*len(s))
	copy(ns, s)
	return ns
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// siftDown reports whether the element moved.
func (h eventHeap) siftDown(i int) bool {
	n := len(h)
	start := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return i > start
}
