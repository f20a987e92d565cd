package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedEngine is a conservative parallel discrete-event coordinator over a
// set of independent Engines (shards) plus one control engine. It exploits
// the classic Chandy–Misra–Bryant observation without null messages: when
// every cross-shard interaction carries at least `lookahead` of simulated
// latency, shards can execute a whole window [t, t+lookahead] without ever
// observing each other, because no message sent inside the window can be due
// before the window ends.
//
// The coordinator advances simulated time in lock-step windows:
//
//  1. Barrier at time t: the control engine runs its due events (scenario
//     fault actions, block injections, periodic samplers — everything the
//     harness schedules on Control()), registered barrier hooks run, and
//     the per-pair cross-shard inboxes are drained into the destination
//     shards' queues in a fixed order (destination ascending, then source
//     ascending, then FIFO).
//  2. Window: every shard runs RunUntil(h), h = min(t+lookahead, next
//     control event, end) — serially or on one goroutine per shard. Shards
//     share no mutable state during the window; cross-shard deliveries are
//     appended to the sender's single-writer inbox row and become visible
//     only at the next barrier.
//
// Because inbox drain order, window edges and per-shard event order are all
// functions of (seed, scenario) alone, a sharded run is bit-for-bit
// deterministic regardless of GOMAXPROCS or whether the window executes
// serially or in parallel.
type ShardedEngine struct {
	shards    []*Engine
	control   *Engine
	lookahead time.Duration
	parallel  bool

	// inbox[src][dst] buffers cross-shard deliveries produced during a
	// window. Each row [src] is appended to only by shard src's goroutine
	// (or the coordinator during a barrier), so no locking is needed; the
	// coordinator drains every row between windows, after the shard
	// goroutines have joined.
	inbox [][][]crossEvent

	// barriers run at every window edge, after control events and before
	// the inbox drain, in registration order.
	barriers []func()

	// adaptive elides the barrier ceremony (control events, hooks, inbox
	// drain) at interior window edges that provably have nothing to do:
	// every inbox empty, no control event due, and no RequestBarrier call
	// outstanding. Windows still advance in lookahead-wide steps and the
	// horizon still moves edge by edge, so the SendCross safety check is
	// unchanged; elision only removes ceremony that would have been a
	// no-op, which is why adaptive and fixed runs are bit-identical.
	adaptive   bool
	barrierReq atomic.Bool

	fullBarriers   uint64
	elidedBarriers uint64

	// violation, when set, runs on the offending shard's goroutine just
	// before a lookahead-violation panic, so a flight recorder can dump
	// that shard's recent events while the rest of the window is still
	// running; what it returns is appended to the panic message. The hook
	// must touch only state owned by shard src.
	violation func(src, dst int, msg string) string

	now     time.Duration
	horizon time.Duration
}

// crossEvent is one buffered cross-shard delivery.
type crossEvent struct {
	at       time.Duration
	h        DeliveryHandler
	from, to uint64
	msg      any
}

// NewShardedEngine returns a coordinator over nShards shard engines and one
// control engine. The control engine is seeded with the root seed — so
// control-plane random streams match a plain Engine built from the same
// seed — and shard i derives its streams from StreamSeed(seed, "shard<i>"),
// giving every shard an independent stream universe. lookahead must be a
// lower bound on the simulated latency of every cross-shard message; it must
// be positive (a zero lookahead admits no window at all).
func NewShardedEngine(seed int64, nShards int, lookahead time.Duration) *ShardedEngine {
	if nShards <= 0 {
		panic(fmt.Sprintf("sim: NewShardedEngine with %d shards", nShards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: NewShardedEngine with non-positive lookahead %v", lookahead))
	}
	se := &ShardedEngine{
		control:   NewEngine(seed),
		lookahead: lookahead,
		parallel:  true,
	}
	se.shards = make([]*Engine, nShards)
	for i := range se.shards {
		se.shards[i] = NewEngine(StreamSeed(seed, fmt.Sprintf("shard%d", i)))
	}
	se.inbox = make([][][]crossEvent, nShards)
	for i := range se.inbox {
		se.inbox[i] = make([][]crossEvent, nShards)
	}
	return se
}

// NumShards returns the number of shard engines.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Shard returns shard i's engine. Outside a window it may be used freely;
// during a window only shard i's goroutine may touch it.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Control returns the control engine. Events scheduled on it fire only at
// window barriers, which is exactly what scenario actions and harness
// samplers need: they observe every shard quiescent at a common instant.
func (se *ShardedEngine) Control() *Engine { return se.control }

// Lookahead returns the conservative window width.
func (se *ShardedEngine) Lookahead() time.Duration { return se.lookahead }

// Now returns the time of the most recent barrier.
func (se *ShardedEngine) Now() time.Duration { return se.now }

// SetParallel selects whether windows run on one goroutine per shard (the
// default) or serially on the caller's goroutine. Both modes produce
// identical results; the serial mode exists for the determinism property
// test and for debugging.
func (se *ShardedEngine) SetParallel(p bool) { se.parallel = p }

// SetAdaptive selects whether idle window edges elide their barrier
// ceremony. Both modes produce byte-identical simulations — elision is
// restricted to edges where the ceremony would have executed nothing — so
// the fixed mode exists for the equivalence property test and debugging.
func (se *ShardedEngine) SetAdaptive(a bool) { se.adaptive = a }

// RequestBarrier guarantees the next window edge runs the full barrier
// ceremony. Barrier hooks whose work is fed mid-window (a pump flush
// request, a block record queued for fan-out) must call this when they
// enqueue work, otherwise an adaptive coordinator may elide the edge that
// would have drained it. Safe from any shard goroutine.
func (se *ShardedEngine) RequestBarrier() { se.barrierReq.Store(true) }

// BarrierStats returns how many window edges ran the full barrier ceremony
// and how many were elided as provably idle.
func (se *ShardedEngine) BarrierStats() (full, elided uint64) {
	return se.fullBarriers, se.elidedBarriers
}

// SetViolationHook installs fn to run just before a lookahead-violation
// panic, on the goroutine of the offending source shard, and appends what fn
// returns to the panic message. The hook may only touch state owned by that
// shard (other shards are still mid-window); the intended use is a
// flight-recorder dump of the shard's recent events, named in the panic.
func (se *ShardedEngine) SetViolationHook(fn func(src, dst int, msg string) string) {
	se.violation = fn
}

// OnBarrier registers fn to run at every window edge, after the control
// engine's due events fire and before cross-shard inboxes drain. Hooks run
// with every shard quiescent and all shard clocks equal to Now().
func (se *ShardedEngine) OnBarrier(fn func()) {
	se.barriers = append(se.barriers, fn)
}

// SendCross buffers a delivery from shard src to shard dst, due at absolute
// time at. It panics if the delivery would land inside the current window —
// that means some cross-shard link is faster than the declared lookahead,
// and silently delivering it late would reorder the simulation
// nondeterministically. Callers (the transport) must guarantee cross-shard
// latency >= Lookahead().
func (se *ShardedEngine) SendCross(src, dst int, at time.Duration, h DeliveryHandler, from, to uint64, msg any) {
	if at < se.horizon {
		msg := fmt.Sprintf(
			"sim: cross-shard delivery at %v violates window horizon %v (shard %d -> %d, lookahead %v): cross-shard latency must be >= lookahead",
			at, se.horizon, src, dst, se.lookahead)
		if se.violation != nil {
			msg += se.violation(src, dst, msg)
		}
		panic(msg)
	}
	se.inbox[src][dst] = append(se.inbox[src][dst], crossEvent{at: at, h: h, from: from, to: to, msg: msg})
}

// Executed returns the total events run across the control engine and every
// shard.
func (se *ShardedEngine) Executed() uint64 {
	n := se.control.Executed()
	for _, s := range se.shards {
		n += s.Executed()
	}
	return n
}

// PeakPending returns the largest queue high-water mark across the control
// engine and every shard.
func (se *ShardedEngine) PeakPending() int {
	peak := se.control.PeakPending()
	for _, s := range se.shards {
		if p := s.PeakPending(); p > peak {
			peak = p
		}
	}
	return peak
}

// RunUntil advances the simulation to time end in conservative windows.
func (se *ShardedEngine) RunUntil(end time.Duration) {
	first := true
	for {
		now := se.now
		// Barrier phase. The horizon is pinned to the barrier instant so
		// cross-shard sends issued by control events or barrier hooks (which
		// carry at >= now + lookahead) pass the safety check.
		se.horizon = now
		// An adaptive coordinator elides the ceremony at interior edges
		// with nothing to do: no buffered cross-shard delivery, no control
		// event due, no outstanding RequestBarrier. The first edge of every
		// RunUntil call and the closing edge always run in full — callers
		// mutate state between RunUntil calls, and the closing ceremony
		// leaves the control clock pinned to end.
		req := se.barrierReq.Swap(false)
		if !se.adaptive || first || req || now >= end || se.inboxesPending() || se.controlDue(now) {
			se.fullBarriers++
			se.control.RunUntil(now)
			for _, fn := range se.barriers {
				fn()
			}
			// Drain after the hooks: deliveries they produce (e.g. a pump
			// flushing at the barrier) are picked up immediately rather
			// than waiting a window.
			se.drainInboxes()
		} else {
			se.elidedBarriers++
		}
		first = false
		if now >= end {
			// Closing window: an idle hop can land exactly on end with shard
			// events due at that instant (and RunUntil's contract is
			// "events at <= end have executed"). Usually a no-op.
			se.horizon = end
			se.runWindow(end)
			return
		}

		// Clip the window to the next control event: control events must
		// observe all shard activity up to their timestamp, so a window
		// never crosses one. A control event scheduled *at* now from a
		// barrier hook fires at the next barrier (the t > now guard keeps
		// the window from collapsing to zero width).
		h := now + se.lookahead
		if t, ok := se.control.NextEventAt(); ok && t > now && t < h {
			h = t
		}
		if h > end {
			h = end
		}

		// Idle hop: when every shard's next obligation lies beyond the
		// window, jump straight to the earliest one instead of running
		// empty windows. Clocks advance without executing; skipped barriers
		// had nothing to do by construction (no control event, no shard
		// event, empty inboxes).
		minNext := time.Duration(1<<63 - 1)
		for _, s := range se.shards {
			if t, ok := s.NextEventAt(); ok && t < minNext {
				minNext = t
			}
		}
		if minNext > h {
			jump := minNext
			if t, ok := se.control.NextEventAt(); ok && t > now && t < jump {
				jump = t
			}
			if jump > end {
				jump = end
			}
			if jump == minNext && se.controlDue(jump) {
				// Shard events and a control event are both due at the hop
				// target. Run the shard events first, exactly as a window
				// clipped to that control event would have: a control event
				// observes all shard activity up to its timestamp no matter
				// how the coordinator reached it — otherwise the tie-break
				// would hinge on where unrelated shards' events happened to
				// put the previous window edge.
				se.horizon = jump
				se.runWindow(jump)
			} else {
				for _, s := range se.shards {
					s.advanceTo(jump)
				}
			}
			se.now = jump
			continue
		}

		// Window phase.
		se.horizon = h
		se.runWindow(h)
		se.now = h
	}
}

// runWindow executes one window on every shard. Shards with nothing due by
// h only advance their clocks, and a window with a single busy shard runs it
// on the caller's goroutine: the hand-off would buy no overlap. Which
// goroutine runs a shard never shows in the result.
func (se *ShardedEngine) runWindow(h time.Duration) {
	busy := 0
	if se.parallel {
		for _, s := range se.shards {
			if t, ok := s.NextEventAt(); ok && t <= h {
				busy++
			}
		}
	}
	if busy < 2 {
		for _, s := range se.shards {
			s.RunUntil(h)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(se.shards))
	for _, s := range se.shards {
		go func(s *Engine) {
			defer wg.Done()
			s.RunUntil(h)
		}(s)
	}
	wg.Wait()
}

// inboxesPending reports whether any cross-shard inbox holds a buffered
// delivery. Called only at window edges, after shard goroutines have
// joined, so the scan is race-free.
func (se *ShardedEngine) inboxesPending() bool {
	for _, row := range se.inbox {
		for _, box := range row {
			if len(box) > 0 {
				return true
			}
		}
	}
	return false
}

// controlDue reports whether the control engine has an event due at or
// before the given barrier instant.
func (se *ShardedEngine) controlDue(now time.Duration) bool {
	t, ok := se.control.NextEventAt()
	return ok && t <= now
}

// drainInboxes moves buffered cross-shard deliveries into their destination
// shards' queues. The order — destination ascending, source ascending, FIFO
// within a pair — fixes the (time, seq) tie-break of simultaneous arrivals
// and is therefore part of the determinism contract.
func (se *ShardedEngine) drainInboxes() {
	for dst := range se.shards {
		eng := se.shards[dst]
		for src := range se.inbox {
			box := se.inbox[src][dst]
			if len(box) == 0 {
				continue
			}
			for i := range box {
				ev := &box[i]
				eng.AtMsg(ev.at, ev.h, ev.from, ev.to, ev.msg)
				ev.h = nil
				ev.msg = nil
			}
			se.inbox[src][dst] = box[:0]
		}
	}
}
