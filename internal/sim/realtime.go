package sim

import (
	"sync"
	"time"
)

// RealScheduler implements Scheduler on top of the wall clock. Callbacks run
// on their own goroutines (via time.AfterFunc), so protocol state they touch
// must be guarded by the caller. It is safe for concurrent use.
type RealScheduler struct {
	start time.Time

	mu     sync.Mutex
	closed bool
	timers map[*realTimer]struct{}
}

// NewRealScheduler returns a scheduler whose Now() is measured from the
// moment of this call.
func NewRealScheduler() *RealScheduler {
	return &RealScheduler{
		start:  time.Now(),
		timers: make(map[*realTimer]struct{}),
	}
}

// Now returns the elapsed wall time since the scheduler was created.
func (s *RealScheduler) Now() time.Duration { return time.Since(s.start) }

// After schedules fn on the wall clock. After Close, it returns an inert
// timer without scheduling anything.
func (s *RealScheduler) After(d time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: After called with nil callback")
	}
	if d < 0 {
		d = 0
	}
	rt := &realTimer{sched: s}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		rt.fired = true
		return rt
	}
	rt.fn = fn
	s.timers[rt] = struct{}{}
	s.mu.Unlock()

	// The runtime keeps a stopped timer — and everything its function
	// references — until it next tidies its timer heap, which on a busy
	// process can be a while. So the function it gets references only rt,
	// and rt lets go of the callback the moment it fires or is cancelled: a
	// closed scheduler pins none of the state its callbacks closed over (a
	// peer's whole ledger, for the gossip tickers).
	rt.t = time.AfterFunc(d, rt.fire)
	return rt
}

// Close cancels all outstanding timers. Subsequent After calls are no-ops.
func (s *RealScheduler) Close() {
	s.mu.Lock()
	s.closed = true
	timers := make([]*realTimer, 0, len(s.timers))
	for rt := range s.timers {
		rt.fn = nil
		timers = append(timers, rt)
	}
	s.timers = make(map[*realTimer]struct{})
	s.mu.Unlock()
	for _, rt := range timers {
		if rt.t != nil {
			rt.t.Stop()
		}
	}
}

type realTimer struct {
	sched *RealScheduler
	t     *time.Timer
	fired bool
	fn    func() // nil once fired or cancelled; guarded by sched.mu
}

func (rt *realTimer) fire() {
	s := rt.sched
	s.mu.Lock()
	if s.closed || rt.fired {
		s.mu.Unlock()
		return
	}
	rt.fired = true
	delete(s.timers, rt)
	fn := rt.fn
	rt.fn = nil
	s.mu.Unlock()
	fn()
}

func (rt *realTimer) Stop() bool {
	rt.sched.mu.Lock()
	if rt.fired {
		rt.sched.mu.Unlock()
		return false
	}
	rt.fired = true
	rt.fn = nil
	delete(rt.sched.timers, rt)
	rt.sched.mu.Unlock()
	if rt.t != nil {
		rt.t.Stop()
	}
	return true
}
