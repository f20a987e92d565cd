package sim

import (
	"sync"
	"testing"
	"time"
)

func TestRealSchedulerFiresCallback(t *testing.T) {
	s := NewRealScheduler()
	defer s.Close()
	done := make(chan struct{})
	s.After(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("callback did not fire")
	}
	if s.Now() <= 0 {
		t.Fatal("Now() should be positive after elapsed time")
	}
}

func TestRealSchedulerStopPreventsFiring(t *testing.T) {
	s := NewRealScheduler()
	defer s.Close()
	var mu sync.Mutex
	fired := false
	tm := s.After(50*time.Millisecond, func() {
		mu.Lock()
		fired = true
		mu.Unlock()
	})
	if !tm.Stop() {
		t.Fatal("Stop should report true before firing")
	}
	time.Sleep(120 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestRealSchedulerCloseCancelsAll(t *testing.T) {
	s := NewRealScheduler()
	var mu sync.Mutex
	count := 0
	for i := 0; i < 5; i++ {
		s.After(50*time.Millisecond, func() {
			mu.Lock()
			count++
			mu.Unlock()
		})
	}
	s.Close()
	time.Sleep(120 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Fatalf("%d callbacks fired after Close, want 0", count)
	}
	// After Close, new timers are inert.
	tm := s.After(time.Millisecond, func() {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if tm.Stop() {
		t.Fatal("inert timer Stop should report false")
	}
}

// A timer that fired, was stopped, or was cancelled by Close must let go of
// its callback at once: the runtime holds on to a stopped timer, and to
// whatever its function references, for as long as it likes, and a gossip
// ticker's callback reaches a peer's whole ledger. (Seen from outside as
// 450 MB of a closed 8-peer network staying reachable for up to half a
// second; that depends on the runtime's timer heap, so the test looks at
// the reference itself.)
func TestRealSchedulerTimersDropTheirCallback(t *testing.T) {
	s := NewRealScheduler()
	done := make(chan struct{})
	fired := s.After(0, func() { close(done) }).(*realTimer)
	<-done
	stopped := s.After(time.Hour, func() {}).(*realTimer)
	stopped.Stop()
	cancelled := s.After(time.Hour, func() {}).(*realTimer)
	s.Close()
	inert := s.After(time.Hour, func() {}).(*realTimer)
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, rt := range map[string]*realTimer{"fired": fired, "stopped": stopped, "cancelled by Close": cancelled, "armed after Close": inert} {
		if rt.fn != nil {
			t.Errorf("%s timer still references its callback", name)
		}
	}
}
