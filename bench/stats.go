package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"fabricgossip/internal/metrics"
)

// median returns the middle of xs (mean of the two middle values for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method the acceptance
// check uses), so -compare reports the same spread the driver computes.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// tailOf picks the highest percentile of a sample that still has at least
// ten samples beyond it, among p99.9, p99 and p95.
func tailOf(s metrics.Summary) (time.Duration, string) {
	switch {
	case s.N >= 10000:
		return s.P999, "p99.9"
	case s.N >= 1000:
		return s.P99, "p99"
	default:
		return s.P95, "p95"
	}
}

// measured is what one timed section cost the host.
type measured struct {
	wall time.Duration
	cpu  time.Duration
	// gcCPU is the part of cpu the garbage collector used.
	gcCPU time.Duration
	// heapBase is the live heap when the section started (the caller
	// collects first) and heapPeak how far above it the live heap rose: the
	// largest heap the garbage collector marked live, sampled every few
	// milliseconds. Unlike HeapAlloc this excludes garbage awaiting
	// collection, which made Report.HeapHighWater swing by 40 % between
	// identical sim-txload repetitions; and it is a rise, not a level,
	// because memory earlier repetitions left reachable (wire.blockSizes
	// keeps every block it ever sized) would otherwise make the figure
	// depend on how many repetitions ran before.
	heapBase uint64
	heapPeak uint64
}

// measure runs fn once and reports its wall time, process CPU time and live
// heap rise. It collects first, so the base is what set-up left live and not
// what the last collection before set-up happened to see. The sampler is the
// only goroutine the benchmark adds next to the program under test; one
// runtime/metrics read per tick costs well under 0.1 % of a core.
func measure(fn func()) measured {
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		rtmetrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > peak.Load() {
			peak.Store(v)
		}
	}
	runtime.GC()
	read()
	base := peak.Load()
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				read()
			}
		}
	}()
	cpu0, gc0 := cpuTime(), gcCPUTime()
	t0 := time.Now()
	fn()
	m := measured{wall: time.Since(t0), cpu: cpuTime() - cpu0, gcCPU: gcCPUTime() - gc0}
	close(stop)
	<-done
	// A section shorter than one collection cycle never updates the gauge;
	// one collection now marks exactly what the section left live.
	runtime.GC()
	read()
	m.heapBase, m.heapPeak = base, peak.Load()-base
	return m
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUTime returns the CPU time the garbage collector has used so far, as
// the runtime estimates it.
func gcCPUTime() time.Duration {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
