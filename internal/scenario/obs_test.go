package scenario

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"fabricgossip/internal/obs"
	"fabricgossip/internal/sim"
)

// The observability plane's core contract: attaching it must not move the
// run. Trace points are passive (no random draws, no scheduled events) and
// the registries are read only at report time, so a run with tracing, the
// flight recorder, or both armed produces a fingerprint byte-identical to
// a bare run — on the one-shard and the per-org layout.
func TestObsLeavesFingerprintUnchanged(t *testing.T) {
	cases := []struct {
		name     string
		scenario string
		opt      Options
	}{
		{"one-shard", "crash-restart", Options{Peers: 40, Seed: 3}},
		{"per-org", "sharded-crash-restart", Options{Peers: 20, Seed: 42}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bare, err := RunNamed(tc.scenario, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			traced := tc.opt
			traced.Trace = true
			traced.FlightRing = 64
			traced.FlightDir = t.TempDir()
			rep, err := RunNamed(tc.scenario, traced)
			if err != nil {
				t.Fatal(err)
			}
			if bare.Fingerprint() != rep.Fingerprint() {
				t.Errorf("tracing moved the fingerprint:\n  bare:   %s\n  traced: %s",
					bare.Fingerprint(), rep.Fingerprint())
			}
			if len(rep.Events) == 0 {
				t.Error("traced run produced no structured events")
			}
			if len(bare.Events) != 0 {
				t.Errorf("bare run produced %d structured events", len(bare.Events))
			}
			if dumps, err := os.ReadDir(traced.FlightDir); err != nil || len(dumps) != 0 {
				t.Errorf("healthy run wrote a flight dump: %v %v", dumps, err)
			}
			if v, ok := rep.Obs.Get("wire_msgs_total", "dir", "out"); !ok || v == 0 {
				t.Error("traced run's snapshot has no wire sends")
			}
			// The snapshot exists even without the obs plane armed: report
			// counters are always re-registered (cmd/scenarios -stats).
			if v, ok := bare.Obs.Get("engine_events_total"); !ok || v != float64(bare.EngineEvents) {
				t.Errorf("bare snapshot engine_events_total = %v, want %d", v, bare.EngineEvents)
			}
		})
	}
}

// The merged structured trace is deterministic in (scenario, Options):
// byte-identical JSONL regardless of GOMAXPROCS, because per-context
// buffers merge by (time, context, emission order) — never by goroutine
// interleaving.
func TestTraceJSONLIndependentOfParallelism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var outs [][]byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		rep, err := RunNamed("sharded-crash-restart", Options{Peers: 20, Seed: 42, Trace: true})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, rep.Events); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("procs=%d: empty trace", procs)
		}
		outs = append(outs, buf.Bytes())
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("structured trace depends on GOMAXPROCS: %d vs %d bytes (first divergence at byte %d)",
			len(outs[0]), len(outs[1]), firstDiff(outs[0], outs[1]))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// A time-series run stays deterministic per seed and actually samples: the
// same options reproduce the same fingerprint, and the series holds one
// row per period with the instrument set fixed at the first sample.
func TestTimeSeriesSamplingDeterministic(t *testing.T) {
	opt := Options{Peers: 40, Seed: 3, TimeSeries: 5 * time.Second}
	a, err := RunNamed("crash-restart", opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNamed("crash-restart", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("time-series runs with identical options diverged")
	}
	if a.Series == nil || len(a.Series.Rows) == 0 {
		t.Fatal("no time-series rows sampled")
	}
	if len(a.Series.Names) == 0 {
		t.Fatal("time-series fixed no instrument names")
	}
	for _, row := range a.Series.Rows {
		if len(row.Vals) != len(a.Series.Names) {
			t.Fatalf("row at %v has %d values for %d instruments", row.At, len(row.Vals), len(a.Series.Names))
		}
	}
}

// The flight recorder's crash path: a cross-shard delivery violating the
// lookahead window runs the runner's violation hook on the offending shard's
// goroutine — dumping that shard's recent ring to disk — and then panics
// with a message that names the dump. The dump must carry only the
// offending shard's context and only the last FlightRing events of it.
func TestViolationHookDumpsFlightRecorder(t *testing.T) {
	se := sim.NewShardedEngine(1, 2, 10*time.Millisecond)
	tracer := obs.NewTracer(2, 16)
	for i := 0; i < 40; i++ {
		tracer.Shards[0].Emit(obs.Event{
			At: time.Duration(i) * time.Millisecond, Kind: obs.EvGossipSend,
			Node: 0, Peer: 1, Num: uint64(i),
		})
	}
	tracer.Shards[1].Emit(obs.Event{At: 0, Kind: obs.EvGossipRecv, Node: 1, Peer: 0, Num: 999})
	r := &runner{flight: obs.NewFlightRecorder(tracer, 8, t.TempDir())}
	se.SetViolationHook(r.dumpViolation)
	se.RunUntil(50 * time.Millisecond) // horizon is now pinned to 50ms

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "violates window horizon") {
			t.Fatalf("lookahead violation panicked with %q", msg)
		}
		_, dumpPath, ok := strings.Cut(msg, "; flight dump: ")
		if !ok {
			t.Fatalf("panic %q does not name the flight dump", msg)
		}
		data, err := os.ReadFile(dumpPath)
		if err != nil {
			t.Fatal(err)
		}
		dump := string(data)
		if !strings.Contains(dump, "context 0") {
			t.Error("dump missing the offending shard's context header")
		}
		if strings.Contains(dump, "context 1") {
			t.Error("single-shard dump leaked another context (unsafe mid-window)")
		}
		// Ring capacity 16 holds events 24..39; the dump keeps the last 8.
		if !strings.Contains(dump, `"num":39`) || !strings.Contains(dump, `"num":32`) {
			t.Error("dump missing the most recent ring events")
		}
		if strings.Contains(dump, `"num":31`) {
			t.Error("dump carries more than the last 8 events")
		}
	}()
	se.SendCross(0, 1, time.Millisecond, nil, 0, 0, nil)
}

// The text trace is a view of the structured one: rendering the merged
// events of a traced run (the renderer skips every non-script kind)
// reproduces Report.Trace line for line, each recovery is one caught-up
// event, and a bare run — which keeps only the script events, privately —
// prints the same lines while exposing no events.
func TestTextTraceIsAViewOfEvents(t *testing.T) {
	cases := []struct {
		name  string
		orgs  int
		lines string // a line only this entry's script produces
	}{
		{"crash-restart", 1, "caught up to height"},
		{"org-leader-failover", 4, "redeliver block"},
		{"consenter-election-under-txload", 4, "consenter leader is"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			def, err := Lookup(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			sc := def.Build(Uniform(tc.orgs, 20/tc.orgs))
			opt := Options{Peers: 20, Orgs: tc.orgs, Seed: 42}
			bare, err := Run(sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Trace = true
			rep, err := Run(sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(bare.Events) != 0 {
				t.Errorf("bare run exposes %d structured events", len(bare.Events))
			}
			rendered := renderTrace(rep.Events, sc, rep.Orgs)
			for _, view := range []struct {
				what string
				got  []string
			}{{"rendered events", rendered}, {"bare run's trace", bare.Trace}} {
				if len(view.got) != len(rep.Trace) {
					t.Fatalf("%s: %d lines, Report.Trace has %d", view.what, len(view.got), len(rep.Trace))
				}
				for i := range view.got {
					if view.got[i] != rep.Trace[i] {
						t.Fatalf("%s diverge from Report.Trace at line %d:\n  %s\n  %s",
							view.what, i, view.got[i], rep.Trace[i])
					}
				}
			}
			if !strings.Contains(strings.Join(rep.Trace, "\n"), tc.lines) {
				t.Errorf("trace has no %q line:\n%s", tc.lines, strings.Join(rep.Trace, "\n"))
			}
			caughtUp := 0
			for _, e := range rep.Events {
				if e.Kind == obs.EvCaughtUp {
					caughtUp++
				}
			}
			if caughtUp != rep.Recoveries.N {
				t.Errorf("%d caught-up events for %d recoveries", caughtUp, rep.Recoveries.N)
			}
		})
	}
}

// The samplers measure the run, not the pool-leak audit's drain past its
// end: no time-series row is later than the scenario's End.
func TestSamplersStopWhenTheRunEnds(t *testing.T) {
	def, err := Lookup("crash-restart")
	if err != nil {
		t.Fatal(err)
	}
	sc := def.Build(Uniform(1, 20))
	rep, err := Run(sc, Options{Peers: 20, Seed: 3, TimeSeries: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series.Rows) == 0 {
		t.Fatal("no time-series rows sampled")
	}
	for _, row := range rep.Series.Rows {
		if row.At > sc.End() {
			t.Errorf("time-series row at %v, after the run ended at %v", row.At, sc.End())
		}
	}
}
