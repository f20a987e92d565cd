package membership

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// Tests for the view's storage — the sorted member records, the search and
// its merge hint, the rumor ring and its queued masks, the state counts —
// as opposed to the protocol, which TestViewTranscriptPinned pins.

func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(member{}); got != 24 {
		t.Errorf("sizeof(member) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(rumor{}); got != 16 {
		t.Errorf("sizeof(rumor) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(wire.MemberEvent{}); got != 16 {
		t.Errorf("sizeof(wire.MemberEvent) = %d, want 16", got)
	}
}

// checkLayout verifies every structural invariant of the view's storage.
func (v *View) checkLayout() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	var recount [numStatus]int32
	for i, m := range v.members {
		if i > 0 && v.members[i-1].id >= m.id {
			return fmt.Errorf("members not strictly ascending at %d: %v then %v", i, v.members[i-1].id, m.id)
		}
		if m.id == v.cfg.Self {
			return fmt.Errorf("self is tracked")
		}
		if m.status < statusLive || m.status > statusDead {
			return fmt.Errorf("member %v has status %d", m.id, m.status)
		}
		recount[m.status]++
	}
	if recount != v.counts {
		return fmt.Errorf("counts = %v, recount = %v", v.counts, recount)
	}
	if v.rumors.len() > v.cfg.QueueCap {
		return fmt.Errorf("queue holds %d rumors, cap %d", v.rumors.len(), v.cfg.QueueCap)
	}
	// queued bit set <=> exactly one rumor of that (peer, kind) queued.
	type key struct {
		peer wire.NodeID
		kind wire.MemberEventKind
	}
	inQueue := make(map[key]int)
	for i := 0; i < v.rumors.len(); i++ {
		r := v.rumors.at(i)
		if r.budget == 0 {
			return fmt.Errorf("queued rumor %+v has no budget left", *r)
		}
		inQueue[key{r.peer, r.kind}]++
	}
	masks := map[wire.NodeID]uint8{v.cfg.Self: v.selfQueued}
	for _, m := range v.members {
		masks[m.id] = m.queued
	}
	for k, n := range inQueue {
		if _, known := masks[k.peer]; !known {
			return fmt.Errorf("rumor about untracked peer %v", k.peer)
		}
		if n != 1 {
			return fmt.Errorf("%d rumors queued about (%v, kind %d)", n, k.peer, k.kind)
		}
	}
	for peer, mask := range masks {
		for kind := wire.MemberEventKind(0); kind < 8; kind++ {
			if set := mask&kindBit(kind) != 0; set != (inQueue[key{peer, kind}] == 1) {
				return fmt.Errorf("peer %v kind %d: queued bit %v, %d rumors in the queue", peer, kind, set, inQueue[key{peer, kind}])
			}
		}
	}
	return nil
}

// TestPropertyLayoutInvariants drives random operation sequences over a
// sparse id space with a queue small enough to overflow constantly, and
// checks the storage invariants after every step — plus the derived reads
// (Stats, LiveCount) against their definitions.
func TestPropertyLayoutInvariants(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		ids := make([]wire.NodeID, 24)
		for i := range ids {
			ids[i] = wire.NodeID(rng.Intn(1 << 16))
		}
		self := ids[0]
		cfg := Config{
			Self: self, Expiration: sec(3), SuspectTimeout: sec(4),
			PiggybackMax: 3, PiggybackBudget: 2, QueueCap: 5,
			ShuffleInterval: sec(2), ShuffleSample: 6,
		}
		if seed%4 == 0 {
			cfg.ShuffleInterval = 0 // lapse-based suspicion: Sweep originates suspects
		}
		v := New(cfg, &stubHost{rng: sim.NewRand(seed)})
		entries := func() []wire.MemberEvent {
			evs := make([]wire.MemberEvent, 1+rng.Intn(6))
			for i := range evs {
				evs[i] = wire.MemberEvent{
					Peer: ids[rng.Intn(len(ids))],
					Seq:  uint64(rng.Intn(6)),
					Kind: wire.MemberEventKind(rng.Intn(5)), // includes invalid kinds
				}
			}
			return evs
		}
		var now time.Duration
		for step := 0; step < 600; step++ {
			now += time.Duration(rng.Intn(1500)) * time.Millisecond
			peer := ids[rng.Intn(len(ids))]
			switch rng.Intn(8) {
			case 0, 1:
				v.Observe(peer, uint64(rng.Intn(8)), now)
			case 2:
				v.Handle(peer, &wire.MemberEvents{Events: entries()}, now)
			case 3:
				v.Handle(peer, &wire.ShuffleRequest{Entries: entries()}, now)
			case 4:
				v.Handle(peer, &wire.ShuffleResponse{Entries: entries()}, now)
			case 5:
				v.Sweep(now)
			case 6:
				v.ShuffleTick(now)
				if v.TakeAccusation() {
					v.QueueSelfAlive(uint64(step))
				}
			case 7:
				v.PiggybackOnto(peer)
			}
			if err := v.checkLayout(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			s := v.Stats()
			if s.Known != s.Live+s.Suspects+s.Dead || s.Queued != v.QueuedRumors() {
				t.Fatalf("seed %d step %d: inconsistent stats %+v", seed, step, s)
			}
			if got, want := v.LiveCount(now), len(v.Live(now)); got != want {
				t.Fatalf("seed %d step %d: LiveCount = %d, len(Live) = %d", seed, step, got, want)
			}
		}
		if s := v.Stats(); s.Dead == 0 || s.EventsQueued < 100 {
			t.Fatalf("seed %d: the sequence never exercised deaths or the queue: %+v", seed, s)
		}
	}
}

func TestLiveCountLegacy(t *testing.T) {
	v := legacyView(5, sec(3))
	for i, p := range []wire.NodeID{9, 2, 7} {
		v.Observe(p, 1, sec(i))
	}
	for _, now := range []time.Duration{sec(0), sec(2), sec(4), sec(9)} {
		if got, want := v.LiveCount(now), len(v.Live(now)); got != want {
			t.Fatalf("at %v: LiveCount = %d, len(Live) = %d", now, got, want)
		}
	}
}

// TestSearchMatchesSortSearch checks search against the standard library on
// id sets interpolation is bad at — sparse, clustered, spanning the whole
// id space — for every member, every gap and both ends.
func TestSearchMatchesSortSearch(t *testing.T) {
	rng := sim.NewRand(3)
	sets := [][]wire.NodeID{
		{},
		{42},
		{0, math.MaxUint32},
		{0, 1, 2, 3, math.MaxUint32 - 1, math.MaxUint32},
	}
	for n := 2; n <= 300; n += 17 {
		uniform := make([]wire.NodeID, n)
		clustered := make([]wire.NodeID, n)
		for i := range uniform {
			uniform[i] = wire.NodeID(rng.Intn(1 << 16))
			clustered[i] = wire.NodeID(rng.Intn(64)) // most ids piled at the bottom...
		}
		clustered[0] = math.MaxUint32 - 7 // ...one at the far end of the span
		sets = append(sets, uniform, clustered)
	}
	quadratic := make([]wire.NodeID, 2000) // every interpolated guess overshoots
	for i := range quadratic {
		quadratic[i] = wire.NodeID(i * i)
	}
	sets = append(sets, quadratic)
	for _, ids := range sets {
		v := legacyView(math.MaxUint32-3, sec(1))
		for _, id := range ids {
			v.Observe(id, 1, 0)
		}
		if err := v.checkLayout(); err != nil {
			t.Fatal(err)
		}
		m := v.members
		probe := func(peer wire.NodeID) {
			want := sort.Search(len(m), func(i int) bool { return m[i].id >= peer })
			wantFound := want < len(m) && m[want].id == peer
			if got, found := v.search(peer); got != want || found != wantFound {
				t.Fatalf("search(%d) over %d members = %d,%v, want %d,%v", peer, len(m), got, found, want, wantFound)
			}
			// Any hint is only ever a shortcut to the same answer.
			for _, hint := range []int{0, want, want + 1, len(m)} {
				if got, found := v.locate(peer, hint); got != want || found != wantFound {
					t.Fatalf("locate(%d, hint %d) = %d,%v, want %d,%v", peer, hint, got, found, want, wantFound)
				}
			}
		}
		probe(0)
		probe(math.MaxUint32)
		for _, mem := range m {
			probe(mem.id)
			probe(mem.id - 1)
			probe(mem.id + 1)
		}
	}
}

// TestRumorQueueMatchesSliceModel runs the ring deque against the plain
// slice it replaced, through every operation the view uses, and insists the
// run covered the cases a ring gets wrong: growth while wrapped, removal in
// either half of a wrapped ring, and reuse after draining.
func TestRumorQueueMatchesSliceModel(t *testing.T) {
	rng := sim.NewRand(11)
	var q rumorQueue
	var model []rumor
	var next uint64
	fresh := func() rumor {
		next++
		return rumor{seq: next, peer: wire.NodeID(next), kind: wire.EventAlive, budget: 1}
	}
	var grewWrapped, removedFirst, removedSecond, reused int
	for step := 0; step < 40000; step++ {
		if step%2000 == 0 {
			q, model = rumorQueue{}, nil // grow from nothing again, at other offsets
		}
		_, second := q.halves()
		wrapped := len(second) > 0
		op := rng.Intn(7)
		if len(model) == 0 {
			op = 0
		}
		switch op {
		case 0, 1:
			if wrapped && q.n == len(q.buf) {
				grewWrapped++
			}
			if len(model) == 0 && len(q.buf) > 0 {
				reused++
			}
			r := fresh()
			q.pushBack(r)
			model = append(model, r)
		case 2:
			r := fresh()
			q.pushFront(r)
			model = append([]rumor{r}, model...)
		case 3:
			if got, want := q.popBack(), model[len(model)-1]; got != want {
				t.Fatalf("step %d: popBack = %+v, want %+v", step, got, want)
			}
			model = model[:len(model)-1]
		case 4:
			if got, want := q.popFront(), model[0]; got != want {
				t.Fatalf("step %d: popFront = %+v, want %+v", step, got, want)
			}
			model = model[1:]
		case 5:
			i := rng.Intn(len(model))
			first, _ := q.halves()
			if wrapped && i < len(first) {
				removedFirst++
			} else if wrapped {
				removedSecond++
			}
			q.removeAt(i)
			model = append(model[:i:i], model[i+1:]...)
		case 6:
			want := rng.Intn(len(model))
			if got := q.index(model[want].peer, model[want].kind); got != want {
				t.Fatalf("step %d: index = %d, want %d", step, got, want)
			}
			if got := q.index(0, wire.EventDead); got != -1 {
				t.Fatalf("step %d: index of an absent rumor = %d", step, got)
			}
		}
		if q.len() != len(model) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(model))
		}
		for i := range model {
			if *q.at(i) != model[i] {
				t.Fatalf("step %d: at(%d) = %+v, want %+v", step, i, *q.at(i), model[i])
			}
		}
		first, second := q.halves()
		if len(first)+len(second) != len(model) {
			t.Fatalf("step %d: halves hold %d+%d rumors, want %d", step, len(first), len(second), len(model))
		}
	}
	if grewWrapped == 0 || removedFirst == 0 || removedSecond == 0 || reused == 0 {
		t.Fatalf("coverage: grew while wrapped %d, removed in first half %d, in second half %d, reused after empty %d",
			grewWrapped, removedFirst, removedSecond, reused)
	}
}

// TestPiggybackParksSurvivorsInOrder pins the queue discipline on a queue
// one can read: a digest takes the newest rumors, the survivors go to the
// head in their order, the untouched rumors keep theirs behind them.
func TestPiggybackParksSurvivorsInOrder(t *testing.T) {
	host := &stubHost{rng: sim.NewRand(1)}
	v := New(Config{Self: 0, Expiration: sec(3), PiggybackMax: 3, PiggybackBudget: 2}, host)
	for p := wire.NodeID(1); p <= 5; p++ {
		v.Observe(p, 1, 0) // queue, oldest first: 1 2 3 4 5
	}
	want := [][]wire.NodeID{
		{3, 4, 5}, // -> 3 4 5 | 1 2
		{5, 1, 2}, // 5 is spent -> 1 2 | 3 4
		{2, 3, 4}, // all spent -> 1
		{1},
	}
	for round, peers := range want {
		v.PiggybackOnto(9)
		if len(host.msgs) != round+1 {
			t.Fatalf("round %d: no digest sent", round)
		}
		events := host.msgs[round].(*wire.MemberEvents).Events
		var got []wire.NodeID
		for _, e := range events {
			got = append(got, e.Peer)
		}
		if fmt.Sprint(got) != fmt.Sprint(peers) {
			t.Fatalf("round %d: digest carries %v, want %v", round, got, peers)
		}
		if err := v.checkLayout(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if v.PiggybackOnto(9); len(host.msgs) != len(want) || v.QueuedRumors() != 0 {
		t.Fatalf("queue not drained: %d digests, %d queued", len(host.msgs), v.QueuedRumors())
	}
}

func TestOverflowEvictsHeadAndClearsItsMask(t *testing.T) {
	v := New(Config{Self: 0, Expiration: sec(3), PiggybackMax: 2, QueueCap: 3}, &stubHost{rng: sim.NewRand(1)})
	for p := wire.NodeID(1); p <= 4; p++ {
		v.Observe(p, 1, 0) // the fourth join evicts the rumor about peer 1
	}
	if err := v.checkLayout(); err != nil {
		t.Fatal(err)
	}
	if v.rumors.index(1, wire.EventAlive) >= 0 || v.QueuedRumors() != 3 {
		t.Fatalf("head not evicted: %d queued", v.QueuedRumors())
	}
	// Peer 1's mask was cleared with the eviction, so fresher news about it
	// queues again instead of being absorbed by a rumor that is gone.
	v.suspectForTest(1, sec(1))
	if v.rumors.index(1, wire.EventSuspect) < 0 {
		t.Fatal("rumor about an evicted peer was not queued")
	}
	if err := v.checkLayout(); err != nil {
		t.Fatal(err)
	}
}

func TestPiggybackBudgetClamped(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 4}, {7, 7}, {-3, 1}, {math.MaxUint16, math.MaxUint16}, {math.MaxUint16 + 1, math.MaxUint16}, {1 << 40, math.MaxUint16},
	} {
		cfg := Config{PiggybackMax: 8, PiggybackBudget: tc.in}.withDefaults()
		if cfg.PiggybackBudget != tc.want {
			t.Errorf("PiggybackBudget %d defaulted to %d, want %d", tc.in, cfg.PiggybackBudget, tc.want)
		}
	}
	// A clamped budget fits the rumor's counter: the rumor ships 65535
	// times, not 65536 mod 2^16 = 0.
	host := &stubHost{rng: sim.NewRand(1)}
	v := New(Config{Self: 0, Expiration: sec(3), PiggybackMax: 8, PiggybackBudget: math.MaxUint16 + 1}, host)
	v.Observe(1, 1, 0)
	if got := v.rumors.at(0).budget; got != math.MaxUint16 {
		t.Fatalf("queued budget = %d, want %d", got, math.MaxUint16)
	}
	// Legacy configurations keep a zero budget: nothing reads it.
	if got := (Config{}).withDefaults().PiggybackBudget; got != 0 {
		t.Fatalf("legacy PiggybackBudget defaulted to %d", got)
	}
}

// TestHotPathsAllocateNothing: a shuffle payload that carries no news — the
// steady state of a converged organization — and a send with nothing queued
// must not touch the heap.
func TestHotPathsAllocateNothing(t *testing.T) {
	host := &stubHost{rng: sim.NewRand(1)}
	v := New(Config{
		Self: 0, Expiration: sec(5), SuspectTimeout: sec(10),
		PiggybackMax: 32, PiggybackBudget: 4, ShuffleInterval: sec(2), ShuffleSample: 256,
	}, host)
	resp := &wire.ShuffleResponse{Entries: make([]wire.MemberEvent, 0, 256)}
	resp.Entries = append(resp.Entries, wire.MemberEvent{Peer: 1, Seq: 1, Kind: wire.EventAlive})
	for p := wire.NodeID(1); p <= 300; p++ {
		v.Observe(p, 1, 0)
		if p > 40 && len(resp.Entries) < 256 {
			resp.Entries = append(resp.Entries, wire.MemberEvent{Peer: p, Seq: 1, Kind: wire.EventAlive})
		}
	}
	for v.QueuedRumors() > 0 {
		v.PiggybackOnto(1)
	}
	applied := v.Stats().EventsApplied
	if n := testing.AllocsPerRun(100, func() { v.Handle(1, resp, sec(1)) }); n != 0 {
		t.Errorf("Handle of a no-news 256-entry ShuffleResponse allocates %v times", n)
	}
	if got := v.Stats().EventsApplied; got != applied {
		t.Fatalf("the payload was news: %d entries applied", got-applied)
	}
	if n := testing.AllocsPerRun(100, func() { v.PiggybackOnto(1) }); n != 0 {
		t.Errorf("PiggybackOnto on an empty queue allocates %v times", n)
	}
}

// TestShuffleRequestAcksMergesAnswersInOrder: a shuffle request acks the
// outstanding probe, merges, and cuts the answering sample after the merge —
// one critical section — then fires the transition hook with the lock
// released, and only then sends the response.
func TestShuffleRequestAcksMergesAnswersInOrder(t *testing.T) {
	var order []string
	host := &orderHost{rng: sim.NewRand(1), order: &order}
	v := swimViewHost(0, host)
	v.Observe(1, 1, 0)
	v.ShuffleTick(sec(2)) // probes peer 1
	order = order[:0]
	v.OnTransition(func(p wire.NodeID, alive bool) {
		if !v.mu.TryLock() {
			t.Error("transition hook fired under the view lock")
		} else {
			v.mu.Unlock()
		}
		order = append(order, "transition:"+p.String())
	})
	req := &wire.ShuffleRequest{Entries: []wire.MemberEvent{
		{Peer: 1, Seq: 1, Kind: wire.EventAlive},
		{Peer: 7, Seq: 3, Kind: wire.EventAlive}, // news: peer 7 joins
	}}
	if !v.Handle(1, req, sec(3)) {
		t.Fatal("request not handled")
	}
	if fmt.Sprint(order) != "[transition:n7 send:n1]" {
		t.Fatalf("order = %v, want the transition, then the response", order)
	}
	resp := host.last.(*wire.ShuffleResponse)
	if len(resp.Entries) != 3 || resp.Entries[2].Peer != 7 {
		t.Fatalf("response sample %+v was not cut after the merge", resp.Entries)
	}
	v.ShuffleTick(sec(4))
	if s := v.Stats(); s.Suspects != 0 {
		t.Fatalf("the target's request did not ack the probe: %+v", s)
	}
}

type orderHost struct {
	rng   *sim.Rand
	order *[]string
	last  wire.Message
}

func (h *orderHost) Send(to wire.NodeID, msg wire.Message) {
	*h.order = append(*h.order, "send:"+to.String())
	h.last = msg
}

func (h *orderHost) Rand() *sim.Rand { return h.rng }

// lockedHost is a Host safe for concurrent use, as the TCP runtime's is.
type lockedHost struct {
	mu   sync.Mutex
	rng  *sim.Rand
	sent int
}

func (h *lockedHost) Send(wire.NodeID, wire.Message) {
	h.mu.Lock()
	h.sent++
	h.mu.Unlock()
}

// Rand hands out the stream under no lock: the view draws from it inside
// its own critical section, which is what serializes the draws.
func (h *lockedHost) Rand() *sim.Rand { return h.rng }

// TestConcurrentUse runs every exported entry point from several goroutines
// at once, as the TCP runtime does; under -race it checks that the storage
// is only ever touched under the view's lock.
func TestConcurrentUse(t *testing.T) {
	host := &lockedHost{rng: sim.NewRand(1)}
	v := New(Config{
		Self: 0, Expiration: sec(3), SuspectTimeout: sec(4),
		PiggybackMax: 4, PiggybackBudget: 2, QueueCap: 16,
		ShuffleInterval: sec(2), ShuffleSample: 8,
	}, host)
	v.OnTransition(func(wire.NodeID, bool) {})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.NewRand(int64(g))
			for step := 0; step < 2000; step++ {
				now := time.Duration(step) * 10 * time.Millisecond
				peer := wire.NodeID(1 + rng.Intn(40))
				switch rng.Intn(8) {
				case 0:
					v.Observe(peer, uint64(step), now)
				case 1:
					v.Handle(peer, &wire.MemberEvents{Events: []wire.MemberEvent{
						{Peer: wire.NodeID(rng.Intn(40)), Seq: uint64(step), Kind: wire.MemberEventKind(1 + rng.Intn(3))},
					}}, now)
				case 2:
					v.Handle(peer, &wire.ShuffleRequest{Entries: []wire.MemberEvent{
						{Peer: peer, Seq: uint64(step), Kind: wire.EventAlive},
					}}, now)
				case 3:
					v.Sweep(now)
					v.NoteSelfSeq(uint64(step))
				case 4:
					v.ShuffleTick(now)
				case 5:
					v.PiggybackOnto(peer)
				case 6:
					if v.TakeAccusation() {
						v.QueueSelfAlive(uint64(step))
					}
				case 7:
					_ = v.LiveCount(now) + len(v.Live(now)) + v.Stats().Known + v.QueuedRumors()
					_ = v.Alive(peer, now) || v.Dead(peer, now) || v.IsLeader(now)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := v.checkLayout(); err != nil {
		t.Fatal(err)
	}
}
