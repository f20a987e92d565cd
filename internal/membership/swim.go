package membership

import (
	"slices"
	"time"

	"fabricgossip/internal/wire"
)

// This file holds the SWIM-style extensions: the budgeted rumor queue
// behind piggybacked dissemination, the event-application state machine
// (with incarnation-ordered conflict resolution and self-refutation), and
// the periodic view shuffle. None of it runs — and none of it sends or
// draws randomness — unless the corresponding Config knobs are set.

// rumor is one queued membership event with its remaining retransmit
// budget: 16 bytes.
type rumor struct {
	seq    uint64
	peer   wire.NodeID
	kind   wire.MemberEventKind
	budget uint16
}

func (r rumor) event() wire.MemberEvent {
	return wire.MemberEvent{Seq: r.seq, Peer: r.peer, Kind: r.kind}
}

// kindBit is kind's bit in member.queued. Only the three known kinds are
// ever queued (applyOne ignores the rest), so eight bits are plenty.
func kindBit(kind wire.MemberEventKind) uint8 { return 1 << (kind & 7) }

// rumorQueue is the budgeted piggyback rumors as a ring deque: the oldest —
// most retransmitted — at the head, the freshest at the tail. Both ends push
// and pop in O(1); a full ring grows the way append does and keeps its size.
type rumorQueue struct {
	buf  []rumor
	head int // buf index of the rumor at position 0
	n    int
}

func (q *rumorQueue) len() int { return q.n }

// slot returns the buf index of position i, 0 <= i <= len(buf).
func (q *rumorQueue) slot(i int) int {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// at returns the rumor at position i, 0 <= i < len.
func (q *rumorQueue) at(i int) *rumor { return &q.buf[q.slot(i)] }

// halves returns the queue's contents, in order, as the ring's two
// contiguous runs (the second empty unless the contents wrap).
func (q *rumorQueue) halves() (first, second []rumor) {
	end := q.head + q.n
	if end <= len(q.buf) {
		return q.buf[q.head:end], nil
	}
	return q.buf[q.head:], q.buf[:end-len(q.buf)]
}

// grow doubles a small ring and adds a quarter to a large one, taking
// whatever the allocator's size class rounds that up to: a queue's peak is
// most of what a view weighs, so rounding it to a power of two is not free.
func (q *rumorQueue) grow() {
	size := max(8, 2*len(q.buf))
	if len(q.buf) >= 256 {
		size = len(q.buf) + len(q.buf)/4
	}
	buf := slices.Grow([]rumor(nil), size)
	buf = buf[:cap(buf)]
	first, second := q.halves()
	copy(buf[copy(buf, first):], second)
	q.buf, q.head = buf, 0
}

func (q *rumorQueue) pushBack(r rumor) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.slot(q.n)] = r
	q.n++
}

func (q *rumorQueue) pushFront(r rumor) {
	if q.n == len(q.buf) {
		q.grow()
	}
	if q.head == 0 {
		q.head = len(q.buf)
	}
	q.head--
	q.buf[q.head] = r
	q.n++
}

func (q *rumorQueue) popBack() rumor {
	q.n--
	return q.buf[q.slot(q.n)]
}

func (q *rumorQueue) popFront() rumor {
	r := q.buf[q.head]
	q.head = q.slot(1)
	q.n--
	return r
}

// index returns the position of the rumor about (peer, kind), or -1. It
// scans the two halves as plain slices: a duplicate-heavy digest runs this
// once per entry.
func (q *rumorQueue) index(peer wire.NodeID, kind wire.MemberEventKind) int {
	first, second := q.halves()
	for i := range first {
		if first[i].peer == peer && first[i].kind == kind {
			return i
		}
	}
	for i := range second {
		if second[i].peer == peer && second[i].kind == kind {
			return len(first) + i
		}
	}
	return -1
}

// removeAt deletes the rumor at position i, keeping the others in order.
func (q *rumorQueue) removeAt(i int) {
	first, second := q.halves()
	if i < len(first) {
		copy(first[i:], first[i+1:])
		if len(second) > 0 {
			first[len(first)-1] = second[0]
			copy(second, second[1:])
		}
	} else {
		i -= len(first)
		copy(second[i:], second[i+1:])
	}
	q.n--
}

// queuedOf returns the queued mask for rumors about peer, which is self or
// tracked: rumors are only ever queued about members, and members are never
// forgotten. Caller holds mu.
func (v *View) queuedOf(peer wire.NodeID) *uint8 {
	if peer == v.cfg.Self {
		return &v.selfQueued
	}
	i, _ := v.search(peer)
	return &v.members[i].queued
}

// queueRumor enqueues ev for piggybacked retransmission; queued is the mask
// of ev.Peer (its member record's, or selfQueued). A rumor for the same peer
// and kind already queued — the mask says so without looking — is superseded
// when ev is fresher (budget reset: new information restarts its epidemic);
// an equal or fresher queued rumor absorbs ev. The queue is bounded by
// QueueCap; the head — where the most-retransmitted rumors age (see
// PiggybackOnto) — is dropped on overflow, so pressure sheds the rumors that
// already had their airtime, never the fresh ones. Caller holds mu.
func (v *View) queueRumor(queued *uint8, ev wire.MemberEvent) {
	if v.cfg.PiggybackMax <= 0 {
		return
	}
	fresh := rumor{seq: ev.Seq, peer: ev.Peer, kind: ev.Kind, budget: uint16(v.cfg.PiggybackBudget)}
	if *queued&kindBit(ev.Kind) != 0 {
		if i := v.rumors.index(ev.Peer, ev.Kind); ev.Seq > v.rumors.at(i).seq {
			// Fresher information makes this rumor news again: a full
			// budget, and a move to the tail — the next-to-ship end —
			// rather than an in-place refresh at whatever aged position
			// the old copy occupied (where, under saturation, it would
			// never be selected and would be first in line for eviction).
			v.rumors.removeAt(i)
			v.rumors.pushBack(fresh)
		}
		return
	}
	if v.rumors.len() >= v.cfg.QueueCap {
		old := v.rumors.popFront()
		*v.queuedOf(old.peer) &^= kindBit(old.kind)
	}
	v.rumors.pushBack(fresh)
	*queued |= kindBit(ev.Kind)
	v.eventsQueued++
}

// PiggybackOnto sends a bounded digest of queued rumors to the destination
// of an ordinary outgoing gossip message (gossip.Core calls it from its
// send path). With an empty queue — the steady state of a stable
// organization — it is a lock plus a length check: no message, no
// allocation.
//
// Selection is newest-first (SWIM's least-retransmitted-first): each digest
// takes the queue's tail, where fresh rumors land, charges one transmission
// from each budget, drops exhausted rumors, and parks the survivors, in
// their order, at the head — behind them the untouched rumors keep theirs,
// so the next send's tail holds different (or newer) rumors. A refutation
// queued during a churn burst therefore ships on the very next message
// instead of waiting behind a backlog of aged rumors — under saturation it
// is the stale end of the queue that decays. The cost is the digest's size,
// whatever the backlog.
func (v *View) PiggybackOnto(to wire.NodeID) {
	if v.cfg.PiggybackMax <= 0 {
		return
	}
	v.mu.Lock()
	k := min(v.cfg.PiggybackMax, v.rumors.len())
	if k == 0 {
		v.mu.Unlock()
		return
	}
	// The events slice is retained by the in-flight message (the simulated
	// transport shares message values by reference), so it cannot be a
	// reusable buffer; rumors are churn-proportional, so this allocation
	// never appears at steady state.
	events := make([]wire.MemberEvent, k)
	// Newest first, so that pushing each survivor at the head as it is met
	// leaves the survivors in queue order. A pushed survivor is never popped
	// again: it sits in front of the k rumors this loop takes from the back.
	for j := k - 1; j >= 0; j-- {
		r := v.rumors.popBack()
		events[j] = r.event()
		if r.budget--; r.budget > 0 {
			v.rumors.pushFront(r)
		} else {
			*v.queuedOf(r.peer) &^= kindBit(r.kind)
		}
	}
	v.eventsSent += uint64(k)
	v.mu.Unlock()
	v.host.Send(to, &wire.MemberEvents{Events: events})
}

// QueuedRumors returns the current rumor-queue length.
func (v *View) QueuedRumors() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rumors.len()
}

// IsPayload reports whether the message type belongs to the membership
// plane (the types View.Handle claims).
func IsPayload(t wire.MsgType) bool {
	switch t {
	case wire.TypeMemberEvents, wire.TypeShuffleRequest, wire.TypeShuffleResponse:
		return true
	}
	return false
}

// Handle processes a membership payload, reporting whether the message type
// belonged to this subsystem. Transitions caused by applied events fire the
// OnTransition hook (outside the lock), and accusations against self latch
// for TakeAccusation.
//
// A view with every SWIM knob off claims the payload types but drops their
// content: a legacy peer in a mixed organization must not let a received
// suspicion push a peer into a state machine whose timeouts it never
// configured (a zero SuspectTimeout would turn it into an instant death
// contradicting the time-based predicates).
func (v *View) Handle(from wire.NodeID, msg wire.Message, now time.Duration) bool {
	if !v.cfg.Swim() {
		return IsPayload(msg.Type())
	}
	switch m := msg.(type) {
	case *wire.MemberEvents:
		v.apply(from, m.Events, now, true, false)
	case *wire.ShuffleRequest:
		if sample := v.apply(from, m.Entries, now, false, v.host != nil); sample != nil {
			v.host.Send(from, &wire.ShuffleResponse{Entries: sample})
		}
	case *wire.ShuffleResponse:
		v.apply(from, m.Entries, now, false, false)
	default:
		return false
	}
	return true
}

// TakeAccusation consumes the latched self-accusation flag. The core
// answers a true return with an incarnation bump plus an immediate
// refutation heartbeat (SWIM's alive-with-higher-incarnation).
func (v *View) TakeAccusation() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	accused := v.selfAccused
	v.selfAccused = false
	if accused {
		v.refutations++
	}
	return accused
}

// QueueSelfAlive queues a refutation rumor advertising self at the given
// (freshly bumped) sequence.
func (v *View) QueueSelfAlive(seq uint64) {
	v.mu.Lock()
	if seq > v.selfSeq {
		v.selfSeq = seq
	}
	v.queueRumor(&v.selfQueued, wire.MemberEvent{Peer: v.cfg.Self, Seq: seq, Kind: wire.EventAlive})
	v.mu.Unlock()
}

// apply merges a payload from peer from — a batch of remote membership
// events, in order — into the view, in one critical section. Conflicts
// resolve by SWIM's incarnation rule on the heartbeat sequence: alive at seq
// s beats suspect/dead at s' < s; suspect at s >= s' overrides alive at s';
// dead at s >= s' overrides both and only a strictly fresher alive (a
// restarted incarnation) reverses it. News — any entry that changed local
// state — re-enters the rumor queue, which is what makes the spread
// epidemic; known or stale entries are absorbed silently, which is what
// makes it terminate.
//
// relay marks events that arrived as piggybacked rumors: those also
// re-enter the queue on a pure sequence refresh (no state change), so a
// refutation keeps spreading through nodes that never doubted the peer —
// without it the rumor dies exactly where the view is healthy, and the
// few views that did declare the peer dead may never see the fresher
// sequence that would revive them. Shuffle samples stay quiet on refresh:
// they carry every entry every few rounds, so relaying them would flood
// the queue with non-news.
//
// respond asks for the answering shuffle sample, cut after the merge.
// Transitions fire once the lock is released, before apply returns.
func (v *View) apply(from wire.NodeID, events []wire.MemberEvent, now time.Duration, relay, respond bool) (sample []wire.MemberEvent) {
	var fired []transition
	v.mu.Lock()
	if v.probePending && from == v.probeTarget {
		// Any payload from the probe's target is direct evidence that it
		// lives — the probe's ack, its own probe of us, or a piggybacked
		// digest: the target is talking, so the outstanding probe must not
		// turn a dropped response into a false suspicion.
		v.probePending = false
	}
	hint := 0
	for _, e := range events {
		if e.Peer == v.cfg.Self {
			// Only explicit suspicions and death declarations are
			// accusations; unknown forward-compatibility kinds must stay
			// ignored (wire.MemberEventKind's contract), not trigger
			// incarnation bumps and refutation floods.
			accusing := e.Kind == wire.EventSuspect || e.Kind == wire.EventDead
			if accusing && e.Seq >= v.selfSeq {
				v.selfAccused = true
			}
			continue
		}
		i, tracked := v.locate(e.Peer, hint)
		hint = i + 1
		if t, changed := v.applyOne(i, tracked, e, now, relay); changed {
			v.eventsApplied++
			if t.fire {
				fired = append(fired, t)
			}
		}
	}
	if respond {
		sample = v.sampleLocked()
	}
	fn := v.onTransition
	v.mu.Unlock()
	if fn != nil {
		for _, t := range fired {
			fn(t.peer, t.alive)
		}
	}
	return sample
}

// transition is one live/dead flip produced by applyOne, fired after the
// lock is released.
type transition struct {
	peer  wire.NodeID
	alive bool
	fire  bool
}

// applyOne merges one event about e.Peer, whose record is members[i] if
// tracked and belongs at i if not (search's answer). Caller holds mu.
// Returns the transition to fire (if any) and whether local state changed.
func (v *View) applyOne(i int, tracked bool, e wire.MemberEvent, now time.Duration, relay bool) (transition, bool) {
	p := e.Peer
	if !tracked {
		var st status
		switch e.Kind {
		case wire.EventAlive:
			st = statusLive
		case wire.EventSuspect:
			// Learning of a peer through its suspicion still grows the
			// view: the peer is a member, just one somebody could not
			// reach. It enters as a suspect (counted alive) and can be
			// refuted like any other.
			st = statusSuspect
		case wire.EventDead:
			// Record the death so a stale alive rumor cannot later insert
			// the peer as live, but fire no transition: the peer was never
			// in this view.
			st = statusDead
		default:
			return transition{}, false // unknown kind: forward-compatibility, ignore
		}
		v.track(i, member{id: p, seq: e.Seq, since: now, status: st})
		v.queueRumor(&v.members[i].queued, e)
		return transition{peer: p, alive: true, fire: st != statusDead}, true
	}
	m := &v.members[i]
	switch e.Kind {
	case wire.EventAlive:
		if e.Seq <= m.seq {
			return transition{}, false
		}
		m.seq, m.since = e.Seq, now
		switch m.status {
		case statusLive:
			// A pure freshness refresh: relay it only if it arrived as a
			// rumor (rumors exist because somebody's state changed — a
			// refutation must reach the views that believed the claim,
			// through the many views that never did).
			if relay {
				v.queueRumor(&m.queued, e)
			}
			return transition{}, true
		case statusSuspect:
			v.setStatus(m, statusLive)
			v.queueRumor(&m.queued, e) // a refutation others may still need
			return transition{}, true
		default: // statusDead: a restarted incarnation rejoined
			v.setStatus(m, statusLive)
			v.queueRumor(&m.queued, e)
			return transition{peer: p, alive: true, fire: true}, true
		}
	case wire.EventSuspect, wire.EventDead:
		if e.Seq < m.seq {
			// We hold fresher alive evidence: refute on the peer's behalf.
			if m.status == statusLive {
				v.queueRumor(&m.queued, wire.MemberEvent{Peer: p, Seq: m.seq, Kind: wire.EventAlive})
			}
			return transition{}, false
		}
		if e.Kind == wire.EventDead {
			if m.status == statusDead {
				return transition{}, false
			}
			m.seq = e.Seq
			v.setStatus(m, statusDead)
			v.queueRumor(&m.queued, e)
			return transition{peer: p, alive: false, fire: true}, true
		}
		switch m.status {
		case statusLive:
			m.seq, m.since = e.Seq, now
			v.setStatus(m, statusSuspect)
			v.queueRumor(&m.queued, e)
			return transition{}, true
		case statusSuspect:
			if e.Seq > m.seq {
				m.seq = e.Seq
				return transition{}, true
			}
		}
		// A known suspicion, or statusDead: final at this incarnation.
		return transition{}, false
	}
	return transition{}, false // unknown kind: forward-compatibility, ignore
}

// sampleLocked builds one shuffle payload: self at its current incarnation,
// followed by up to ShuffleSample-1 view entries selected by rotating a
// cursor through the sorted members — consecutive shuffles systematically
// cover the whole view, and the receiver resolves consecutive entries
// without searching (locate). Dead entries are included (spreading declared
// deaths is as important as spreading liveness). Caller holds mu.
func (v *View) sampleLocked() []wire.MemberEvent {
	k := min(v.cfg.ShuffleSample-1, len(v.members))
	out := make([]wire.MemberEvent, 0, k+1)
	out = append(out, wire.MemberEvent{Peer: v.cfg.Self, Seq: v.selfSeq, Kind: wire.EventAlive})
	for ; k > 0; k-- {
		m := &v.members[v.shufCursor]
		if v.shufCursor++; v.shufCursor == len(v.members) {
			v.shufCursor = 0
		}
		ev := wire.MemberEvent{Peer: m.id, Seq: m.seq, Kind: wire.EventAlive}
		switch m.status {
		case statusSuspect:
			ev.Kind = wire.EventSuspect
		case statusDead:
			ev.Kind = wire.EventDead
		}
		out = append(out, ev)
	}
	return out
}

// ShuffleTick runs one view-shuffle round: it picks one uniformly random
// peer currently believed alive and sends it a sample of the local view;
// the peer merges it and answers with its own. An empty view — the cold
// start before any heartbeat arrived — skips the round without touching
// the random stream, so the draw sequence depends only on how many rounds
// found a target.
//
// The exchange doubles as SWIM's failure-detector probe: the previous
// round's target drew a request, and if neither its response nor any other
// direct evidence arrived by now, the target becomes a suspect and its
// suspicion is gossiped — the peer can still refute by bumping its
// incarnation before SuspectTimeout declares it dead. One probe per node
// per round spreads the detection duty evenly: every peer is probed about
// once a round by the aggregate, no matter how large the organization.
func (v *View) ShuffleTick(now time.Duration) {
	if v.cfg.ShuffleInterval <= 0 || v.host == nil {
		return
	}
	v.mu.Lock()
	if v.probePending {
		v.probePending = false
		if i, tracked := v.search(v.probeTarget); tracked && v.members[i].status == statusLive {
			m := &v.members[i]
			m.since = now
			v.setStatus(m, statusSuspect)
			v.queueRumor(&m.queued, wire.MemberEvent{Peer: m.id, Seq: m.seq, Kind: wire.EventSuspect})
		}
	}
	alive := v.aliveCountLocked(now)
	if alive == 0 {
		v.mu.Unlock()
		return
	}
	// The rank-th alive member is members[rank] itself while nobody is dead.
	rank := v.host.Rand().Intn(alive)
	pos := rank
	if alive < len(v.members) {
		for pos = 0; ; pos++ {
			if !v.aliveLocked(&v.members[pos], now) {
				continue
			}
			if rank == 0 {
				break
			}
			rank--
		}
	}
	target := v.members[pos].id
	v.probeTarget = target
	v.probePending = true
	req := &wire.ShuffleRequest{Entries: v.sampleLocked()}
	v.mu.Unlock()
	v.host.Send(target, req)
}
