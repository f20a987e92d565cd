// Package membership is the gossip layer's membership plane, carved out of
// the core so both dissemination protocols share one engine (paper §III-A:
// "peers use gossip to build and maintain a local view of other peers in
// the network"). A View tracks which peers of the organization are believed
// alive from the periodic Alive heartbeats, determines the organization's
// dynamic-election leader (the lowest-id live peer), and — when the
// SWIM-style extensions are enabled — keeps that view dense even at
// thousand-peer scale, where fixed heartbeat fan-out alone yields only a
// sparse sample:
//
//   - Piggybacked dissemination: membership events (joins, suspicions,
//     deaths, refutations) are queued as budgeted rumors and ride on the
//     destinations of ordinary gossip traffic as bounded wire.MemberEvents
//     digests, so membership knowledge spreads epidemically with constant
//     per-message overhead instead of only via direct heartbeats.
//   - Suspicion: a peer whose heartbeats lapse enters a suspect state that
//     any fresher alive evidence (a heartbeat, a piggybacked refutation, a
//     shuffle entry) clears before the peer is declared dead — killing the
//     false-dead flapping that per-pair heartbeat freshness produces under
//     WAN delay and loss. The heartbeat sequence doubles as SWIM's
//     incarnation number; a peer that learns it is being suspected bumps it
//     and floods a refutation.
//   - View shuffling: a periodic pairwise exchange of view samples
//     (wire.ShuffleRequest/ShuffleResponse) that systematically refreshes
//     every entry, so isolated corners of a large organization converge.
//
// The View talks to its peer through the narrow Host interface — message
// sending and the deterministic random stream — so it runs identically
// under gossip.Core on the simulated and TCP runtimes, and unit tests can
// drive it with a stub host. With the extensions disabled (the default
// configuration) the View reproduces the legacy heartbeat-expiration
// behavior: no extra messages, no extra random draws, identical transition
// timing. The one deliberate legacy-mode change is the Dead predicate,
// which now agrees with Alive at every instant instead of lagging until
// the next sweep (see Dead); the catalog's golden fingerprints confirm no
// observable drift from it.
package membership

import (
	"math"
	"sync"
	"time"

	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// Host is the narrow view of a peer the membership engine needs.
// gossip.Core implements it; all methods must be safe to call without
// external locking.
type Host interface {
	// Send transmits a membership payload to a peer (loss-tolerant).
	// Implementations must hand the message straight to the transport —
	// not through a piggybacking send path — or every shuffle and digest
	// would recursively piggyback onto itself.
	Send(to wire.NodeID, msg wire.Message)
	// Rand returns the peer's deterministic random stream (shuffle target
	// draws). Never called unless shuffling is enabled, so legacy
	// configurations consume the stream exactly as before.
	Rand() *sim.Rand
}

// Config parameterizes one peer's membership view. The zero values of the
// SWIM knobs reproduce the legacy heartbeat-expiration behavior exactly.
type Config struct {
	// Self is this peer's node id; it is always considered alive.
	Self wire.NodeID
	// Expiration is how long a peer stays live after its last heartbeat
	// (legacy mode), or how long before it becomes a suspect (suspicion
	// mode).
	Expiration time.Duration

	// SuspectTimeout, when positive, inserts the SWIM suspect state
	// before death: a suspected peer stays (refutably) alive for this
	// long and is declared dead only if no fresher alive evidence
	// arrives. Suspicion originates from failed shuffle probes when
	// shuffling is enabled (heartbeat lapse then means nothing — the
	// fan-out is a sparse sample), and from heartbeat lapse otherwise.
	// Zero keeps the legacy lapse-is-death behavior with every predicate
	// time-based — unless piggybacking or shuffling is enabled, which
	// defaults the timeout to 3x Expiration (those mechanisms put peers
	// in the suspect state, so the timeout must exist).
	SuspectTimeout time.Duration
	// PiggybackMax bounds how many queued membership rumors one outgoing
	// digest carries. Zero disables piggybacked dissemination entirely.
	PiggybackMax int
	// PiggybackBudget is how many times one rumor is retransmitted before
	// it is dropped from the queue. Zero defaults to 4 when piggybacking
	// is enabled — small, because every view that finds a rumor newsworthy
	// relays it with a fresh budget, so the spread is epidemic and a large
	// per-view budget only slows the queue's drain after a churn burst.
	// Clamped to [1, 65535], the width of the queued rumor's counter.
	PiggybackBudget int
	// ShuffleInterval is the period of the view-shuffle exchange (the
	// timer is armed by the core). Zero disables shuffling.
	ShuffleInterval time.Duration
	// ShuffleSample is how many view entries one shuffle message carries
	// (default 64).
	ShuffleSample int
	// QueueCap bounds the rumor queue; the oldest rumor is dropped on
	// overflow (default 1024).
	QueueCap int
}

func (c Config) withDefaults() Config {
	if c.PiggybackMax > 0 {
		if c.PiggybackBudget == 0 {
			c.PiggybackBudget = 4
		}
		// rumor.budget is 16 bits wide, and a queued rumor ships at least
		// once (what a negative budget always meant).
		c.PiggybackBudget = min(max(c.PiggybackBudget, 1), math.MaxUint16)
	}
	if c.ShuffleSample == 0 {
		c.ShuffleSample = 64
	}
	if c.QueueCap == 0 {
		c.QueueCap = 1024
	}
	// Enabling any SWIM mechanism pulls in the whole SWIM state machine:
	// shuffle probes and piggybacked events put peers in the suspect and
	// dead states, so the suspect timeout must exist — a zero timeout
	// would declare a suspect dead at the next sweep (one lost shuffle
	// reply killing a healthy peer) while the time-based predicates still
	// counted it alive.
	if (c.PiggybackMax > 0 || c.ShuffleInterval > 0) && c.SuspectTimeout == 0 {
		c.SuspectTimeout = 3 * c.Expiration
		if c.SuspectTimeout == 0 {
			c.SuspectTimeout = 30 * time.Second
		}
	}
	return c
}

// Swim reports whether any of the SWIM extensions is enabled.
func (c Config) Swim() bool {
	return c.SuspectTimeout > 0 || c.PiggybackMax > 0 || c.ShuffleInterval > 0
}

// peer states. A peer with no member record has never been observed.
type status uint8

const (
	statusLive status = iota + 1
	// statusSuspect marks a lapsed peer awaiting refutation (suspicion
	// mode only). Suspects still count as alive — SWIM treats suspected
	// members as members until the timeout confirms them dead.
	statusSuspect
	statusDead

	numStatus // sizes View.counts
)

// Stats is a point-in-time snapshot of one view's counters, for report
// sections and tests.
type Stats struct {
	// Known / Live / Suspects / Dead partition the tracked peers (self
	// excluded; Known is their sum).
	Known    int
	Live     int
	Suspects int
	Dead     int
	// Queued is the current rumor-queue length; EventsQueued / EventsSent
	// / EventsApplied count rumors entering the queue, event entries sent
	// in digests, and received entries that changed local state.
	Queued        int
	EventsQueued  uint64
	EventsSent    uint64
	EventsApplied uint64
	// Refutations counts self-accusations answered with an incarnation
	// bump; DeadDeclared counts local suspicion timeouts.
	Refutations  uint64
	DeadDeclared uint64
}

// member is everything a view holds about one tracked peer: 24 bytes.
type member struct {
	// seq is the freshest heartbeat sequence (SWIM incarnation) seen.
	seq uint64
	// since is one timestamp with two readers that never overlap: for a
	// live (or, in legacy mode, any) member it is when the last heartbeat
	// or alive evidence arrived — the lapse clock; for a suspect it is when
	// the suspicion began — the timeout clock. The lapse clock is never read
	// while a member is suspect, and every way out of suspicion (Observe, an
	// applied alive event, death followed by a fresher incarnation) rewrites
	// it before it is read again.
	since  time.Duration
	id     wire.NodeID
	status status
	// queued has bit 1<<kind set exactly while a rumor of that kind about
	// this member sits in the rumor queue (see queueRumor).
	queued uint8
}

// View tracks which peers of the organization are believed alive. All
// exported methods are safe for concurrent use (required by the TCP
// runtime; the simulated runtime is single-threaded anyway).
//
// Its storage is built so that no operation costs more than what it
// touches, SWIM's O(1) work per member per protocol period:
//
//   - members is one array of 24-byte records sorted by id — the
//     deterministic order for sweeps, samples and Live, the allocation-free
//     scan behind Leader (the lowest live id is almost always the first
//     probe), a fraction of the four map entries per peer it replaced
//     (megabytes against hundreds of megabytes across a 10k-peer
//     organization), and no map iteration near the deterministic streams.
//   - A received payload is resolved against it as a merge: shuffle samples
//     are cut from a sorted view by a rotating cursor, so the next entry's
//     member is almost always the slot after the previous one (locate); the
//     rest — digest entries, in rumor order — go through search, which
//     interpolates over the id span and is O(1) on the contiguous ids of a
//     converged organization, O(log n) on any.
//   - rumors is a ring deque: a digest pops its k newest rumors from the
//     tail and parks the survivors at the head, O(k); member.queued says in
//     O(1) whether a rumor about (peer, kind) is already queued, so the
//     common enqueue is a push and only a genuine duplicate scans.
//   - counts holds the number of members in each state, maintained by the
//     one setStatus every transition goes through: Stats and LiveCount are
//     O(1), ShuffleTick indexes its target directly while nobody is dead,
//     Sweep returns at once when nobody is suspect.
//
// A view therefore costs 24 B per tracked member plus 16 B per slot of the
// rumor ring, which grows like append to the queue's peak and is kept: an
// 800-member organization whose queue peaked at 757 rumors holds
// 800×24 + 768×16 B ≈ 31 KB per view.
type View struct {
	cfg  Config
	host Host

	mu      sync.Mutex
	members []member
	counts  [numStatus]int32
	rumors  rumorQueue
	// selfQueued is member.queued for rumors about self, which has no record.
	selfQueued uint8
	// selfSeq mirrors the core's heartbeat sequence (SWIM incarnation):
	// shuffle samples advertise it, and accusations at or above it flag a
	// refutation.
	selfSeq uint64
	// selfAccused latches that a suspect/dead claim about self arrived;
	// the core consumes it and answers with an incarnation bump.
	selfAccused bool

	// shufCursor rotates sample selection through members so consecutive
	// shuffles cover the whole view instead of resampling a prefix.
	shufCursor int
	// probeTarget/probePending track the outstanding shuffle probe: the
	// shuffle exchange doubles as SWIM's ping, so a request that draws no
	// response (and no other direct evidence) by the next shuffle round
	// makes the target a suspect. This keeps failure-detection load O(1)
	// per node per round — per-pair heartbeat freshness cannot work when
	// the fan-out is a sparse sample of a thousand-peer organization.
	probeTarget  wire.NodeID
	probePending bool

	onTransition func(peer wire.NodeID, alive bool)

	eventsQueued  uint64
	eventsSent    uint64
	eventsApplied uint64
	refutations   uint64
	deadDeclared  uint64
}

// New creates a view for cfg.Self. host may be nil when the SWIM
// extensions are disabled (legacy mode never sends).
func New(cfg Config, host Host) *View {
	return &View{cfg: cfg.withDefaults(), host: host}
}

// OnTransition installs the hook fired for live/dead transitions caused by
// applying piggybacked or shuffled events (Observe and Sweep report their
// transitions through return values instead, preserving the legacy call
// pattern). The hook runs outside the view's lock and must not call back
// into the view. Must be set before Start.
func (v *View) OnTransition(fn func(peer wire.NodeID, alive bool)) { v.onTransition = fn }

// Config returns the view's configuration (after defaulting).
func (v *View) Config() Config { return v.cfg }

// NoteSelfSeq records the core's current heartbeat sequence so shuffle
// samples and refutations advertise fresh incarnations.
func (v *View) NoteSelfSeq(seq uint64) {
	v.mu.Lock()
	if seq > v.selfSeq {
		v.selfSeq = seq
	}
	v.mu.Unlock()
}

// search returns the position of the first member whose id is not below
// peer — where peer is, or where it would be inserted — and whether peer is
// there. It interpolates one guess over the id span, gallops outward from it
// in doubling steps until peer is bracketed, and bisects the bracket: a probe
// or two when ids are close to evenly spread (an organization's ids are
// contiguous, so a converged view's guess is off by at most self's gap),
// O(log n) on any ids. Caller holds mu.
func (v *View) search(peer wire.NodeID) (int, bool) {
	m := v.members
	n := len(m)
	if n == 0 || peer <= m[0].id {
		return 0, n > 0 && m[0].id == peer
	}
	first, last := m[0].id, m[n-1].id
	if peer > last {
		return n, false
	}
	lo, hi := 0, n-1 // m[lo].id < peer <= m[hi].id
	guess := int(uint64(peer-first) * uint64(hi) / uint64(last-first))
	if m[guess].id < peer {
		lo = guess
		for step := 1; lo+step < hi; step <<= 1 {
			if m[lo+step].id >= peer {
				hi = lo + step
				break
			}
			lo += step
		}
	} else {
		hi = guess
		for step := 1; hi-step > lo; step <<= 1 {
			if m[hi-step].id < peer {
				lo = hi - step
				break
			}
			hi -= step
		}
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if m[mid].id < peer {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, m[hi].id == peer
}

// locate is search for payload entries: it first tries hint, the slot after
// the previous entry's member, which is where the next entry of a shuffle
// sample is unless the sender's cursor wrapped or the two views differ
// there.
func (v *View) locate(peer wire.NodeID, hint int) (int, bool) {
	if hint < len(v.members) && v.members[hint].id == peer {
		return hint, true
	}
	return v.search(peer)
}

// track inserts a new member's record at pos, the position search returned
// for its id. Caller holds mu.
func (v *View) track(pos int, m member) {
	v.members = append(v.members, member{})
	copy(v.members[pos+1:], v.members[pos:])
	v.members[pos] = m
	v.counts[m.status]++
}

// setStatus is the one place a tracked member changes state, so counts
// always equals a recount. Caller holds mu.
func (v *View) setStatus(m *member, st status) {
	v.counts[m.status]--
	v.counts[st]++
	m.status = st
}

// Observe records a direct heartbeat from peer with the given sequence
// number at the given time, reporting whether it made the peer newly live
// (a dead-to-live transition). Stale (replayed or reordered) heartbeats
// with sequence numbers at or below the freshest seen are ignored, so a
// dead peer cannot be resurrected by an old message floating in the
// network. In suspicion mode a heartbeat from a suspect clears the
// suspicion (a refutation, not a transition: suspects never left the live
// view) and re-gossips the peer's freshness.
func (v *View) Observe(peer wire.NodeID, seq uint64, at time.Duration) bool {
	if peer == v.cfg.Self {
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	i, tracked := v.search(peer)
	var st status
	if tracked {
		m := &v.members[i]
		if seq <= m.seq {
			return false
		}
		st = m.status
		m.seq, m.since = seq, at
		v.setStatus(m, statusLive)
	} else {
		v.track(i, member{id: peer, seq: seq, since: at, status: statusLive})
	}
	becameLive := !tracked || st == statusDead
	if v.cfg.Swim() {
		if v.probePending && peer == v.probeTarget {
			v.probePending = false // direct evidence: the probe target lives
		}
		// Direct evidence refuting a suspicion is worth re-gossiping (other
		// peers may still hold the suspect claim), and a join or rejoin is
		// news the rest of the organization only samples sparsely.
		if st == statusSuspect || becameLive {
			v.queueRumor(&v.members[i].queued, wire.MemberEvent{Peer: peer, Seq: seq, Kind: wire.EventAlive})
		}
	}
	return becameLive
}

// Sweep advances the state machine at time now and returns the peers
// declared dead since the previous sweep, in ascending id order. Call it
// periodically; Observe reports the opposite transition.
//
// Legacy mode: peers whose heartbeats lapsed past Expiration die
// immediately (the old Expire behavior). Suspicion mode with shuffling
// enabled: silence alone never kills — a live peer stays live until a
// failed probe (ShuffleTick) or a gossiped suspicion puts it in the
// suspect state. Suspicion without shuffling (no prober to originate
// suspicions) falls back to lapse-based suspicion: a lapsed live peer
// becomes a refutable suspect here. Either way, a suspect whose
// SuspectTimeout elapses without refutation is declared dead, its death
// gossiped to the rest of the organization.
func (v *View) Sweep(now time.Duration) []wire.NodeID {
	v.mu.Lock()
	defer v.mu.Unlock()
	suspicion := v.cfg.SuspectTimeout > 0
	probing := v.cfg.ShuffleInterval > 0
	if suspicion && probing && v.counts[statusSuspect] == 0 {
		// Per-pair heartbeat freshness is a sparse sample of a large
		// organization: lapse means nothing here. Probes carry the
		// failure-detection duty instead, and nobody is awaiting a timeout.
		return nil
	}
	var dead []wire.NodeID
	for i := range v.members {
		m := &v.members[i]
		switch m.status {
		case statusLive:
			if suspicion && probing {
				continue
			}
			if now-m.since <= v.cfg.Expiration {
				continue
			}
			if suspicion {
				// No prober to originate suspicion (shuffling disabled),
				// so lapse must: without this, a crashed peer would stay
				// live forever in this configuration.
				v.setStatus(m, statusSuspect)
				m.since = now
				v.queueRumor(&m.queued, wire.MemberEvent{Peer: m.id, Seq: m.seq, Kind: wire.EventSuspect})
				continue
			}
			v.setStatus(m, statusDead)
			dead = append(dead, m.id)
		case statusSuspect:
			if now-m.since <= v.cfg.SuspectTimeout {
				continue
			}
			v.setStatus(m, statusDead)
			v.deadDeclared++
			dead = append(dead, m.id)
			v.queueRumor(&m.queued, wire.MemberEvent{Peer: m.id, Seq: m.seq, Kind: wire.EventDead})
		}
	}
	return dead
}

// aliveLocked is the one liveness predicate every query shares. Legacy mode
// is time-based: alive means a heartbeat within Expiration — the moment a
// peer lapses it stops being alive and becomes dead, with no window where
// the two disagree. Suspicion mode is state-based: live and suspect count
// as alive, only a declared death removes a peer from the view (per-pair
// heartbeat freshness is meaningless when the fan-out is a sparse sample of
// a large organization). Callers answer false for untracked peers.
func (v *View) aliveLocked(m *member, now time.Duration) bool {
	if v.cfg.SuspectTimeout > 0 {
		return m.status == statusLive || m.status == statusSuspect
	}
	return now-m.since <= v.cfg.Expiration
}

// aliveCountLocked is how many tracked members aliveLocked holds for: two
// counters in suspicion mode, a walk in legacy mode (whose predicate is a
// function of now).
func (v *View) aliveCountLocked(now time.Duration) int {
	if v.cfg.SuspectTimeout > 0 {
		return int(v.counts[statusLive] + v.counts[statusSuspect])
	}
	n := 0
	for i := range v.members {
		if v.aliveLocked(&v.members[i], now) {
			n++
		}
	}
	return n
}

// Alive reports whether peer is believed alive at time now. Self is always
// alive.
func (v *View) Alive(peer wire.NodeID, now time.Duration) bool {
	if peer == v.cfg.Self {
		return true
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	i, tracked := v.search(peer)
	return tracked && v.aliveLocked(&v.members[i], now)
}

// Dead reports whether the view considers peer dead at time now: it was
// observed once and is no longer alive. Peers never observed are not dead —
// with a sparse heartbeat sample most live peers have simply never been
// heard from. Dead is the exact complement of Alive over tracked peers
// (both answer from the same predicate; the legacy split where a lapsed
// peer was neither alive nor dead until the next sweep is gone).
func (v *View) Dead(peer wire.NodeID, now time.Duration) bool {
	if peer == v.cfg.Self {
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	i, tracked := v.search(peer)
	return tracked && !v.aliveLocked(&v.members[i], now)
}

// Live returns the sorted ids of all peers believed alive at now,
// including self. Hot paths use LiveInto with a reusable buffer instead,
// and LiveCount when only the size matters.
func (v *View) Live(now time.Duration) []wire.NodeID {
	return v.LiveInto(nil, now)
}

// LiveInto is Live appending into buf's backing array (grown as needed):
// the caller owns buf exclusively and the returned slice aliases it.
func (v *View) LiveInto(buf []wire.NodeID, now time.Duration) []wire.NodeID {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := buf[:0]
	selfDone := false
	for i := range v.members {
		m := &v.members[i]
		if !selfDone && v.cfg.Self < m.id {
			out = append(out, v.cfg.Self)
			selfDone = true
		}
		if v.aliveLocked(m, now) {
			out = append(out, m.id)
		}
	}
	if !selfDone {
		out = append(out, v.cfg.Self)
	}
	return out
}

// LiveCount is len(Live(now)) without building the list: O(1) in suspicion
// mode.
func (v *View) LiveCount(now time.Duration) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.aliveCountLocked(now) + 1
}

// Leader returns the dynamic-election leader: the lowest-id live peer
// (self counts). This is the convergence point of Fabric's leader election
// once heartbeats have propagated. The scan walks the sorted members and
// stops at self, so the steady state answers from the first probe with
// zero allocations (the live-minimum is effectively tracked by the sorted
// order).
func (v *View) Leader(now time.Duration) wire.NodeID {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := range v.members {
		m := &v.members[i]
		if m.id >= v.cfg.Self {
			break
		}
		if v.aliveLocked(m, now) {
			return m.id
		}
	}
	return v.cfg.Self
}

// IsLeader reports whether self currently believes it is the leader.
func (v *View) IsLeader(now time.Duration) bool {
	return v.Leader(now) == v.cfg.Self
}

// Stats snapshots the view's counters.
func (v *View) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return Stats{
		Known:         len(v.members),
		Live:          int(v.counts[statusLive]),
		Suspects:      int(v.counts[statusSuspect]),
		Dead:          int(v.counts[statusDead]),
		Queued:        v.rumors.len(),
		EventsQueued:  v.eventsQueued,
		EventsSent:    v.eventsSent,
		EventsApplied: v.eventsApplied,
		Refutations:   v.refutations,
		DeadDeclared:  v.deadDeclared,
	}
}
