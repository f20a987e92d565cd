package obs

import (
	"fmt"
	"io"
	"sort"
	"time"

	"fabricgossip/internal/wire"
)

// EventKind is the type tag of one structured trace point.
type EventKind uint8

const (
	EvNone EventKind = iota
	// Wire-level points, emitted by the transport choke point. The send
	// lands in the sender's shard buffer, the receive in the receiver's,
	// so emission never crosses a goroutine boundary.
	EvGossipSend // block/push dissemination traffic leaving a NIC
	EvGossipRecv
	EvDigestSend // digest-exchange traffic (push digests, pull rounds)
	EvDigestRecv
	EvSyncSend // state-sync round traffic (StateRequest/StateResponse)
	EvSyncRecv
	EvMemberSend // membership traffic (heartbeats, rumors, shuffles)
	EvMemberRecv
	EvRaftSend // consenter cluster traffic (votes, appends, forwards)
	EvRaftRecv
	EvOrderSend // ordering-service traffic (submissions, deliver streams)
	EvOrderRecv

	// Subsystem-level points, emitted by hooks on the owning context.
	EvMembership  // a peer's membership view flipped a member live/dead
	EvElection    // a consenter won a Raft election (Num = term)
	EvRaftState   // any consenter role transition (Num = term, Aux = state)
	EvAppend      // a Raft log append (Num = index, Aux = term)
	EvBlockCut    // the ordering service cut a block (Num = block)
	EvBlockCommit // a peer committed a block in order (Num = block)
	EvDeliver     // the ordering stream handed a block to an org leader
	EvBarrier     // the window coordinator ran a full barrier
	EvFault       // a scenario fault action was applied (Num = script index; Aux = 1: the initial-down set, before the script)
	EvCaughtUp    // a restarted peer committed up to the injected height (Num = height, Aux = ns since restart)
	EvFaultTarget // a crash-the-leader fault resolved which consenter leads (Node = consenter)
)

var eventKindNames = [...]string{
	EvNone:        "none",
	EvGossipSend:  "gossip_send",
	EvGossipRecv:  "gossip_recv",
	EvDigestSend:  "digest_send",
	EvDigestRecv:  "digest_recv",
	EvSyncSend:    "sync_send",
	EvSyncRecv:    "sync_recv",
	EvMemberSend:  "member_send",
	EvMemberRecv:  "member_recv",
	EvRaftSend:    "raft_send",
	EvRaftRecv:    "raft_recv",
	EvOrderSend:   "order_send",
	EvOrderRecv:   "order_recv",
	EvMembership:  "membership",
	EvElection:    "election",
	EvRaftState:   "raft_state",
	EvAppend:      "append",
	EvBlockCut:    "block_cut",
	EvBlockCommit: "block_commit",
	EvDeliver:     "deliver",
	EvBarrier:     "barrier",
	EvFault:       "fault",
	EvCaughtUp:    "caught_up",
	EvFaultTarget: "fault_target",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// wireSendClass maps a wire message type to its send-side trace kind; the
// receive side is always the next enum value. Indexed by MsgType, so the
// transport's per-message classification is one array load.
var wireSendClass = [...]EventKind{
	wire.TypeData:               EvGossipSend,
	wire.TypePushDigest:         EvDigestSend,
	wire.TypePushRequest:        EvDigestSend,
	wire.TypePullHello:          EvDigestSend,
	wire.TypePullDigest:         EvDigestSend,
	wire.TypePullRequest:        EvDigestSend,
	wire.TypePullData:           EvGossipSend,
	wire.TypeStateInfo:          EvMemberSend,
	wire.TypeStateRequest:       EvSyncSend,
	wire.TypeStateResponse:      EvSyncSend,
	wire.TypeAlive:              EvMemberSend,
	wire.TypeRaftVoteRequest:    EvRaftSend,
	wire.TypeRaftVoteResponse:   EvRaftSend,
	wire.TypeRaftAppend:         EvRaftSend,
	wire.TypeRaftAppendResponse: EvRaftSend,
	wire.TypeRaftForward:        EvRaftSend,
	wire.TypeSubmitTx:           EvOrderSend,
	wire.TypeDeliverBlock:       EvOrderSend,
	wire.TypeMemberEvents:       EvMemberSend,
	wire.TypeShuffleRequest:     EvMemberSend,
	wire.TypeShuffleResponse:    EvMemberSend,
}

// WireSendKind classifies an outgoing wire message.
func WireSendKind(t wire.MsgType) EventKind {
	if int(t) < len(wireSendClass) && wireSendClass[t] != EvNone {
		return wireSendClass[t]
	}
	return EvGossipSend
}

// WireRecvKind classifies a delivered wire message (the recv twin of
// WireSendKind — the enum interleaves send/recv pairs).
func WireRecvKind(t wire.MsgType) EventKind {
	return WireSendKind(t) + 1
}

// Event is one fixed-size trace point. Node and Peer are dense node ids
// (-1 when absent); Num and Aux carry kind-specific payload (block number,
// Raft term, message type, byte size). The struct is flat and pointer-free
// so emitting into a preallocated buffer allocates nothing.
type Event struct {
	At   time.Duration
	Kind EventKind
	Node int32
	Peer int32
	Num  uint64
	Aux  uint64
}

// ShardTrace is one emission context's event buffer: a single-writer,
// append-only log (ringCap == 0), or a bounded ring keeping the most
// recent ringCap events (the flight-recorder mode). Each simulation shard
// owns exactly one, written only from its own goroutine.
type ShardTrace struct {
	events []Event
	cap    int // 0 = unbounded
	next   int // ring write position
	total  uint64
}

// NewShardTrace returns a buffer; ringCap == 0 keeps every event, ringCap
// > 0 keeps only the last ringCap.
func NewShardTrace(ringCap int) *ShardTrace {
	t := &ShardTrace{cap: ringCap}
	if ringCap > 0 {
		t.events = make([]Event, 0, ringCap)
	}
	return t
}

// Emit appends one event. Ring mode overwrites the oldest.
func (t *ShardTrace) Emit(e Event) {
	t.total++
	if t.cap == 0 {
		t.events = append(t.events, e)
		return
	}
	if len(t.events) < t.cap {
		t.events = append(t.events, e)
		return
	}
	t.events[t.next] = e
	t.next = (t.next + 1) % t.cap
}

// Total returns the lifetime emission count (at least the buffered count
// in ring mode).
func (t *ShardTrace) Total() uint64 { return t.total }

// Last copies up to n of the most recent events, oldest first.
func (t *ShardTrace) Last(n int) []Event {
	all := t.chronological()
	if n < len(all) {
		all = all[len(all)-n:]
	}
	return all
}

// chronological returns the buffered events oldest-first (unrolling the
// ring when it has wrapped). The full-mode slice is returned as-is; ring
// mode copies.
func (t *ShardTrace) chronological() []Event {
	if t.cap == 0 || len(t.events) < t.cap {
		return t.events
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// Tracer bundles one ShardTrace per emission context: one per shard engine
// of the run, then one for the control plane.
type Tracer struct {
	Shards []*ShardTrace
}

// NewTracer builds n contexts with the given ring capacity (0 = full).
func NewTracer(n, ringCap int) *Tracer {
	t := &Tracer{Shards: make([]*ShardTrace, n)}
	for i := range t.Shards {
		t.Shards[i] = NewShardTrace(ringCap)
	}
	return t
}

// Total returns the lifetime emissions across every context.
func (t *Tracer) Total() uint64 {
	var n uint64
	for _, s := range t.Shards {
		n += s.Total()
	}
	return n
}

// Merged assembles the run's total event order: (At, context index,
// emission order) — a pure function of (seed, scenario) regardless of how
// shard goroutines interleaved, and the only trace merge in the
// repository. Call only after the run (or at a barrier).
func (t *Tracer) Merged() []Event {
	if len(t.Shards) == 1 {
		return append([]Event(nil), t.Shards[0].chronological()...)
	}
	type tagged struct {
		e        Event
		buf, pos int
	}
	var all []tagged
	for b, s := range t.Shards {
		for p, e := range s.chronological() {
			all = append(all, tagged{e, b, p})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].e.At != all[j].e.At {
			return all[i].e.At < all[j].e.At
		}
		if all[i].buf != all[j].buf {
			return all[i].buf < all[j].buf
		}
		return all[i].pos < all[j].pos
	})
	out := make([]Event, len(all))
	for i, e := range all {
		out[i] = e.e
	}
	return out
}

// WriteJSONL emits events one JSON object per line with a fixed field
// order and integer-nanosecond timestamps, so identical event sequences
// produce byte-identical files — the property the GOMAXPROCS determinism
// test pins.
func WriteJSONL(w io.Writer, events []Event) error {
	for i := range events {
		e := &events[i]
		if _, err := fmt.Fprintf(w, "{\"at_ns\":%d,\"kind\":%q,\"node\":%d,\"peer\":%d,\"num\":%d,\"aux\":%d}\n",
			e.At.Nanoseconds(), e.Kind.String(), e.Node, e.Peer, e.Num, e.Aux); err != nil {
			return err
		}
	}
	return nil
}
