package wire

// Membership dissemination payloads (SWIM-style piggybacking and view
// shuffling, internal/membership). All three carry flat lists of
// MemberEvent entries; the encodings are frozen — see the byte-identity
// tests.

// MemberEventKind discriminates membership event entries. Values start at 1;
// 0 is reserved as invalid. Unknown kinds round-trip through the codec
// untouched (the membership layer ignores them), so old nodes stay
// forward-compatible with new event kinds.
type MemberEventKind uint8

// Membership event kinds.
const (
	// EventAlive asserts the peer was alive at heartbeat sequence Seq
	// (joins, periodic refreshes, and refutations of suspicion).
	EventAlive MemberEventKind = iota + 1
	// EventSuspect reports that the peer's heartbeats lapsed at the sender:
	// the peer is suspected dead at sequence Seq unless refuted by a
	// fresher EventAlive.
	EventSuspect
	// EventDead declares the peer dead: its suspicion timeout expired
	// without refutation. Only an EventAlive with a strictly higher
	// sequence (a restarted incarnation) reverses it.
	EventDead
)

// MemberEvent is one membership rumor or view entry: peer Peer was in state
// Kind as of its heartbeat sequence Seq. The sequence doubles as the
// incarnation number SWIM uses to order conflicting claims: alive at seq s
// refutes suspicion at any s' <= s, and a dead declaration at s yields only
// to alive at a strictly higher sequence.
//
// Fields are ordered widest first so an entry is 16 bytes, not 24: every
// in-flight shuffle sample holds up to a few hundred of them. The codec
// writes fields by name, so the encoding is Peer, Seq, Kind regardless.
type MemberEvent struct {
	Seq  uint64
	Peer NodeID
	Kind MemberEventKind
}

// memberEventsSize returns the encoded length of a count-prefixed event
// list, without the message type byte.
func memberEventsSize(evs []MemberEvent) int {
	n := uvarintLen(uint64(len(evs)))
	for _, e := range evs {
		n += uvarintLen(uint64(e.Peer)) + uvarintLen(e.Seq) + 1
	}
	return n
}

func putMemberEvents(s *encSink, evs []MemberEvent) {
	s.uvarint(uint64(len(evs)))
	for _, e := range evs {
		s.uvarint(uint64(e.Peer))
		s.uvarint(e.Seq)
		s.byte(byte(e.Kind))
	}
}

func decodeMemberEventList(d *decoder, what string) []MemberEvent {
	// Each entry is at least 3 bytes (peer varint + seq varint + kind byte).
	n := d.count(3, what)
	out := make([]MemberEvent, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		e := MemberEvent{Peer: NodeID(d.uint32(what))}
		e.Seq = d.uvarint(what)
		e.Kind = MemberEventKind(d.byte())
		out = append(out, e)
	}
	return out
}

// MemberEvents is the piggyback payload: a bounded digest of recent
// membership rumors riding on the destination of an ordinary gossip message,
// so membership knowledge spreads epidemically on existing traffic instead
// of only via direct heartbeats. Each rumor is retransmitted a budgeted
// number of times (internal/membership) — the payload itself is stateless.
type MemberEvents struct {
	Events []MemberEvent
}

// Type implements Message.
func (*MemberEvents) Type() MsgType { return TypeMemberEvents }

// EncodedSize implements Message.
func (m *MemberEvents) EncodedSize() int { return 1 + memberEventsSize(m.Events) }

func (m *MemberEvents) encode(s *encSink) { putMemberEvents(s, m.Events) }

func decodeMemberEvents(d *decoder) *MemberEvents {
	return &MemberEvents{Events: decodeMemberEventList(d, "member event")}
}

// ShuffleRequest opens a view-shuffle exchange: a random sample of the
// sender's membership view (each entry the peer's state and freshest known
// heartbeat sequence). The receiver merges the sample and answers with a
// ShuffleResponse carrying its own, so isolated corners of a large
// organization converge pairwise even when direct heartbeats are a sparse
// sample.
type ShuffleRequest struct {
	Entries []MemberEvent
}

// Type implements Message.
func (*ShuffleRequest) Type() MsgType { return TypeShuffleRequest }

// EncodedSize implements Message.
func (m *ShuffleRequest) EncodedSize() int { return 1 + memberEventsSize(m.Entries) }

func (m *ShuffleRequest) encode(s *encSink) { putMemberEvents(s, m.Entries) }

func decodeShuffleRequest(d *decoder) *ShuffleRequest {
	return &ShuffleRequest{Entries: decodeMemberEventList(d, "shuffle entry")}
}

// ShuffleResponse answers a ShuffleRequest with the responder's own view
// sample.
type ShuffleResponse struct {
	Entries []MemberEvent
}

// Type implements Message.
func (*ShuffleResponse) Type() MsgType { return TypeShuffleResponse }

// EncodedSize implements Message.
func (m *ShuffleResponse) EncodedSize() int { return 1 + memberEventsSize(m.Entries) }

func (m *ShuffleResponse) encode(s *encSink) { putMemberEvents(s, m.Entries) }

func decodeShuffleResponse(d *decoder) *ShuffleResponse {
	return &ShuffleResponse{Entries: decodeMemberEventList(d, "shuffle entry")}
}
