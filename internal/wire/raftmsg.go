package wire

// Raft consensus messages (ordering-service substrate). The ordering
// service replicates opaque payloads — encoded transactions — through a
// crash-fault-tolerant Raft log (see internal/raft).

// RaftEntry is one replicated log entry.
type RaftEntry struct {
	Term uint64
	Data []byte
}

// RaftVoteRequest is Raft's RequestVote RPC.
type RaftVoteRequest struct {
	Term         uint64
	Candidate    NodeID
	LastLogIndex uint64
	LastLogTerm  uint64
}

// Type implements Message.
func (*RaftVoteRequest) Type() MsgType { return TypeRaftVoteRequest }

// EncodedSize implements Message.
func (m *RaftVoteRequest) EncodedSize() int {
	return 1 + uvarintLen(m.Term) + uvarintLen(uint64(m.Candidate)) + uvarintLen(m.LastLogIndex) + uvarintLen(m.LastLogTerm)
}

func (m *RaftVoteRequest) encode(s *encSink) {
	s.uvarint(m.Term)
	s.uvarint(uint64(m.Candidate))
	s.uvarint(m.LastLogIndex)
	s.uvarint(m.LastLogTerm)
}

func decodeRaftVoteRequest(d *decoder) *RaftVoteRequest {
	m := &RaftVoteRequest{Term: d.uvarint("term")}
	m.Candidate = NodeID(d.uint32("candidate"))
	m.LastLogIndex = d.uvarint("last log index")
	m.LastLogTerm = d.uvarint("last log term")
	return m
}

// RaftVoteResponse answers a RaftVoteRequest.
type RaftVoteResponse struct {
	Term    uint64
	Granted bool
}

// Type implements Message.
func (*RaftVoteResponse) Type() MsgType { return TypeRaftVoteResponse }

// EncodedSize implements Message.
func (m *RaftVoteResponse) EncodedSize() int { return 1 + uvarintLen(m.Term) + 1 }

func (m *RaftVoteResponse) encode(s *encSink) {
	s.uvarint(m.Term)
	putBool(s, m.Granted)
}

func decodeRaftVoteResponse(d *decoder) *RaftVoteResponse {
	m := &RaftVoteResponse{Term: d.uvarint("term")}
	m.Granted = d.bool("granted")
	return m
}

// RaftAppend is Raft's AppendEntries RPC (also the heartbeat when Entries
// is empty).
type RaftAppend struct {
	Term         uint64
	Leader       NodeID
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []RaftEntry
	LeaderCommit uint64
	// LowWater is the leader's lowest match over its followers: every node
	// of the cluster holds the log up to it, so a receiver may drop the
	// entries at or below min(LowWater, its applied index).
	LowWater uint64
}

// Type implements Message.
func (*RaftAppend) Type() MsgType { return TypeRaftAppend }

// EncodedSize implements Message.
func (m *RaftAppend) EncodedSize() int {
	n := 1 + uvarintLen(m.Term) + uvarintLen(uint64(m.Leader)) + uvarintLen(m.PrevLogIndex) + uvarintLen(m.PrevLogTerm)
	n += uvarintLen(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		n += uvarintLen(e.Term) + bytesLen(e.Data)
	}
	return n + uvarintLen(m.LeaderCommit) + uvarintLen(m.LowWater)
}

func (m *RaftAppend) encode(s *encSink) {
	s.uvarint(m.Term)
	s.uvarint(uint64(m.Leader))
	s.uvarint(m.PrevLogIndex)
	s.uvarint(m.PrevLogTerm)
	s.uvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		s.uvarint(e.Term)
		putBytes(s, e.Data)
	}
	s.uvarint(m.LeaderCommit)
	s.uvarint(m.LowWater)
}

func decodeRaftAppend(d *decoder) *RaftAppend {
	m := &RaftAppend{Term: d.uvarint("term")}
	m.Leader = NodeID(d.uint32("leader"))
	m.PrevLogIndex = d.uvarint("prev log index")
	m.PrevLogTerm = d.uvarint("prev log term")
	n := d.count(2, "entry count")
	m.Entries = make([]RaftEntry, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		e := RaftEntry{Term: d.uvarint("entry term")}
		e.Data = d.bytesField("entry data")
		m.Entries = append(m.Entries, e)
	}
	m.LeaderCommit = d.uvarint("leader commit")
	m.LowWater = d.uvarint("low water")
	return m
}

// RaftForward carries a client payload from a non-leader ordering node to
// the current Raft leader for proposal.
type RaftForward struct {
	Data []byte
}

// Type implements Message.
func (*RaftForward) Type() MsgType { return TypeRaftForward }

// EncodedSize implements Message.
func (m *RaftForward) EncodedSize() int { return 1 + bytesLen(m.Data) }

func (m *RaftForward) encode(s *encSink) { putBytes(s, m.Data) }

func decodeRaftForward(d *decoder) *RaftForward {
	return &RaftForward{Data: d.bytesField("forward data")}
}

// RaftAppendResponse answers a RaftAppend.
type RaftAppendResponse struct {
	Term    uint64
	Success bool
	// MatchIndex is the follower's highest replicated index on success;
	// on failure it hints where the leader should back up to.
	MatchIndex uint64
}

// Type implements Message.
func (*RaftAppendResponse) Type() MsgType { return TypeRaftAppendResponse }

// EncodedSize implements Message.
func (m *RaftAppendResponse) EncodedSize() int {
	return 1 + uvarintLen(m.Term) + 1 + uvarintLen(m.MatchIndex)
}

func (m *RaftAppendResponse) encode(s *encSink) {
	s.uvarint(m.Term)
	putBool(s, m.Success)
	s.uvarint(m.MatchIndex)
}

func decodeRaftAppendResponse(d *decoder) *RaftAppendResponse {
	m := &RaftAppendResponse{Term: d.uvarint("term")}
	m.Success = d.bool("success")
	m.MatchIndex = d.uvarint("match index")
	return m
}
