// Package wire defines every protocol message exchanged by gossip, ordering
// and consensus nodes, together with a compact self-describing binary codec.
//
// Three properties matter for the reproduction:
//
//   - EncodedSize must equal len(Marshal(m)) exactly, because the simulated
//     transport accounts bandwidth and store-and-forward transmission time
//     from EncodedSize without serializing (serializing every one of the
//     ~300k block transmissions of an experiment would dominate run time).
//     Every EncodedSize is arithmetic over the fields, written beside the
//     type's encode: it runs on every simulated send and delivery, millions
//     of times a run, so it allocates nothing and calls through no
//     interface.
//   - Marshal/Unmarshal must round-trip exactly, because the TCP transport
//     ships real bytes.
//   - The encoding is canonical: a value has exactly one encoding and
//     Unmarshal accepts no other (varints are minimal, 32-bit fields fit),
//     so the bytes a block arrived as are the bytes it is forwarded as.
//
// All three are enforced by property-based tests and a fuzz target.
//
// # Who owns an encoding
//
// A block is by far the largest thing on the wire, and a peer forwards the
// same block many times, so decoding a block records the byte range it was
// read from as its canonical encoding: a set-once, immutable slot on
// ledger.Block that lives and dies with it. Every transmission of a decoded
// block — on any connection, in any message type, alone or inside a
// StateResponse batch — sends that one slice. A block this process built
// carries no encoding: BlockEncodedSize caches its length (all the simulator
// ever asks for), and each Marshal or AppendMessage walks its tree into the
// message head. The live runtime sends a built block once, from the ordering
// service, so a cached copy would never be read again and would double what
// the orderer holds. There is no other cache and nothing to evict.
//
// A decoded block keeps its transactions as those bytes. Unmarshal scans
// them, rejecting exactly what building them would, and builds nothing;
// the first reader of ledger.Block.Transactions (the ledger's validation
// and commit, the workload's transaction ids) has the block build its tree
// from its cached encoding, once. Gossip stores, offers and forwards a
// block by its number and encoding, so a duplicate body is never built.
//
// Unmarshal therefore aliases its input: the []byte fields of the result
// and the cached encodings of its blocks are sub-slices of data (capacity
// clipped to length), so the caller hands the buffer over and must never
// write to it again. Strings and fixed-size digests are copied.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"fabricgossip/internal/crypto"
	"fabricgossip/internal/ledger"
)

// NodeID identifies a node (peer or orderer) within a deployment. IDs are
// dense indexes assigned at network construction.
type NodeID uint32

// String formats the id.
func (id NodeID) String() string { return fmt.Sprintf("n%d", uint32(id)) }

// MsgType discriminates message encodings.
type MsgType uint8

// Message type tags. Values start at 1; 0 is reserved as invalid.
const (
	TypeData MsgType = iota + 1
	TypePushDigest
	TypePushRequest
	TypePullHello
	TypePullDigest
	TypePullRequest
	TypePullData
	TypeStateInfo
	TypeStateRequest
	TypeStateResponse
	TypeAlive
	TypeRaftVoteRequest
	TypeRaftVoteResponse
	TypeRaftAppend
	TypeRaftAppendResponse
	TypeRaftForward
	TypeSubmitTx
	TypeDeliverBlock
	TypeMemberEvents
	TypeShuffleRequest
	TypeShuffleResponse

	maxMsgType // sentinel, keep last
)

// NumMsgTypes is one past the highest valid MsgType: arrays of size
// NumMsgTypes indexed directly by MsgType cover every tag (index 0, the
// reserved invalid tag, stays unused). Dense per-type accounting (see
// netmodel.Traffic) relies on it instead of maps.
const NumMsgTypes = int(maxMsgType)

// String returns the message type name.
func (t MsgType) String() string {
	names := [...]string{
		TypeData:               "Data",
		TypePushDigest:         "PushDigest",
		TypePushRequest:        "PushRequest",
		TypePullHello:          "PullHello",
		TypePullDigest:         "PullDigest",
		TypePullRequest:        "PullRequest",
		TypePullData:           "PullData",
		TypeStateInfo:          "StateInfo",
		TypeStateRequest:       "StateRequest",
		TypeStateResponse:      "StateResponse",
		TypeAlive:              "Alive",
		TypeRaftVoteRequest:    "RaftVoteRequest",
		TypeRaftVoteResponse:   "RaftVoteResponse",
		TypeRaftAppend:         "RaftAppend",
		TypeRaftAppendResponse: "RaftAppendResponse",
		TypeRaftForward:        "RaftForward",
		TypeSubmitTx:           "SubmitTx",
		TypeDeliverBlock:       "DeliverBlock",
		TypeMemberEvents:       "MemberEvents",
		TypeShuffleRequest:     "ShuffleRequest",
		TypeShuffleResponse:    "ShuffleResponse",
	}
	if int(t) < len(names) && names[t] != "" {
		return names[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is the interface all wire messages implement.
type Message interface {
	// Type returns the message's type tag.
	Type() MsgType
	// EncodedSize returns the exact length of Marshal(m) in bytes.
	EncodedSize() int
	// encode writes the message body (everything after the type byte).
	encode(s *encSink)
}

// AppendMessage encodes m — a type byte followed by the body — for
// scatter-gather output. The fields and every block this process built are
// appended to head; a decoded block contributes the encoding cached on it
// (see the package comment), appended to bodies and not copied, and a built
// block behind it becomes a body of its own. The message's wire form is head
// followed by every body in order: the messages that carry blocks (Data,
// PullData, DeliverBlock, StateResponse) all end with them. The bodies are
// immutable; bodies may be nil.
func AppendMessage(head []byte, bodies [][]byte, m Message) ([]byte, [][]byte) {
	s := &encSink{buf: head, bodies: bodies}
	if bodies == nil {
		s.bodies = s.one[:0]
	}
	s.byte(byte(m.Type()))
	m.encode(s)
	return s.buf, s.bodies
}

// AppendMarshal appends m's whole encoding to dst.
func AppendMarshal(dst []byte, m Message) []byte {
	dst, bodies := AppendMessage(dst, nil, m)
	for _, b := range bodies {
		dst = append(dst, b...)
	}
	return dst
}

// Marshal encodes m as a type byte followed by the body.
func Marshal(m Message) []byte {
	return AppendMarshal(make([]byte, 0, m.EncodedSize()), m)
}

// Decode errors.
var (
	ErrTruncated    = errors.New("wire: truncated message")
	ErrUnknownType  = errors.New("wire: unknown message type")
	ErrNonCanonical = errors.New("wire: non-canonical encoding")
)

// Unmarshal decodes a message produced by Marshal. The result aliases data
// (see the package comment): the caller must not write to data afterwards.
// Only the canonical encoding of a message is accepted.
func Unmarshal(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	t := MsgType(data[0])
	d := &decoder{buf: data, off: 1}
	var m Message
	switch t {
	case TypeData:
		m = decodeData(d)
	case TypePushDigest:
		m = decodePushDigest(d)
	case TypePushRequest:
		m = decodePushRequest(d)
	case TypePullHello:
		m = decodePullHello(d)
	case TypePullDigest:
		m = decodePullDigest(d)
	case TypePullRequest:
		m = decodePullRequest(d)
	case TypePullData:
		m = decodePullData(d)
	case TypeStateInfo:
		m = decodeStateInfo(d)
	case TypeStateRequest:
		m = decodeStateRequest(d)
	case TypeStateResponse:
		m = decodeStateResponse(d)
	case TypeAlive:
		m = decodeAlive(d)
	case TypeRaftVoteRequest:
		m = decodeRaftVoteRequest(d)
	case TypeRaftVoteResponse:
		m = decodeRaftVoteResponse(d)
	case TypeRaftAppend:
		m = decodeRaftAppend(d)
	case TypeRaftAppendResponse:
		m = decodeRaftAppendResponse(d)
	case TypeRaftForward:
		m = decodeRaftForward(d)
	case TypeSubmitTx:
		m = decodeSubmitTx(d)
	case TypeDeliverBlock:
		m = decodeDeliverBlock(d)
	case TypeMemberEvents:
		m = decodeMemberEvents(d)
	case TypeShuffleRequest:
		m = decodeShuffleRequest(d)
	case TypeShuffleResponse:
		m = decodeShuffleResponse(d)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", len(data)-d.off, t)
	}
	return m, nil
}

// encSink is what every encode writes to: plain fields and built blocks go
// into buf, decoded blocks are referenced, not copied.
type encSink struct {
	buf    []byte
	bodies [][]byte
	// one backs bodies when the caller brings no slice: Marshal of a
	// one-block message then allocates nothing beyond the sink and buf.
	one [1][]byte
	// referenced is set once a block went to bodies, which follow buf on
	// the wire: a built block behind it can no longer go into buf.
	referenced bool
}

func (s *encSink) byte(b byte)      { s.buf = append(s.buf, b) }
func (s *encSink) bytes(b []byte)   { s.buf = append(s.buf, b...) }
func (s *encSink) uvarint(v uint64) { s.buf = binary.AppendUvarint(s.buf, v) }

// block writes a whole block: a decoded block as the encoding cached on it,
// a built one by walking it (encodeBlock) into buf, grown once to its size,
// or behind a referenced block into a body of its own. Nothing is stored on
// a built block.
func (s *encSink) block(b *ledger.Block) {
	switch enc := b.WireEncoding(); {
	case enc != nil:
		s.bodies = append(s.bodies, enc)
		s.referenced = true
	case s.referenced:
		body := &encSink{buf: make([]byte, 0, BlockEncodedSize(b))}
		encodeBlock(body, b)
		s.bodies = append(s.bodies, body.buf)
	default:
		s.buf = slices.Grow(s.buf, BlockEncodedSize(b))
		encodeBlock(s, b)
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Shared field helpers, each with the size of what it writes.

func putString(s *encSink, v string) {
	s.uvarint(uint64(len(v)))
	s.buf = append(s.buf, v...)
}

func stringLen(v string) int { return uvarintLen(uint64(len(v))) + len(v) }

func putBytes(s *encSink, v []byte) {
	s.uvarint(uint64(len(v)))
	s.bytes(v)
}

func bytesLen(v []byte) int { return uvarintLen(uint64(len(v))) + len(v) }

func putDigest(s *encSink, d crypto.Digest) { s.bytes(d[:]) }

const digestLen = len(crypto.Digest{})

func putUint64s(s *encSink, vs []uint64) {
	s.uvarint(uint64(len(vs)))
	for _, v := range vs {
		s.uvarint(v)
	}
}

func uint64sLen(vs []uint64) int {
	n := uvarintLen(uint64(len(vs)))
	for _, v := range vs {
		n += uvarintLen(v)
	}
	return n
}

func putBool(s *encSink, v bool) {
	if v {
		s.byte(1)
	} else {
		s.byte(0)
	}
}

// decoder reads fields, latching the first error. Byte fields it hands out
// alias buf. The what labels are constants and reach a string only inside
// fail: the success path formats nothing.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) { d.failWith(ErrTruncated, what) }

func (d *decoder) failWith(cause error, what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: reading %s at offset %d", cause, what, d.off)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// take returns the next n bytes as a sub-slice of the input whose capacity
// ends where it does, so an append by the holder cannot reach a neighbour.
func (d *decoder) take(n uint64, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(what)
		return nil
	}
	end := d.off + int(n)
	b := d.buf[d.off:end:end]
	d.off = end
	return b
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 { // one byte: the common case
		d.off++
		return uint64(d.buf[d.off-1])
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	if d.buf[d.off+n-1] == 0 { // a trailing zero group: the shorter form exists
		d.failWith(ErrNonCanonical, what)
		return 0
	}
	d.off += n
	return v
}

// uint32 reads a varint that must fit 32 bits: a wider value would be
// silently truncated and re-encode differently.
func (d *decoder) uint32(what string) uint32 {
	v := d.uvarint(what)
	if v > math.MaxUint32 {
		d.failWith(ErrNonCanonical, what)
		return 0
	}
	return uint32(v)
}

func (d *decoder) str(what string) string {
	return string(d.take(d.uvarint(what), what))
}

// skip passes over a length-prefixed field: a string or a byte field.
func (d *decoder) skip(what string) { d.take(d.uvarint(what), what) }

func (d *decoder) bytesField(what string) []byte {
	b := d.take(d.uvarint(what), what)
	if len(b) == 0 {
		return nil // canonical form: empty and nil encode identically
	}
	return b
}

func (d *decoder) digest(what string) crypto.Digest {
	var dg crypto.Digest
	copy(dg[:], d.take(uint64(len(dg)), what))
	return dg
}

// count reads an element count, bounded by the bytes that remain: every
// element of every list takes at least minBytes, so a larger count is a
// lie and must fail before anything is allocated for it.
func (d *decoder) count(minBytes int, what string) int {
	n := d.uvarint(what)
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.off)/uint64(minBytes) {
		d.fail(what)
		return 0
	}
	return int(n)
}

func (d *decoder) uint64s(what string) []uint64 {
	out := make([]uint64, d.count(1, what))
	for i := range out {
		out[i] = d.uvarint(what)
	}
	return out
}

// bool accepts only the two bytes putBool writes.
func (d *decoder) bool(what string) bool {
	b := d.byte()
	if b > 1 {
		d.failWith(ErrNonCanonical, what)
	}
	return b == 1
}
