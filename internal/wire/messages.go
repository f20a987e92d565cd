package wire

import (
	"math"

	"fabricgossip/internal/ledger"
)

// --- Block dissemination (push phase) ---

// Data carries a full block during the push phase. Counter implements the
// paper's infect-upon-contagion hop counter: it is 0 for the copy leaving
// the ordering service and increments at every forwarding hop. The original
// Fabric protocol ignores the counter.
type Data struct {
	Block   *ledger.Block
	Counter uint32

	// pool/refs tie the envelope to a DataPool free list on the simulated
	// hot path. Unexported and never encoded; literal-built messages leave
	// pool nil and Release is a no-op.
	pool *DataPool
	refs int32
}

// Release implements Releasable: the envelope returns to its pool when the
// last outstanding delivery terminates.
func (m *Data) Release() {
	if m.pool == nil {
		return
	}
	m.refs--
	if m.refs == 0 {
		m.pool.put(m)
	} else if m.refs < 0 {
		panic("wire: Data released more times than its reference count")
	}
}

// Type implements Message.
func (*Data) Type() MsgType { return TypeData }

// EncodedSize implements Message.
func (m *Data) EncodedSize() int {
	// type byte + counter varint + cached block size
	return 1 + uvarintLen(uint64(m.Counter)) + BlockEncodedSize(m.Block)
}

func (m *Data) encode(s *encSink) {
	s.uvarint(uint64(m.Counter))
	s.block(m.Block)
}

func decodeData(d *decoder) *Data {
	m := &Data{}
	m.Counter = d.uint32("counter")
	m.Block = decodeBlock(d)
	return m
}

// BlockOffer is one entry of a push digest: "I can give you block Num; it
// is Counter hops into its epidemic".
type BlockOffer struct {
	Num     uint64
	Counter uint32
}

// PushDigest offers blocks by number instead of pushing their bodies
// (enhanced protocol, "digests for the push phase"). Receivers answer with
// a PushRequest for the bodies they lack.
type PushDigest struct {
	Offers []BlockOffer

	// pool/refs: see Data. Unexported, never encoded.
	pool *PushDigestPool
	refs int32
}

// Release implements Releasable (see Data.Release).
func (m *PushDigest) Release() {
	if m.pool == nil {
		return
	}
	m.refs--
	if m.refs == 0 {
		m.pool.put(m)
	} else if m.refs < 0 {
		panic("wire: PushDigest released more times than its reference count")
	}
}

// Type implements Message.
func (*PushDigest) Type() MsgType { return TypePushDigest }

// EncodedSize implements Message.
func (m *PushDigest) EncodedSize() int {
	n := 1 + uvarintLen(uint64(len(m.Offers)))
	for _, o := range m.Offers {
		n += uvarintLen(o.Num) + uvarintLen(uint64(o.Counter))
	}
	return n
}

func (m *PushDigest) encode(s *encSink) {
	s.uvarint(uint64(len(m.Offers)))
	for _, o := range m.Offers {
		s.uvarint(o.Num)
		s.uvarint(uint64(o.Counter))
	}
}

func decodePushDigest(d *decoder) *PushDigest {
	m := &PushDigest{}
	n := d.count(2, "offer count")
	m.Offers = make([]BlockOffer, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		o := BlockOffer{Num: d.uvarint("offer num")}
		o.Counter = d.uint32("offer counter")
		m.Offers = append(m.Offers, o)
	}
	return m
}

// PushRequest asks the sender of a PushDigest for the listed block bodies.
type PushRequest struct {
	Nums []uint64
}

// Type implements Message.
func (*PushRequest) Type() MsgType { return TypePushRequest }

// EncodedSize implements Message.
func (m *PushRequest) EncodedSize() int { return 1 + uint64sLen(m.Nums) }

func (m *PushRequest) encode(s *encSink) { putUint64s(s, m.Nums) }

func decodePushRequest(d *decoder) *PushRequest {
	return &PushRequest{Nums: d.uint64s("request nums")}
}

// --- Pull component (original Fabric gossip) ---

// PullHello opens a pull round with a random peer (Fabric's pull mediator
// Hello). Nonce correlates the round's four messages.
type PullHello struct {
	Nonce uint64
}

// Type implements Message.
func (*PullHello) Type() MsgType { return TypePullHello }

// EncodedSize implements Message.
func (m *PullHello) EncodedSize() int { return 1 + uvarintLen(m.Nonce) }

func (m *PullHello) encode(s *encSink) { s.uvarint(m.Nonce) }

func decodePullHello(d *decoder) *PullHello {
	return &PullHello{Nonce: d.uvarint("nonce")}
}

// PullDigest answers a PullHello with the numbers of recently held blocks:
// the contiguous run [RunLo, RunHi) (RunLo <= RunHi), then Nums, the strays
// (the blocks the responder stores above its first gap). On the wire it is
// one list of numbers, the run written out in full; decoding splits the
// list into its longest leading run of consecutive numbers and the rest, so
// that form is the canonical one. A run never holds 2^64-1, which would
// need RunHi = 2^64.
type PullDigest struct {
	Nonce        uint64
	RunLo, RunHi uint64
	Nums         []uint64
}

// Type implements Message.
func (*PullDigest) Type() MsgType { return TypePullDigest }

// EncodedSize implements Message.
func (m *PullDigest) EncodedSize() int {
	n := 1 + uvarintLen(m.Nonce) + uvarintLen(m.RunHi-m.RunLo+uint64(len(m.Nums))) + runBytes(m.RunLo, m.RunHi)
	for _, v := range m.Nums {
		n += uvarintLen(v)
	}
	return n
}

func (m *PullDigest) encode(s *encSink) {
	s.uvarint(m.Nonce)
	s.uvarint(m.RunHi - m.RunLo + uint64(len(m.Nums)))
	for v := m.RunLo; v < m.RunHi; v++ {
		s.uvarint(v)
	}
	for _, v := range m.Nums {
		s.uvarint(v)
	}
}

func decodePullDigest(d *decoder) *PullDigest {
	m := &PullDigest{Nonce: d.uvarint("nonce")}
	n := d.count(1, "digest nums")
	for i := 0; i < n && d.err == nil; i++ {
		v := d.uvarint("digest nums")
		if m.Nums == nil && v != math.MaxUint64 && (i == 0 || v == m.RunHi) {
			if i == 0 {
				m.RunLo = v
			}
			m.RunHi = v + 1
			continue
		}
		if m.Nums == nil {
			m.Nums = make([]uint64, 0, n-i)
		}
		m.Nums = append(m.Nums, v)
	}
	return m
}

// runBytes is the varint bytes of the numbers [lo, hi), summed per
// varint-length band: the k-byte numbers are those below 2^(7k) and not
// below 2^(7(k-1)), and every number from 2^63 up takes ten bytes.
func runBytes(lo, hi uint64) int {
	n := 0
	for lo < hi {
		k := uvarintLen(lo)
		end := hi
		if k < 10 {
			end = min(hi, uint64(1)<<(7*k))
		}
		n += k * int(end-lo)
		lo = end
	}
	return n
}

// PullRequest asks for the block bodies the puller is missing.
type PullRequest struct {
	Nonce uint64
	Nums  []uint64
}

// Type implements Message.
func (*PullRequest) Type() MsgType { return TypePullRequest }

// EncodedSize implements Message.
func (m *PullRequest) EncodedSize() int { return 1 + uvarintLen(m.Nonce) + uint64sLen(m.Nums) }

func (m *PullRequest) encode(s *encSink) {
	s.uvarint(m.Nonce)
	putUint64s(s, m.Nums)
}

func decodePullRequest(d *decoder) *PullRequest {
	m := &PullRequest{Nonce: d.uvarint("nonce")}
	m.Nums = d.uint64s("request nums")
	return m
}

// PullData returns one block body in response to a PullRequest. Blocks
// received through pull do not re-enter the push phase (paper §III-A), which
// is why pull data is a distinct type from Data.
type PullData struct {
	Nonce uint64
	Block *ledger.Block
}

// Type implements Message.
func (*PullData) Type() MsgType { return TypePullData }

// EncodedSize implements Message.
func (m *PullData) EncodedSize() int {
	return 1 + uvarintLen(m.Nonce) + BlockEncodedSize(m.Block)
}

func (m *PullData) encode(s *encSink) {
	s.uvarint(m.Nonce)
	s.block(m.Block)
}

func decodePullData(d *decoder) *PullData {
	m := &PullData{Nonce: d.uvarint("nonce")}
	m.Block = decodeBlock(d)
	return m
}

// --- State metadata and recovery (anti-entropy) ---

// StateInfo advertises the sender's ledger height. Peers gossip it
// periodically; the recovery component uses it to detect that it is behind
// (paper §III-A, "recovery").
type StateInfo struct {
	Height uint64
}

// Type implements Message.
func (*StateInfo) Type() MsgType { return TypeStateInfo }

// EncodedSize implements Message.
func (m *StateInfo) EncodedSize() int { return 1 + uvarintLen(m.Height) }

func (m *StateInfo) encode(s *encSink) { s.uvarint(m.Height) }

func decodeStateInfo(d *decoder) *StateInfo {
	return &StateInfo{Height: d.uvarint("height")}
}

// StateRequest asks a peer with a higher ledger for the consecutive blocks
// [From, To).
type StateRequest struct {
	From uint64
	To   uint64
}

// Type implements Message.
func (*StateRequest) Type() MsgType { return TypeStateRequest }

// EncodedSize implements Message.
func (m *StateRequest) EncodedSize() int {
	return 1 + uvarintLen(m.From) + uvarintLen(m.To)
}

func (m *StateRequest) encode(s *encSink) {
	s.uvarint(m.From)
	s.uvarint(m.To)
}

func decodeStateRequest(d *decoder) *StateRequest {
	m := &StateRequest{From: d.uvarint("from")}
	m.To = d.uvarint("to")
	return m
}

// BlockBatch is the payload of a StateResponse: an immutable run of
// consecutive blocks, framed as a uvarint block count followed by the
// concatenated canonical block bodies. A batch owns no bytes: a decoded
// block's body is the encoding cached on it, shared by every batch (and
// every serving peer) that covers the block, so a repeated transmission of
// the same range neither re-walks the block trees nor copies them — the
// simulated transport sums the cached lengths, the TCP transport writes the
// cached slices. A built block is walked on each transmission.
type BlockBatch struct {
	Blocks []*ledger.Block
}

// NewBlockBatch wraps blocks in a batch.
func NewBlockBatch(blocks []*ledger.Block) *BlockBatch {
	return &BlockBatch{Blocks: blocks}
}

// StateResponse returns a batch of consecutive blocks for recovery.
type StateResponse struct {
	Batch *BlockBatch
}

// Blocks returns the batch's blocks (nil-safe).
func (m *StateResponse) Blocks() []*ledger.Block {
	if m.Batch == nil {
		return nil
	}
	return m.Batch.Blocks
}

// Type implements Message.
func (*StateResponse) Type() MsgType { return TypeStateResponse }

// EncodedSize implements Message, from the cached block sizes.
func (m *StateResponse) EncodedSize() int {
	blocks := m.Blocks()
	n := 1 + uvarintLen(uint64(len(blocks)))
	for _, b := range blocks {
		n += BlockEncodedSize(b)
	}
	return n
}

func (m *StateResponse) encode(s *encSink) {
	blocks := m.Blocks()
	s.uvarint(uint64(len(blocks)))
	for _, b := range blocks {
		s.block(b)
	}
}

func decodeStateResponse(d *decoder) *StateResponse {
	m := &StateResponse{Batch: &BlockBatch{}}
	n := d.count(minBlockBytes, "block count")
	m.Batch.Blocks = make([]*ledger.Block, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		m.Batch.Blocks = append(m.Batch.Blocks, decodeBlock(d))
	}
	return m
}

// Alive is the periodic membership heartbeat. Together with StateInfo it
// forms the idle background traffic visible in the paper's bandwidth plots.
type Alive struct {
	Seq uint64
	// Meta pads the heartbeat to a realistic size (identity, endpoint,
	// signature material in Fabric's AliveMessage).
	Meta []byte
}

// Type implements Message.
func (*Alive) Type() MsgType { return TypeAlive }

// EncodedSize implements Message.
func (m *Alive) EncodedSize() int { return 1 + uvarintLen(m.Seq) + bytesLen(m.Meta) }

func (m *Alive) encode(s *encSink) {
	s.uvarint(m.Seq)
	putBytes(s, m.Meta)
}

func decodeAlive(d *decoder) *Alive {
	m := &Alive{Seq: d.uvarint("seq")}
	m.Meta = d.bytesField("meta")
	return m
}

// --- Client to ordering service ---

// SubmitTx carries an endorsed transaction proposal from a client (via a
// peer) to the ordering service.
type SubmitTx struct {
	Tx *ledger.Transaction
}

// Type implements Message.
func (*SubmitTx) Type() MsgType { return TypeSubmitTx }

// EncodedSize implements Message.
func (m *SubmitTx) EncodedSize() int { return 1 + txLen(m.Tx) }

func (m *SubmitTx) encode(s *encSink) { encodeTx(s, m.Tx) }

func decodeSubmitTx(d *decoder) *SubmitTx {
	return &SubmitTx{Tx: decodeTx(d)}
}

// DeliverBlock carries a freshly ordered block from the ordering service to
// an organization's leader peer.
type DeliverBlock struct {
	Block *ledger.Block
}

// Type implements Message.
func (*DeliverBlock) Type() MsgType { return TypeDeliverBlock }

// EncodedSize implements Message.
func (m *DeliverBlock) EncodedSize() int { return 1 + BlockEncodedSize(m.Block) }

func (m *DeliverBlock) encode(s *encSink) { s.block(m.Block) }

func decodeDeliverBlock(d *decoder) *DeliverBlock {
	return &DeliverBlock{Block: decodeBlock(d)}
}
