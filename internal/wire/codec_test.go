package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"fabricgossip/internal/crypto"
	"fabricgossip/internal/ledger"
)

func testBlock(num uint64, txs int) *ledger.Block {
	rng := rand.New(rand.NewSource(int64(num) + 1))
	b := &ledger.Block{Num: num}
	for i := 0; i < txs; i++ {
		payload := make([]byte, rng.Intn(200))
		for j := range payload {
			payload[j] = byte(rng.Intn(256))
		}
		rw := ledger.RWSet{
			Reads: []ledger.KVRead{
				{Key: "key-a", Version: ledger.Version{BlockNum: num, TxNum: uint32(i)}},
				{Key: "key-b"},
			},
			Writes: []ledger.KVWrite{
				{Key: "key-a", Value: []byte{1, 2, 3}},
			},
		}
		tx := &ledger.Transaction{
			ID:        ledger.ProposalDigest("client", "cc", rw, payload),
			Client:    "client",
			Chaincode: "cc",
			RWSet:     rw,
			Endorsements: []ledger.Endorsement{
				{Org: "orgA", Name: "peer0", Sig: crypto.Signature{9, 9, 9}},
			},
			Payload: payload,
		}
		b.Txs = append(b.Txs, tx)
	}
	b.DataHash = ledger.ComputeDataHash(b.Txs)
	b.PrevHash = crypto.Hash([]byte("prev"))
	b.Sig = crypto.Signature{4, 5, 6}
	return b
}

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	blk := testBlock(7, 3)
	return []Message{
		&Data{Block: blk, Counter: 5},
		&PushDigest{Offers: []BlockOffer{{Num: 1, Counter: 2}, {Num: 900, Counter: 0}}},
		&PushRequest{Nums: []uint64{1, 2, 3}},
		&PullHello{Nonce: 42},
		&PullDigest{Nonce: 42, RunLo: 10, RunHi: 13},
		&PullRequest{Nonce: 42, Nums: []uint64{11}},
		&PullData{Nonce: 42, Block: blk},
		&StateInfo{Height: 123456},
		&StateRequest{From: 10, To: 20},
		&StateResponse{Batch: NewBlockBatch([]*ledger.Block{testBlock(1, 2), testBlock(2, 1)})},
		&Alive{Seq: 9, Meta: []byte("peer0@orgA")},
		&RaftVoteRequest{Term: 3, Candidate: 2, LastLogIndex: 99, LastLogTerm: 2},
		&RaftVoteResponse{Term: 3, Granted: true},
		&RaftAppend{
			Term: 4, Leader: 1, PrevLogIndex: 10, PrevLogTerm: 3,
			Entries:      []RaftEntry{{Term: 4, Data: []byte("tx1")}, {Term: 4, Data: nil}},
			LeaderCommit: 9, LowWater: 6,
		},
		&RaftAppendResponse{Term: 4, Success: false, MatchIndex: 7},
		&RaftForward{Data: []byte("payload")},
		&SubmitTx{Tx: blk.Txs[0]},
		&DeliverBlock{Block: blk},
		&MemberEvents{Events: []MemberEvent{
			{Peer: 3, Seq: 17, Kind: EventAlive},
			{Peer: 900, Seq: 1 << 40, Kind: EventSuspect},
			{Peer: 0, Seq: 0, Kind: EventDead},
		}},
		&ShuffleRequest{Entries: []MemberEvent{{Peer: 1, Seq: 5, Kind: EventAlive}}},
		&ShuffleResponse{Entries: []MemberEvent{{Peer: 2, Seq: 6, Kind: EventSuspect}}},
	}
}

// pullDigestCase is a pull digest as built in memory and the canonical form
// it decodes to (nil: itself).
type pullDigestCase struct {
	name    string
	m, want *PullDigest
}

// pullDigestCases are runs across the varint-length bands' edges and the
// shapes at the ends of the canonical split.
func pullDigestCases() []pullDigestCase {
	return []pullDigestCase{
		{name: "empty", m: &PullDigest{Nonce: 1}},
		{name: "run of one", m: &PullDigest{Nonce: 2, RunLo: 7, RunHi: 8}},
		{name: "127/128", m: &PullDigest{Nonce: 3, RunLo: 120, RunHi: 136, Nums: []uint64{140}}},
		{name: "16383/16384", m: &PullDigest{Nonce: 4, RunLo: 16380, RunHi: 16390, Nums: []uint64{16392, 20000}}},
		{name: "2^21-1/2^21", m: &PullDigest{Nonce: 5, RunLo: 1<<21 - 3, RunHi: 1<<21 + 2}},
		{name: "three bands and a long count", m: &PullDigest{Nonce: 6, RunLo: 0, RunHi: 20000}},
		{name: "2^63-1/2^63", m: &PullDigest{Nonce: 7, RunLo: 1<<63 - 2, RunHi: 1<<63 + 2, Nums: []uint64{3}}},
		{name: "run up to 2^64-1", m: &PullDigest{Nonce: 8, RunLo: math.MaxUint64 - 2, RunHi: math.MaxUint64, Nums: []uint64{math.MaxUint64}}},
		{name: "[2^64-1, 0] is not a run", m: &PullDigest{Nonce: 9, Nums: []uint64{math.MaxUint64, 0}}},
		{name: "strays below the run", m: &PullDigest{Nonce: 10, RunLo: 10, RunHi: 12, Nums: []uint64{3, 4}}},
		{
			name: "empty run with strays",
			m:    &PullDigest{Nonce: 11, Nums: []uint64{5, 9}},
			want: &PullDigest{Nonce: 11, RunLo: 5, RunHi: 6, Nums: []uint64{9}},
		},
		{
			name: "stray continuing the run",
			m:    &PullDigest{Nonce: 12, RunLo: 10, RunHi: 12, Nums: []uint64{12, 14}},
			want: &PullDigest{Nonce: 12, RunLo: 10, RunHi: 13, Nums: []uint64{14}},
		},
	}
}

// A pull digest's run is written out on the wire: the bytes are the
// number-list encoding of the run followed by the strays, EncodedSize counts
// them without walking the run, and decoding gives the canonical split.
func TestPullDigestRunIsTheListOnTheWire(t *testing.T) {
	for _, c := range pullDigestCases() {
		list := binary.AppendUvarint([]byte{byte(TypePullDigest)}, c.m.Nonce)
		list = binary.AppendUvarint(list, c.m.RunHi-c.m.RunLo+uint64(len(c.m.Nums)))
		for v := c.m.RunLo; v < c.m.RunHi; v++ {
			list = binary.AppendUvarint(list, v)
		}
		for _, v := range c.m.Nums {
			list = binary.AppendUvarint(list, v)
		}
		data := Marshal(c.m)
		if !bytes.Equal(data, list) {
			t.Fatalf("%s: Marshal differs from the number list", c.name)
		}
		if got := c.m.EncodedSize(); got != len(data) {
			t.Fatalf("%s: EncodedSize = %d, Marshal produced %d bytes", c.name, got, len(data))
		}
		want := c.want
		if want == nil {
			want = c.m
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v, want %+v", c.name, got, want)
		}
	}
}

func TestAllMessageTypesCovered(t *testing.T) {
	seen := map[MsgType]bool{}
	for _, m := range allMessages() {
		seen[m.Type()] = true
	}
	for ty := MsgType(1); ty < maxMsgType; ty++ {
		if !seen[ty] {
			t.Errorf("message type %v has no test instance", ty)
		}
	}
}

// blocksOf returns the blocks a message carries.
func blocksOf(m Message) []*ledger.Block {
	switch m := m.(type) {
	case *Data:
		return []*ledger.Block{m.Block}
	case *PullData:
		return []*ledger.Block{m.Block}
	case *DeliverBlock:
		return []*ledger.Block{m.Block}
	case *StateResponse:
		return m.Blocks()
	}
	return nil
}

// bare returns m with every block replaced by a copy of its exported
// fields and its transactions: the encoding cached on a block is not part of
// its value, and a decoded block carries one (and builds its transactions
// from it) where a hand-built block may not.
func bare(m Message) Message {
	strip := func(b *ledger.Block) *ledger.Block {
		return &ledger.Block{Num: b.Num, PrevHash: b.PrevHash, DataHash: b.DataHash, Txs: b.Transactions(), Sig: b.Sig}
	}
	switch m := m.(type) {
	case *Data:
		return &Data{Block: strip(m.Block), Counter: m.Counter}
	case *PullData:
		return &PullData{Nonce: m.Nonce, Block: strip(m.Block)}
	case *DeliverBlock:
		return &DeliverBlock{Block: strip(m.Block)}
	case *StateResponse:
		out := &StateResponse{Batch: &BlockBatch{}}
		for _, b := range m.Blocks() {
			out.Batch.Blocks = append(out.Batch.Blocks, strip(b))
		}
		return out
	}
	return m
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, m := range allMessages() {
		m := m
		t.Run(m.Type().String(), func(t *testing.T) {
			data := Marshal(m)
			got, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !reflect.DeepEqual(bare(got), bare(m)) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, m)
			}
			if again := Marshal(got); !bytes.Equal(again, data) {
				t.Fatalf("re-marshal differs (%d vs %d bytes)", len(again), len(data))
			}
		})
	}
}

// walks returns fresh walks of blocks, back to back: what a message that
// carries them ends with.
func walks(blocks []*ledger.Block) []byte {
	s := &encSink{}
	for _, b := range blocks {
		encodeBlock(s, b)
	}
	return s.buf
}

// AppendMessage's head and bodies concatenate to exactly Marshal's bytes,
// whose length EncodedSize predicts, for every message as built and as
// decoded, on every call. A built block is walked into the head and keeps
// no encoding; a decoded block is sent as the one slice cached on it.
func TestAppendMessageSplitsAtTheBlocks(t *testing.T) {
	for _, built := range allMessages() {
		decoded, err := Unmarshal(Marshal(built))
		if err != nil {
			t.Fatalf("%v: %v", built.Type(), err)
		}
		for _, m := range []Message{built, decoded} {
			form := "built"
			if m == decoded {
				form = "decoded"
			}
			blocks := blocksOf(m)
			for round := 0; round < 2; round++ {
				head, bodies := AppendMessage([]byte{0xAB, 0xCD}, nil, m)
				whole := append(head, bytes.Join(bodies, nil)...)
				want := Marshal(m)
				if !bytes.Equal(whole, append([]byte{0xAB, 0xCD}, want...)) {
					t.Fatalf("%v %s: head+bodies differ from Marshal", m.Type(), form)
				}
				if got := AppendMarshal([]byte{0xAB, 0xCD}, m); !bytes.Equal(got, whole) {
					t.Fatalf("%v %s: AppendMarshal differs from head+bodies", m.Type(), form)
				}
				if got := m.EncodedSize(); got != len(want) {
					t.Fatalf("%v %s: EncodedSize = %d, len(Marshal) = %d", m.Type(), form, got, len(want))
				}
				if !bytes.HasSuffix(want, walks(blocks)) {
					t.Fatalf("%v %s: the blocks differ from a fresh walk", m.Type(), form)
				}
				if m == built {
					if len(bodies) != 0 {
						t.Fatalf("%v: %d bodies for built blocks, want them in the head", m.Type(), len(bodies))
					}
					continue
				}
				if len(bodies) != len(blocks) {
					t.Fatalf("%v: %d bodies for %d decoded blocks", m.Type(), len(bodies), len(blocks))
				}
				for i, b := range bodies {
					if &b[0] != &blocks[i].WireEncoding()[0] {
						t.Fatalf("%v: body %d is not the block's cached encoding", m.Type(), i)
					}
				}
			}
		}
		for _, b := range blocksOf(built) {
			if b.WireEncoding() != nil {
				t.Fatalf("%v: block %d kept an encoding after being marshalled", built.Type(), b.Num)
			}
		}
	}
}

// within reports whether b lies inside buf (same backing array).
func within(b, buf []byte) bool {
	for i := range buf {
		if &buf[i] == &b[0] {
			return i+len(b) <= len(buf)
		}
	}
	return false
}

// Unmarshal hands out byte fields and block encodings as sub-slices of its
// input, each with its capacity clipped to its length so that an append by
// the holder reallocates instead of writing over the neighbouring field.
func TestUnmarshalAliasesInput(t *testing.T) {
	data := Marshal(&StateResponse{Batch: NewBlockBatch([]*ledger.Block{testBlock(1, 2), testBlock(2, 3)})})
	orig := append([]byte{}, data...)
	m, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	var fields [][]byte
	for _, b := range m.(*StateResponse).Blocks() {
		fields = append(fields, b.WireEncoding(), b.Sig)
		for _, tx := range b.Transactions() {
			fields = append(fields, tx.Payload)
			for _, w := range tx.RWSet.Writes {
				fields = append(fields, w.Value)
			}
			for _, e := range tx.Endorsements {
				fields = append(fields, e.Sig)
			}
		}
	}
	for i, f := range fields {
		if len(f) == 0 {
			continue
		}
		if !within(f, data) {
			t.Fatalf("field %d was copied out of the input", i)
		}
		if cap(f) != len(f) {
			t.Fatalf("field %d has cap %d > len %d: an append would overwrite its neighbour", i, cap(f), len(f))
		}
		_ = append(f, 0xFF)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("appending to decoded fields wrote into the input")
	}
	raft, err := Unmarshal(Marshal(&RaftAppend{Entries: []RaftEntry{{Term: 1, Data: []byte("abc")}}}))
	if err != nil {
		t.Fatal(err)
	}
	if d := raft.(*RaftAppend).Entries[0].Data; cap(d) != len(d) {
		t.Fatalf("raft entry data has cap %d > len %d", cap(d), len(d))
	}
}

// Sizing, marshalling and decoding a block must leave nothing in package
// wire that keeps it alive: the cache is on the block. (With a process-wide
// cache keyed by the block the finalizers below never run.)
func TestWireRetainsNoBlock(t *testing.T) {
	const n = 8
	collected := make(chan struct{}, 2*n)
	func() {
		for i := 0; i < n; i++ {
			b := testBlock(uint64(i), 4)
			_ = BlockEncodedSize(b)
			m, err := Unmarshal(Marshal(&Data{Block: b, Counter: 1}))
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(b, func(*ledger.Block) { collected <- struct{}{} })
			runtime.SetFinalizer(m.(*Data).Block, func(*ledger.Block) { collected <- struct{}{} })
		}
	}()
	// Finalizers run on their own goroutine some time after the collection
	// that found the block unreachable.
	for deadline := time.Now().Add(5 * time.Second); len(collected) < 2*n && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := len(collected); got != 2*n {
		t.Fatalf("%d of %d blocks were collected after their last use", got, 2*n)
	}
}

// Only the canonical encoding of a value is accepted: a non-minimal varint
// or a 32-bit field that overflows would decode to a tree whose walk differs
// from the bytes recorded as its encoding.
func TestUnmarshalRejectsNonCanonical(t *testing.T) {
	good := Marshal(&PullHello{Nonce: 5})
	if _, err := Unmarshal(good); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"padded one-byte varint":   {byte(TypePullHello), 0x85, 0x00},
		"padded zero":              {byte(TypePullHello), 0x80, 0x00},
		"padded two-byte varint":   {byte(TypePullHello), 0x80, 0x81, 0x00},
		"counter over 32 bits":     append([]byte{byte(TypePushDigest), 1, 7}, 0x80, 0x80, 0x80, 0x80, 0x10),
		"node id over 32 bits":     append([]byte{byte(TypeMemberEvents), 1}, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 1),
		"bool that is not 0 or 1":  {byte(TypeRaftVoteResponse), 3, 2},
		"tx num over 32 bits":      overflowingTxNum(t),
		"padded varint in a block": paddedBlockNum(t),
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); !errors.Is(err, ErrNonCanonical) {
			t.Errorf("%s: err = %v, want ErrNonCanonical", name, err)
		}
	}
	// The largest values that do fit are fine.
	if _, err := Unmarshal([]byte{byte(TypePushDigest), 1, 7, 0xff, 0xff, 0xff, 0xff, 0x0f}); err != nil {
		t.Errorf("counter of exactly 32 bits rejected: %v", err)
	}
}

// overflowingTxNum is a Data message whose single read carries TxNum 1<<32.
func overflowingTxNum(t testing.TB) []byte {
	t.Helper()
	tx := &ledger.Transaction{RWSet: ledger.RWSet{Reads: []ledger.KVRead{{Key: "k", Version: ledger.Version{TxNum: 1}}}}}
	data := Marshal(&Data{Block: &ledger.Block{Txs: []*ledger.Transaction{tx}}})
	// type, counter, block num, two digests, sig length, tx count; then tx
	// id, client, chaincode, read count, key length, key, block num.
	at := 1 + 1 + 1 + 64 + 1 + 1 + 32 + 1 + 1 + 1 + 1 + 1 + 1
	if data[at] != 1 {
		t.Fatalf("byte %d is %d, not the TxNum", at, data[at])
	}
	out := append([]byte{}, data[:at]...)
	out = append(out, 0x80, 0x80, 0x80, 0x80, 0x10)
	return append(out, data[at+1:]...)
}

// paddedBlockNum is a DeliverBlock whose block number 1 is spelled 0x81 0x00.
func paddedBlockNum(t testing.TB) []byte {
	t.Helper()
	data := Marshal(&DeliverBlock{Block: &ledger.Block{Num: 1}})
	if data[1] != 1 {
		t.Fatalf("byte 1 is %d, not the block number", data[1])
	}
	return append([]byte{data[0], 0x81, 0x00}, data[2:]...)
}

func TestRoundTripByteEquality(t *testing.T) {
	for _, m := range allMessages() {
		data := Marshal(m)
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		data2 := Marshal(got)
		if string(data) != string(data2) {
			t.Fatalf("%v: re-marshal differs (%d vs %d bytes)", m.Type(), len(data), len(data2))
		}
	}
}

func TestEncodedSizeMatchesMarshalledLength(t *testing.T) {
	for _, m := range allMessages() {
		if got, want := m.EncodedSize(), len(Marshal(m)); got != want {
			t.Errorf("%v: EncodedSize = %d, len(Marshal) = %d", m.Type(), got, want)
		}
	}
}

func TestBlockEncodedSizeIsCachedAndExact(t *testing.T) {
	b := testBlock(99, 5)
	s1 := BlockEncodedSize(b)
	s2 := BlockEncodedSize(b)
	if s1 != s2 {
		t.Fatalf("cache returned different sizes: %d vs %d", s1, s2)
	}
	m := &Data{Block: b}
	if len(Marshal(m)) != m.EncodedSize() {
		t.Fatal("block size cache disagrees with marshal")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := Unmarshal([]byte{255}); err == nil {
		t.Error("unknown type accepted")
	}
	// Truncations of every valid encoding must fail, never panic.
	for _, m := range allMessages() {
		data := Marshal(m)
		for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
			if cut >= len(data) {
				continue
			}
			if _, err := Unmarshal(data[:cut]); err == nil {
				t.Errorf("%v truncated to %d bytes accepted", m.Type(), cut)
			}
		}
	}
	// Trailing garbage must fail.
	data := append(Marshal(&PullHello{Nonce: 1}), 0xEE)
	if _, err := Unmarshal(data); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestUvarintLen(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 127: 1, 128: 2, 16383: 2, 16384: 3, 1 << 62: 9}
	for v, want := range cases {
		if got := uvarintLen(v); got != want {
			t.Errorf("uvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
}

// Property: any Alive message round-trips and sizes exactly, for arbitrary
// metadata bytes.
func TestPropertyAliveRoundTrip(t *testing.T) {
	f := func(seq uint64, meta []byte) bool {
		m := &Alive{Seq: seq, Meta: meta}
		data := Marshal(m)
		if len(data) != m.EncodedSize() {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		ga := got.(*Alive)
		return ga.Seq == seq && string(ga.Meta) == string(meta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: push digests with arbitrary offer lists round-trip exactly.
func TestPropertyPushDigestRoundTrip(t *testing.T) {
	f := func(nums []uint64, counters []uint32) bool {
		n := len(nums)
		if len(counters) < n {
			n = len(counters)
		}
		m := &PushDigest{}
		for i := 0; i < n; i++ {
			m.Offers = append(m.Offers, BlockOffer{Num: nums[i], Counter: counters[i]})
		}
		data := Marshal(m)
		if len(data) != m.EncodedSize() {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		gd := got.(*PushDigest)
		if len(gd.Offers) != len(m.Offers) {
			return false
		}
		for i := range m.Offers {
			if gd.Offers[i] != m.Offers[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random mutations of encoded bytes either decode to some message
// or fail cleanly — never panic.
func TestPropertyFuzzNoPanic(t *testing.T) {
	msgs := allMessages()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		m := msgs[rng.Intn(len(msgs))]
		data := Marshal(m)
		mutated := make([]byte, len(data))
		copy(mutated, data)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mutated[rng.Intn(len(mutated))] = byte(rng.Intn(256))
		}
		_, _ = Unmarshal(mutated) // must not panic
	}
}

func TestBlockRoundTripPreservesHashesAndLinkage(t *testing.T) {
	prev := testBlock(0, 2)
	b := testBlock(1, 4)
	b.PrevHash = prev.Hash()
	b.DataHash = ledger.ComputeDataHash(b.Txs)
	got, err := Unmarshal(Marshal(&Data{Block: b, Counter: 1}))
	if err != nil {
		t.Fatal(err)
	}
	rb := got.(*Data).Block
	if rb.Hash() != b.Hash() {
		t.Fatal("block hash changed across encoding")
	}
	if err := rb.VerifyLinkage(prev); err != nil {
		t.Fatalf("decoded block fails linkage: %v", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypeData.String() != "Data" || TypeRaftAppend.String() != "RaftAppend" {
		t.Error("known type names wrong")
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Error("unknown type name wrong")
	}
}

func TestNodeIDString(t *testing.T) {
	if NodeID(7).String() != "n7" {
		t.Errorf("NodeID(7) = %q", NodeID(7).String())
	}
}

// A decoded block builds its transactions on the first read. Readers that
// race to be first (run under -race: the publication races with every read)
// all get the one slice the block keeps, and later readers get it too.
func TestTransactionsConcurrentReaders(t *testing.T) {
	const readers = 8
	m, err := Unmarshal(Marshal(&Data{Block: testBlock(7, 50), Counter: 3}))
	if err != nil {
		t.Fatal(err)
	}
	b := m.(*Data).Block
	if b.Txs != nil || b.NumTxs() != 50 {
		t.Fatalf("decoded block: Txs %d built, NumTxs %d; want none built, 50", len(b.Txs), b.NumTxs())
	}
	got := make([][]*ledger.Transaction, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = b.Transactions()
		}()
	}
	close(start)
	wg.Wait()
	got = append(got, b.Transactions())
	for i, txs := range got {
		if len(txs) != 50 || &txs[0] != &got[0][0] {
			t.Fatalf("reader %d got a different slice (%d transactions)", i, len(txs))
		}
	}
}
