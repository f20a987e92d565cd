package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/wire"
)

// frameOf builds the frame Send would write for msg from the given sender,
// with any extra bytes appended inside the frame.
func frameOf(from wire.NodeID, msg wire.Message, extra ...byte) []byte {
	body := append(wire.Marshal(msg), extra...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(4+len(body)))
	frame = binary.BigEndian.AppendUint32(frame, uint32(from))
	return append(frame, body...)
}

// oneOfEach returns a message of every wire type.
func oneOfEach() []wire.Message {
	blk := testBlockTCP(3)
	ev := []wire.MemberEvent{{Peer: 3, Seq: 17, Kind: wire.EventAlive}}
	return []wire.Message{
		&wire.Data{Block: blk, Counter: 5},
		&wire.PushDigest{Offers: []wire.BlockOffer{{Num: 1, Counter: 2}}},
		&wire.PushRequest{Nums: []uint64{1, 2, 3}},
		&wire.PullHello{Nonce: 42},
		&wire.PullDigest{Nonce: 42, Nums: []uint64{10, 11}},
		&wire.PullRequest{Nonce: 42, Nums: []uint64{11}},
		&wire.PullData{Nonce: 42, Block: blk},
		&wire.StateInfo{Height: 123456},
		&wire.StateRequest{From: 10, To: 20},
		&wire.StateResponse{Batch: wire.NewBlockBatch([]*ledger.Block{testBlockTCP(1), testBlockTCP(2)})},
		&wire.Alive{Seq: 9, Meta: []byte("peer0@orgA")},
		&wire.RaftVoteRequest{Term: 3, Candidate: 2, LastLogIndex: 99, LastLogTerm: 2},
		&wire.RaftVoteResponse{Term: 3, Granted: true},
		&wire.RaftAppend{Term: 4, Leader: 1, Entries: []wire.RaftEntry{{Term: 4, Data: []byte("tx1")}}, LeaderCommit: 9},
		&wire.RaftAppendResponse{Term: 4, MatchIndex: 7},
		&wire.RaftForward{Data: []byte("payload")},
		&wire.SubmitTx{Tx: blk.Txs[0]},
		&wire.DeliverBlock{Block: blk},
		&wire.MemberEvents{Events: ev},
		&wire.ShuffleRequest{Entries: ev},
		&wire.ShuffleResponse{Entries: ev},
	}
}

// allocatedBy returns the bytes fn allocated (on this goroutine or any
// other, so callers leave slack).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader. It must
// never panic, never return a message together with an error, account
// exactly the bytes it consumed, accept only what Send would have written
// for the message it returns, and never let the length prefix decide how
// much memory a frame costs: at most readChunk beyond what arrived.
func FuzzReadFrame(f *testing.F) {
	msgs := oneOfEach()
	if len(msgs) != wire.NumMsgTypes-1 {
		f.Fatalf("%d seed messages for %d message types", len(msgs), wire.NumMsgTypes-1)
	}
	for _, m := range msgs {
		f.Add(frameOf(7, m))
	}
	good := frameOf(7, &wire.Data{Block: testBlockTCP(3), Counter: 1})
	for n := uint32(0); n < 4; n++ { // lengths too short to hold a sender id
		f.Add(binary.BigEndian.AppendUint32(nil, n))
	}
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, maxFrame), good[4:]...)) // lying length
	f.Add(good[:len(good)/2])                                                // truncated payload
	f.Add(good[:3])                                                          // truncated prefix
	f.Add(append(append([]byte{}, good...), frameOf(8, &wire.StateInfo{Height: 2})...))
	f.Add(append(append([]byte{}, good...), 0xAA, 0xBB))        // trailing garbage after a frame
	f.Add(frameOf(7, &wire.StateInfo{Height: 2}, 0xAA))         // trailing garbage inside one
	f.Add(frameOf(7, &wire.PullHello{Nonce: 1})[:9])            // frame holding only a type byte
	f.Add(binary.BigEndian.AppendUint32([]byte{0, 0, 0, 4}, 7)) // sender id and no message

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		used := allocatedBy(func() {
			for r.Len() > 0 {
				at := len(data) - r.Len()
				from, msg, size, err := readFrame(r)
				if err != nil {
					if msg != nil {
						t.Fatalf("message %v returned with error %v", msg.Type(), err)
					}
					return
				}
				if msg == nil {
					t.Fatal("neither message nor error")
				}
				if consumed := len(data) - r.Len() - at; size != consumed {
					t.Fatalf("size = %d, consumed %d bytes", size, consumed)
				}
				if !bytes.Equal(frameOf(from, msg), data[at:at+size]) {
					t.Fatalf("accepted a frame Send would not write for %v", msg.Type())
				}
			}
		})
		// Decoding builds a tree and the check above re-marshals it: a small
		// multiple of the input, whatever any length prefix inside claims.
		if limit := uint64(8*len(data) + readChunk + 256<<10); used > limit {
			t.Fatalf("%d input bytes cost %d bytes of allocation (limit %d)", len(data), used, limit)
		}
	})
}

// A length prefix of the full 256 MB followed by a few bytes must cost what
// arrived plus one chunk, not 256 MB; an honest frame larger than a chunk
// still arrives whole.
func TestReadFrameDoesNotTrustTheLengthPrefix(t *testing.T) {
	lie := append(binary.BigEndian.AppendUint32(nil, maxFrame), make([]byte, 100)...)
	var err error
	used := allocatedBy(func() { _, _, _, err = readFrame(bytes.NewReader(lie)) })
	var rej *frameError
	if !errors.As(err, &rej) || rej.reason != "truncated" || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a truncated-frame error wrapping io.ErrUnexpectedEOF", err)
	}
	if used > readChunk+256<<10 {
		t.Fatalf("a lying prefix with 100 bytes behind it cost %d bytes", used)
	}

	var blocks []*ledger.Block
	for i := uint64(0); i < 20; i++ {
		blocks = append(blocks, paperBlockTCP(i))
	}
	big := frameOf(3, &wire.StateResponse{Batch: wire.NewBlockBatch(blocks)})
	if len(big) < 2*readChunk {
		t.Fatalf("frame of %d bytes does not span several chunks", len(big))
	}
	from, msg, size, err := readFrame(bytes.NewReader(big))
	if err != nil || from != 3 || size != len(big) {
		t.Fatalf("from=%v size=%d err=%v", from, size, err)
	}
	if !bytes.Equal(frameOf(from, msg), big) {
		t.Fatal("chunked read changed the frame")
	}
}
