package wire

import (
	"bytes"
	"testing"

	"fabricgossip/internal/ledger"
)

// FuzzUnmarshal fuzzes the wire codec's decode path: any input must either
// fail with an error or be the canonical encoding of the message it decodes
// to — never panic. That is what lets a decoded block keep the bytes it
// arrived as in place of an encoding: they equal a fresh walk of the decoded
// tree. The corpus seeds from every message type (including a paper-shaped
// 50-tx block, the marshal benchmarks' workload) plus adversarial prefixes.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(Marshal(m))
	}
	for _, c := range pullDigestCases() {
		f.Add(Marshal(c.m))
	}
	// The benchmark corpus: one full-size Data block message, truncated at
	// interesting points.
	big := Marshal(&Data{Block: testBlock(7, 50), Counter: 3})
	f.Add(big)
	f.Add(big[:len(big)/2])
	f.Add(big[:1])
	f.Add([]byte{})
	f.Add([]byte{0})                             // reserved type 0
	f.Add([]byte{byte(maxMsgType)})              // just past the last type
	f.Add([]byte{byte(TypeStateResponse), 0xff}) // absurd block count
	f.Add(bytes.Repeat([]byte{0x80}, 32))        // unterminated varint

	// The StateResponse batch framing, intact and corrupted: every
	// truncation or count/payload mismatch must be rejected, not panic.
	frozen := Marshal(&StateResponse{Batch: NewBlockBatch(
		[]*ledger.Block{testBlock(3, 2), testBlock(4, 1)})})
	f.Add(frozen)
	f.Add(frozen[:len(frozen)-3])                    // truncated mid-batch
	f.Add(frozen[:2])                                // count only, no bodies
	f.Add([]byte{byte(TypeStateResponse)})           // missing count entirely
	f.Add([]byte{byte(TypeStateResponse), 7, 0})     // count promises absent blocks
	f.Add(append(append([]byte{}, frozen...), 0xAA)) // trailing garbage after batch

	// Membership payload framing: truncated event lists and count/payload
	// mismatches must be rejected cleanly.
	events := Marshal(&MemberEvents{Events: []MemberEvent{
		{Peer: 3, Seq: 1 << 33, Kind: EventAlive},
		{Peer: 7, Seq: 2, Kind: EventDead},
	}})
	f.Add(events)
	f.Add(events[:len(events)-1])                  // truncated mid-entry
	f.Add([]byte{byte(TypeMemberEvents), 5})       // count promises absent entries
	f.Add([]byte{byte(TypeShuffleRequest), 0xff})  // absurd entry count
	f.Add([]byte{byte(TypeShuffleResponse), 1, 0}) // entry cut after peer id

	// Non-canonical spellings of valid messages: accepted, they would make
	// "the bytes received" differ from "the bytes a walk writes".
	f.Add([]byte{byte(TypePullHello), 0x85, 0x00}) // padded varint
	f.Add(paddedBlockNum(f))
	f.Add(overflowingTxNum(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			if m != nil && err == nil {
				t.Fatal("unreachable")
			}
			return // corrupt input rejected, as required
		}
		// Accepted input: each block's transactions, only scanned so far,
		// build (buildTxs panics on anything the scan let through) and
		// number NumTxs; the block's cached encoding — the bytes it was
		// read from — is what a fresh walk of the built tree writes; and the
		// whole input is the one encoding of the decoded message, whose
		// length EncodedSize predicts exactly.
		for _, b := range blocksOf(m) {
			if n := len(b.Transactions()); b.NumTxs() != n {
				t.Fatalf("block %d: NumTxs %d, built %d transactions", b.Num, b.NumTxs(), n)
			}
			s := &encSink{}
			encodeBlock(s, b)
			if !bytes.Equal(b.WireEncoding(), s.buf) {
				t.Fatalf("block %d: cached encoding differs from a walk of the built tree:\n%x\n%x", b.Num, b.WireEncoding(), s.buf)
			}
		}
		out := Marshal(m)
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted a non-canonical encoding:\n%x\nre-encodes as\n%x", data, out)
		}
		if got := m.EncodedSize(); got != len(out) {
			t.Fatalf("EncodedSize = %d, Marshal produced %d bytes", got, len(out))
		}
	})
}
