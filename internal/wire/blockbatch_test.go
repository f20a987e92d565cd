package wire

import (
	"bytes"
	"testing"

	"fabricgossip/internal/ledger"
)

// The cache on the block must be a pure transmission-cost optimization: a
// batch of blocks that were never encoded and a batch of blocks that were
// marshal to the same bytes with the same EncodedSize, and every batch
// covering a block sends the one slice cached on it.
func TestBlockBatchSharesCachedEncodings(t *testing.T) {
	mk := func() []*ledger.Block {
		return []*ledger.Block{testBlock(1, 3), testBlock(2, 2), testBlock(3, 1)}
	}
	cold := &StateResponse{Batch: NewBlockBatch(mk())}
	if got, want := cold.EncodedSize(), len(Marshal(cold)); got != want {
		t.Fatalf("uncached EncodedSize = %d, Marshal produced %d bytes", got, want)
	}
	// The reference: a fresh walk of equal blocks, bypassing every cache.
	s := &encSink{}
	s.byte(byte(TypeStateResponse))
	s.uvarint(3)
	for _, b := range mk() {
		encodeBlock(s, b)
	}
	if !bytes.Equal(Marshal(cold), s.buf) {
		t.Fatal("cached batch marshals differently from a fresh walk")
	}

	blocks := cold.Blocks()
	_, whole := AppendMessage(nil, nil, cold)
	_, tail := AppendMessage(nil, nil, &StateResponse{Batch: NewBlockBatch(blocks[1:])})
	_, data := AppendMessage(nil, nil, &Data{Block: blocks[2], Counter: 1})
	if len(whole) != 3 || len(tail) != 2 || len(data) != 1 {
		t.Fatalf("bodies = %d, %d, %d, want 3, 2, 1", len(whole), len(tail), len(data))
	}
	if &whole[2][0] != &tail[1][0] || &whole[2][0] != &data[0][0] || &whole[2][0] != &blocks[2].WireEncoding()[0] {
		t.Fatal("messages covering one block do not share its cached encoding")
	}
}

func TestStateResponseRoundTrip(t *testing.T) {
	blocks := []*ledger.Block{testBlock(5, 2), testBlock(6, 4)}
	out := Marshal(&StateResponse{Batch: NewBlockBatch(blocks)})
	m, err := Unmarshal(out)
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := m.(*StateResponse)
	if !ok {
		t.Fatalf("decoded %T", m)
	}
	got := resp.Blocks()
	if len(got) != len(blocks) {
		t.Fatalf("decoded %d blocks, want %d", len(got), len(blocks))
	}
	for i, b := range got {
		if b.Num != blocks[i].Num || b.NumTxs() != len(blocks[i].Txs) {
			t.Fatalf("block %d decoded as num=%d txs=%d", i, b.Num, b.NumTxs())
		}
	}
	// The decoded batch re-encodes canonically, from the bytes it arrived as.
	if !bytes.Equal(Marshal(resp), out) {
		t.Fatal("decoded response re-encodes differently")
	}
	if &got[0].WireEncoding()[0] != &out[2] {
		t.Fatal("decoded block's cached encoding is not the input's bytes")
	}
}

// Corrupt batch framings must be rejected with an error, never accepted or
// panicking: count promising more blocks than present, truncation inside a
// block body, and trailing bytes after a complete batch.
func TestStateResponseCorruptInputs(t *testing.T) {
	good := Marshal(&StateResponse{Batch: NewBlockBatch(
		[]*ledger.Block{testBlock(1, 2), testBlock(2, 1)})})
	cases := map[string][]byte{
		"missing count":    {byte(TypeStateResponse)},
		"absurd count":     {byte(TypeStateResponse), 0xff},
		"count no bodies":  good[:2],
		"truncated body":   good[:len(good)-3],
		"trailing garbage": append(append([]byte{}, good...), 0x01),
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

// A nil batch and an empty batch both encode as the canonical empty
// response and decode back to zero blocks.
func TestStateResponseEmptyForms(t *testing.T) {
	for name, m := range map[string]*StateResponse{
		"nil batch":   {},
		"empty batch": {Batch: NewBlockBatch(nil)},
	} {
		out := Marshal(m)
		if m.EncodedSize() != len(out) {
			t.Fatalf("%s: EncodedSize %d != %d", name, m.EncodedSize(), len(out))
		}
		dec, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := dec.(*StateResponse).Blocks(); len(got) != 0 {
			t.Fatalf("%s: decoded %d blocks", name, len(got))
		}
	}
}
