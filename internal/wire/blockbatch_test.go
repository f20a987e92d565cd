package wire

import (
	"bytes"
	"testing"

	"fabricgossip/internal/ledger"
)

// A batch of built blocks, of decoded ones and of both mixed marshals to
// the bytes of a fresh walk, with EncodedSize their length, on every call. A
// built block goes into the head, or behind a decoded one into a body of its
// own, and keeps no encoding; a decoded block is sent as the one slice
// cached on it, shared by every message covering it.
func TestBlockBatchSharesCachedEncodings(t *testing.T) {
	mk := func() []*ledger.Block {
		return []*ledger.Block{testBlock(1, 3), testBlock(2, 2), testBlock(3, 1), testBlock(4, 2)}
	}
	// The reference: a fresh walk of equal blocks, bypassing every cache.
	s := &encSink{}
	s.byte(byte(TypeStateResponse))
	s.uvarint(4)
	for _, b := range mk() {
		encodeBlock(s, b)
	}
	ref := s.buf

	built := mk()
	dm, err := Unmarshal(append([]byte{}, ref...))
	if err != nil {
		t.Fatal(err)
	}
	decoded := dm.(*StateResponse).Blocks()
	mixed := []*ledger.Block{built[0], decoded[1], built[2], decoded[3]}
	for _, c := range []struct {
		name   string
		blocks []*ledger.Block
		bodies int
	}{{"built", built, 0}, {"decoded", decoded, 4}, {"mixed", mixed, 3}} {
		m := &StateResponse{Batch: NewBlockBatch(c.blocks)}
		for round := 0; round < 2; round++ {
			if got := Marshal(m); !bytes.Equal(got, ref) {
				t.Fatalf("%s batch marshals differently from a fresh walk", c.name)
			}
			if got := m.EncodedSize(); got != len(ref) {
				t.Fatalf("%s batch: EncodedSize = %d, Marshal produced %d bytes", c.name, got, len(ref))
			}
			head, bodies := AppendMessage(nil, nil, m)
			if len(bodies) != c.bodies {
				t.Fatalf("%s batch: %d bodies, want %d", c.name, len(bodies), c.bodies)
			}
			if !bytes.Equal(append(head, bytes.Join(bodies, nil)...), ref) {
				t.Fatalf("%s batch: head+bodies differ from a fresh walk", c.name)
			}
		}
	}
	for _, b := range built {
		if b.WireEncoding() != nil {
			t.Fatalf("built block %d kept an encoding", b.Num)
		}
	}

	_, whole := AppendMessage(nil, nil, &StateResponse{Batch: NewBlockBatch(decoded)})
	_, tail := AppendMessage(nil, nil, &StateResponse{Batch: NewBlockBatch(decoded[2:])})
	_, data := AppendMessage(nil, nil, &Data{Block: decoded[3], Counter: 1})
	_, mix := AppendMessage(nil, nil, &StateResponse{Batch: NewBlockBatch(mixed)})
	enc := &decoded[3].WireEncoding()[0]
	if &whole[3][0] != enc || &tail[1][0] != enc || &data[0][0] != enc || &mix[2][0] != enc {
		t.Fatal("messages covering one decoded block do not share its cached encoding")
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
