package ledger

import (
	"testing"
)

func chainOf(t *testing.T, n int) (*BlockStore, []*Block) {
	t.Helper()
	s := NewBlockStore()
	blocks := make([]*Block, n)
	var prev *Block
	for i := 0; i < n; i++ {
		b := mkBlock(uint64(i), prev, mkTx("c", "k", Version{}, byte(i)))
		if err := s.Append(b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		blocks[i] = b
		prev = b
	}
	return s, blocks
}

func TestBlockStoreAppendGet(t *testing.T) {
	s, blocks := chainOf(t, 5)
	if s.Height() != 5 {
		t.Fatalf("height = %d, want 5", s.Height())
	}
	for i, want := range blocks {
		got, err := s.Get(uint64(i))
		if err != nil || got != want {
			t.Fatalf("Get(%d) = %v, %v", i, got, err)
		}
	}
	if _, err := s.Get(5); err == nil {
		t.Fatal("Get past height succeeded")
	}
}

func TestBlockStoreRejectsBrokenChain(t *testing.T) {
	s, blocks := chainOf(t, 2)
	bad := mkBlock(2, blocks[0]) // links to block 0, not block 1
	if err := s.Append(bad); err == nil {
		t.Fatal("broken linkage accepted")
	}
	if err := s.Append(mkBlock(7, blocks[1])); err == nil {
		t.Fatal("gap in numbering accepted")
	}
	if s.Height() != 2 {
		t.Fatalf("failed appends changed height to %d", s.Height())
	}
}
