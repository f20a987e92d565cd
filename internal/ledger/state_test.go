package ledger

import (
	"bytes"
	"testing"
)

func TestStateDBGetMissingKey(t *testing.T) {
	s := NewStateDB()
	vv, ok := s.Get("nope")
	if ok {
		t.Fatal("missing key reported present")
	}
	if vv.Version != (Version{}) {
		t.Fatal("missing key should have zero version")
	}
	if s.VersionOf("nope") != (Version{}) {
		t.Fatal("VersionOf missing key should be zero")
	}
}

func TestStateDBApplyAndGet(t *testing.T) {
	s := NewStateDB()
	s.ApplyBlockWrites(3,
		[]uint32{0, 2},
		[]RWSet{
			{Writes: []KVWrite{{Key: "a", Value: []byte("va")}}},
			{Writes: []KVWrite{{Key: "b", Value: []byte("vb")}}},
		})
	a, ok := s.Get("a")
	if !ok || !bytes.Equal(a.Value, []byte("va")) || a.Version != (Version{3, 0}) {
		t.Fatalf("a = %+v, ok=%v", a, ok)
	}
	b, _ := s.Get("b")
	if b.Version != (Version{3, 2}) {
		t.Fatalf("b version = %v, want 3.2", b.Version)
	}
}

func TestStateDBLaterWriteOverwrites(t *testing.T) {
	s := NewStateDB()
	s.ApplyBlockWrites(1, []uint32{0}, []RWSet{{Writes: []KVWrite{{Key: "k", Value: []byte("v1")}}}})
	s.ApplyBlockWrites(2, []uint32{5}, []RWSet{{Writes: []KVWrite{{Key: "k", Value: []byte("v2")}}}})
	vv, _ := s.Get("k")
	if string(vv.Value) != "v2" || vv.Version != (Version{2, 5}) {
		t.Fatalf("got %+v, want v2 at 2.5", vv)
	}
}

func TestStateDBCopiesValues(t *testing.T) {
	s := NewStateDB()
	val := []byte("orig")
	s.ApplyBlockWrites(1, []uint32{0}, []RWSet{{Writes: []KVWrite{{Key: "k", Value: val}}}})
	val[0] = 'X' // caller mutation must not leak in
	vv, _ := s.Get("k")
	if string(vv.Value) != "orig" {
		t.Fatal("state db aliases caller's slice")
	}
}

func TestStateDBApplyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStateDB().ApplyBlockWrites(1, []uint32{0, 1}, []RWSet{{}})
}
