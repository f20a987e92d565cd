package chaincode

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"fabricgossip/internal/ledger"
)

func TestSimulateCounterIncrement(t *testing.T) {
	state := ledger.NewStateDB()
	rw, err := Simulate(Counter{}, state, []string{"incr", "k"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Reads) != 1 || rw.Reads[0].Key != "k" || rw.Reads[0].Version != (ledger.Version{}) {
		t.Fatalf("reads = %+v", rw.Reads)
	}
	if len(rw.Writes) != 1 || rw.Writes[0].Key != "k" {
		t.Fatalf("writes = %+v", rw.Writes)
	}
	v, err := DecodeUint64(rw.Writes[0].Value)
	if err != nil || v != 1 {
		t.Fatalf("written value = %d, %v", v, err)
	}
	// Simulation must not touch the state.
	if _, ok := state.Get("k"); ok {
		t.Fatal("simulation mutated state")
	}
}

func TestSimulateCounterReadsCommittedVersion(t *testing.T) {
	state := ledger.NewStateDB()
	state.ApplyBlockWrites(3, []uint32{2}, []ledger.RWSet{
		{Writes: []ledger.KVWrite{{Key: "k", Value: EncodeUint64(41)}}},
	})
	rw, err := Simulate(Counter{}, state, []string{"incr", "k"})
	if err != nil {
		t.Fatal(err)
	}
	if rw.Reads[0].Version != (ledger.Version{BlockNum: 3, TxNum: 2}) {
		t.Fatalf("read version = %v", rw.Reads[0].Version)
	}
	v, _ := DecodeUint64(rw.Writes[0].Value)
	if v != 42 {
		t.Fatalf("incremented to %d, want 42", v)
	}
}

func TestSimulateReadYourWrites(t *testing.T) {
	// A chaincode that increments the same key twice in one invocation
	// must see its own write and record only one read.
	state := ledger.NewStateDB()
	cc := invokeFunc(func(stub Stub) error {
		for i := 0; i < 2; i++ {
			raw, err := stub.GetState("k")
			if err != nil {
				return err
			}
			v, err := DecodeUint64(raw)
			if err != nil {
				return err
			}
			if err := stub.PutState("k", EncodeUint64(v+1)); err != nil {
				return err
			}
		}
		return nil
	})
	rw, err := Simulate(cc, state, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Reads) != 1 {
		t.Fatalf("reads = %+v, want exactly one", rw.Reads)
	}
	if len(rw.Writes) != 1 {
		t.Fatalf("writes = %+v, want coalesced single write", rw.Writes)
	}
	v, _ := DecodeUint64(rw.Writes[0].Value)
	if v != 2 {
		t.Fatalf("final value %d, want 2", v)
	}
}

type invokeFunc func(stub Stub) error

func (invokeFunc) Name() string                      { return "test" }
func (f invokeFunc) Invoke(s Stub, _ []string) error { return f(s) }

func TestCounterGetAndErrors(t *testing.T) {
	state := ledger.NewStateDB()
	if _, err := Simulate(Counter{}, state, []string{"get", "k"}); err != nil {
		t.Fatalf("get: %v", err)
	}
	if _, err := Simulate(Counter{}, state, []string{"incr"}); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("missing key err = %v", err)
	}
	if _, err := Simulate(Counter{}, state, []string{"nope", "k"}); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("bad op err = %v", err)
	}
}

func TestDecodeUint64(t *testing.T) {
	if v, err := DecodeUint64(nil); err != nil || v != 0 {
		t.Fatalf("nil = %d, %v", v, err)
	}
	if v, err := DecodeUint64(EncodeUint64(77)); err != nil || v != 77 {
		t.Fatalf("round trip = %d, %v", v, err)
	}
	if _, err := DecodeUint64([]byte{1, 2}); err == nil {
		t.Fatal("short value accepted")
	}
}

// Property: counter increments compose — simulating and committing n
// increments yields counter value n, regardless of interleaving with other
// keys.
func TestPropertyCounterComposition(t *testing.T) {
	f := func(raw []uint8) bool {
		state := ledger.NewStateDB()
		counts := map[string]uint64{}
		for i, k := range raw {
			key := string('a' + rune(k%3))
			rw, err := Simulate(Counter{}, state, []string{"incr", key})
			if err != nil {
				return false
			}
			state.ApplyBlockWrites(uint64(i), []uint32{0}, []ledger.RWSet{rw})
			counts[key]++
		}
		for key, want := range counts {
			vv, _ := state.Get(key)
			v, err := DecodeUint64(vv.Value)
			if err != nil || v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatePutStateCopiesValue(t *testing.T) {
	state := ledger.NewStateDB()
	val := []byte{1, 2, 3}
	cc := invokeFunc(func(stub Stub) error { return stub.PutState("k", val) })
	rw, err := Simulate(cc, state, nil)
	if err != nil {
		t.Fatal(err)
	}
	val[0] = 99
	if !bytes.Equal(rw.Writes[0].Value, []byte{1, 2, 3}) {
		t.Fatal("write set aliases chaincode buffer")
	}
}
