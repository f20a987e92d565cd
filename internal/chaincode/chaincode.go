// Package chaincode defines the deterministic smart-contract interface of
// the execute-order-validate pipeline and the simulator that produces
// versioned read/write sets (paper §II-B), together with the contract the
// evaluation executes: the counter-increment workload behind Table II
// (§V-D).
package chaincode

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fabricgossip/internal/ledger"
)

// Stub is the interface a chaincode uses to access the ledger state during
// simulation. Reads are recorded with the version they observed; writes are
// buffered into the write set.
type Stub interface {
	// GetState returns the current value of key (nil if unset). A key
	// written earlier in the same invocation returns the pending write
	// (read-your-writes) without adding a read-set entry.
	GetState(key string) ([]byte, error)
	// PutState buffers a write.
	PutState(key string, value []byte) error
}

// Chaincode is a deterministic contract: for a given input and read state,
// the produced read/write sets must be identical across executions.
type Chaincode interface {
	// Name returns the chaincode's registered name.
	Name() string
	// Invoke executes one transaction with the given arguments.
	Invoke(stub Stub, args []string) error
}

// Simulate executes cc against the given state database and returns the
// read/write set the invocation produced. The state is never mutated:
// writes become effective only when the transaction later validates and
// commits (paper §II-B).
func Simulate(cc Chaincode, state *ledger.StateDB, args []string) (ledger.RWSet, error) {
	stub := &simStub{state: state, writes: make(map[string]int)}
	if err := cc.Invoke(stub, args); err != nil {
		return ledger.RWSet{}, fmt.Errorf("chaincode %s: %w", cc.Name(), err)
	}
	return stub.rw, nil
}

type simStub struct {
	state  *ledger.StateDB
	rw     ledger.RWSet
	reads  map[string]bool
	writes map[string]int // key -> index into rw.Writes
}

func (s *simStub) GetState(key string) ([]byte, error) {
	if i, ok := s.writes[key]; ok {
		return s.rw.Writes[i].Value, nil // read-your-writes
	}
	vv, _ := s.state.Get(key)
	if s.reads == nil {
		s.reads = make(map[string]bool)
	}
	if !s.reads[key] {
		s.reads[key] = true
		s.rw.Reads = append(s.rw.Reads, ledger.KVRead{Key: key, Version: vv.Version})
	}
	return vv.Value, nil
}

func (s *simStub) PutState(key string, value []byte) error {
	v := make([]byte, len(value))
	copy(v, value)
	if i, ok := s.writes[key]; ok {
		s.rw.Writes[i].Value = v
		return nil
	}
	s.writes[key] = len(s.rw.Writes)
	s.rw.Writes = append(s.rw.Writes, ledger.KVWrite{Key: key, Value: v})
	return nil
}

// --- value helpers shared by the sample contracts ---

// EncodeUint64 encodes v as the canonical 8-byte state value.
func EncodeUint64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// DecodeUint64 decodes a state value written by EncodeUint64. nil (unset
// state) decodes to 0, so counters start from zero implicitly.
func DecodeUint64(b []byte) (uint64, error) {
	if b == nil {
		return 0, nil
	}
	if len(b) != 8 {
		return 0, fmt.Errorf("chaincode: bad uint64 value length %d", len(b))
	}
	return binary.BigEndian.Uint64(b), nil
}

// ErrBadArgs is returned for malformed invocation arguments.
var ErrBadArgs = errors.New("chaincode: bad arguments")
