// Package order implements the Fabric ordering service (paper §II-B): it
// accepts endorsed transaction proposals, establishes a total order over
// them through a pluggable crash-fault-tolerant consenter, cuts blocks when
// a size cap is reached or a batch timeout expires, signs them, and
// delivers them to the organizations' leader peers.
//
// Block cutting follows the Kafka-based design the paper's deployment used:
// transactions and time-to-cut (TTC) markers share the ordered stream, so
// every orderer consuming the stream cuts identical blocks. The consenter
// is pluggable: Solo commits locally (Fabric's solo orderer), and
// raft.Consenter replicates the stream across an orderer cluster.
package order

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"fabricgossip/internal/crypto"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// Consenter provides a totally ordered, crash-fault-tolerant stream of
// opaque entries.
type Consenter interface {
	// Submit appends data to the total order. The call is asynchronous;
	// committed entries arrive at the callback installed with OnCommit.
	Submit(data []byte) error
	// OnCommit installs the committed-entry callback. Entries arrive in
	// total order, exactly once. Must be called before Submit.
	OnCommit(fn func(data []byte))
}

// Entry kinds in the ordered stream.
const (
	entryTx  byte = 1
	entryTTC byte = 2
)

// encodeTxEntry wraps a transaction for the ordered stream.
func encodeTxEntry(tx *ledger.Transaction) []byte {
	msg := &wire.SubmitTx{Tx: tx}
	out := make([]byte, 1, 1+msg.EncodedSize())
	out[0] = entryTx
	return wire.AppendMarshal(out, msg)
}

// encodeTTCEntry encodes a time-to-cut marker for block blockNum.
func encodeTTCEntry(blockNum uint64) []byte {
	out := make([]byte, 1, 10)
	out[0] = entryTTC
	return binary.AppendUvarint(out, blockNum)
}

// ErrBadEntry is returned for malformed stream entries.
var ErrBadEntry = errors.New("order: malformed stream entry")

func decodeEntry(data []byte) (*ledger.Transaction, uint64, byte, error) {
	if len(data) < 2 {
		return nil, 0, 0, ErrBadEntry
	}
	switch data[0] {
	case entryTx:
		msg, err := wire.Unmarshal(data[1:])
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%w: %v", ErrBadEntry, err)
		}
		st, ok := msg.(*wire.SubmitTx)
		if !ok {
			return nil, 0, 0, fmt.Errorf("%w: unexpected %v", ErrBadEntry, msg.Type())
		}
		return st.Tx, 0, entryTx, nil
	case entryTTC:
		num, n := binary.Uvarint(data[1:])
		if n <= 0 {
			return nil, 0, 0, ErrBadEntry
		}
		return nil, num, entryTTC, nil
	default:
		return nil, 0, 0, fmt.Errorf("%w: kind %d", ErrBadEntry, data[0])
	}
}

// Config parameterizes block cutting.
type Config struct {
	// MaxTxPerBlock cuts a block as soon as it holds this many
	// transactions (paper §V-A: 50).
	MaxTxPerBlock int
	// BatchTimeout cuts a non-empty batch this long after its first
	// transaction was ordered (paper §V-A: 2 s; Table II varies it).
	BatchTimeout time.Duration
}

// DefaultConfig returns the paper's §V-A orderer configuration.
func DefaultConfig() Config {
	return Config{MaxTxPerBlock: 50, BatchTimeout: 2 * time.Second}
}

// Service is one ordering-service node.
type Service struct {
	cfg       Config
	sched     sim.Scheduler
	consenter Consenter
	signer    *crypto.Signer

	mu                      sync.Mutex
	pending                 []*ledger.Transaction
	nextNum                 uint64
	prevHash                crypto.Digest
	ttcTimer                sim.Timer
	ttcSent                 bool
	deliver                 func(*ledger.Block)
	txCount                 uint64
	cutBySize, cutByTimeout uint64
	// onCut observes every cut block (number, transaction count) just
	// before it is handed to deliver, outside the service's lock.
	onCut func(num uint64, txs int)
}

// NewService creates an ordering node. deliver receives every cut block in
// order (the harness forwards them to leader peers over the network).
func NewService(cfg Config, sched sim.Scheduler, consenter Consenter, signer *crypto.Signer, deliver func(*ledger.Block)) *Service {
	s := &Service{
		cfg:       cfg,
		sched:     sched,
		consenter: consenter,
		signer:    signer,
		deliver:   deliver,
	}
	consenter.OnCommit(s.onCommitted)
	return s
}

// Broadcast accepts a transaction proposal from a client, as Fabric's
// Broadcast RPC does, and hands it to the consenter. Orderers perform no
// validation on proposals (paper §II-B).
func (s *Service) Broadcast(tx *ledger.Transaction) error {
	return s.consenter.Submit(encodeTxEntry(tx))
}

// OnBlockCut installs a hook observing every block this node cuts. The
// hook must not call back into the service.
func (s *Service) OnBlockCut(fn func(num uint64, txs int)) { s.onCut = fn }

// Stats reports how many transactions were ordered and how blocks were cut.
func (s *Service) Stats() (txs, bySize, byTimeout uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txCount, s.cutBySize, s.cutByTimeout
}

// Height returns the number of blocks cut so far.
func (s *Service) Height() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextNum
}

// onCommitted consumes the totally ordered stream.
func (s *Service) onCommitted(data []byte) {
	tx, ttcNum, kind, err := decodeEntry(data)
	if err != nil {
		return // tolerate garbage in the stream; CFT, not BFT
	}
	var cut *ledger.Block
	s.mu.Lock()
	switch kind {
	case entryTx:
		s.txCount++
		s.pending = append(s.pending, tx)
		if len(s.pending) == 1 && s.cfg.BatchTimeout > 0 && !s.ttcSent {
			num := s.nextNum
			s.ttcSent = true
			s.ttcTimer = s.sched.After(s.cfg.BatchTimeout, func() { s.sendTTC(num) })
		}
		if len(s.pending) >= s.cfg.MaxTxPerBlock {
			cut = s.cutLocked()
			s.cutBySize++
		}
	case entryTTC:
		// Only the TTC for the block currently being assembled cuts;
		// stale markers (the block was already cut by size) are ignored.
		if ttcNum == s.nextNum && len(s.pending) > 0 {
			cut = s.cutLocked()
			s.cutByTimeout++
		}
	}
	s.mu.Unlock()
	if cut != nil {
		if s.onCut != nil {
			s.onCut(cut.Num, cut.NumTxs())
		}
		s.deliver(cut)
	}
}

// sendTTC publishes the time-to-cut marker through the total order so all
// consuming orderers cut identically.
func (s *Service) sendTTC(blockNum uint64) {
	s.mu.Lock()
	stillPending := s.nextNum == blockNum && len(s.pending) > 0
	s.mu.Unlock()
	if stillPending {
		_ = s.consenter.Submit(encodeTTCEntry(blockNum))
	}
}

// cutLocked assembles, signs and chains the next block. Callers hold mu.
func (s *Service) cutLocked() *ledger.Block {
	txs := s.pending
	s.pending = nil
	s.ttcSent = false
	if s.ttcTimer != nil {
		s.ttcTimer.Stop()
		s.ttcTimer = nil
	}
	b := &ledger.Block{
		Num:      s.nextNum,
		PrevHash: s.prevHash,
		Txs:      txs,
		DataHash: ledger.ComputeDataHash(txs),
	}
	if s.signer != nil {
		b.Sig = s.signer.Sign(b.HeaderBytes())
	}
	s.nextNum++
	s.prevHash = b.Hash()
	return b
}

// Solo is Fabric's single-node consenter: entries commit locally in
// submission order. It is crash-fault-tolerant only in the degenerate
// sense, but it is a real Fabric ordering mode and the fixture for
// single-orderer deployments. Delay models the intra-cluster ordering
// round-trip (Kafka produce/consume in the paper's deployment).
type Solo struct {
	sched sim.Scheduler
	delay time.Duration

	mu     sync.Mutex
	commit func(data []byte)
}

// NewSolo creates a solo consenter with the given commit latency.
func NewSolo(sched sim.Scheduler, delay time.Duration) *Solo {
	return &Solo{sched: sched, delay: delay}
}

// OnCommit implements Consenter.
func (s *Solo) OnCommit(fn func(data []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commit = fn
}

// Submit implements Consenter.
func (s *Solo) Submit(data []byte) error {
	s.mu.Lock()
	fn := s.commit
	s.mu.Unlock()
	if fn == nil {
		return errors.New("order: solo consenter has no commit callback")
	}
	s.sched.After(s.delay, func() { fn(data) })
	return nil
}
