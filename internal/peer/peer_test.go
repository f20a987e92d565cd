package peer

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"fabricgossip/internal/crypto"
	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

type fixture struct {
	engine *sim.Engine
	net    *transport.SimNetwork
	chain  *ledger.Chain
	peers  []*Peer
	order  *transport.SimEndpoint
	signer *crypto.Signer
}

func newFixture(t *testing.T, n int, cfg Config) *fixture {
	t.Helper()
	return newFixtureOn(t, ledger.NewChain(nil), n, cfg)
}

// newFixtureOn is newFixture with the peers' ledgers on the given chain.
func newFixtureOn(t *testing.T, chain *ledger.Chain, n int, cfg Config) *fixture {
	t.Helper()
	f := &fixture{engine: sim.NewEngine(1), chain: chain}
	f.net = transport.NewSimNetwork(f.engine, netmodel.Model{PropMin: time.Millisecond, PropMax: time.Millisecond}, nil)
	signer, err := crypto.NewSigner(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	f.signer = signer
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	ecfg, err := enhanced.ConfigFor(max(n, 3), 2, 1e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ep := f.net.AddNode()
		core := gossip.New(gossip.DefaultConfig(ep.ID(), ids), ep, f.engine, f.engine.Rand("g"), enhanced.New(ecfg))
		f.peers = append(f.peers, New(core, f.chain, f.engine, cfg))
	}
	f.order = f.net.AddNode()
	for _, p := range f.peers {
		p.Gossip().Start()
	}
	return f
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (f *fixture) block(num uint64, prev *ledger.Block, txs int, sign bool) *ledger.Block {
	b := &ledger.Block{Num: num}
	for i := 0; i < txs; i++ {
		rw := ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte{byte(num), byte(i)}}}}
		b.Txs = append(b.Txs, &ledger.Transaction{
			ID:     ledger.ProposalDigest("c", "cc", rw, []byte{byte(num), byte(i)}),
			Client: "c", Chaincode: "cc", RWSet: rw, Payload: []byte{byte(num), byte(i)},
		})
	}
	b.DataHash = ledger.ComputeDataHash(b.Txs)
	if prev != nil {
		b.PrevHash = prev.Hash()
	}
	if sign {
		b.Sig = f.signer.Sign(b.HeaderBytes())
	}
	return b
}

func TestValidationDelayIsProportionalToTxCount(t *testing.T) {
	f := newFixture(t, 3, Config{ValidationPerTx: 50 * time.Millisecond})
	b := f.block(0, nil, 10, false)
	var committedAt time.Duration
	f.peers[0].OnCommitResult(func(*ledger.Block, ledger.CommitResult) { committedAt = f.engine.Now() })
	_ = f.order.Send(0, &wire.DeliverBlock{Block: b})
	f.engine.RunUntil(5 * time.Second)
	// 1 ms delivery + 10 * 50 ms validation.
	if committedAt < 500*time.Millisecond || committedAt > 600*time.Millisecond {
		t.Fatalf("committed at %v, want ≈ 501ms", committedAt)
	}
	if f.peers[0].Ledger().Height() != 1 {
		t.Fatal("block not committed")
	}
}

func TestValidationIsSequential(t *testing.T) {
	f := newFixture(t, 3, Config{ValidationPerTx: 100 * time.Millisecond})
	b0 := f.block(0, nil, 2, false)
	b1 := f.block(1, b0, 2, false)
	var times []time.Duration
	var got []*ledger.Block
	f.peers[0].OnCommitResult(func(b *ledger.Block, res ledger.CommitResult) {
		times = append(times, f.engine.Now())
		got = append(got, b)
		if res.BlockNum != b.Num || len(res.Codes) != b.NumTxs() {
			t.Errorf("block %d committed with result for block %d (%d codes)", b.Num, res.BlockNum, len(res.Codes))
		}
	})
	_ = f.order.Send(0, &wire.DeliverBlock{Block: b0})
	_ = f.order.Send(0, &wire.DeliverBlock{Block: b1})
	f.engine.RunUntil(5 * time.Second)
	if len(times) != 2 {
		t.Fatalf("committed %d blocks", len(times))
	}
	// The hook hands over the very block gossip delivered, not a copy.
	if got[0] != b0 || got[1] != b1 {
		t.Fatalf("hook received blocks %p, %p; want the delivered %p, %p", got[0], got[1], b0, b1)
	}
	// Block 1's 200 ms validation must start only after block 0 commits.
	if gap := times[1] - times[0]; gap < 200*time.Millisecond {
		t.Fatalf("second commit only %v after first; validation overlapped", gap)
	}
}

func TestCommitResultsSurfaceMVCCConflicts(t *testing.T) {
	f := newFixture(t, 3, Config{ValidationPerTx: time.Millisecond})
	// Two txs in one block write the same key from the same base.
	rw := ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: "x"}},
		Writes: []ledger.KVWrite{{Key: "x", Value: []byte{1}}},
	}
	mk := func(client string) *ledger.Transaction {
		return &ledger.Transaction{
			ID:     ledger.ProposalDigest(client, "cc", rw, nil),
			Client: client, Chaincode: "cc", RWSet: rw,
		}
	}
	b := &ledger.Block{Num: 0, Txs: []*ledger.Transaction{mk("c1"), mk("c2")}}
	b.DataHash = ledger.ComputeDataHash(b.Txs)
	_ = f.order.Send(0, &wire.DeliverBlock{Block: b})
	f.engine.RunUntil(time.Second)
	if got := f.peers[0].Ledger().Conflicts(); got != 1 {
		t.Fatalf("conflicts = %d, want 1 (earliest writer wins)", got)
	}
	results := f.peers[0].Ledger().Results()
	if len(results) != 1 || results[0].Valid != 1 || results[0].Invalid != 1 {
		t.Fatalf("results = %+v", results)
	}
}

func TestOrdererSignatureEnforcement(t *testing.T) {
	f := newFixture(t, 3, Config{
		ValidationPerTx: time.Millisecond,
		OrdererKey:      f0Key(t),
	})
	// Fixture uses a different signer than f0Key: everything is dropped.
	b := f.block(0, nil, 1, true)
	_ = f.order.Send(0, &wire.DeliverBlock{Block: b})
	f.engine.RunUntil(time.Second)
	if f.peers[0].Ledger().Height() != 0 {
		t.Fatal("forged block committed")
	}
	if d := f.peers[0].Stats().Dropped; d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
}

func f0Key(t *testing.T) crypto.PublicKey {
	t.Helper()
	s, err := crypto.NewSigner(rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	return s.Public()
}

func TestOrdererSignatureAccepted(t *testing.T) {
	var f *fixture
	f = newFixture(t, 3, Config{ValidationPerTx: time.Millisecond})
	// Rebuild peers with the right orderer key.
	f2 := newFixture(t, 3, Config{
		ValidationPerTx: time.Millisecond,
		OrdererKey:      f.signer.Public(),
	})
	b := f2.block(0, nil, 1, true)
	_ = f2.order.Send(0, &wire.DeliverBlock{Block: b})
	f2.engine.RunUntil(time.Second)
	if f2.peers[0].Ledger().Height() != 1 {
		t.Fatal("validly signed block rejected")
	}
}

// TestCommitErrorsCountCorruptedChain feeds a block whose PrevHash does not
// match the committed chain: the ledger rejects it at commit time, and the
// peer must count the loss instead of dropping the block silently.
func TestCommitErrorsCountCorruptedChain(t *testing.T) {
	f := newFixture(t, 3, Config{ValidationPerTx: time.Millisecond})
	b0 := f.block(0, nil, 1, false)
	// b1 claims to follow a different block 0: hash-chain mismatch.
	b1 := f.block(1, nil, 1, false)
	_ = f.order.Send(0, &wire.DeliverBlock{Block: b0})
	_ = f.order.Send(0, &wire.DeliverBlock{Block: b1})
	f.engine.RunUntil(time.Second)
	if h := f.peers[0].Ledger().Height(); h != 1 {
		t.Fatalf("height = %d, want 1 (corrupted block must not commit)", h)
	}
	st := f.peers[0].Stats()
	if st.CommitErrors != 1 {
		t.Fatalf("CommitErrors = %d, want 1", st.CommitErrors)
	}
	if st.Committed != 1 {
		t.Fatalf("Committed = %d, want 1", st.Committed)
	}
	if st.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0 (signature path not involved)", st.Dropped)
	}
}

func TestBlocksPropagateToAllPeersAndCommit(t *testing.T) {
	const n = 8
	f := newFixture(t, n, Config{ValidationPerTx: time.Millisecond})
	b0 := f.block(0, nil, 3, false)
	b1 := f.block(1, b0, 3, false)
	_ = f.order.Send(0, &wire.DeliverBlock{Block: b0})
	_ = f.order.Send(0, &wire.DeliverBlock{Block: b1})
	f.engine.RunUntil(10 * time.Second)
	for i, p := range f.peers {
		if p.Ledger().Height() != 2 {
			t.Fatalf("peer %d height = %d, want 2", i, p.Ledger().Height())
		}
	}
}

// copyOf is a content-equal block at another address, as a second
// consenter replica cuts it.
func copyOf(b *ledger.Block) *ledger.Block {
	return &ledger.Block{Num: b.Num, PrevHash: b.PrevHash, DataHash: b.DataHash, Txs: b.Txs, Sig: b.Sig}
}

// TestDivergentBlockCountsACommitError hands peer 1 a block 1 that links to
// block 0 but is not the block 1 peer 0 committed: the chain refuses to
// fork, peer 1 counts a commit error, and nothing else moves.
func TestDivergentBlockCountsACommitError(t *testing.T) {
	f := newFixture(t, 3, Config{ValidationPerTx: time.Millisecond})
	b0 := f.block(0, nil, 1, false)
	b1 := f.block(1, b0, 2, false)
	fork := f.block(1, b0, 3, false)
	f.peers[0].enqueue(b0)
	f.peers[0].enqueue(b1)
	f.peers[1].enqueue(b0)
	f.peers[2].enqueue(b0)
	f.engine.RunUntil(time.Second)
	f.peers[1].enqueue(fork)
	f.engine.RunUntil(2 * time.Second)

	if st := f.peers[1].Stats(); st.CommitErrors != 1 || st.Committed != 1 {
		t.Fatalf("peer 1 stats %+v, want 1 committed and 1 commit error", st)
	}
	for i, want := range []uint64{2, 1, 1} {
		if h := f.peers[i].Ledger().Height(); h != want {
			t.Fatalf("peer %d height %d, want %d", i, h, want)
		}
	}
	if r := f.peers[0].Ledger().Results(); len(r) != 2 || len(r[1].Codes) != 2 {
		t.Fatalf("peer 0 results %+v, want block 1's two codes", r)
	}
	if vv, _ := f.peers[0].State().Get("k"); vv.Version != (ledger.Version{BlockNum: 1, TxNum: 1}) {
		t.Fatalf("chain head read %+v after the fork attempt, want block 1's last write", vv)
	}
	if vv, _ := f.peers[2].State().Get("k"); vv.Version != (ledger.Version{}) {
		t.Fatalf("peer 2's view moved to %v", vv.Version)
	}
	// The chain still hands peer 2 block 1's recorded result.
	f.peers[2].enqueue(b1)
	f.engine.RunUntil(3 * time.Second)
	if r := f.peers[2].Ledger().Results(); len(r) != 2 || r[1].Valid != 2 {
		t.Fatalf("peer 2 results %+v, want block 1 with 2 valid", r)
	}
}

// TestContentEqualCopyCommits hands peer 1 the chain's block 1 at another
// address, as a second consenter replica cuts it: it commits normally.
func TestContentEqualCopyCommits(t *testing.T) {
	f := newFixture(t, 2, Config{ValidationPerTx: time.Millisecond})
	b0 := f.block(0, nil, 1, false)
	b1 := f.block(1, b0, 2, false)
	f.peers[0].enqueue(b0)
	f.peers[0].enqueue(b1)
	f.engine.RunUntil(time.Second)
	f.peers[1].enqueue(copyOf(b0))
	f.peers[1].enqueue(copyOf(b1))
	f.engine.RunUntil(2 * time.Second)
	st := f.peers[1].Stats()
	if st.CommitErrors != 0 || st.Committed != 2 {
		t.Fatalf("peer 1 stats %+v, want 2 committed and no commit error", st)
	}
	if r := f.peers[1].Ledger().Results(); r[1].Valid != 2 {
		t.Fatalf("peer 1 results %+v", r)
	}
}

// TestPreparedPolicyPassRunsAheadOfCommit delivers a block whose commit the
// modelled validation delay puts 400 ms out: every endorsement check is done
// long before then, once for the three peers that receive the block, and the
// commit uses those verdicts without checking again.
func TestPreparedPolicyPassRunsAheadOfCommit(t *testing.T) {
	var checked atomic.Int64
	chain := ledger.NewChain(func(tx *ledger.Transaction) error {
		checked.Add(1)
		if tx.Payload[1] == 1 {
			return errors.New("bad endorsement")
		}
		return nil
	})
	f := newFixtureOn(t, chain, 3, Config{ValidationPerTx: 100 * time.Millisecond})
	b := f.block(0, nil, 4, false)
	_ = f.order.Send(0, &wire.DeliverBlock{Block: b})
	f.engine.RunUntil(50 * time.Millisecond)
	for deadline := time.Now().Add(10 * time.Second); checked.Load() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 4 transactions checked before the commit", checked.Load())
		}
	}
	if h := f.peers[0].Ledger().Height(); h != 0 {
		t.Fatalf("height %d before the validation delay ran out", h)
	}
	f.engine.RunUntil(time.Second)
	for i, p := range f.peers {
		r := p.Ledger().Results()
		if len(r) != 1 || r[0].Valid != 3 || r[0].Codes[1] != ledger.CodeEndorsementFailure {
			t.Fatalf("peer %d results %+v, want transaction 1 rejected", i, r)
		}
	}
	if n := checked.Load(); n != 4 {
		t.Fatalf("%d endorsement checks for 4 transactions", n)
	}
}
