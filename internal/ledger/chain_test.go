package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// newCursors returns a constructor of ledgers that share what the
// implementation shares: cursors on one chain.
func newCursors(policy PolicyChecker) func() *Ledger {
	return NewChain(policy).NewLedger
}

var errBadClient = errors.New("bad client")

// refPolicy rejects the generator's "bad" client, so endorsement failures
// are part of every random chain.
func refPolicy(tx *Transaction) error {
	if tx.Client == "bad" {
		return errBadClient
	}
	return nil
}

// refPeer is the reference a ledger is checked against: the layout before
// the chain was shared — one private map-based state per peer and
// independent validation of every block.
type refPeer struct {
	height uint64
	state  map[string]VersionedValue
}

func newRefPeer() *refPeer { return &refPeer{state: make(map[string]VersionedValue)} }

func (r *refPeer) commit(b *Block) CommitResult {
	res := CommitResult{BlockNum: b.Num, Codes: make([]ValidationCode, len(b.Txs))}
	wrote := make(map[string]bool)
	for i, tx := range b.Txs {
		code := CodeValid
		if refPolicy(tx) != nil {
			code = CodeEndorsementFailure
		} else {
			for _, rd := range tx.RWSet.Reads {
				if wrote[rd.Key] || r.state[rd.Key].Version != rd.Version {
					code = CodeMVCCConflict
					break
				}
			}
		}
		res.Codes[i] = code
		if code != CodeValid {
			res.Invalid++
			continue
		}
		res.Valid++
		for _, w := range tx.RWSet.Writes {
			wrote[w.Key] = true
		}
	}
	for i, tx := range b.Txs {
		if res.Codes[i] == CodeValid {
			for _, w := range tx.RWSet.Writes {
				r.state[w.Key] = VersionedValue{Value: append([]byte(nil), w.Value...), Version: Version{b.Num, uint32(i)}}
			}
		}
	}
	r.height++
	return res
}

const refKeys = 16

func refKey(i int) string { return fmt.Sprintf("k%02d", i) }

// randomChain builds n hash-linked blocks against a reference head: hot
// keys (half the picks land on three keys), current and stale reads,
// never-written reads, in-block write/read collisions, write-only and
// double-write transactions, and policy rejections.
func randomChain(rng *rand.Rand, n int) []*Block {
	head := newRefPeer()
	pick := func() string {
		if rng.Intn(2) == 0 {
			return refKey(rng.Intn(3))
		}
		return refKey(rng.Intn(refKeys))
	}
	blocks := make([]*Block, n)
	var prev *Block
	for num := range blocks {
		txs := make([]*Transaction, rng.Intn(9))
		for i := range txs {
			var rw RWSet
			for r := rng.Intn(3); r > 0; r-- {
				k := pick()
				v := head.state[k].Version
				switch rng.Intn(5) {
				case 0: // stale
					v = Version{BlockNum: uint64(rng.Intn(num + 1)), TxNum: uint32(rng.Intn(3))}
				case 1: // never written, as far as the reader knows
					v = Version{}
				}
				rw.Reads = append(rw.Reads, KVRead{Key: k, Version: v})
			}
			for w := 1 + rng.Intn(2); w > 0; w-- {
				rw.Writes = append(rw.Writes, KVWrite{Key: pick(), Value: []byte{byte(num), byte(i), byte(w)}})
			}
			client := "c"
			if rng.Intn(10) == 0 {
				client = "bad"
			}
			payload := []byte{byte(num >> 8), byte(num), byte(i)}
			txs[i] = &Transaction{
				ID:     ProposalDigest(client, "cc", rw, payload),
				Client: client, Chaincode: "cc", RWSet: rw, Payload: payload,
			}
		}
		b := mkBlock(uint64(num), prev, txs...)
		head.commit(b)
		blocks[num], prev = b, b
	}
	return blocks
}

// copyOf is a content-equal block at another address, as a second
// consenter replica cuts it.
func copyOf(b *Block) *Block {
	return &Block{Num: b.Num, PrevHash: b.PrevHash, DataHash: b.DataHash, Txs: b.Txs, Sig: b.Sig}
}

func sameResult(a, b CommitResult) bool {
	if a.BlockNum != b.BlockNum || a.Valid != b.Valid || a.Invalid != b.Invalid || len(a.Codes) != len(b.Codes) {
		return false
	}
	for i := range a.Codes {
		if a.Codes[i] != b.Codes[i] {
			return false
		}
	}
	return true
}

func checkView(t *testing.T, step, who int, view *StateDB, ref *refPeer) {
	t.Helper()
	for k := 0; k < refKeys; k++ {
		key := refKey(k)
		got, ok := view.Get(key)
		want, wok := ref.state[key]
		if ok != wok || got.Version != want.Version || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("step %d: ledger %d at height %d: Get(%s) = %+v %v, want %+v %v",
				step, who, ref.height, key, got, ok, want, wok)
		}
	}
}

// TestLedgersEqualIndependentReplicas commits 300 random blocks through six
// ledgers in a random interleaving — one fast, one lagging far behind, and
// now and then one restarted at height 0 or handed a content-equal copy —
// and checks every commit result and every ledger's view of every key, at
// every step, against independent per-peer replicas. Ledgers are told of
// blocks ahead of their commits: the chain's own, content-equal copies, and
// strays at the same heights that no ledger commits. Once every ledger is at
// the head, no policy pass is pending.
func TestLedgersEqualIndependentReplicas(t *testing.T) {
	const nBlocks, nLedgers = 300, 6
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		blocks := randomChain(rng, nBlocks)
		strays := randomChain(rand.New(rand.NewSource(-seed)), nBlocks)
		newLedger := newCursors(refPolicy)
		leds := make([]*Ledger, nLedgers)
		views := make([]*StateDB, nLedgers)
		refs := make([]*refPeer, nLedgers)
		for i := range leds {
			leds[i] = newLedger()
			views[i] = leds[i].State()
			refs[i] = newRefPeer()
		}
		weights := []int{12, 6, 4, 3, 2, 1}
		restarts := 0
		for step := 0; ; step++ {
			done := true
			for _, r := range refs {
				done = done && r.height == nBlocks
			}
			if done {
				break
			}
			i := 0
			for x := rng.Intn(28); x >= weights[i]; i++ {
				x -= weights[i]
			}
			if refs[i].height == nBlocks {
				continue
			}
			if restarts < 12 && rng.Intn(100) == 0 {
				restarts++
				leds[i], refs[i] = newLedger(), newRefPeer()
				views[i] = leds[i].State()
			}
			if ahead := refs[i].height + uint64(rng.Intn(4)); ahead < nBlocks && rng.Intn(3) == 0 {
				switch p := blocks[ahead]; rng.Intn(4) {
				case 0:
					leds[i].Prepare(copyOf(p))
				case 1:
					leds[i].Prepare(strays[ahead])
				default:
					leds[i].Prepare(p)
				}
			}
			b := blocks[refs[i].height]
			if rng.Intn(5) == 0 {
				b = copyOf(b)
			}
			got, err := leds[i].Commit(b)
			if err != nil {
				t.Fatalf("seed %d step %d: ledger %d commit %d: %v", seed, step, i, b.Num, err)
			}
			if want := refs[i].commit(b); !sameResult(got, want) {
				t.Fatalf("seed %d step %d: ledger %d block %d: result %+v, want %+v", seed, step, i, b.Num, got, want)
			}
			for j := range leds {
				if leds[j].Height() != refs[j].height {
					t.Fatalf("seed %d step %d: ledger %d height %d, want %d", seed, step, j, leds[j].Height(), refs[j].height)
				}
				checkView(t, step, j, views[j], refs[j])
			}
		}
		if n := pending(leds[0].chain); n != 0 {
			t.Fatalf("seed %d: %d policy passes pending with every ledger at the head", seed, n)
		}
	}
}

func pending(c *Chain) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ahead)
}

// TestPreparedDivergentBlockLendsNoVerdicts prepares a divergent block 1,
// whose only transaction fails the policy, and then commits the chain's own
// block 1: the commit must use the verdicts of the block it is handed, not
// those of another block at its height, and the divergent block must still
// fail to commit.
func TestPreparedDivergentBlockLendsNoVerdicts(t *testing.T) {
	c := NewChain(refPolicy)
	a, b := c.NewLedger(), c.NewLedger()
	g := mkBlock(0, nil, mkTx("c", "k", Version{}, 1))
	b1 := mkBlock(1, g, mkTx("c", "k", Version{0, 0}, 2))
	fork := mkBlock(1, g, mkTx("bad", "k", Version{0, 0}, 3))
	for _, l := range []*Ledger{a, b} {
		if _, err := l.Commit(g); err != nil {
			t.Fatal(err)
		}
	}
	b.Prepare(fork)
	res, err := a.Commit(b1)
	if err != nil || res.Valid != 1 || res.Codes[0] != CodeValid {
		t.Fatalf("chain's block 1 after a divergent block 1 was prepared: %+v, %v", res, err)
	}
	if _, err := b.Commit(fork); err == nil {
		t.Fatal("a prepared block diverging from the chain at height 1 committed")
	}
	if n := pending(c); n != 0 {
		t.Fatalf("%d policy passes pending past the head", n)
	}
}

// TestDivergentBlockIsACommitError hands a second ledger a block 1 that
// links to block 0 but differs from the block 1 the first one committed:
// on one chain that is a fork, so it must fail and change nothing.
func TestDivergentBlockIsACommitError(t *testing.T) {
	newLedger := newCursors(nil)
	a, b := newLedger(), newLedger()
	g := mkBlock(0, nil, mkTx("c", "k", Version{}, 1))
	b1 := mkBlock(1, g, mkTx("c", "k", Version{0, 0}, 2))
	fork := mkBlock(1, g, mkTx("c", "k", Version{0, 0}, 3))
	for _, l := range []*Ledger{a, b} {
		if _, err := l.Commit(g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Commit(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(fork); err == nil {
		t.Fatal("a block diverging from the chain at height 1 committed")
	}
	if b.Height() != 1 || a.Height() != 2 {
		t.Fatalf("heights %d, %d after the divergent commit, want 2, 1", a.Height(), b.Height())
	}
	if vv, _ := a.State().Get("k"); vv.Value[0] != 2 {
		t.Fatalf("chain state changed by the divergent block: %+v", vv)
	}
	if vv, _ := b.State().Get("k"); vv.Version != (Version{0, 0}) {
		t.Fatalf("lagging view moved by the divergent block: %+v", vv)
	}
	res, err := b.Commit(copyOf(b1))
	if err != nil || res.Valid != 1 {
		t.Fatalf("content-equal copy of block 1: %+v, %v", res, err)
	}
}

// TestDeepHistoryReadIsLogarithmic reads a key with 10 000 versions through
// a height-0 view (a restarted endorser during hot-key contention) and
// through the head: no allocation, and within a small factor of reading a
// key with one version — a scan of the history would be ~10 000× slower.
func TestDeepHistoryReadIsLogarithmic(t *testing.T) {
	const depth = 10000
	c := NewChain(nil)
	for n := uint64(0); n < depth; n++ {
		c.state.ApplyBlockWrites(n, []uint32{0}, []RWSet{{Writes: []KVWrite{{Key: "hot", Value: []byte{1}}}}})
	}
	c.state.ApplyBlockWrites(depth, []uint32{0}, []RWSet{{Writes: []KVWrite{{Key: "cold", Value: []byte{1}}}}})
	restarted := c.NewLedger().State()
	middle := c.NewLedger()
	middle.height.Store(depth / 2)
	if _, ok := restarted.Get("hot"); ok {
		t.Fatal("a height-0 view sees a committed version")
	}
	if vv, _ := middle.State().Get("hot"); vv.Version.BlockNum != depth/2-1 {
		t.Fatalf("height-%d view read version %v", depth/2, vv.Version)
	}
	for _, v := range []*StateDB{restarted, middle.State(), c.state} {
		if a := testing.AllocsPerRun(100, func() { v.Get("hot") }); a != 0 {
			t.Fatalf("Get allocated %.0f times", a)
		}
	}
	perRead := func(v *StateDB, key string) time.Duration {
		best := time.Duration(1 << 62)
		for r := 0; r < 5; r++ {
			start := time.Now()
			for i := 0; i < 2000; i++ {
				v.Get(key)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best / 2000
	}
	deep, shallow := perRead(restarted, "hot"), perRead(restarted, "cold")
	if deep > 20*shallow+time.Microsecond {
		t.Fatalf("a 10 000-version read costs %v, a one-version read %v", deep, shallow)
	}
}

// TestChainConcurrentCommitsAndLaggingView commits one chain from two
// goroutines, as two shards do, while a third reads through a lagging
// ledger's view and checks it against the reference at its height, and a
// fourth prepares the blocks just ahead of the head and copies of them (run
// under -race in CI).
func TestChainConcurrentCommitsAndLaggingView(t *testing.T) {
	const nBlocks = 200
	blocks := randomChain(rand.New(rand.NewSource(4)), nBlocks)
	ref := newRefPeer()
	states := make([]map[string]VersionedValue, nBlocks+1)
	for i := 0; ; i++ {
		states[i] = make(map[string]VersionedValue, len(ref.state))
		for k, v := range ref.state {
			states[i][k] = v
		}
		if i == nBlocks {
			break
		}
		ref.commit(blocks[i])
	}
	c := NewChain(refPolicy)
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		l := c.NewLedger()
		for _, b := range blocks {
			for b.Num > c.store.Height()+3 {
				runtime.Gosched() // prepare a few blocks ahead of the head
			}
			l.Prepare(b)
			l.Prepare(copyOf(b))
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := c.NewLedger()
			for _, b := range blocks {
				if _, err := l.Commit(b); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		l := c.NewLedger()
		view := l.State()
		for _, b := range blocks {
			for c.store.Height() <= b.Num {
				runtime.Gosched() // lag: commit only what a committer validated
			}
			for k := 0; k < refKeys; k++ {
				key := refKey(k)
				got, ok := view.Get(key)
				want, wok := states[l.Height()][key]
				if ok != wok || got.Version != want.Version || !bytes.Equal(got.Value, want.Value) {
					errs <- fmt.Errorf("height %d: Get(%s) = %+v, want %+v", l.Height(), key, got, want)
					return
				}
			}
			if _, err := l.Commit(b); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := pending(c); n != 0 {
		t.Fatalf("%d policy passes pending past the head", n)
	}
}
