package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fabricgossip/internal/ledger"
	"fabricgossip/internal/sim"
)

// BuildChain constructs a hash-linked chain of blocks with the workload's
// transaction shape: it collects streamChain with GOMAXPROCS hashers, so
// drawing and hashing overlap on every core. Payload bytes are deterministic
// from the seed, and the chain is the same bytes at any parallelism.
func BuildChain(n, txPerBlock, payloadSize int, seed int64) []*ledger.Block {
	hashers := runtime.GOMAXPROCS(0)
	if hashers == 1 {
		hashers = 0 // one core: a separate hasher would only add hand-offs
	}
	s := streamChain(n, txPerBlock, payloadSize, seed, hashers)
	defer s.Close()
	blocks := make([]*ledger.Block, n)
	for i := range blocks {
		blocks[i] = s.Next()
	}
	return blocks
}

// chainStream is a chain being built on background goroutines and handed
// out in block order. One drawer consumes the "chain" random stream block by
// block — every draw in the order of one loop over the chain — and passes
// each block, round robin, to a hasher, which fills in everything that
// depends on no other block and draws nothing. Next links each block to its
// predecessor. With no hashers the drawer hashes as well, so the whole build
// is one goroutine beside the consumer.
//
// Every channel holds its whole share of the chain, so no builder goroutine
// ever waits for the consumer: a slow consumer lets the chain pile up, a
// fast one waits for the next block.
type chainStream struct {
	lanes []chan *ledger.Block // block i arrives on lanes[i%len(lanes)]
	next  int
	prev  *ledger.Block
	stop  atomic.Bool
	wg    sync.WaitGroup
}

// streamChain starts building the n-block chain BuildChain returns, with
// the given number of hasher goroutines beside the drawer. The caller must
// Close the stream.
func streamChain(n, txPerBlock, payloadSize int, seed int64, hashers int) *chainStream {
	s := &chainStream{lanes: make([]chan *ledger.Block, max(hashers, 1))}
	share := (n + len(s.lanes) - 1) / len(s.lanes)
	for l := range s.lanes {
		s.lanes[l] = make(chan *ledger.Block, share)
	}
	in := make([]chan *ledger.Block, hashers)
	for h := range in {
		in[h] = make(chan *ledger.Block, share)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer close(s.lanes[h])
			for b := range in[h] {
				if !s.stop.Load() {
					hashBlock(b)
					s.lanes[h] <- b
				}
			}
		}()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		rng := sim.NewRand(sim.StreamSeed(seed, "chain"))
		for i := 0; i < n && !s.stop.Load(); i++ {
			b := drawBlock(rng, i, txPerBlock, payloadSize)
			if hashers == 0 {
				hashBlock(b)
				s.lanes[0] <- b
			} else {
				in[i%hashers] <- b
			}
		}
		for _, c := range in {
			close(c)
		}
		if hashers == 0 {
			close(s.lanes[0])
		}
	}()
	return s
}

// Next returns the next block of the chain, linked to the one before it,
// waiting for it if need be; nil past the chain's end, or past the point at
// which Close stopped the builder.
func (s *chainStream) Next() *ledger.Block {
	b := <-s.lanes[s.next%len(s.lanes)]
	if b == nil {
		return nil
	}
	if s.prev != nil {
		b.PrevHash = s.prev.Hash()
	}
	s.prev = b
	s.next++
	return b
}

// Close stops the builder and waits for its goroutines to exit.
func (s *chainStream) Close() {
	s.stop.Store(true)
	s.wg.Wait()
}

// drawBlock draws block i's payloads and read/write set from the chain's
// random stream: one payload slab per block, each transaction a cap-clipped
// slice of it.
func drawBlock(rng *sim.Rand, i, txPerBlock, payloadSize int) *ledger.Block {
	slab := make([]byte, txPerBlock*payloadSize)
	txs := make([]*ledger.Transaction, txPerBlock)
	for j := range txs {
		payload := slab[j*payloadSize : (j+1)*payloadSize : (j+1)*payloadSize]
		for k := 0; k < len(payload); k += 64 {
			payload[k] = byte(rng.Intn(256))
		}
		key := fmt.Sprintf("asset-%d", rng.Intn(1000))
		txs[j] = &ledger.Transaction{
			RWSet: ledger.RWSet{
				Reads:  []ledger.KVRead{{Key: key, Version: ledger.Version{BlockNum: uint64(i)}}},
				Writes: []ledger.KVWrite{{Key: key, Value: payload[:16]}},
			},
			Payload: payload,
		}
	}
	return &ledger.Block{Num: uint64(i), Txs: txs, Sig: make([]byte, 64)}
}

// hashBlock fills in what depends on no other block and draws nothing: each
// transaction's client, chaincode, proposal digest and endorsement, then the
// block's data hash. Most of a paper-sized block's cost is here.
func hashBlock(b *ledger.Block) {
	for j, tx := range b.Txs {
		tx.Client = fmt.Sprintf("client-%d", j)
		tx.Chaincode = "high-throughput"
		tx.ID = ledger.ProposalDigest(tx.Client, tx.Chaincode, tx.RWSet, tx.Payload)
		tx.Endorsements = []ledger.Endorsement{{Org: "orgA", Name: "endorser0", Sig: make([]byte, 64)}}
	}
	b.DataHash = ledger.ComputeDataHash(b.Txs)
}
