package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// DisseminationResult is everything a dissemination experiment measured.
type DisseminationResult struct {
	Params    Params
	Latencies *metrics.LatencyRecorder
	Traffic   *netmodel.Traffic

	// LeaderID and RegularID are the two peers whose bandwidth the
	// paper's Figures 6/9/10/11/14 plot.
	LeaderID  wire.NodeID
	RegularID wire.NodeID
	// NumBuckets is the series length at Params.Bucket granularity.
	NumBuckets int

	// BlockBytes is the encoded size of one block of the workload.
	BlockBytes int
	// BodyTransmissions counts full-block sends during dissemination
	// (Data + PullData + recovery batches), excluding orderer deliveries.
	BodyTransmissions uint64
	// RecoveryServed counts blocks that had to be fetched by the recovery
	// component (the enhanced paper runs never need it).
	RecoveryServed uint64
	// WallBlocks is how many blocks were fully disseminated to all peers.
	WallBlocks int
}

// RunDissemination builds an organization of Params.NumPeers peers over the
// calibrated LAN model, injects Params.NumBlocks blocks at the leader peer
// on the block interval, and measures per-peer/per-block dissemination
// latency and per-peer bandwidth.
func RunDissemination(p Params) (*DisseminationResult, error) {
	rec := metrics.NewLatencyRecorder()
	// leaderSeen[num] is the dissemination start: the leader's reception
	// of the block from the ordering service.
	leaderSeen := make(map[uint64]time.Duration, p.NumBlocks)
	received := make([]int, p.NumBlocks) // peers holding each block

	org, err := NewOrg(p, WithCoreHook(func(i int, core *gossip.Core) {
		self := core.ID()
		core.OnFirstReception(func(b *ledger.Block, at time.Duration) {
			if self == 0 {
				// The leader is the dissemination origin: its reception
				// defines t=0 and is excluded from the latency CDFs.
				leaderSeen[b.Num] = at
			} else {
				start, ok := leaderSeen[b.Num]
				if !ok {
					// Block reached a peer before the leader (recovery
					// race); anchor at current time.
					start = at
					leaderSeen[b.Num] = start
				}
				rec.Record(b.Num, self, at-start)
			}
			if b.Num < uint64(len(received)) {
				received[b.Num]++
			}
		})
	}))
	if err != nil {
		return nil, err
	}
	engine, traffic := org.Engine, org.Traffic
	org.StartAll()

	// Background floor: the paper's ≈0.4 MB/s of non-dissemination system
	// traffic per peer, accounted once per simulated second.
	if p.BackgroundBytesPerSec > 0 {
		half := int(p.BackgroundBytesPerSec / 2)
		for _, id := range org.Peers {
			id := id
			engine.Every(time.Second, func() {
				traffic.Record(id, id, wire.TypeAlive, half, engine.Now())
			})
		}
	}

	blocks := BuildChain(p.NumBlocks, p.TxPerBlock, p.TxPayload, p.Seed)
	for i, b := range blocks {
		b := b
		engine.At(time.Duration(i)*p.BlockInterval, func() {
			org.DeliverBlock(b)
		})
	}

	end := time.Duration(p.NumBlocks-1)*p.BlockInterval + p.Tail
	engine.RunUntil(end)
	org.StopAll()

	complete := 0
	for _, got := range received {
		if got == p.NumPeers {
			complete++
		}
	}
	res := &DisseminationResult{
		Params:            p,
		Latencies:         rec,
		Traffic:           traffic,
		LeaderID:          0,
		RegularID:         wire.NodeID(1 + p.Seed%int64(p.NumPeers-1)),
		NumBuckets:        int(end/p.Bucket) + 1,
		BlockBytes:        wire.BlockEncodedSize(blocks[0]),
		BodyTransmissions: traffic.CountOf(wire.TypeData) + traffic.CountOf(wire.TypePullData),
		RecoveryServed:    traffic.CountOf(wire.TypeStateResponse),
		WallBlocks:        complete,
	}
	return res, nil
}

// BuildChain constructs a hash-linked chain of blocks with the workload's
// transaction shape. Payload bytes are deterministic from the seed: the
// "chain" stream is drawn by one sequential pass, and only the hashing —
// most of the cost at the paper's 160 KB blocks — is spread over GOMAXPROCS
// goroutines, so the chain is the same bytes at any parallelism.
func BuildChain(n, txPerBlock, payloadSize int, seed int64) []*ledger.Block {
	rng := sim.NewRand(sim.StreamSeed(seed, "chain"))
	blocks := make([]*ledger.Block, n)
	for i := range blocks {
		// One payload slab per block, each transaction a cap-clipped slice.
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
		blocks[i] = &ledger.Block{Num: uint64(i), Txs: txs, Sig: make([]byte, 64)}
	}

	// Everything that depends on no other block and draws nothing, worker w
	// taking every workers-th block.
	workers := min(runtime.GOMAXPROCS(0), n)
	stripe := func(w int) {
		for i := w; i < n; i += workers {
			b := blocks[i]
			for j, tx := range b.Txs {
				tx.Client = fmt.Sprintf("client-%d", j)
				tx.Chaincode = "high-throughput"
				tx.ID = ledger.ProposalDigest(tx.Client, tx.Chaincode, tx.RWSet, tx.Payload)
				tx.Endorsements = []ledger.Endorsement{{Org: "orgA", Name: "endorser0", Sig: make([]byte, 64)}}
			}
			b.DataHash = ledger.ComputeDataHash(b.Txs)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stripe(w)
		}()
	}
	stripe(0) // the caller is worker 0: no goroutine at GOMAXPROCS=1
	wg.Wait()

	for i := 1; i < n; i++ {
		blocks[i].PrevHash = blocks[i-1].Hash()
	}
	return blocks
}
