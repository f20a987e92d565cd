package harness

import (
	"fmt"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/netmodel"
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
//
// The input chain is built on one goroutine beside the engine, from before
// the organization is built: block i's injection takes block i from the
// stream, which on a machine with a second core is long since ready.
func RunDissemination(p Params) (*DisseminationResult, error) {
	if p.NumPeers < 2 {
		return nil, fmt.Errorf("harness: need at least 2 peers, got %d", p.NumPeers)
	}
	if p.NumBlocks < 1 {
		return nil, fmt.Errorf("harness: need at least 1 block, got %d", p.NumBlocks)
	}
	if p.Bucket <= 0 {
		return nil, fmt.Errorf("harness: need a positive bandwidth bucket, got %v", p.Bucket)
	}
	chain := streamChain(p.NumBlocks, p.TxPerBlock, p.TxPayload, p.Seed, 0)
	defer chain.Close()

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
	// traffic per peer, accounted for every peer once per simulated second.
	if p.BackgroundBytesPerSec > 0 {
		half := int(p.BackgroundBytesPerSec / 2)
		engine.Every(time.Second, func() {
			now := engine.Now()
			for _, id := range org.Peers {
				traffic.Record(id, id, wire.TypeAlive, half, now)
			}
		})
	}

	// Injections fire in block order, so the i-th to fire takes block i.
	var first *ledger.Block
	inject := func() {
		b := chain.Next()
		if first == nil {
			first = b
		}
		org.DeliverBlock(b)
	}
	for i := 0; i < p.NumBlocks; i++ {
		engine.At(time.Duration(i)*p.BlockInterval, inject)
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
		RegularID:         regularPeer(p.Seed, p.NumPeers),
		NumBuckets:        int(end/p.Bucket) + 1,
		BlockBytes:        wire.BlockEncodedSize(first),
		BodyTransmissions: traffic.CountOf(wire.TypeData) + traffic.CountOf(wire.TypePullData),
		RecoveryServed:    traffic.CountOf(wire.TypeStateResponse),
		WallBlocks:        complete,
	}
	return res, nil
}

// regularPeer is the "regular peer" of the bandwidth figures: a non-leader
// peer picked by the seed, for negative seeds too.
func regularPeer(seed int64, peers int) wire.NodeID {
	others := int64(peers - 1)
	return wire.NodeID(1 + (seed%others+others)%others)
}
