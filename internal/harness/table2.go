package harness

import (
	"fmt"
	"math/rand"
	"time"

	"fabricgossip/internal/chaincode"
	"fabricgossip/internal/client"
	"fabricgossip/internal/endorse"
	"fabricgossip/internal/gossip"
	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/gossip/original"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/msp"
	"fabricgossip/internal/order"
	"fabricgossip/internal/peer"
	"fabricgossip/internal/wire"
)

// ConflictParams configures one Table II run: the counter-increment
// workload over the full execute-order-validate pipeline (paper §V-D).
type ConflictParams struct {
	Seed     int64
	NumPeers int
	Variant  Variant
	Original original.Config
	Enhanced enhanced.Config

	// Keys integers are each incremented Rounds times, one permutation of
	// all keys per round, at TxRate transactions per second (paper: 100
	// keys x 100 rounds at 5 tx/s = 10,000 transactions).
	Keys   int
	Rounds int
	TxRate float64

	// BlockPeriod is the orderer batch timeout Table II varies
	// (0.75/1/1.5/2 s). MaxTxPerBlock stays at the §V-A cap.
	BlockPeriod   time.Duration
	MaxTxPerBlock int
	// ValidationPerTx is the modelled per-transaction validation cost
	// (paper: ≈50 ms).
	ValidationPerTx time.Duration
}

// DefaultConflictParams returns the paper's Table II workload for one
// variant and block period.
func DefaultConflictParams(v Variant, period time.Duration, seed int64) ConflictParams {
	p := ConflictParams{
		Seed:            seed,
		NumPeers:        100,
		Variant:         v,
		Original:        original.DefaultConfig(),
		Keys:            100,
		Rounds:          100,
		TxRate:          5,
		BlockPeriod:     period,
		MaxTxPerBlock:   50,
		ValidationPerTx: 50 * time.Millisecond,
	}
	cfg, err := enhanced.ConfigFor(p.NumPeers, 4, 1e-6, 2)
	if err != nil {
		panic(err) // statically known-good parameters
	}
	p.Enhanced = cfg
	return p
}

// ConflictResult reports one run's outcome.
type ConflictResult struct {
	Params ConflictParams
	// TotalTx is the number of submitted increments.
	TotalTx int
	// Conflicts is TotalTx minus the sum over all counters in the final
	// ledger — the paper's accounting of validation-time conflicts.
	Conflicts int
	// PeerReportedConflicts cross-checks Conflicts from the endorser
	// peer's commit results.
	PeerReportedConflicts int
	// Blocks is how many blocks the ordering service cut.
	Blocks uint64
	// MeanTxPerBlock is TotalTx / Blocks.
	MeanTxPerBlock float64
}

// RunConflictExperiment runs one full EOV pipeline experiment and counts
// validation-time conflicts. The deployment is an Org whose every core is
// wrapped in a committing peer, its Orderer endpoint fronting the ordering
// service, plus one client node.
func RunConflictExperiment(p ConflictParams) (*ConflictResult, error) {
	// Identities: an MSP certifies the orderer and the endorsing peer.
	idRng := rand.New(rand.NewSource(p.Seed + 1))
	provider, err := msp.NewProvider(idRng)
	if err != nil {
		return nil, err
	}
	ordererID, ordererSigner, err := provider.Enroll(msp.RoleOrderer, "ordererOrg", "orderer0", idRng)
	if err != nil {
		return nil, err
	}
	endorserID, endorserSigner, err := provider.Enroll(msp.RolePeer, "orgA", "peer1", idRng)
	if err != nil {
		return nil, err
	}
	// One chain for the channel: each block is validated once, and every
	// peer's ledger is a height on it.
	chain := ledger.NewChain(endorse.NewPolicy(1, endorserID).Checker())

	peers := make([]*peer.Peer, p.NumPeers)
	org, err := NewOrg(Params{
		Seed: p.Seed, NumPeers: p.NumPeers, Variant: p.Variant,
		Original: p.Original, Enhanced: p.Enhanced,
	}, WithCoreHook(func(i int, c *gossip.Core) {
		peers[i] = peer.New(c, chain, c.Scheduler(), peer.Config{
			ValidationPerTx: p.ValidationPerTx,
			OrdererKey:      ordererID.Key,
		})
	}))
	if err != nil {
		return nil, err
	}
	engine := org.Engine

	// Ordering service: the paper-calibrated solo consenter behind the
	// organization's orderer endpoint; cut blocks go to the leader peer
	// (peer 0). The Raft-ordered pipeline is Network + workload's.
	oCfg := order.Config{MaxTxPerBlock: p.MaxTxPerBlock, BatchTimeout: p.BlockPeriod}
	service := order.NewService(oCfg, engine, order.NewSolo(engine, 5*time.Millisecond), ordererSigner,
		func(b *ledger.Block) { org.DeliverBlock(b) })
	org.Orderer.SetHandler(func(_ wire.NodeID, msg wire.Message) {
		if st, ok := msg.(*wire.SubmitTx); ok {
			_ = service.Broadcast(st.Tx)
		}
	})
	org.StartAll()

	// The single endorsing peer (paper: "we focus on validation-time
	// conflicts and therefore use a single endorsing peer"). Peer 1 is a
	// regular, non-leader peer.
	const endorserIdx = 1
	endorser := endorse.NewEndorser(endorserID, endorserSigner, peers[endorserIdx].State())
	endorser.Install(chaincode.Counter{})

	// The client submits proposals through the endorser and broadcasts
	// the assembled transaction to the ordering node over the network.
	clientEp := org.Net.AddNode()
	cl, err := client.New("client0", []*endorse.Endorser{endorser}, func(tx *ledger.Transaction) error {
		return clientEp.Send(org.Orderer.ID(), &wire.SubmitTx{Tx: tx})
	})
	if err != nil {
		return nil, err
	}

	// Workload: Rounds permutations of Keys increments at TxRate tx/s.
	wrng := engine.Rand("workload")
	keys := make([]string, p.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("ctr-%03d", i)
	}
	interval := time.Duration(float64(time.Second) / p.TxRate)
	total := 0
	for r := 0; r < p.Rounds; r++ {
		perm := wrng.Perm(p.Keys)
		for i, ki := range perm {
			key := keys[ki]
			at := time.Duration(r*p.Keys+i) * interval
			engine.At(at, func() {
				// Conflicted transactions are not resent (§V-D); the
				// endorsement itself cannot fail for this chaincode.
				_, _ = cl.Invoke("counter", []string{"incr", key}, nil)
			})
			total++
		}
	}

	// Run until the last transaction's block has certainly drained
	// through ordering, dissemination and validation everywhere.
	end := time.Duration(total)*interval + p.BlockPeriod + 60*time.Second
	engine.RunUntil(end)
	org.StopAll()

	// Paper accounting: conflicts = total - sum of the final counters.
	var sum uint64
	state := peers[endorserIdx].State()
	for _, key := range keys {
		vv, _ := state.Get(key)
		v, err := chaincode.DecodeUint64(vv.Value)
		if err != nil {
			return nil, fmt.Errorf("harness: counter %s corrupt: %w", key, err)
		}
		sum += v
	}
	res := &ConflictResult{
		Params:                p,
		TotalTx:               total,
		Conflicts:             total - int(sum),
		PeerReportedConflicts: peers[endorserIdx].Ledger().Conflicts(),
		Blocks:                service.Height(),
	}
	if res.Blocks > 0 {
		res.MeanTxPerBlock = float64(res.TotalTx) / float64(res.Blocks)
	}
	return res, nil
}

// Table2Report reproduces Table II: validation-time conflicts for block
// periods 2/1.5/1/0.75 s under both gossip variants, averaged over five
// seeds (as in the paper). quick shrinks the workload for smoke tests.
func Table2Report(seed int64, quick bool) (Report, error) {
	r := Report{ID: "table2", Title: "Invalidated transactions under different block periods (avg of 5 runs)"}
	periods := []time.Duration{2 * time.Second, 1500 * time.Millisecond, time.Second, 750 * time.Millisecond}
	seeds := []int64{seed, seed + 1, seed + 2, seed + 3, seed + 4}
	shrink := func(p ConflictParams) ConflictParams { return p }
	if quick {
		periods = periods[:2]
		seeds = seeds[:1]
		shrink = func(p ConflictParams) ConflictParams {
			p.NumPeers = 30
			p.Keys = 30
			p.Rounds = 10
			cfg, err := enhanced.ConfigFor(p.NumPeers, 4, 1e-6, 2)
			if err == nil {
				p.Enhanced = cfg
			}
			return p
		}
	}
	r.addf("%-8s %-9s %-11s %10s %10s %10s", "period", "tx/block", "validation", "original", "enhanced", "difference")
	for _, period := range periods {
		var acc table2Acc
		for _, s := range seeds {
			op, err := RunConflictExperiment(shrink(DefaultConflictParams(VariantOriginal, period, s)))
			if err != nil {
				return r, err
			}
			ep, err := RunConflictExperiment(shrink(DefaultConflictParams(VariantEnhanced, period, s)))
			if err != nil {
				return r, err
			}
			acc.add(op, ep)
		}
		row := acc.row()
		r.addf("%-8v %-9.1f %-11.2f %10.1f %10.1f %9.1f%%",
			period, row.TxPerBlock, row.ValidationSec, row.Original, row.Enhanced, row.DiffPct)
	}
	return r, nil
}

// validationSeconds is the Table II "validation" column: the modelled time
// to validate one mean-sized block, in float64 seconds. The multiplication
// stays in float space throughout — converting the mean transactions per
// block to a time.Duration first would truncate it to integer nanoseconds
// and then multiply two Durations, which is dimensionally meaningless.
func validationSeconds(meanTxPerBlock float64, perTx time.Duration) float64 {
	return meanTxPerBlock * perTx.Seconds()
}

// table2Acc accumulates one Table II row across seeds. Every column is the
// mean over all seeds' runs: conflicts per variant, and the original
// variant's transactions per block and validation time (the paper reports
// the original deployment's batching profile).
type table2Acc struct {
	n                   int
	oSum, eSum          float64
	txPerBlock, valTime float64
}

func (a *table2Acc) add(op, ep *ConflictResult) {
	a.n++
	a.oSum += float64(op.Conflicts)
	a.eSum += float64(ep.Conflicts)
	a.txPerBlock += op.MeanTxPerBlock
	a.valTime += validationSeconds(op.MeanTxPerBlock, op.Params.ValidationPerTx)
}

// Table2Row is one averaged row of the Table II report.
type Table2Row struct {
	TxPerBlock    float64
	ValidationSec float64
	Original      float64
	Enhanced      float64
	DiffPct       float64
}

func (a *table2Acc) row() Table2Row {
	if a.n == 0 {
		return Table2Row{}
	}
	n := float64(a.n)
	row := Table2Row{
		TxPerBlock:    a.txPerBlock / n,
		ValidationSec: a.valTime / n,
		Original:      a.oSum / n,
		Enhanced:      a.eSum / n,
	}
	if row.Original > 0 {
		row.DiffPct = 100 * (row.Enhanced - row.Original) / row.Original
	}
	return row
}
