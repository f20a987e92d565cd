// Package harness builds simulated Fabric organizations and runs every
// experiment of the paper's evaluation (§V), producing the rows and series
// behind each figure and table. All experiments share one calibrated
// network model (netmodel.LAN) and differ only in protocol configuration —
// matching how the paper varies a single deployment.
package harness

import (
	"time"

	"fabricgossip/internal/gossip/enhanced"
	"fabricgossip/internal/gossip/original"
)

// Variant selects the dissemination protocol under test.
type Variant string

// The two protocols the paper compares.
const (
	VariantOriginal Variant = "original"
	VariantEnhanced Variant = "enhanced"
)

// Params configures one dissemination experiment (Figures 4-14).
type Params struct {
	Seed     int64
	NumPeers int
	// NumBlocks blocks are injected at the leader every BlockInterval.
	NumBlocks     int
	BlockInterval time.Duration
	// TxPerBlock transactions of TxPayload bytes each give the paper's
	// ≈160 KB blocks (50 tx ≈ 3.2 KB).
	TxPerBlock int
	TxPayload  int

	Variant Variant
	// Original holds the stock-protocol parameters (used when Variant is
	// VariantOriginal).
	Original original.Config
	// Enhanced holds the enhanced-protocol parameters (used when Variant
	// is VariantEnhanced).
	Enhanced enhanced.Config

	// Tail is how long the run continues after the last block is
	// injected; the paper's bandwidth plots include a post-run idle
	// window showing the background-traffic floor.
	Tail time.Duration
	// Bucket is the bandwidth aggregation interval (paper: 10 s).
	Bucket time.Duration
	// BackgroundBytesPerSec models the paper's measured ≈0.4 MB/s of
	// idle background traffic per peer (monitoring, membership, runtime
	// chatter of "all the tasks"). The value is the combined in+out rate
	// accounted to each peer.
	BackgroundBytesPerSec float64
}

// DefaultParams returns the shared §V-A workload: 100 peers, 1,000 blocks
// of 50 transactions (~160 KB) every 1.5 s.
func DefaultParams(v Variant, seed int64) Params {
	p := Params{
		Seed:                  seed,
		NumPeers:              100,
		NumBlocks:             1000,
		BlockInterval:         1500 * time.Millisecond,
		TxPerBlock:            50,
		TxPayload:             3000,
		Variant:               v,
		Original:              original.DefaultConfig(),
		Tail:                  500 * time.Second,
		Bucket:                10 * time.Second,
		BackgroundBytesPerSec: 400_000,
	}
	cfg, err := enhanced.ConfigFor(p.NumPeers, 4, 1e-6, 2)
	if err != nil {
		panic(err) // n=100, fout=4 is statically known-good
	}
	p.Enhanced = cfg
	return p
}

// Fig7Params returns the enhanced configuration with fout=4, TTL=9 used by
// Figures 7, 8 and 9.
func Fig7Params(seed int64) Params { return DefaultParams(VariantEnhanced, seed) }

// Fig10Params reproduces the leader-fan-out ablation: the leader pushes to
// fleaderout = fout = 4 peers itself instead of delegating to one.
func Fig10Params(seed int64) Params {
	p := DefaultParams(VariantEnhanced, seed)
	p.Enhanced.FLeaderOut = p.Enhanced.Fout
	return p
}

// Fig11Params reproduces the digest ablation: bodies are pushed on every
// hop. The paper's Figure 11 covers a shorter x-axis; we inject fewer
// blocks to match (the per-bucket magnitude is what the figure shows).
func Fig11Params(seed int64) Params {
	p := DefaultParams(VariantEnhanced, seed)
	p.Enhanced.UseDigests = false
	p.NumBlocks = 100
	p.Tail = 20 * time.Second
	return p
}

// Fig12Params returns the conservative configuration with fout=2, TTL=19
// used by Figures 12, 13 and 14 (TTLdirect = 3, §V-C). Our analysis bound
// certifies pe <= 1e-6 already at TTL=18; we pin the paper's 19 for an
// exact configuration match.
func Fig12Params(seed int64) Params {
	p := DefaultParams(VariantEnhanced, seed)
	cfg, err := enhanced.ConfigFor(p.NumPeers, 2, 1e-6, 3)
	if err != nil {
		panic(err)
	}
	if cfg.TTL < 19 {
		cfg.TTL = 19
	}
	p.Enhanced = cfg
	return p
}

// QuickScale shrinks a parameter set for fast tests, the figures' -quick
// runs and the compare example: fewer peers and blocks, same protocol
// behaviour.
func QuickScale(p Params, peers, blocks int) Params {
	p.NumPeers = peers
	p.NumBlocks = blocks
	p.Tail = 30 * time.Second
	if p.Variant == VariantEnhanced {
		fout := p.Enhanced.Fout
		ttlDirect := p.Enhanced.TTLDirect
		useDigests := p.Enhanced.UseDigests
		fleader := p.Enhanced.FLeaderOut
		cfg, err := enhanced.ConfigFor(peers, fout, 1e-6, ttlDirect)
		if err == nil {
			cfg.UseDigests = useDigests
			cfg.FLeaderOut = fleader
			if fleader == fout { // preserve the fig10-style ablation
				cfg.FLeaderOut = cfg.Fout
			}
			p.Enhanced = cfg
		}
	}
	return p
}
