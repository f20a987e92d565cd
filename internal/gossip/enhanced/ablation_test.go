package enhanced

import (
	"testing"
	"time"

	"fabricgossip/internal/wire"
)

// TestTPushBatchingSharesTargets reproduces the mechanism behind the
// paper's tpush ablation (§IV): with the batching timer re-enabled, pairs
// buffered in the same window are forwarded to the SAME random sample,
// reducing the number of independent samples — the bias that voids the
// theoretical pe guarantee. With tpush = 0, each pair gets a fresh sample.
func TestTPushBatchingSharesTargets(t *testing.T) {
	cfg, _ := ConfigFor(30, 3, 1e-6, 10) // TTLdirect high: all hops direct
	cfg.TPush = 10 * time.Millisecond
	w := build(t, 30, cfg, 21)
	// Two blocks hit the leader within one buffer window. The leader's
	// delegation is unbuffered (fleaderout), so drive pair receptions at
	// a regular peer directly.
	b0, b1 := block(0), block(1)
	w.engine.After(0, func() {
		w.protos[5].handleData(&wire.Data{Block: b0, Counter: 0})
		w.protos[5].handleData(&wire.Data{Block: b1, Counter: 0})
	})
	// Nothing leaves peer 5 before the buffer flushes.
	w.engine.RunUntil(9 * time.Millisecond)
	if got := w.traffic.CountOf(wire.TypeData); got != 0 {
		t.Fatalf("%d sends before the tpush flush", got)
	}
	w.engine.RunUntil(12 * time.Millisecond)
	// Both blocks flushed to the same fout targets: exactly 2*fout sends.
	if got := w.traffic.CountOf(wire.TypeData); got != uint64(2*cfg.Fout) {
		t.Fatalf("flush sent %d bodies, want %d", got, 2*cfg.Fout)
	}
}

func TestTPushZeroForwardsImmediately(t *testing.T) {
	cfg, _ := ConfigFor(30, 3, 1e-6, 10)
	cfg.TPush = 0
	w := build(t, 30, cfg, 22)
	w.engine.After(0, func() {
		w.protos[5].handleData(&wire.Data{Block: block(0), Counter: 0})
	})
	w.engine.RunUntil(time.Millisecond)
	if got := w.traffic.CountOf(wire.TypeData); got != uint64(cfg.Fout) {
		t.Fatalf("immediate mode sent %d bodies, want %d", got, cfg.Fout)
	}
}

func TestTPushAblationStillDisseminates(t *testing.T) {
	cfg, _ := ConfigFor(40, 4, 1e-6, 2)
	cfg.TPush = 10 * time.Millisecond
	w := build(t, 40, cfg, 23)
	_ = w.orderer.Send(0, &wire.DeliverBlock{Block: block(0)})
	w.engine.RunUntil(10 * time.Second)
	for i, c := range w.cores {
		if !c.HasBlock(0) {
			t.Fatalf("peer %d missed the block under tpush batching", i)
		}
	}
}

// TestStatePruningBoundsMemory drives more blocks than the retention window
// through a small network and checks old epidemic state is discarded.
func TestStatePruningBoundsMemory(t *testing.T) {
	cfg, _ := ConfigFor(10, 3, 1e-3, 2)
	w := build(t, 10, cfg, 25)
	const blocks = retention + 64
	for i := uint64(0); i < blocks; i++ {
		b := block(i)
		w.engine.After(0, func() { _ = w.orderer.Send(0, &wire.DeliverBlock{Block: b}) })
		w.engine.RunFor(300 * time.Millisecond)
	}
	w.engine.RunFor(3 * time.Second)
	for i, c := range w.cores {
		if got := c.Height(); got != blocks {
			t.Fatalf("peer %d height = %d, want %d", i, got, blocks)
		}
	}
	for i, p := range w.protos {
		if got := p.TrackedBlocks(); got > retention+2 {
			t.Fatalf("peer %d tracks %d blocks, want <= retention %d (+slack)",
				i, got, retention)
		}
	}
}

// TestWithholdingAdversaries exercises the paper's §VII future-work
// scenario: adversarial peers that accept blocks but never forward them
// (modelled as Fout = 0). The epidemic's TTL margin must still inform every
// honest peer during the push phase.
func TestWithholdingAdversaries(t *testing.T) {
	const n = 50
	honest, _ := ConfigFor(n, 4, 1e-6, 2)
	adversary := honest
	adversary.Fout = 0 // receives, requests, never forwards

	w := build(t, n, honest, 24)
	// Convert every 10th peer into a withholder (10%), sparing the
	// leader so delivery still enters the network.
	for i := 10; i < n; i += 10 {
		w.protos[i].cfg = adversary
	}
	for blkNum := uint64(0); blkNum < 5; blkNum++ {
		b := block(blkNum)
		w.engine.After(0, func() { _ = w.orderer.Send(0, &wire.DeliverBlock{Block: b}) })
		w.engine.RunFor(2 * time.Second)
	}
	missed := 0
	for i, c := range w.cores {
		for blkNum := uint64(0); blkNum < 5; blkNum++ {
			if !c.HasBlock(blkNum) {
				t.Logf("peer %d missing block %d", i, blkNum)
				missed++
			}
		}
	}
	// 10% withholders consume fan-out without re-forwarding; the pe
	// margin absorbs it (the paper argues epidemic dissemination is
	// "obviously better than deterministic protocols in this setting").
	if missed > 0 {
		t.Fatalf("%d (peer, block) deliveries missing with 10%% withholding adversaries", missed)
	}
}
