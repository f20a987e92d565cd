package wire

import "fabricgossip/internal/ledger"

// Releasable is implemented by pool-managed messages. The simulated
// transport releases a message once per delivery attempt — whether the
// attempt was dropped at send time, skipped at a downed receiver, or handed
// to the handler — so a sender that pre-sets the reference count to its
// fan-out gets the envelope back exactly when the last copy terminates.
//
// Messages built with plain literals have no pool and Release is a no-op,
// so the transport can release unconditionally.
type Releasable interface{ Release() }

// DataPool is a free list of Data envelopes for the enhanced push path,
// which otherwise allocates one envelope per spread round. It is
// single-goroutine (per-protocol-instance on the simulated runtime): the
// envelope never crosses an organization boundary, so every Get and Release
// happens on the owning shard's goroutine.
type DataPool struct {
	free []*Data
	// outstanding counts envelopes checked out and not yet fully released
	// — the refcount-leak canary: it must read zero once a run drains.
	outstanding int
}

// Get returns an envelope for the block with refs outstanding deliveries.
// refs must equal the number of transport sends the caller will issue, and
// must be set before the first send: a drop releases immediately, mid-loop.
func (p *DataPool) Get(b *ledger.Block, counter uint32, refs int) *Data {
	var m *Data
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		m = &Data{pool: p}
	}
	m.Block = b
	m.Counter = counter
	m.refs = int32(refs)
	p.outstanding++
	return m
}

func (p *DataPool) put(m *Data) {
	m.Block = nil // the block is retained by ledgers, not by the envelope
	p.free = append(p.free, m)
	p.outstanding--
}

// Outstanding reports how many envelopes are checked out with unreleased
// references. A drained run must report zero; anything else is a refcount
// leak (a send issued without a matching release, or refs set too high).
func (p *DataPool) Outstanding() int { return p.outstanding }

// PushDigestPool is DataPool's counterpart for digest envelopes; recycled
// envelopes keep their Offers backing array.
type PushDigestPool struct {
	free []*PushDigest
	// outstanding mirrors DataPool.outstanding for digest envelopes.
	outstanding int
}

// Get returns an envelope with an empty Offers slice (capacity retained)
// and refs outstanding deliveries.
func (p *PushDigestPool) Get(refs int) *PushDigest {
	var m *PushDigest
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		m.Offers = m.Offers[:0]
	} else {
		m = &PushDigest{pool: p}
	}
	m.refs = int32(refs)
	p.outstanding++
	return m
}

func (p *PushDigestPool) put(m *PushDigest) {
	p.free = append(p.free, m)
	p.outstanding--
}

// Outstanding reports how many digest envelopes are checked out with
// unreleased references; zero once a run drains.
func (p *PushDigestPool) Outstanding() int { return p.outstanding }
