// Package netmodel models the cluster network of the paper's testbed: a
// 1 Gbps LAN connecting Docker containers, with store-and-forward
// transmission time, propagation delay, and a heavy-ish processing jitter
// reflecting containerized hosts under load. It also provides the per-peer
// bandwidth accounting behind the paper's network-utilization figures.
package netmodel

import (
	"time"

	"fabricgossip/internal/sim"
)

// Model computes per-message one-way delivery delays.
//
// Delay = U(PropMin, PropMax)                    propagation + switching
//   - size / BandwidthBytesPerSec                store-and-forward serialization
//   - LogNormal(ProcMedian, ProcSigma) <= ProcMax  endpoint processing jitter
//
// The lognormal term models the scheduling/processing variability of peers
// running in containers on shared hosts (the paper's 100 containers on 15
// servers); its tail is what stretches the last percentiles of per-hop
// latency without affecting the median much.
type Model struct {
	BandwidthBytesPerSec float64
	PropMin              time.Duration
	PropMax              time.Duration
	ProcMedian           time.Duration
	ProcSigma            float64
	ProcMax              time.Duration
}

// LAN returns the calibrated model used by every experiment in this
// reproduction: the paper's testbed, a 1 Gbps LAN with container jitter.
func LAN() Model {
	return Model{
		BandwidthBytesPerSec: 125e6, // 1 Gbps
		PropMin:              150 * time.Microsecond,
		PropMax:              500 * time.Microsecond,
		ProcMedian:           8 * time.Millisecond,
		ProcSigma:            0.9,
		ProcMax:              150 * time.Millisecond,
	}
}

// Delay draws a delivery delay for a message of the given encoded size:
// Base + Transmit.
func (m Model) Delay(rng *sim.Rand, size int) time.Duration {
	return m.Base(rng) + m.Transmit(size)
}

// Base draws the part of a delay that does not depend on the message: the
// propagation jitter (one Int63n), then the clamped processing lognormal.
// These are the model's only draws, so a stream's sequence of Base values
// depends on its seed alone and can be drawn ahead of the sends that use it.
func (m Model) Base(rng *sim.Rand) time.Duration {
	d := m.PropMin
	if spread := m.PropMax - m.PropMin; spread > 0 {
		d += time.Duration(rng.Int63n(int64(spread)))
	}
	if m.ProcMedian > 0 {
		proc := time.Duration(rng.LogNormal(0, m.ProcSigma) * float64(m.ProcMedian))
		if m.ProcMax > 0 && proc > m.ProcMax {
			proc = m.ProcMax
		}
		d += proc
	}
	return d
}

// Transmit is the store-and-forward serialization time of size bytes.
func (m Model) Transmit(size int) time.Duration {
	if m.BandwidthBytesPerSec > 0 {
		return time.Duration(float64(size) / m.BandwidthBytesPerSec * float64(time.Second))
	}
	return 0
}
