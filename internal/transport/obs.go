package transport

import (
	"time"

	"fabricgossip/internal/obs"
	"fabricgossip/internal/wire"
)

// WireObs is one emission context's wire-level observability bundle: the
// registry instruments and trace buffer every message crossing that
// context's NIC feeds. The sim network holds one per shard so the
// per-message path stays single-writer and allocation-free; the TCP runtime holds one backed by a concurrent
// registry. Either half may be absent: a nil registry records no metrics,
// a nil trace emits no events.
type WireObs struct {
	msgsOut  *obs.Counter
	bytesOut *obs.Counter
	msgsIn   *obs.Counter
	bytesIn  *obs.Counter
	sizes    *obs.Histogram
	trace    *obs.ShardTrace
	// reg registers the TCP runtime's drop counters when the first drop
	// happens, so the simulator's snapshots (which can have none) do not
	// list them.
	reg *obs.Registry
}

// NewWireObs registers the wire instruments on reg (if non-nil) and binds
// the trace buffer (if non-nil).
func NewWireObs(reg *obs.Registry, trace *obs.ShardTrace) *WireObs {
	w := &WireObs{trace: trace, reg: reg}
	if reg != nil {
		w.msgsOut = reg.Counter("wire_msgs_total", "dir", "out")
		w.bytesOut = reg.Counter("wire_bytes_total", "dir", "out")
		w.msgsIn = reg.Counter("wire_msgs_total", "dir", "in")
		w.bytesIn = reg.Counter("wire_bytes_total", "dir", "in")
		w.sizes = reg.Histogram("wire_msg_bytes", obs.SizeBuckets)
	}
	return w
}

// Sent records one message leaving a NIC. Like traffic accounting it runs
// before reachability filtering: bytes leave the sender whether or not
// they arrive.
func (w *WireObs) Sent(at time.Duration, from, to wire.NodeID, t wire.MsgType, size int) {
	if w.msgsOut != nil {
		w.msgsOut.Inc()
		w.bytesOut.Add(uint64(size))
		w.sizes.Observe(float64(size))
	}
	if w.trace != nil {
		w.trace.Emit(obs.Event{At: at, Kind: obs.WireSendKind(t), Node: int32(from), Peer: int32(to), Num: uint64(t), Aux: uint64(size)})
	}
}

// Received records one message handed to a live endpoint's handler.
// Dropped, partitioned and crashed-receiver messages never reach it.
func (w *WireObs) Received(at time.Duration, from, to wire.NodeID, t wire.MsgType, size int) {
	if w.msgsIn != nil {
		w.msgsIn.Inc()
		w.bytesIn.Add(uint64(size))
	}
	if w.trace != nil {
		w.trace.Emit(obs.Event{At: at, Kind: obs.WireRecvKind(t), Node: int32(to), Peer: int32(from), Num: uint64(t), Aux: uint64(size)})
	}
}

// FrameRejected counts one inbound frame the TCP reader refused — reason is
// "length" (prefix out of range), "truncated" (the stream ended mid-frame)
// or "decode" (wire.Unmarshal failed) — and with it the connection it
// dropped. TCP runtime only: the registry must be concurrent.
func (w *WireObs) FrameRejected(reason string) {
	if w.reg != nil {
		w.reg.Counter("wire_frames_rejected_total", "reason", reason).Inc()
	}
}

// SendError counts one TCP send that failed at the write (error, timeout or
// short write) and dropped its connection. TCP runtime only.
func (w *WireObs) SendError() {
	if w.reg != nil {
		w.reg.Counter("wire_send_errors_total").Inc()
	}
}
