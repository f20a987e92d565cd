// Package transport connects protocol nodes to each other. Protocol code is
// written against the Endpoint interface only; the package provides two
// implementations with identical semantics:
//
//   - SimNetwork delivers messages through the discrete-event engine with
//     delays drawn from a netmodel.Model, recording every transmission in a
//     netmodel.Traffic. All experiments run on it.
//   - TCPNetwork ships real bytes over localhost/LAN TCP connections for
//     live deployments (cmd/gossipnet).
//
// Both are asynchronous and unreliable-by-contract: Send does not wait for
// the receiver (over TCP, for no longer than a write deadline once its
// socket buffers are full) and delivery is not acknowledged, matching the
// gossip layer's assumptions.
package transport

import (
	"fabricgossip/internal/wire"
)

// Handler receives messages delivered to an endpoint. The simulated network
// invokes handlers sequentially on the engine goroutine; the TCP network
// invokes them from per-connection reader goroutines, so handlers must be
// safe for concurrent use when running live.
type Handler func(from wire.NodeID, msg wire.Message)

// Endpoint is a node's attachment to a network.
type Endpoint interface {
	// ID returns this endpoint's node id.
	ID() wire.NodeID
	// Send transmits msg to the given node. It returns an error only for
	// local problems (unknown destination, closed endpoint); in-flight
	// loss is silent, as on a real network.
	Send(to wire.NodeID, msg wire.Message) error
	// SetHandler installs the message handler. It must be called before
	// any message can be delivered.
	SetHandler(h Handler)
}
