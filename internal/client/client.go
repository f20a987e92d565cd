// Package client implements the Fabric client driver (paper §II-B): it
// sends proposals to endorsing peers, combines their responses into an
// endorsed transaction, detects proposal-time conflicts (divergent read
// sets), and submits assembled transactions to the ordering service.
package client

import (
	"errors"
	"fmt"
	"sync"

	"fabricgossip/internal/endorse"
	"fabricgossip/internal/ledger"
)

// Submitter forwards an assembled transaction to the ordering service.
// order.Service.Broadcast satisfies it directly; deployments crossing a
// network wrap the transport send instead.
type Submitter func(tx *ledger.Transaction) error

// Stats counts client-side outcomes.
type Stats struct {
	Submitted         int
	ProposalConflicts int
	EndorseErrors     int
	// SubmitErrors counts transactions that endorsed cleanly but whose
	// Broadcast to the ordering service failed (orderer down or
	// unreachable). Needed to reconcile client-side accounting against the
	// orderer's transaction count under faults.
	SubmitErrors int
}

// EndorserSource yields the endorsers to use for one invocation; it lets a
// client track a changing population (peers crashing and restarting)
// instead of binding a fixed list at construction.
type EndorserSource func() []*endorse.Endorser

// Client drives transactions through the endorse-submit path.
type Client struct {
	name      string
	endorsers EndorserSource
	submit    Submitter

	mu    sync.Mutex
	stats Stats
}

// New creates a client that collects an endorsement from every listed
// endorser. The paper's Table II experiment uses a single endorsing peer to
// isolate validation-time conflicts.
func New(name string, endorsers []*endorse.Endorser, submit Submitter) (*Client, error) {
	if len(endorsers) == 0 {
		return nil, errors.New("client: need at least one endorser")
	}
	return NewWithSource(name, func() []*endorse.Endorser { return endorsers }, submit)
}

// NewWithSource creates a client that asks source for the current endorser
// set on every invocation. An empty set at invocation time is an endorse
// error (no live endorsing peers), not a constructor error.
func NewWithSource(name string, source EndorserSource, submit Submitter) (*Client, error) {
	if source == nil {
		return nil, errors.New("client: need an endorser source")
	}
	if submit == nil {
		return nil, errors.New("client: need a submitter")
	}
	return &Client{name: name, endorsers: source, submit: submit}, nil
}

// Stats returns a copy of the counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ErrProposalConflict is returned when endorsers produced divergent
// read/write sets (a proposal-time conflict, paper §II-C). The caller may
// retry with fresh endorsements.
var ErrProposalConflict = errors.New("client: proposal-time conflict")

// Invoke endorses and submits one transaction. The returned transaction has
// been accepted by the ordering service but not yet validated; validation
// outcomes surface at the peers.
func (c *Client) Invoke(ccName string, args []string, payload []byte) (*ledger.Transaction, error) {
	endorsers := c.endorsers()
	if len(endorsers) == 0 {
		c.bump(func(s *Stats) { s.EndorseErrors++ })
		return nil, errors.New("client: no endorsers available")
	}
	responses := make([]*endorse.Response, 0, len(endorsers))
	for _, e := range endorsers {
		resp, err := e.Endorse(c.name, ccName, args, payload)
		if err != nil {
			c.bump(func(s *Stats) { s.EndorseErrors++ })
			return nil, fmt.Errorf("client: endorsing on %s: %w", e.Identity().Name, err)
		}
		responses = append(responses, resp)
	}
	tx, err := endorse.AssembleTransaction(c.name, ccName, payload, responses)
	if err != nil {
		if errors.Is(err, endorse.ErrEndorsementsdiffer) {
			c.bump(func(s *Stats) { s.ProposalConflicts++ })
			return nil, fmt.Errorf("%w: %v", ErrProposalConflict, err)
		}
		return nil, err
	}
	if err := c.submit(tx); err != nil {
		c.bump(func(s *Stats) { s.SubmitErrors++ })
		return nil, fmt.Errorf("client: submitting: %w", err)
	}
	c.bump(func(s *Stats) { s.Submitted++ })
	return tx, nil
}

func (c *Client) bump(fn func(*Stats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(&c.stats)
}
