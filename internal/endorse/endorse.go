// Package endorse implements the execute phase of the EOV pipeline (paper
// §II-B): endorsing peers simulate chaincodes against their current state,
// sign the resulting read/write sets, and clients combine enough
// endorsements into a transaction proposal. It also provides the N-of-M
// endorsement policy used at validation time.
package endorse

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"fabricgossip/internal/chaincode"
	"fabricgossip/internal/crypto"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/msp"
)

// Endorsement errors.
var (
	ErrUnknownChaincode   = errors.New("endorse: unknown chaincode")
	ErrEndorsementsdiffer = errors.New("endorse: endorsers produced different read/write sets")
	ErrPolicyUnsatisfied  = errors.New("endorse: endorsement policy not satisfied")
)

// Response is one endorser's reply to a proposal: the simulated read/write
// set plus the endorser's signature over the proposal digest.
type Response struct {
	Endorser *msp.Identity
	RWSet    ledger.RWSet
	Digest   crypto.Digest
	Sig      crypto.Signature
}

// Endorser simulates and signs proposals against a peer's state database.
type Endorser struct {
	identity *msp.Identity
	signer   *crypto.Signer
	state    *ledger.StateDB
	codes    map[string]chaincode.Chaincode
}

// NewEndorser creates an endorser bound to a peer identity and its state.
func NewEndorser(id *msp.Identity, signer *crypto.Signer, state *ledger.StateDB) *Endorser {
	return &Endorser{
		identity: id,
		signer:   signer,
		state:    state,
		codes:    make(map[string]chaincode.Chaincode),
	}
}

// Install registers a chaincode for execution.
func (e *Endorser) Install(cc chaincode.Chaincode) { e.codes[cc.Name()] = cc }

// Identity returns the endorser's certified identity.
func (e *Endorser) Identity() *msp.Identity { return e.identity }

// Endorse simulates the chaincode for a client proposal and returns the
// signed response. payload is opaque application data bound into the
// transaction digest.
func (e *Endorser) Endorse(client, ccName string, args []string, payload []byte) (*Response, error) {
	cc, ok := e.codes[ccName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownChaincode, ccName)
	}
	rw, err := chaincode.Simulate(cc, e.state, args)
	if err != nil {
		return nil, err
	}
	digest := ledger.ProposalDigest(client, ccName, rw, payload)
	return &Response{
		Endorser: e.identity,
		RWSet:    rw,
		Digest:   digest,
		Sig:      e.signer.Sign(digest[:]),
	}, nil
}

// AssembleTransaction combines endorsement responses into a transaction
// proposal, verifying that all endorsers simulated identical read/write
// sets. Divergent sets are the client-visible symptom of a proposal-time
// conflict (paper §II-C) — the client must collect fresh endorsements.
func AssembleTransaction(client, ccName string, payload []byte, responses []*Response) (*ledger.Transaction, error) {
	if len(responses) == 0 {
		return nil, fmt.Errorf("endorse: no endorsements")
	}
	first := responses[0]
	for _, r := range responses[1:] {
		if r.Digest != first.Digest || !rwSetsEqual(r.RWSet, first.RWSet) {
			return nil, ErrEndorsementsdiffer
		}
	}
	tx := &ledger.Transaction{
		ID:        first.Digest,
		Client:    client,
		Chaincode: ccName,
		RWSet:     first.RWSet,
		Payload:   payload,
	}
	for _, r := range responses {
		tx.Endorsements = append(tx.Endorsements, ledger.Endorsement{
			Org:  r.Endorser.Org,
			Name: r.Endorser.Name,
			Sig:  r.Sig,
		})
	}
	return tx, nil
}

func rwSetsEqual(a, b ledger.RWSet) bool {
	if len(a.Reads) != len(b.Reads) || len(a.Writes) != len(b.Writes) {
		return false
	}
	for i := range a.Reads {
		if a.Reads[i] != b.Reads[i] {
			return false
		}
	}
	for i := range a.Writes {
		if a.Writes[i].Key != b.Writes[i].Key || !bytes.Equal(a.Writes[i].Value, b.Writes[i].Value) {
			return false
		}
	}
	return true
}

// Policy is an N-of-M endorsement policy: a transaction validates if at
// least Required of the listed endorsers signed its digest.
type Policy struct {
	Required int
	// Members maps "org/name" to the endorser's public key.
	Members map[string]crypto.PublicKey
}

// NewPolicy builds a policy over the given identities.
func NewPolicy(required int, ids ...*msp.Identity) Policy {
	p := Policy{Required: required, Members: make(map[string]crypto.PublicKey, len(ids))}
	for _, id := range ids {
		p.Members[id.Org+"/"+id.Name] = id.Key
	}
	return p
}

// DefaultVerdictCacheCap bounds the policy checker's verdict cache. Large
// enough to hold every in-flight transaction of the biggest experiment's
// working set (blocks currently being validated across all peers), small
// enough that a million-transaction workload cannot grow the process
// without bound.
const DefaultVerdictCacheCap = 1 << 13

// Checker returns the validation-phase policy checker for the ledger: it
// recomputes the transaction digest and verifies the endorsement
// signatures. Verdicts are memoized by transaction ID — the content digest
// — so every copy of a transaction hits the cache, including copies
// re-decoded from wire bytes (a pointer-keyed cache would re-run the full
// Ed25519 verification per peer for those). The cache is bounded with FIFO
// eviction at DefaultVerdictCacheCap entries.
//
// Trade-off: the ID binds the proposal content (checkOnce recomputes the
// digest) but not the endorsement signatures, so two copies of a
// transaction that differ only in their endorsements share a verdict. In
// this simulator all copies of a transaction carry the endorsements the
// client assembled, so the shortcut cannot change an outcome.
func (p Policy) Checker() ledger.PolicyChecker {
	return p.CheckerN(DefaultVerdictCacheCap)
}

// CheckerN is Checker with an explicit cache capacity (minimum 1).
func (p Policy) CheckerN(capacity int) ledger.PolicyChecker {
	cache := newVerdictCache(capacity)
	check := p.checkOnce
	return func(tx *ledger.Transaction) error {
		if err, ok := cache.load(tx.ID); ok {
			return err
		}
		err := check(tx)
		cache.store(tx.ID, err)
		return err
	}
}

// verdictCache is a bounded FIFO map from transaction ID to policy verdict.
// The hit path is a mutex and one map lookup keyed by the fixed-size digest
// array: no allocation (a sync.Map would box the array key on every Load).
type verdictCache struct {
	mu       sync.Mutex
	verdicts map[crypto.Digest]error
	ring     []crypto.Digest // insertion order, evicted oldest-first
	next     int             // ring slot the next insertion overwrites
}

func newVerdictCache(capacity int) *verdictCache {
	if capacity < 1 {
		capacity = 1
	}
	return &verdictCache{
		verdicts: make(map[crypto.Digest]error, capacity),
		ring:     make([]crypto.Digest, capacity),
	}
}

func (c *verdictCache) load(id crypto.Digest) (error, bool) {
	c.mu.Lock()
	err, ok := c.verdicts[id]
	c.mu.Unlock()
	return err, ok
}

func (c *verdictCache) store(id crypto.Digest, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.verdicts[id]; ok {
		c.verdicts[id] = err // concurrent checkers raced; keep one ring slot
		return
	}
	if len(c.verdicts) == len(c.ring) {
		delete(c.verdicts, c.ring[c.next])
	}
	c.ring[c.next] = id
	c.next = (c.next + 1) % len(c.ring)
	c.verdicts[id] = err
}

func (p Policy) checkOnce(tx *ledger.Transaction) error {
	digest := ledger.ProposalDigest(tx.Client, tx.Chaincode, tx.RWSet, tx.Payload)
	if digest != tx.ID {
		return fmt.Errorf("%w: transaction id does not match content", ErrPolicyUnsatisfied)
	}
	valid := 0
	seen := make(map[string]bool, len(tx.Endorsements))
	for _, e := range tx.Endorsements {
		key := e.Org + "/" + e.Name
		if seen[key] {
			continue // duplicate endorsements count once
		}
		pub, ok := p.Members[key]
		if !ok {
			continue // endorser not in policy
		}
		if crypto.Verify(pub, digest[:], e.Sig) != nil {
			continue
		}
		seen[key] = true
		valid++
		if valid == p.Required {
			return nil // satisfied: further signatures cannot change the verdict
		}
	}
	if valid < p.Required {
		return fmt.Errorf("%w: %d of %d required signatures", ErrPolicyUnsatisfied, valid, p.Required)
	}
	return nil
}
