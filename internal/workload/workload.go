// Package workload is the deterministic transaction workload plane: it
// drives simulated client transactions through the full
// execute-order-validate pipeline (endorse → order → gossip → validate →
// commit) of a harness.Network, on the same discrete-event engine as the
// dissemination it loads. Arrivals are open-loop, at a fixed rate or as a
// Poisson process; key selection is uniform or Zipf-skewed over a
// configurable keyspace; clients populate each organization and endorse
// against their own organization's endorsing peers; validation-time
// conflicts can be retried a bounded number of times. Everything draws from named engine streams, so installing the
// plane perturbs no pre-existing random stream and the same seed reproduces
// the same run byte for byte.
package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"fabricgossip/internal/chaincode"
	"fabricgossip/internal/client"
	"fabricgossip/internal/crypto"
	"fabricgossip/internal/endorse"
	"fabricgossip/internal/gossip"
	"fabricgossip/internal/harness"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/msp"
	"fabricgossip/internal/order"
	"fabricgossip/internal/peer"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// Arrival selects the workload's arrival model.
type Arrival string

const (
	// ArrivalFixed is an open loop at a fixed per-client rate.
	ArrivalFixed Arrival = "fixed"
	// ArrivalPoisson is an open loop with exponential inter-arrival times
	// at the configured mean rate per client.
	ArrivalPoisson Arrival = "poisson"
)

// Config parameterizes the workload plane.
type Config struct {
	// ClientsPerOrg is the client population of each organization
	// (default 2).
	ClientsPerOrg int
	// Rate is the per-client transaction rate in tx/s (default 5).
	Rate float64
	// Arrival selects the arrival model (default ArrivalFixed).
	Arrival Arrival
	// AggregateClients models each organization's ClientsPerOrg clients
	// as one aggregated arrival process at ClientsPerOrg×Rate instead of
	// one timer per client: a fixed open loop becomes fixed at the summed
	// rate, and superposed Poisson processes are exactly a Poisson process
	// at the summed rate, so the offered load is the same while the timer
	// and endpoint count stay bounded — the knob that scales the arrival
	// models to ~10⁶ modeled clients. Arrivals are attributed round-robin
	// across a small per-org endpoint set (at most aggregateEndpoints real
	// transport endpoints).
	AggregateClients bool

	// Keys is the keyspace size clients pick from (default 64).
	Keys int
	// ZipfS, when > 1, skews key selection with a Zipf(s) distribution
	// over the keyspace — the hot-key contention knob. Zero or anything
	// <= 1 selects keys uniformly.
	ZipfS float64

	// RetryMax is how many times a transaction invalidated by an MVCC
	// conflict is re-endorsed and resubmitted (default 0: conflicted
	// transactions are not resent, as in the paper's §V-D accounting).
	RetryMax int

	// EndorsersPerOrg is how many of each organization's lowest-indexed
	// peers endorse its clients' proposals (default 1); any one of them
	// satisfies the validation policy.
	EndorsersPerOrg int

	// MaxTxPerBlock and BatchTimeout parameterize block cutting (defaults
	// 50 and 1 s).
	MaxTxPerBlock int
	BatchTimeout  time.Duration
}

func (c Config) withDefaults() Config {
	if c.ClientsPerOrg == 0 {
		c.ClientsPerOrg = 2
	}
	if c.Rate == 0 {
		c.Rate = 5
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalFixed
	}
	if c.Keys == 0 {
		c.Keys = 64
	}
	if c.EndorsersPerOrg == 0 {
		c.EndorsersPerOrg = 1
	}
	if c.MaxTxPerBlock == 0 {
		c.MaxTxPerBlock = 50
	}
	if c.BatchTimeout == 0 {
		c.BatchTimeout = time.Second
	}
	return c
}

func (c Config) validate() error {
	switch c.Arrival {
	case ArrivalFixed, ArrivalPoisson:
	default:
		return fmt.Errorf("workload: unknown arrival model %q", c.Arrival)
	}
	if c.Rate <= 0 {
		return errors.New("workload: rate must be positive")
	}
	if c.ZipfS != 0 && c.ZipfS <= 1 {
		return errors.New("workload: ZipfS must be > 1 (or 0 for uniform)")
	}
	return nil
}

const (
	// aggregateEndpoints bounds how many real transport endpoints an
	// aggregated organization source keeps: enough to exercise
	// multi-endpoint attribution and per-client sequence numbering, few
	// enough that a million modeled clients cost eight endpoints per org.
	aggregateEndpoints = 8
	// policyRequired is the N of the N-of-M validation policy over all
	// endorsers.
	policyRequired = 1
	// validationPerTx is the modelled per-transaction validation cost on
	// every peer — scaled down from the paper's 50 ms so thousand-peer runs
	// stay fast; Table II keeps the calibrated value.
	validationPerTx = 2 * time.Millisecond
)

// pendingTx tracks one submitted transaction until its issuing
// organization resolves it (first commit of its block by any org member).
type pendingTx struct {
	client   *planeClient
	submitAt time.Duration
	retries  int
	key      string
}

// Plane is an installed workload plane over one harness.Network. Install
// wires it; Start and Stop bound the submission window; Stats snapshots
// the outcome counters. Outcomes are resolved where Fabric decides them:
// an organization member's commit hook reads the transaction ids from the
// block it committed and the codes from its validation result, so the plane
// keeps no record of what the ordering service cut.
type Plane struct {
	cfg Config
	net *harness.Network
	// services holds one replicated ordering service per consenter, each
	// fed by its consenter's identical Raft apply stream, so all cut
	// identical blocks. They run on the network's ordering engine.
	services []*order.Service
	// chain is the network's one validated chain: every peer's ledger is a
	// height on it, so a block is validated and applied once per run, by
	// whichever peer reaches it first, whatever shard that peer is on.
	// Validation is deterministic over the hash-linked chain, so who goes
	// first changes no outcome.
	chain *ledger.Chain

	// peers is the validation pipeline per global peer index, rebuilt on
	// restart via the network's core hook. endorsers maps an endorsing
	// peer's global index to its (equally rebuilt) endorser; endorserIdx
	// lists each organization's endorsing peers.
	peers       []*peer.Peer
	endorsers   map[int]*endorse.Endorser
	endorserIDs map[int]*msp.Identity
	signers     map[int]*crypto.Signer
	endorserIdx [][]int

	clients []*planeClient
	// sources are the arrival processes: one per client, or with
	// Config.AggregateClients one per organization over its bounded
	// endpoint set. Everything downstream of invoke (pending tracking,
	// retries, stats) is per client either way.
	sources []*source

	running bool
	// pending maps a submitted transaction's ID to its tracking record,
	// partitioned by issuing organization: clients insert and resolvers
	// delete on the same org, so each map is touched by exactly one
	// shard. Looked up only by key — never
	// iterated — so it cannot perturb determinism.
	pending []map[crypto.Digest]*pendingTx
	// orgNext is the next block number each organization has yet to
	// resolve: the first member to commit it processes the outcomes,
	// later members skip.
	orgNext []uint64

	stats []orgCounters
}

// orgCounters accumulates one organization's resolution outcomes.
type orgCounters struct {
	committed int
	conflicts int
	retries   int
	latencies []time.Duration
}

// planeClient is one simulated client endpoint: an identity and its own
// transport endpoint, driving the shared client.Client state machine with
// the arrivals its source attributes to it.
type planeClient struct {
	p   *Plane
	org int
	ep  wire.NodeID
	cl  *client.Client
	// eng is the engine the client runs on — its organization's shard
	// engine, so arrivals and endorsement stay shard-local and only the
	// submit hop reaches the ordering shard.
	eng *sim.Engine
	// seq numbers the client's proposals; its encoding rides in the
	// transaction payload as Fabric's nonce would. Without it, two
	// in-flight increments of the same key by the same client against the
	// same state version would collide on the content-derived transaction
	// ID and the later one would shadow the earlier in the pending map.
	seq uint64
}

// Install wires a workload plane into a built (but not necessarily
// started) network: per-peer validation pipelines over the existing gossip
// cores, per-org endorsing peers, an ordering service behind each of the
// network's consenters, and per-org client populations on their own transport
// endpoints. Must be called before the network starts and before any
// restart event fires.
func Install(n *harness.Network, cfg Config) (*Plane, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Plane{
		cfg:         cfg,
		net:         n,
		peers:       make([]*peer.Peer, n.TotalPeers()),
		endorsers:   make(map[int]*endorse.Endorser),
		endorserIDs: make(map[int]*msp.Identity),
		signers:     make(map[int]*crypto.Signer),
		endorserIdx: make([][]int, len(n.Orgs)),
		pending:     make([]map[crypto.Digest]*pendingTx, len(n.Orgs)),
		orgNext:     make([]uint64, len(n.Orgs)),
		stats:       make([]orgCounters, len(n.Orgs)),
	}
	for o := range n.Orgs {
		p.pending[o] = make(map[crypto.Digest]*pendingTx)
	}

	// Identities: one MSP enrolls the orderer and every endorsing peer.
	// The id stream is private to the plane, so installing it leaves every
	// pre-existing engine stream untouched.
	idRng := rand.New(rand.NewSource(sim.StreamSeed(n.Params.Seed, "workload/msp")))
	provider, err := msp.NewProvider(idRng)
	if err != nil {
		return nil, err
	}
	ordererID, ordererSigner, err := provider.Enroll(msp.RoleOrderer, "ordererOrg", "orderer0", idRng)
	if err != nil {
		return nil, err
	}
	var policyIDs []*msp.Identity
	for o, d := range n.Orgs {
		k := cfg.EndorsersPerOrg
		if k > d.Size() {
			k = d.Size()
		}
		for j := 0; j < k; j++ {
			g := d.Lo + j
			id, signer, err := provider.Enroll(msp.RolePeer,
				fmt.Sprintf("org%d", o), fmt.Sprintf("peer%d", g), idRng)
			if err != nil {
				return nil, err
			}
			p.endorserIDs[g] = id
			p.signers[g] = signer
			p.endorserIdx[o] = append(p.endorserIdx[o], g)
			policyIDs = append(policyIDs, id)
		}
	}
	p.chain = ledger.NewChain(endorse.NewPolicy(policyRequired, policyIDs...).Checker())

	// Validation pipelines over the existing cores, and again for every
	// core a Restart rebuilds. Orderer-signature verification runs on
	// endorsing peers only (one verify per block per org instead of per
	// peer — the cost knob that keeps thousand-peer runs tractable).
	for g := range n.Cores {
		p.buildPeer(g, n.Cores[g], ordererID.Key)
	}
	n.AddCoreHook(func(global int, core *gossip.Core) {
		p.buildPeer(global, core, ordererID.Key)
	})

	// The ordering service lives behind the network's consenter
	// endpoints: Broadcast arrives as SubmitTx messages, cut blocks enter
	// the network's deliver/redeliver stream. Each consenter hosts one
	// service cutting blocks from its Raft apply stream — identical
	// streams, identical signer, identical blocks — with the network
	// delivering only the leader's cuts.
	oCfg := order.Config{MaxTxPerBlock: cfg.MaxTxPerBlock, BatchTimeout: cfg.BatchTimeout}
	ordEng := n.OrdererEngine()
	p.services = make([]*order.Service, n.Consenters())
	for i := range p.services {
		i := i
		p.services[i] = order.NewService(oCfg, ordEng,
			&clusterConsenter{net: n, idx: i}, ordererSigner,
			func(b *ledger.Block) { n.OfferBlock(i, b) })
	}
	n.SetSubmitHandler(func(consenter int, tx *ledger.Transaction) {
		_ = p.services[consenter].Broadcast(tx)
	})

	// Client populations: each client gets its own endpoint (appended
	// after the consenters — dense ids keep traffic accounting amortized), a
	// WAN site co-located with its organization when the network is
	// WAN-separated, and its own named arrival stream
	// ("workload/orgN/clientJ"). An aggregated organization keeps a bounded
	// endpoint set and one arrival stream ("workload/orgN/pool") driving
	// them round-robin.
	nClients := cfg.ClientsPerOrg
	if cfg.AggregateClients {
		nClients = min(nClients, aggregateEndpoints)
	}
	for o := range n.Orgs {
		eng := n.OrgEngine(o)
		var src *source
		for j := 0; j < nClients; j++ {
			switch {
			case !cfg.AggregateClients:
				src = p.newSource(eng, fmt.Sprintf("workload/org%d/client%d", o, j), cfg.Rate)
			case j == 0:
				src = p.newSource(eng, fmt.Sprintf("workload/org%d/pool", o), float64(cfg.ClientsPerOrg)*cfg.Rate)
			}
			ep := n.AddClientNode(o)
			name := fmt.Sprintf("org%d-client%d", o, j)
			cl, err := client.NewWithSource(name, p.endorserSource(o), p.submitter(ep))
			if err != nil {
				return nil, err
			}
			c := &planeClient{p: p, org: o, ep: ep.ID(), cl: cl, eng: eng}
			p.clients = append(p.clients, c)
			src.clients = append(src.clients, c)
		}
	}
	return p, nil
}

// buildPeer (re)builds the validation pipeline for one global peer index
// over the given core — a restarted peer's ledger starts at height 0 on the
// chain — and, for endorsing peers, a fresh endorser bound to the new
// ledger's view of the state.
func (p *Plane) buildPeer(global int, core *gossip.Core, ordererKey crypto.PublicKey) {
	cfg := peer.Config{ValidationPerTx: validationPerTx}
	if _, isEndorser := p.endorserIDs[global]; isEndorser {
		cfg.OrdererKey = ordererKey
	}
	pr := peer.New(core, p.chain, p.net.EngineFor(global), cfg)
	pr.OnCommitResult(p.resolver(global))
	p.peers[global] = pr
	if id, ok := p.endorserIDs[global]; ok {
		e := endorse.NewEndorser(id, p.signers[global], pr.State())
		e.Install(chaincode.Counter{})
		p.endorsers[global] = e
	}
}

// endorserSource yields an organization's currently live endorsing peers.
func (p *Plane) endorserSource(org int) client.EndorserSource {
	return func() []*endorse.Endorser {
		var out []*endorse.Endorser
		for _, g := range p.endorserIdx[org] {
			if !p.net.Crashed(g) {
				out = append(out, p.endorsers[g])
			}
		}
		return out
	}
}

// submitter sends an assembled transaction from the client's endpoint to
// the ordering service. The simulated transport drops messages to crashed
// or partitioned-away nodes silently (bytes leave the NIC either way), so
// reachability is checked explicitly — a Broadcast no ordering node can
// receive is a submit error the client must count. The envelope goes to
// every live reachable consenter (modelled client failover; the consenter
// shims deduplicate on apply), so a counted
// submission survives any election or crash that leaves one recipient
// alive — the submitted == committed + conflicts invariant holds across
// leadership changes.
func (p *Plane) submitter(ep *transport.SimEndpoint) client.Submitter {
	return func(tx *ledger.Transaction) error {
		targets := p.net.SubmitTargets(ep.ID())
		if len(targets) == 0 {
			return errors.New("workload: ordering service unreachable")
		}
		for _, t := range targets {
			if err := ep.Send(t, &wire.SubmitTx{Tx: tx}); err != nil {
				return err
			}
		}
		return nil
	}
}

// OnBlockCut installs fn to observe every block the plane's ordering
// service cuts, on the ordering engine's goroutine: consenter is the
// cutting replica's index. Every live replica cuts the identical block, so
// fn fires once per replica per block. Install before Start; fn must not
// call back into the plane.
func (p *Plane) OnBlockCut(fn func(consenter int, num uint64, txs int)) {
	for i, svc := range p.services {
		i := i
		svc.OnBlockCut(func(num uint64, txs int) { fn(i, num, txs) })
	}
}

// clusterConsenter adapts one harness consenter slot to order.Consenter:
// submissions go through the consenter's reliable Raft shim, the committed
// stream is the consenter's non-block apply feed.
type clusterConsenter struct {
	net *harness.Network
	idx int
}

func (c *clusterConsenter) Submit(data []byte) error {
	return c.net.SubmitEntry(c.idx, data)
}

func (c *clusterConsenter) OnCommit(fn func(data []byte)) {
	c.net.SetConsenterStream(c.idx, fn)
}

// resolver returns the commit-result hook for one peer: the first member
// of an organization to commit a block resolves its transactions for that
// organization's issuing clients. Each org resolves every block, but only
// its own clients' transactions are pending there; the rest are skipped.
func (p *Plane) resolver(global int) func(*ledger.Block, ledger.CommitResult) {
	org := p.net.OrgOf(global)
	st := &p.stats[org]
	return func(b *ledger.Block, res ledger.CommitResult) {
		if res.BlockNum != p.orgNext[org] {
			return // already resolved by a faster member (or a stale peer)
		}
		p.orgNext[org]++
		for i, tx := range b.Transactions() {
			pt, ok := p.pending[org][tx.ID]
			if !ok {
				continue
			}
			delete(p.pending[org], tx.ID)
			switch code := res.Codes[i]; code {
			case ledger.CodeValid:
				st.committed++
				st.latencies = append(st.latencies, pt.client.eng.Now()-pt.submitAt)
			default: // MVCC conflict or endorsement failure
				st.conflicts++
				if code == ledger.CodeMVCCConflict && pt.retries < p.cfg.RetryMax && p.running {
					st.retries++
					pt.client.invoke(pt.key, pt.retries+1)
				}
			}
		}
	}
}

// Start opens the submission window: every source begins its arrival
// process. It must run from the control engine (scenario actions do),
// whose events fire at coordinator barriers while every shard is quiescent.
func (p *Plane) Start() {
	if p.running {
		return
	}
	p.running = true
	for _, s := range p.sources {
		s.start()
	}
}

// Stop closes the submission window: arrivals cease. In-flight
// transactions still resolve and count.
func (p *Plane) Stop() { p.running = false }

// ClientNodes returns the node ids of an organization's client endpoints,
// so partition-style faults can keep clients on their organization's side.
func (p *Plane) ClientNodes(org int) []wire.NodeID {
	var out []wire.NodeID
	for _, c := range p.clients {
		if c.org == org {
			out = append(out, c.ep)
		}
	}
	return out
}

// source is one arrival process: a timer on its organization's engine
// firing at rate, attributing each arrival to its clients round-robin (one
// client, or an aggregated organization's endpoint set). It draws
// inter-arrival times and keys from its own named stream, so the modeled
// client count changes no other stream.
type source struct {
	p    *Plane
	eng  *sim.Engine
	rng  *sim.Rand
	zipf *rand.Zipf
	rate float64 // arrivals per second
	// clients is the endpoint set; next indexes the round-robin.
	clients []*planeClient
	next    int
}

// newSource registers an arrival process drawing from the engine's stream
// of the given name.
func (p *Plane) newSource(eng *sim.Engine, stream string, rate float64) *source {
	s := &source{p: p, eng: eng, rng: eng.Rand(stream), rate: rate}
	if p.cfg.ZipfS > 1 {
		s.zipf = rand.NewZipf(s.rng.Rand, p.cfg.ZipfS, 1, uint64(p.cfg.Keys-1))
	}
	p.sources = append(p.sources, s)
	return s
}

// start arms the source's next arrival.
func (s *source) start() {
	if s.p.cfg.Arrival == ArrivalPoisson {
		s.eng.After(time.Duration(s.rng.Exp(float64(time.Second)/s.rate)), s.fire)
	} else {
		s.eng.After(time.Duration(float64(time.Second)/s.rate), s.fire)
	}
}

// fire is one arrival: schedule the next, then hand the submission to the
// next client in the rotation. The stop check happens at fire time so a
// Stop between schedule and fire consumes no random draw.
func (s *source) fire() {
	if !s.p.running {
		return
	}
	s.start() // next arrival first: the draw order is fixed per source
	c := s.clients[s.next]
	s.next = (s.next + 1) % len(s.clients)
	c.invoke(s.key(), 0)
}

// key draws the next key: Zipf-skewed over the keyspace when configured,
// uniform otherwise.
func (s *source) key() string {
	var i uint64
	if s.zipf != nil {
		i = s.zipf.Uint64()
	} else {
		i = uint64(s.rng.Intn(s.p.cfg.Keys))
	}
	return fmt.Sprintf("key-%04d", i)
}

// invoke endorses and submits one counter increment. retries is how many
// conflict retries this attempt chain has already consumed.
func (c *planeClient) invoke(key string, retries int) {
	c.seq++
	var nonce [8]byte
	binary.BigEndian.PutUint64(nonce[:], c.seq)
	tx, err := c.cl.Invoke("counter", []string{"incr", key}, nonce[:])
	if err != nil {
		return // counted by the client's own stats (endorse/conflict/submit)
	}
	c.p.pending[c.org][tx.ID] = &pendingTx{
		client:   c,
		submitAt: c.eng.Now(),
		retries:  retries,
		key:      key,
	}
}

// OrgStats is one organization's workload outcome.
type OrgStats struct {
	Org       int
	Submitted int
	Committed int
	Conflicts int
	Retries   int

	ProposalConflicts int
	EndorseErrors     int
	SubmitErrors      int
	CommitErrors      uint64

	// Latency summarizes submit-to-commit latency: submission to the
	// first commit of the transaction's block within the issuing
	// organization.
	Latency metrics.Summary
}

// Stats is the plane-wide workload outcome.
type Stats struct {
	Orgs []OrgStats

	Submitted int
	Committed int
	Conflicts int
	Retries   int

	ProposalConflicts int
	EndorseErrors     int
	SubmitErrors      int
	CommitErrors      uint64

	// InFlight counts submitted transactions not yet resolved in their
	// organization: Submitted == Committed + Conflicts + InFlight.
	InFlight int

	// OrderedTx is the ordering service's transaction count; BlocksCut,
	// CutBySize and CutByTimeout describe its block cutting.
	OrderedTx    uint64
	BlocksCut    uint64
	CutBySize    uint64
	CutByTimeout uint64

	Latency metrics.Summary
}

// ConflictRate is the fraction of resolved transactions invalidated by
// validation (MVCC conflicts and endorsement failures).
func (s Stats) ConflictRate() float64 {
	total := s.Committed + s.Conflicts
	if total == 0 {
		return 0
	}
	return float64(s.Conflicts) / float64(total)
}

// Stats snapshots the plane's counters. Call after the engine drained.
func (p *Plane) Stats() Stats {
	var out Stats
	var all []time.Duration
	for o := range p.stats {
		st := &p.stats[o]
		os := OrgStats{
			Org:       o,
			Committed: st.committed,
			Conflicts: st.conflicts,
			Retries:   st.retries,
			Latency:   metrics.Summarize(metrics.NewDistribution(st.latencies)),
		}
		for _, c := range p.clients {
			if c.org != o {
				continue
			}
			cs := c.cl.Stats()
			os.Submitted += cs.Submitted
			os.ProposalConflicts += cs.ProposalConflicts
			os.EndorseErrors += cs.EndorseErrors
			os.SubmitErrors += cs.SubmitErrors
		}
		for _, g := range p.net.Orgs[o].Peers {
			os.CommitErrors += p.peers[g].Stats().CommitErrors
		}
		all = append(all, st.latencies...)
		out.Submitted += os.Submitted
		out.Committed += os.Committed
		out.Conflicts += os.Conflicts
		out.Retries += os.Retries
		out.ProposalConflicts += os.ProposalConflicts
		out.EndorseErrors += os.EndorseErrors
		out.SubmitErrors += os.SubmitErrors
		out.CommitErrors += os.CommitErrors
		out.InFlight += len(p.pending[o])
		out.Orgs = append(out.Orgs, os)
	}
	out.Latency = metrics.Summarize(metrics.NewDistribution(all))
	// Report the most advanced replica (replicas only differ by how far
	// through the shared apply stream they are — crashed consenters lag
	// until log replay catches them up).
	svc := p.services[0]
	for _, s := range p.services[1:] {
		if s.Height() > svc.Height() {
			svc = s
		}
	}
	out.OrderedTx, out.CutBySize, out.CutByTimeout = svc.Stats()
	out.BlocksCut = svc.Height()
	return out
}
