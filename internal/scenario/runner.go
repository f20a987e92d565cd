package scenario

import (
	"errors"
	"fmt"
	rtmetrics "runtime/metrics"
	"time"

	"fabricgossip/internal/gossip"
	"fabricgossip/internal/harness"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/metrics"
	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/obs"
	"fabricgossip/internal/raft"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
	"fabricgossip/internal/workload"
)

// txPerBlock transactions of txPayload bytes shape the premade chain's
// blocks: small enough that thousand-peer runs stay fast, large enough
// that bandwidth overhead is dominated by block bodies.
const (
	txPerBlock = 10
	txPayload  = 512
)

// Options parameterizes one scenario run.
type Options struct {
	// Peers is the total network size across all organizations (default
	// 100). It must divide evenly by Orgs. The catalog scales its fault
	// scripts to any size up to thousands of peers.
	Peers int
	// Orgs is the organization count (default 1). Multi-org catalog
	// entries (Def.MinOrgs > 1) bump it to their minimum automatically.
	Orgs int
	// OrgSizes, when set, overrides Peers/Orgs with an explicit per-org
	// layout (asymmetric consortiums). Each entry needs at least 2 peers.
	// Catalog entries with a Sizes shaper populate it from Peers.
	OrgSizes []int
	// Variant selects the protocol under test (default VariantEnhanced).
	// A scenario's OrgVariants override it per organization.
	Variant harness.Variant
	// Seed drives every random stream; the same seed reproduces the run
	// byte for byte.
	Seed int64
	// Consenters, when > 0, overrides the scenario's ordering-cluster
	// size: any catalog entry replays against this many Raft consenters
	// (cmd/scenarios -consenters). Zero inherits the scenario's own
	// Consenters setting.
	Consenters int
	// FixedLookahead disables the window coordinator's adaptive barrier
	// elision, forcing the full ceremony at every window edge. Both modes
	// produce byte-identical fingerprints (the equivalence property test
	// pins it); the knob exists for that test and for bisecting.
	FixedLookahead bool
	// Tail, when > 0, overrides the scenario's own post-injection tail
	// (cmd/scenarios -tail). Shortening the tail changes the fingerprint
	// lineage (fewer virtual seconds of traffic) and can cut off recovery
	// before it closes every gap, so it is a tool for reduced-duration
	// determinism smokes at extreme scale, not for measurement runs.
	Tail time.Duration

	// Trace enables the structured event-trace layer (cmd/scenarios
	// -trace-jsonl): typed trace points from the transport and every
	// subsystem hook, buffered per emission context and merged into
	// Report.Events by (time, context, emission order). Trace points are
	// passive — no random draws, no scheduled events — so enabling them
	// leaves the run's fingerprint byte-identical; the merged stream
	// itself is deterministic per seed regardless of GOMAXPROCS. Off by
	// default: the per-message hot path then carries only a nil check, and
	// the run records just the low-volume script events Report.Trace
	// renders.
	Trace bool
	// FlightRing arms the crash flight recorder: each emission context
	// keeps a bounded ring of this many recent trace events, dumped to a
	// file when a run dies on a lookahead-violation panic or breaks a
	// safety rule (check.go). With Trace also set the full buffers back the
	// recorder instead (the dump still carries only the last FlightRing
	// events per context). Zero disables the recorder.
	FlightRing int
	// FlightDir is where flight-recorder dumps land (default the OS temp
	// directory).
	FlightDir string
	// TimeSeries, when > 0, samples every registry instrument at this
	// period of simulated time into Report.Series. The sampler is a
	// control-engine event (barrier-hosted), so unlike
	// Trace it extends the run's event lineage — same-seed runs with the
	// same period stay deterministic, but fingerprints are comparable
	// only across runs with identical TimeSeries settings (like Tail).
	TimeSeries time.Duration
}

func (o Options) withDefaults() Options {
	if o.Peers == 0 {
		o.Peers = 100
	}
	if o.Orgs == 0 {
		o.Orgs = 1
	}
	if o.Variant == "" {
		o.Variant = harness.VariantEnhanced
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) topology() (Topology, error) {
	if len(o.OrgSizes) > 0 {
		sizes := make([]int, len(o.OrgSizes))
		for i, s := range o.OrgSizes {
			if s < 2 {
				return Topology{}, fmt.Errorf("scenario: org %d has %d peers, need at least 2", i, s)
			}
			sizes[i] = s
		}
		return Topology{Sizes: sizes}, nil
	}
	if o.Orgs < 1 {
		return Topology{}, fmt.Errorf("scenario: need at least 1 org, got %d", o.Orgs)
	}
	if o.Peers%o.Orgs != 0 {
		return Topology{}, fmt.Errorf("scenario: %d peers do not divide evenly into %d orgs", o.Peers, o.Orgs)
	}
	per := o.Peers / o.Orgs
	if per < 2 {
		return Topology{}, fmt.Errorf("scenario: %d peers per org, need at least 2", per)
	}
	return Uniform(o.Orgs, per), nil
}

// runner is the per-run mutable state behind the fault actions and
// measurement hooks.
type runner struct {
	sc    Scenario
	opt   Options
	top   Topology
	net   *harness.Network
	plane *workload.Plane // nil unless sc.Workload is set

	// dissem and recovery hold every latency sample of the run once, per
	// organization: the commit/reception hooks that append to them run on
	// each organization's own shard, so no two writers share a slice (the
	// network-wide summaries concatenate at report time).
	dissem   [][]time.Duration
	recovery [][]time.Duration

	blocks []*ledger.Block // the premade chain (nil with a workload plane)
	// orgStart[o][num] is the virtual time the block first entered org o
	// (its leader's reception); later receptions record deltas against it.
	orgStart []map[uint64]time.Duration

	// check is the safety checker; its per-peer heights are the run's
	// commit record.
	check *checker

	// Per-peer measurement state, reset when a peer restarts. Written by
	// the peer's own shard (commit hooks) or at coordinator barriers
	// (fault actions), never both at once.
	restartAt  []time.Duration
	recovering []bool

	// Per-org counters (shard-local writers), summed at report time.
	transitions []int

	// samplers are the control-engine timers that measure the run (time
	// series, membership views); drive stops them when the run ends.
	samplers []sim.Timer

	// Membership-view sampling state (MeasureMembership only). crashedBuf
	// is the sampler's reusable scratch; convergedAt is the first sample
	// time of the current everyone-agrees-on-the-leader streak (-1 while
	// disagreeing).
	viewSamples int
	lastCompl   float64
	convergedAt time.Duration
	crashedBuf  []wire.NodeID

	// heapHigh is the largest live-heap reading taken (readLiveHeap).
	heapHigh uint64

	// script is the one record Report.Trace renders: an always-on,
	// unbounded trace of the low-volume script events (initial-down,
	// fault, deliver, election, caught-up, fault target). tracer is the
	// full structured trace or the flight recorder's rings (nil unless
	// Options opts in) and receives the same script events plus the
	// high-volume commit, membership and wire points. Both follow the
	// network's emission-context layout (harness.Network.ObsContexts):
	// one buffer per shard engine, then one for the control engine.
	script *obs.Tracer
	tracer *obs.Tracer

	// The rest of the observability plane (nil unless Options opts in):
	// one shard-local registry per emission context, merged at report (and
	// time-series sample) time.
	obsRegs    []*obs.Registry
	flight     *obs.FlightRecorder
	series     *obs.Series
	flightDump string
}

// RunNamed instantiates the named catalog scenario for opt's topology and
// runs it. Entries that need more organizations than opt.Orgs provides
// (Def.MinOrgs) get their minimum automatically.
func RunNamed(name string, opt Options) (*Report, error) {
	def, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if opt.Orgs < def.MinOrgs {
		opt.Orgs = def.MinOrgs
	}
	if def.Sizes != nil && len(opt.OrgSizes) == 0 {
		opt.OrgSizes = def.Sizes(opt.Peers)
	}
	// An explicit layout bypasses the Peers/Orgs split entirely, so it must
	// satisfy the entry's org minimum itself — org-targeted scripts would
	// otherwise run on degenerate topologies (e.g. the "remote org" being
	// the whole network) and report nonsense instead of failing.
	if len(opt.OrgSizes) > 0 && len(opt.OrgSizes) < def.MinOrgs {
		return nil, fmt.Errorf("%s: %d org sizes given, scenario needs at least %d organizations",
			name, len(opt.OrgSizes), def.MinOrgs)
	}
	top, err := opt.topology()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sc := def.Build(top)
	sc.Name = def.Name
	sc.Description = def.Description
	rep, err := Run(sc, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return rep, nil
}

// Run executes the scenario and returns its report. The run is fully
// deterministic in (scenario, Options). A run that breaks a safety rule
// (check.go) or leaks pooled envelopes returns an error naming the rule
// instead of a report.
func Run(sc Scenario, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	if opt.Tail > 0 {
		sc.Tail = opt.Tail
	}
	top, consenters, err := validate(sc, opt)
	if err != nil {
		return nil, err
	}
	r, err := build(sc, opt, top, consenters)
	if err != nil {
		return nil, err
	}
	r.arm()
	r.drive()
	// The report snapshots every fingerprinted counter (EngineEvents
	// included) before drain executes the deliveries still in flight at
	// End — the leak audit must settle refcounts without moving a single
	// reported number.
	rep := r.report()
	r.check.settle(rep.Workload)
	r.drain()
	if err := r.failure(); err != nil {
		return nil, err
	}
	return rep, nil
}

// validate rejects a scenario its topology cannot run, before anything is
// built: a bad index must fail Run, not panic mid-simulation. It resolves
// the two sizes everything downstream needs, the topology and the
// ordering-cluster size.
func validate(sc Scenario, opt Options) (top Topology, consenters int, err error) {
	if top, err = opt.topology(); err != nil {
		return top, 0, err
	}
	switch {
	case sc.Workload != nil && sc.Blocks > 0:
		// The workload plane cuts blocks through a real ordering service;
		// a premade chain would collide with it on block numbers.
		return top, 0, fmt.Errorf("scenario: %q sets both Blocks and Workload", sc.Name)
	case sc.Workload == nil && sc.Blocks <= 0:
		return top, 0, fmt.Errorf("scenario: %q injects no blocks", sc.Name)
	case len(sc.InitialDown) >= top.Total():
		return top, 0, fmt.Errorf("scenario: all %d peers initially down", top.Total())
	}
	for _, i := range sc.InitialDown {
		if i < 0 || i >= top.Total() {
			return top, 0, fmt.Errorf("scenario: initial-down peer %d out of range [0, %d)", i, top.Total())
		}
	}
	consenters = sc.Consenters
	if opt.Consenters > 0 {
		consenters = opt.Consenters
	}
	if consenters == 0 {
		consenters = 1
	}
	// What each addressable unit may range over, [lo, hi).
	bounds := map[string][2]int{
		"peer":        {0, top.Total()},
		"org":         {0, top.Orgs()},
		"consenter":   {0, consenters},
		"split point": {1, top.Total()},
	}
	for _, ev := range sc.Events {
		unit, indices := addressed(ev.Action)
		if unit == "workload" && sc.Workload == nil {
			return top, 0, fmt.Errorf("scenario: %q schedules %q without a Workload config", sc.Name, ev.Action)
		}
		for _, i := range indices {
			if b := bounds[unit]; i < b[0] || i >= b[1] {
				return top, 0, fmt.Errorf("scenario: event %q at %v names %s %d, outside [%d, %d)",
					ev.Action, ev.At, unit, i, b[0], b[1])
			}
		}
	}
	return top, consenters, nil
}

// addressed is the table behind validate's range check: the unit an action
// addresses and the indices it names. Actions that resolve their target at
// run time (CrashLeader, RestartAll, ...) name none.
func addressed(a Action) (unit string, indices []int) {
	switch a := a.(type) {
	case CrashPeers:
		return "peer", a.Peers
	case RestartPeers:
		return "peer", a.Peers
	case SlowPeers:
		return "peer", a.Peers
	case PartitionSplit:
		return "split point", []int{a.Split}
	case CrashOrg:
		return "org", []int{a.Org}
	case RestartOrg:
		return "org", []int{a.Org}
	case CrashOrgLeader:
		return "org", []int{a.Org}
	case IsolateOrgs:
		return "org", a.Orgs
	case CrashConsenter:
		return "consenter", []int{a.Consenter}
	case RestartConsenter:
		return "consenter", []int{a.Consenter}
	case IsolateConsenters:
		return "consenter", a.Consenters
	case StartWorkload, StopWorkload:
		return "workload", nil
	}
	return "", nil
}

// build constructs everything the run needs and starts nothing: the
// network with the runner's measurement hooks on it, the observability
// plane, and (if scripted) the workload plane.
func build(sc Scenario, opt Options, top Topology, consenters int) (*runner, error) {
	r := &runner{
		sc:          sc,
		opt:         opt,
		top:         top,
		dissem:      make([][]time.Duration, top.Orgs()),
		recovery:    make([][]time.Duration, top.Orgs()),
		orgStart:    make([]map[uint64]time.Duration, top.Orgs()),
		check:       newChecker(top.Total(), top.Orgs()),
		restartAt:   make([]time.Duration, top.Total()),
		recovering:  make([]bool, top.Total()),
		transitions: make([]int, top.Orgs()),
	}
	for o := 0; o < top.Orgs(); o++ {
		r.orgStart[o] = make(map[uint64]time.Duration)
	}
	if err := r.buildNetwork(consenters); err != nil {
		return nil, err
	}
	r.buildObsPlane()
	// The workload plane must install before the cores start (its per-peer
	// validation pipelines hook OnCommit) and before any restart event can
	// fire (its rebuild hook must be registered).
	if sc.Workload != nil {
		if err := r.buildWorkloadPlane(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *runner) buildNetwork(consenters int) error {
	sc := r.sc
	// One spec per organization; a scenario's OrgVariants pin protocols
	// per org, everything else inherits the run's variant.
	specs := make([]harness.OrgSpec, r.top.Orgs())
	for o := range specs {
		specs[o] = harness.OrgSpec{Peers: r.top.Size(o)}
		if o < len(sc.OrgVariants) && sc.OrgVariants[o] != "" {
			specs[o].Variant = sc.OrgVariants[o]
		}
	}
	net, err := harness.NewNetwork(harness.NetworkParams{
		Seed:    r.opt.Seed,
		Variant: r.opt.Variant,
		Orgs:    specs,
		// The recovery-plane extensions are scenario-scripted: anchors
		// and WAN separation only exist when the scenario asks for them.
		AnchorRecovery:  sc.AnchorRecovery,
		WANDelay:        sc.WANDelay,
		Consenters:      consenters,
		ConsenterSpread: sc.ConsenterSpread,
		FixedLookahead:  r.opt.FixedLookahead,
	},
		harness.WithNetworkGossipTune(r.tuneGossip),
		harness.WithNetworkCoreHook(r.instrument),
		harness.WithDeliverHook(r.onDeliver),
		harness.WithConsenterHook(r.onConsenterState),
	)
	r.net = net
	return err
}

// tuneGossip gives every peer faster membership and recovery turnarounds
// than the paper's fault-free 10 s defaults: fault handling wants them.
func (r *runner) tuneGossip(_ wire.NodeID, cfg *gossip.Config) {
	cfg.StateInfoInterval = time.Second
	cfg.AliveInterval = 2 * time.Second
	cfg.AliveExpiration = 5 * time.Second
	cfg.RecoveryInterval = 2 * time.Second
	cfg.RecoveryBatch = 64
	if r.sc.SwimMembership {
		// The SWIM defaults for dense views at n >= 1000: lapsed peers
		// survive as refutable suspects for five heartbeat periods, rumors
		// ride every message, and once per heartbeat period a peer swaps
		// 256-entry view samples with one other.
		cfg.SuspectTimeout = 10 * time.Second
		cfg.PiggybackMax = 32
		cfg.PiggybackBudget = 4
		cfg.ShuffleInterval = 2 * time.Second
		cfg.ShuffleSample = 256
	}
}

// buildObsPlane creates the script trace every run keeps and, when Options
// opts in, the observability plane: registries and structured-trace
// buffers in the same context layout. AttachObs installs only passive
// instruments (no random draws, no events), so a Trace or FlightRing run's
// fingerprint is byte-identical to a bare one; TimeSeries is the exception
// — its sampler is an engine event, documented on Options.
func (r *runner) buildObsPlane() {
	net, opt := r.net, r.opt
	nctx := net.ObsContexts()
	r.script = obs.NewTracer(nctx, 0)
	if !opt.Trace && opt.FlightRing == 0 && opt.TimeSeries == 0 {
		return
	}
	r.obsRegs = make([]*obs.Registry, nctx)
	for i := range r.obsRegs {
		r.obsRegs[i] = obs.NewRegistry()
	}
	var shards []*obs.ShardTrace
	if opt.Trace || opt.FlightRing > 0 {
		// Full buffers when the merged stream is wanted; bounded rings
		// when only the flight recorder needs recent history.
		ringCap := 0
		if !opt.Trace {
			ringCap = opt.FlightRing
		}
		r.tracer = obs.NewTracer(nctx, ringCap)
		shards = r.tracer.Shards
		ctl := shards[nctx-1]
		var barrierN uint64
		net.Sharded().OnBarrier(func() {
			barrierN++
			ctl.Emit(obs.Event{At: net.Engine.Now(), Kind: obs.EvBarrier, Node: -1, Peer: -1, Num: barrierN})
		})
	}
	net.AttachObs(r.obsRegs, shards)
	if opt.FlightRing > 0 {
		r.flight = obs.NewFlightRecorder(r.tracer, opt.FlightRing, opt.FlightDir)
		net.Sharded().SetViolationHook(func(src, dst int, msg string) {
			// Mid-window only the offending shard's ring is safe to read;
			// dump it before the panic unwinds so the artifact survives
			// the crash.
			if p, derr := r.flight.DumpShard(src, msg); derr == nil {
				r.flightDump = p
			}
		})
	}
}

func (r *runner) buildWorkloadPlane() error {
	plane, err := workload.Install(r.net, *r.sc.Workload)
	if err != nil {
		return err
	}
	r.plane = plane
	if r.tracer != nil {
		// Block cutting happens on the ordering engine's goroutine.
		ordTrace := r.tracer.Shards[r.net.OrdObsContext()]
		ordEng := r.net.OrdererEngine()
		plane.OnBlockCut(func(consenter int, num uint64, txs int) {
			ordTrace.Emit(obs.Event{
				At: ordEng.Now(), Kind: obs.EvBlockCut,
				Node: int32(consenter), Peer: -1, Num: num, Aux: uint64(txs),
			})
		})
	}
	return nil
}

// arm schedules the run on the built network, in this order — same-instant
// control events fire in the order they were scheduled, and the golden
// fingerprints pin it: the samplers, the cores and the ordering pump
// (StartAll), the initial-down set, the block chain, the fault script.
func (r *runner) arm() {
	net, engine := r.net, r.net.Engine
	// Barrier-hosted heap reading: every shard is quiescent, and a hook
	// adds no simulation event, so EngineEvents (fingerprinted) is untouched.
	net.Sharded().OnBarrier(r.readLiveHeap)
	if r.opt.TimeSeries > 0 {
		// The sampler merges every context's registry into one row per
		// period. It runs on the control engine — at coordinator barriers,
		// where all shard-local registries are quiescent and safe to read.
		r.series = obs.NewSeries(r.opt.TimeSeries)
		r.samplers = append(r.samplers, engine.Every(r.opt.TimeSeries, func() {
			r.series.Sample(engine.Now(), r.obsRegs)
		}))
	}
	net.StartAll()
	if r.sc.MeasureMembership {
		// Sample twice a second once the initial heartbeat view has had
		// Warmup to form. The sampler only reads core state — no random
		// draws, no sends — so it cannot perturb the run it measures.
		r.convergedAt = -1
		r.samplers = append(r.samplers, engine.Every(viewSampleInterval, r.sampleViews))
	}
	if len(r.sc.InitialDown) > 0 {
		for _, i := range r.sc.InitialDown {
			net.Crash(i)
		}
		r.emit(r.ctl(), obs.Event{
			At: engine.Now(), Kind: obs.EvFault,
			Node: -1, Peer: -1, Num: uint64(len(r.sc.InitialDown)), Aux: 1,
		})
	}
	// The dissemination workload: the ordering service streams each cut
	// block to every organization's leader (and retries undelivered
	// backlogs). With a workload plane the chain comes from the plane's
	// ordering service instead.
	if r.sc.Blocks > 0 {
		r.blocks = harness.BuildChain(r.sc.Blocks, txPerBlock, txPayload, r.opt.Seed)
		for i, b := range r.blocks {
			engine.At(r.sc.Warmup+time.Duration(i)*r.sc.BlockInterval, func() { net.Append(b) })
		}
	}
	for idx, ev := range r.sc.Events {
		engine.At(ev.At, func() {
			r.emit(r.ctl(), obs.Event{At: engine.Now(), Kind: obs.EvFault, Node: -1, Peer: -1, Num: uint64(idx)})
			ev.Action.apply(r)
		})
	}
}

// drive runs the simulation to the scenario's end and stops everything
// that measures it, so neither sampler sees the post-run drain.
func (r *runner) drive() {
	r.net.RunUntil(r.sc.End())
	r.net.StopAll()
	for _, s := range r.samplers {
		s.Stop()
	}
	r.readLiveHeap()
}

// drain audits the pooled-envelope refcount invariant on every run: once
// in-flight deliveries settle, every Data/PushDigest drawn from a
// protocol's pool must have been released exactly refs times, so both
// outstanding counters read zero. Deliveries scheduled just before End are
// still in transit when the run stops (a release per delivery attempt is
// the invariant, and those attempts have not happened yet), so the audit
// first drains the engines a grace period past End — the cores are stopped,
// so the extra events release envelopes and do nothing else.
func (r *runner) drain() {
	r.net.RunUntil(r.sc.End() + 5*time.Second)
	if data, digest := r.poolOutstanding(); data != 0 || digest != 0 {
		r.check.flag(r.check.endSlot, rulePool, "%d data, %d push-digest envelopes outstanding after drain", data, digest)
	}
}

// failure formats a failed run, the one place that does: the first safety
// rule broken, and the flight recorder's dump when one is armed. The
// engines are quiescent after the drain, so the full dump (every context)
// is safe here.
func (r *runner) failure() error {
	for _, broken := range r.check.broken {
		if broken == "" {
			continue
		}
		msg := fmt.Sprintf("scenario: %q (%s) broke %s", r.sc.Name, r.opt.Variant, broken)
		if r.flight != nil {
			if p, err := r.flight.Dump(msg); err == nil {
				msg += "; flight dump: " + p
			}
		}
		return errors.New(msg)
	}
	return nil
}

// poolOutstanding sums the pooled envelopes every protocol instance still
// has out.
func (r *runner) poolOutstanding() (data, digest int) {
	type pooled interface{ PoolOutstanding() (data, digest int) }
	for _, c := range r.net.Cores {
		if p, ok := c.Proto().(pooled); ok {
			d, g := p.PoolOutstanding()
			data += d
			digest += g
		}
	}
	return data, digest
}

// ctl is the control engine's emission context (fault actions, deliveries,
// setup): the last one.
func (r *runner) ctl() int { return len(r.script.Shards) - 1 }

// emit records one script event from emission context ctx: into the script
// trace always, and into the full trace (or flight ring) when there is one.
// Every line of Report.Trace comes through here, once.
func (r *runner) emit(ctx int, e obs.Event) {
	r.script.Shards[ctx].Emit(e)
	if r.tracer != nil {
		r.tracer.Shards[ctx].Emit(e)
	}
}

// onConsenterState traces the ordering cluster's role transitions: an
// election is a script event, the other transitions are full-trace only.
func (r *runner) onConsenterState(c int, s raft.State, term uint64) {
	ord := r.net.OrdObsContext()
	e := obs.Event{
		At: r.net.OrdererEngine().Now(), Kind: obs.EvRaftState,
		Node: int32(c), Peer: -1, Num: term, Aux: uint64(s),
	}
	if s == raft.Leader {
		r.check.elected(c, term)
		e.Kind = obs.EvElection
		r.emit(ord, e)
	} else if r.tracer != nil {
		r.tracer.Shards[ord].Emit(e)
	}
}

// onDeliver traces ordering-service deliveries — on the control engine, the
// pump's timer host. Redeliveries (leader failover replaying the stream)
// carry Aux = 1.
func (r *runner) onDeliver(org, peer int, b *ledger.Block, redelivery bool) {
	var re uint64
	if redelivery {
		re = 1
	}
	r.emit(r.ctl(), obs.Event{
		At: r.net.Engine.Now(), Kind: obs.EvDeliver,
		Node: int32(peer), Peer: int32(org), Num: b.Num, Aux: re,
	})
}

// injected is how many distinct blocks reached at least one organization:
// every deliver stream is a prefix of the one chain, so the longest one. The
// pump advances the streams at barriers only, so shards may read it
// mid-window.
func (r *runner) injected() int {
	n := 0
	for o := 0; o < r.top.Orgs(); o++ {
		n = max(n, r.net.Delivered(o))
	}
	return n
}

// instrument installs the measurement hooks on a (possibly restarted) core.
// It runs during NewNetwork, before r.net is assigned, so the callbacks
// resolve the engine lazily. The commit, membership and wire trace points
// are high-volume and stay behind r.tracer != nil: with tracing off the
// per-message hot path pays only that check.
func (r *runner) instrument(i int, core *gossip.Core) {
	org := r.top.OrgOf(i)
	core.OnCommit(func(b *ledger.Block) {
		r.check.commit(i, org, b)
		if r.tracer != nil {
			r.tracer.Shards[r.net.OrgObsContext(org)].Emit(obs.Event{
				At: r.net.EngineFor(i).Now(), Kind: obs.EvBlockCommit,
				Node: int32(i), Peer: -1, Num: b.Num, Aux: uint64(b.NumTxs()),
			})
		}
		if r.recovering[i] && b.Num+1 >= uint64(r.injected()) {
			now := r.net.EngineFor(i).Now()
			lat := now - r.restartAt[i]
			r.recovery[org] = append(r.recovery[org], lat)
			r.recovering[i] = false
			r.emit(r.net.OrgObsContext(org), obs.Event{
				At: now, Kind: obs.EvCaughtUp,
				Node: int32(i), Peer: -1, Num: b.Num + 1, Aux: uint64(lat),
			})
		}
	})
	core.OnFirstReception(func(b *ledger.Block, at time.Duration) {
		start, ok := r.orgStart[org][b.Num]
		if !ok {
			r.orgStart[org][b.Num] = at
			return
		}
		// Catch-up receptions after a restart measure recovery, not the
		// epidemic; keep them out of the dissemination distribution.
		if !r.recovering[i] && at >= start {
			r.dissem[org] = append(r.dissem[org], at-start)
		}
	})
	core.OnPeerStateChange(func(p wire.NodeID, live bool, at time.Duration) {
		r.transitions[org]++
		if r.tracer != nil {
			var alive uint64
			if live {
				alive = 1
			}
			r.tracer.Shards[r.net.OrgObsContext(org)].Emit(obs.Event{
				At: at, Kind: obs.EvMembership,
				Node: int32(i), Peer: int32(p), Num: alive,
			})
		}
	})
}

func (r *runner) crash(i int) {
	if r.net.Crashed(i) {
		return
	}
	r.net.Crash(i)
	r.recovering[i] = false
}

func (r *runner) restart(i int) {
	if !r.net.Crashed(i) {
		return
	}
	// The fresh core commits from zero again; reset the per-peer height
	// and recovery trackers before its hooks fire.
	r.check.height[i] = 0
	r.restartAt[i] = r.net.Engine.Now()
	r.recovering[i] = r.injected() > 0
	r.net.Restart(i)
}

// nodeIDs converts global peer indices to transport ids (they coincide).
func nodeIDs(peers []int) []wire.NodeID {
	ids := make([]wire.NodeID, len(peers))
	for i, p := range peers {
		ids[i] = wire.NodeID(p)
	}
	return ids
}

// The partition helpers list only the cut side: the transport puts every
// node absent from all groups into group 0, which is where the ordering
// service, the remaining peers and their workload clients belong.

// partition cuts peers [split, n) from peers [0, split) and the ordering
// service. Range validation happened in Run. Workload clients stay with
// the ordering service: submissions keep flowing, but endorsement against
// peers on the far side fails.
func (r *runner) partition(split int) {
	r.net.Net.Partition(nil, nodeIDs(span(split, r.top.Total())))
}

// isolateOrgs partitions each listed organization into its own group. With
// a workload plane, an organization's clients are cut off with it (they sit
// on the organization's site), so an isolated organization's submissions
// fail as SubmitErrors instead of silently reaching the consenters.
func (r *runner) isolateOrgs(orgs []int) {
	groups := make([][]wire.NodeID, 1, len(orgs)+1)
	for _, o := range orgs {
		ids := nodeIDs(r.top.OrgSpan(o))
		if r.plane != nil {
			ids = append(ids, r.plane.ClientNodes(o)...)
		}
		groups = append(groups, ids)
	}
	r.net.Net.Partition(groups...)
}

// isolateConsenters cuts the listed consenters (one group, together) from
// everything else.
func (r *runner) isolateConsenters(idxs []int) {
	isolated := make([]wire.NodeID, len(idxs))
	for i, c := range idxs {
		isolated[i] = r.net.ConsenterID(c)
	}
	r.net.Net.Partition(nil, isolated)
}

// viewSampleInterval is the membership sampler's period.
const viewSampleInterval = 500 * time.Millisecond

// readLiveHeap folds the runtime's live-heap gauge — what the most recent
// collection marked — into the run's high-water mark. It runs at full
// barriers and once when the run ends, reads wall-side runtime state only
// (no stop-the-world, no forced collection) and adds no simulation event.
func (r *runner) readLiveHeap() {
	live := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(live)
	if v := live[0].Value.Uint64(); v > r.heapHigh {
		r.heapHigh = v
	}
}

// sampleViews takes one membership measurement (MeasureMembership only):
// the mean view completeness over live peers — each peer's live view
// intersected with its organization's actually live members — and whether
// every live peer currently agrees on its organization's true leader. The
// streak-tracking behind convergedAt makes LeaderConvergence "the last
// time somebody still disagreed" rather than the first lucky agreement.
func (r *runner) sampleViews() {
	now := r.net.Engine.Now()
	if now < r.sc.Warmup {
		return // let the initial heartbeat view form first
	}
	var complSum float64
	var complN int
	agree := true
	for o := 0; o < r.top.Orgs(); o++ {
		// The ground truth, from the fault surface: which of the
		// organization's members are crashed — the rest are actually live —
		// and its true leader.
		span := r.top.OrgSpan(o)
		r.crashedBuf = r.crashedBuf[:0]
		for _, i := range span {
			if r.net.Crashed(i) {
				r.crashedBuf = append(r.crashedBuf, wire.NodeID(i))
			}
		}
		actual := len(span) - len(r.crashedBuf)
		if actual == 0 {
			continue
		}
		trueLeader := wire.NodeID(r.net.OrgLeader(o))
		for _, i := range span {
			if r.net.Crashed(i) {
				continue
			}
			core := r.net.Cores[i]
			complSum += float64(liveActual(core, r.crashedBuf)) / float64(actual)
			complN++
			if core.LeaderPeer() != trueLeader {
				agree = false
			}
		}
	}
	if complN == 0 {
		return
	}
	r.viewSamples++
	r.lastCompl = complSum / float64(complN)
	if !agree {
		r.convergedAt = -1
	} else if r.convergedAt < 0 {
		r.convergedAt = now
	}
}

// liveActual is the size of core's live view intersected with its
// organization's actually live members. A view tracks only its own
// organization, and every member is either crashed or actually live, so the
// intersection is the view's live count minus the crashed members it still
// believes alive — a counter and a lookup per crashed member, where merging
// the two lists walked every entry of every view at every sample.
func liveActual(core *gossip.Core, crashed []wire.NodeID) int {
	n := core.LiveCount()
	for _, c := range crashed {
		if core.PeerAlive(c) {
			n--
		}
	}
	return n
}

// report assembles the final Report once the run has stopped.
func (r *runner) report() *Report {
	tv := r.net.TrafficView()
	rep := &Report{
		Scenario:       r.sc.Name,
		Variant:        string(r.opt.Variant),
		Peers:          r.top.Total(),
		Orgs:           r.top.Orgs(),
		Seed:           r.opt.Seed,
		BlocksInjected: r.injected(),
		EngineEvents:   r.net.ExecutedEvents(),
		PeakPending:    r.net.PeakPending(),
		HeapHighWater:  r.heapHigh,
		TotalBytes:     tv.TotalBytes(),
		SyncBytes: tv.BytesOf(wire.TypeStateRequest) +
			tv.BytesOf(wire.TypeStateResponse),
		SyncMessages: tv.CountOf(wire.TypeStateRequest) +
			tv.CountOf(wire.TypeStateResponse),
		Consenters: r.net.Consenters(),
		DeliverGap: r.net.MaxDeliverGap(),
		Trace:      renderTrace(r.script.Merged(), r.sc, r.top.Orgs()),
		Series:     r.series,
		FlightDump: r.flightDump,
	}
	rep.BarrierFull, rep.BarrierElided = r.net.Sharded().BarrierStats()
	rep.Elections, rep.Leaderless = r.net.ElectionStats()
	if r.viewSamples > 0 {
		rep.ViewSamples = r.viewSamples
		rep.ViewCompleteness = r.lastCompl
		rep.LeaderConvergence = r.sc.End() // never converged
		if r.convergedAt >= 0 {
			rep.LeaderConvergence = r.convergedAt
		}
	}
	if len(r.blocks) > 0 {
		rep.BlockBytes = wire.BlockEncodedSize(r.blocks[0])
	}
	r.reportOrgs(rep, tv)
	for _, c := range r.net.Cores {
		rep.AnchorProbes += c.StateSyncStats().AnchorProbes
	}
	if r.plane != nil {
		w := r.plane.Stats()
		rep.Workload = &w
	}
	// Same definition of "ideal" as the per-org lines: every peer —
	// leaders included, their copy arrives from the orderer and is in
	// TotalBytes — receives each injected block exactly once. Zero without
	// a premade chain (BlockBytes is 0).
	rep.Overhead = metrics.OverheadRatio(rep.TotalBytes, rep.BlockBytes, r.top.Total(), rep.BlocksInjected)
	rep.Obs = r.snapshot(rep)
	if r.opt.Trace {
		rep.Events = r.tracer.Merged()
	}
	return rep
}

// reportOrgs fills the per-organization breakdown and everything summed or
// pooled over it: the survivor counts and the two latency summaries, each
// computed from the samples the run kept once.
func (r *runner) reportOrgs(rep *Report, tv *netmodel.Traffic) {
	var dissem, recovery []time.Duration
	for o := 0; o < r.top.Orgs(); o++ {
		dissem = append(dissem, r.dissem[o]...)
		recovery = append(recovery, r.recovery[o]...)
		or := r.orgReport(o, tv, rep.BlockBytes)
		rep.Transitions += r.transitions[o]
		rep.Survivors += or.Survivors
		rep.CaughtUp += or.CaughtUp
		rep.PendingRecoveries += or.PendingRecoveries
		rep.OrgReports = append(rep.OrgReports, or)
	}
	rep.Latency = metrics.SummarizeSamples(dissem)
	rep.Recoveries = metrics.SummarizeSamples(recovery)
}

// orgReport is one organization's slice of the report.
func (r *runner) orgReport(o int, tv *netmodel.Traffic, blockBytes int) OrgReport {
	or := OrgReport{
		Org:       o,
		Variant:   string(r.net.Orgs[o].Variant),
		Peers:     r.top.Size(o),
		Delivered: r.net.Delivered(o),
		Recovery:  metrics.SummarizeSamples(r.recovery[o]),
		Latency:   metrics.SummarizeSamples(r.dissem[o]),
	}
	injected := uint64(r.injected())
	for _, i := range r.top.OrgSpan(o) {
		in, _ := tv.NodeTotals(wire.NodeID(i))
		or.InBytes += in
		if r.net.Crashed(i) {
			continue
		}
		or.Survivors++
		if r.check.height[i] == injected {
			or.CaughtUp++
		}
		if r.recovering[i] {
			or.PendingRecoveries++
		}
	}
	// Per-org overhead relates bytes entering the organization's NICs to
	// the ideal minimum of every delivered block reaching each member
	// exactly once (the leader's copy arrives from the orderer).
	or.Overhead = metrics.OverheadRatio(or.InBytes, blockBytes, r.top.Size(o), or.Delivered)
	return or
}

// snapshot assembles the report-time metrics snapshot: the shard-local
// registries merged (wire-level instruments), then every scattered report
// counter re-registered under one namespace so downstream consumers read
// a single inventory instead of scraping Report fields.
func (r *runner) snapshot(rep *Report) *obs.Snapshot {
	reg := obs.NewRegistry()
	for _, lr := range r.obsRegs {
		reg.Merge(lr)
	}
	reg.Counter("engine_events_total").Add(rep.EngineEvents)
	reg.Gauge("peak_pending_events").Set(int64(rep.PeakPending))
	reg.Gauge("heap_high_water_bytes").Set(int64(rep.HeapHighWater))
	reg.Counter("barriers_total", "kind", "full").Add(rep.BarrierFull)
	reg.Counter("barriers_total", "kind", "elided").Add(rep.BarrierElided)
	reg.Counter("traffic_bytes_total").Add(rep.TotalBytes)
	reg.Counter("state_sync_bytes_total").Add(rep.SyncBytes)
	reg.Counter("state_sync_msgs_total").Add(rep.SyncMessages)
	reg.Counter("blocks_injected_total").Add(uint64(rep.BlocksInjected))
	reg.Counter("membership_transitions_total").Add(uint64(rep.Transitions))
	// The views' own counters, summed over every peer's current core (a
	// restarted peer's earlier incarnation took its counts with it).
	var queued, sent, applied, refutations, deadDeclared uint64
	for _, c := range r.net.Cores {
		s := c.MembershipStats()
		queued += s.EventsQueued
		sent += s.EventsSent
		applied += s.EventsApplied
		refutations += s.Refutations
		deadDeclared += s.DeadDeclared
	}
	reg.Counter("membership_events_total", "kind", "queued").Add(queued)
	reg.Counter("membership_events_total", "kind", "sent").Add(sent)
	reg.Counter("membership_events_total", "kind", "applied").Add(applied)
	reg.Counter("membership_refutations_total").Add(refutations)
	reg.Counter("membership_dead_declared_total").Add(deadDeclared)
	// Pool leak canaries: pooled envelopes still outstanding at End —
	// in-flight deliveries the post-report drain settles and then asserts
	// are zero.
	data, digest := r.poolOutstanding()
	reg.Gauge("pool_outstanding", "pool", "data").Set(int64(data))
	reg.Gauge("pool_outstanding", "pool", "push_digest").Set(int64(digest))
	if r.tracer != nil {
		reg.Counter("trace_events_total").Add(r.tracer.Total())
	}
	reg.Counter("elections_total").Add(uint64(rep.Elections))
	var shipped, redundant uint64
	peakLog := 0
	for i := 0; i < r.net.Consenters(); i++ {
		node := r.net.ConsenterNode(i)
		s, d := node.Replication()
		shipped, redundant = shipped+s, redundant+d
		_, peak := node.LogLength()
		peakLog = max(peakLog, peak)
	}
	reg.Counter("raft_entries_total", "kind", "shipped").Add(shipped)
	reg.Counter("raft_entries_total", "kind", "redundant").Add(redundant)
	reg.Gauge("raft_log_peak_entries").Set(int64(peakLog))
	reg.Gauge("leaderless_ns").Set(int64(rep.Leaderless))
	if w := rep.Workload; w != nil {
		reg.Counter("workload_tx_total", "outcome", "submitted").Add(uint64(w.Submitted))
		reg.Counter("workload_tx_total", "outcome", "committed").Add(uint64(w.Committed))
		reg.Counter("workload_tx_total", "outcome", "conflict").Add(uint64(w.Conflicts))
		reg.Counter("workload_tx_total", "outcome", "retry").Add(uint64(w.Retries))
		reg.Counter("workload_blocks_cut_total", "cause", "size").Add(w.CutBySize)
		reg.Counter("workload_blocks_cut_total", "cause", "timeout").Add(w.CutByTimeout)
	}
	return reg.Snapshot()
}
