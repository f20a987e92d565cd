package scenario

import (
	"fmt"
	"sort"
	"time"

	"fabricgossip/internal/harness"
	"fabricgossip/internal/workload"
)

// Def is a named catalog entry: a scenario template instantiated for a
// concrete topology, so the same fault script scales from tens to thousands
// of peers and from one organization to many.
type Def struct {
	Name        string
	Description string
	// MinOrgs is the smallest organization count the script needs; 0 or 1
	// means the entry runs on any topology. RunNamed bumps the requested
	// org count up to it automatically.
	MinOrgs int
	// Sizes, when set, shapes the requested total peer count into an
	// explicit per-org layout (asymmetric consortiums), overriding the
	// uniform Peers/Orgs split. RunNamed feeds the result through
	// Options.OrgSizes unless the caller already set their own.
	Sizes func(totalPeers int) []int
	Build func(top Topology) Scenario
}

// catalog holds the built-in scenarios, keyed by name.
var catalog = map[string]Def{}

// asymConsortiumSizes splits a total peer count into the asymmetric 3-org
// layout of org-asym-consortium: roughly half the peers in the datacenter
// organization, the rest split 3:2 across the two branches, every
// organization at least 2 peers. 20 peers become 10+6+4.
func asymConsortiumSizes(total int) []int {
	if total < 6 {
		total = 6
	}
	a := total / 2
	b := (total - a) * 3 / 5
	c := total - a - b
	if b < 2 {
		b = 2
	}
	if c < 2 {
		c = 2
	}
	a = total - b - c
	return []int{a, b, c}
}

func register(d Def) {
	catalog[d.Name] = d
}

// Catalog returns the built-in scenario definitions sorted by name.
func Catalog() []Def {
	out := make([]Def, 0, len(catalog))
	for _, d := range catalog {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted names of the built-in scenarios.
func Names() []string {
	defs := Catalog()
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// Lookup returns the catalog entry with the given name.
func Lookup(name string) (Def, error) {
	d, ok := catalog[name]
	if !ok {
		return Def{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	return d, nil
}

func init() {
	register(Def{
		Name: "crash-restart",
		Description: "a tenth of the organization crashes mid-dissemination and " +
			"restarts cold two and a half seconds later, catching up through recovery",
		Build: func(top Topology) Scenario {
			n := top.Total()
			k := max(1, n/10)
			return Scenario{
				Blocks:        10,
				BlockInterval: 300 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          30 * time.Second,
				Events: []Event{
					{At: 1500 * time.Millisecond, Action: CrashPeers{Peers: span(1, 1+k)}},
					{At: 4 * time.Second, Action: RestartAll{}},
				},
			}
		},
	})
	register(Def{
		Name: "leader-failover",
		Description: "the leader peer crashes mid-run, the ordering service fails " +
			"over to the next live peer, and the old leader later rejoins and catches up",
		Build: func(top Topology) Scenario {
			return Scenario{
				Blocks:        10,
				BlockInterval: 400 * time.Millisecond,
				Warmup:        1500 * time.Millisecond,
				Tail:          30 * time.Second,
				Events: []Event{
					{At: 2500 * time.Millisecond, Action: CrashLeader{}},
					{At: 10 * time.Second, Action: RestartPeers{Peers: []int{0}}},
				},
			}
		},
	})
	register(Def{
		Name: "partition-heal",
		Description: "the network splits in half during dissemination; the minority " +
			"side misses blocks until the partition heals and recovery closes the gaps",
		Build: func(top Topology) Scenario {
			return Scenario{
				Blocks:        8,
				BlockInterval: 400 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          35 * time.Second,
				Events: []Event{
					{At: 1200 * time.Millisecond, Action: PartitionSplit{Split: top.Total() / 2}},
					{At: 6 * time.Second, Action: HealPartition{}},
				},
			}
		},
	})
	register(Def{
		Name: "churn",
		Description: "three consecutive crash/restart waves roll through the " +
			"organization while blocks keep flowing",
		Build: func(top Topology) Scenario {
			n := top.Total()
			k := max(1, n/20)
			waveA := span(1, 1+k)
			waveB := span(1+k, 1+2*k)
			waveC := span(1+2*k, 1+3*k)
			return Scenario{
				Blocks:        12,
				BlockInterval: 500 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          40 * time.Second,
				Events: []Event{
					{At: 2 * time.Second, Action: CrashPeers{Peers: waveA}},
					{At: 4500 * time.Millisecond, Action: RestartPeers{Peers: waveA}},
					{At: 4500 * time.Millisecond, Action: CrashPeers{Peers: waveB}},
					{At: 7 * time.Second, Action: RestartPeers{Peers: waveB}},
					{At: 7 * time.Second, Action: CrashPeers{Peers: waveC}},
					{At: 9500 * time.Millisecond, Action: RestartPeers{Peers: waveC}},
				},
			}
		},
	})
	register(Def{
		Name: "slow-links",
		Description: "a tenth of the peers turn into stragglers (+30ms on every " +
			"link) mid-run, then return to normal",
		Build: func(top Topology) Scenario {
			n := top.Total()
			slow := span(n-max(1, n/10), n)
			return Scenario{
				Blocks:        10,
				BlockInterval: 300 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          20 * time.Second,
				Events: []Event{
					{At: time.Second, Action: SlowPeers{Peers: slow, Extra: 30 * time.Millisecond}},
					{At: 8 * time.Second, Action: SlowPeers{Peers: slow}},
				},
			}
		},
	})
	register(Def{
		Name: "staggered-join",
		Description: "half the organization (a second org joining the channel) " +
			"starts offline and joins in two staggered waves, each catching up from zero",
		Build: func(top Topology) Scenario {
			n := top.Total()
			lo := n / 2
			mid := lo + (n-lo)/2
			return Scenario{
				Blocks:        8,
				BlockInterval: 500 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          40 * time.Second,
				InitialDown:   span(lo, n),
				Events: []Event{
					{At: 3 * time.Second, Action: RestartPeers{Peers: span(lo, mid)}},
					{At: 6 * time.Second, Action: RestartPeers{Peers: span(mid, n)}},
				},
			}
		},
	})
	register(Def{
		Name: "flaky-network",
		Description: "15% uniform packet loss throughout dissemination; the " +
			"epidemic's redundancy and recovery must still deliver everything",
		Build: func(top Topology) Scenario {
			return Scenario{
				Blocks:        10,
				BlockInterval: 400 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          30 * time.Second,
				Events: []Event{
					{At: 500 * time.Millisecond, Action: PacketLoss{Rate: 0.15}},
					{At: 12 * time.Second, Action: PacketLoss{}},
				},
			}
		},
	})

	// --- multi-organization entries (the paper's Fig. 1 deployment shape) ---

	register(Def{
		Name: "org-partition-heal",
		Description: "an entire organization is cut off from the ordering service " +
			"and every other org mid-dissemination; after the heal the orderer " +
			"re-streams the backlog and intra-org gossip closes the gaps",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			victim := top.Orgs() - 1
			return Scenario{
				Blocks:        8,
				BlockInterval: 400 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          40 * time.Second,
				Events: []Event{
					{At: 1200 * time.Millisecond, Action: IsolateOrgs{Orgs: []int{victim}}},
					{At: 6 * time.Second, Action: HealPartition{}},
				},
			}
		},
	})
	register(Def{
		Name: "org-leader-failover",
		Description: "one organization's leader crashes mid-run while the other " +
			"orgs disseminate undisturbed; the deliver stream fails over within the " +
			"org and the cold-restarted ex-leader replays it from its own height",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			return Scenario{
				Blocks:        10,
				BlockInterval: 400 * time.Millisecond,
				Warmup:        1500 * time.Millisecond,
				Tail:          35 * time.Second,
				Events: []Event{
					{At: 2500 * time.Millisecond, Action: CrashOrgLeader{Org: 1}},
					{At: 10 * time.Second, Action: RestartOrg{Org: 1}},
				},
			}
		},
	})
	register(Def{
		Name: "org-cold-join",
		Description: "a whole organization starts offline and joins mid-run; its " +
			"peers catch up from block zero through the orderer's deliver stream " +
			"plus intra-org recovery (deep catch-up)",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			victim := top.Orgs() - 1
			return Scenario{
				Blocks:        12,
				BlockInterval: 300 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          45 * time.Second,
				InitialDown:   top.OrgSpan(victim),
				Events: []Event{
					{At: 4 * time.Second, Action: RestartOrg{Org: victim}},
				},
			}
		},
	})
	register(Def{
		Name: "org-outage-orderer-down",
		Description: "an entire organization crashes mid-dissemination, then the " +
			"ordering service itself dies; the org restarts cold with the orderer " +
			"still down and recovers every block through remote orgs' anchor peers " +
			"over WAN links (cross-org state transfer)",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			victim := top.Orgs() - 1
			return Scenario{
				Blocks:        10,
				BlockInterval: 300 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          45 * time.Second,
				// The whole point of the entry: the only way back for the
				// victim organization is the anchor-peer path, with realistic
				// inter-site latency on every cross-org hop.
				AnchorRecovery: true,
				WANDelay:       20 * time.Millisecond,
				Events: []Event{
					{At: 1500 * time.Millisecond, Action: CrashOrg{Org: victim}},
					{At: 5 * time.Second, Action: CrashOrderer{}},
					{At: 8 * time.Second, Action: RestartOrg{Org: victim}},
				},
			}
		},
	})
	register(Def{
		Name: "org-asym-consortium",
		Description: "an asymmetric consortium — one datacenter organization and " +
			"two much smaller branches; the smallest branch cold-joins mid-run and " +
			"must catch up from zero while the big org's epidemic dominates traffic",
		MinOrgs: 3,
		Sizes:   asymConsortiumSizes,
		Build: func(top Topology) Scenario {
			victim := top.Orgs() - 1 // the smallest branch
			return Scenario{
				Blocks:        10,
				BlockInterval: 300 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          40 * time.Second,
				InitialDown:   top.OrgSpan(victim),
				Events: []Event{
					{At: 4 * time.Second, Action: RestartOrg{Org: victim}},
				},
			}
		},
	})
	// --- dense-membership entries (SWIM piggyback / suspicion / shuffle) ---

	register(Def{
		Name: "org-view-convergence",
		Description: "a cold-started organization converges its membership views to " +
			"completeness under the SWIM extensions (piggybacked events + view " +
			"shuffling): with fixed heartbeat fan-out alone the thousand-peer view " +
			"stays a sparse sample and leader beliefs never settle",
		Build: func(top Topology) Scenario {
			return Scenario{
				Blocks:            6,
				BlockInterval:     500 * time.Millisecond,
				Warmup:            time.Second,
				Tail:              40 * time.Second,
				SwimMembership:    true,
				MeasureMembership: true,
			}
		},
	})
	register(Def{
		Name: "org-flapping-members",
		Description: "heavy packet loss starves the direct heartbeat sample while a " +
			"small group genuinely crashes and rejoins: suspicion + refutation must " +
			"keep lossy-but-live peers out of the dead state (no flapping) while " +
			"still declaring the real crash",
		Build: func(top Topology) Scenario {
			n := top.Total()
			k := max(1, n/50)
			victims := span(n-k, n)
			return Scenario{
				Blocks:            8,
				BlockInterval:     400 * time.Millisecond,
				Warmup:            time.Second,
				Tail:              40 * time.Second,
				SwimMembership:    true,
				MeasureMembership: true,
				Events: []Event{
					{At: time.Second, Action: PacketLoss{Rate: 0.25}},
					// The crash window must outlast detection (a probe
					// round to raise the suspicion plus the 10 s suspect
					// timeout to confirm it), or the restart's refutation
					// would clear every suspicion before a single death
					// was declared and the "real crash" leg of the
					// scenario would never exercise.
					{At: 8 * time.Second, Action: CrashPeers{Peers: victims}},
					{At: 22 * time.Second, Action: PacketLoss{}},
					{At: 30 * time.Second, Action: RestartPeers{Peers: victims}},
				},
			}
		},
	})

	register(Def{
		Name: "org-mixed-protocols",
		Description: "organizations alternate between the original and enhanced " +
			"protocols on the same channel under transient packet loss — the " +
			"per-org report compares both epidemics side by side",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			variants := make([]harness.Variant, top.Orgs())
			for o := range variants {
				if o%2 == 0 {
					variants[o] = harness.VariantOriginal
				} else {
					variants[o] = harness.VariantEnhanced
				}
			}
			return Scenario{
				Blocks:        10,
				BlockInterval: 300 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          35 * time.Second,
				OrgVariants:   variants,
				Events: []Event{
					{At: time.Second, Action: PacketLoss{Rate: 0.10}},
					{At: 8 * time.Second, Action: PacketLoss{}},
				},
			}
		},
	})

	// --- transaction workload entries (end-to-end execute-order-validate) ---

	register(Def{
		Name: "txload-steady",
		Description: "a steady Poisson transaction load drives the full " +
			"execute-order-validate pipeline fault-free: per-org clients endorse, " +
			"a real ordering service cuts blocks, every peer validates and " +
			"commits — the workload-plane baseline for throughput, conflict rate " +
			"and commit latency",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			return Scenario{
				Warmup: time.Second,
				Tail:   25 * time.Second,
				Workload: &workload.Config{
					ClientsPerOrg: 2,
					Rate:          5,
					Arrival:       workload.ArrivalPoisson,
					Keys:          64,
				},
				Events: []Event{
					{At: time.Second, Action: StartWorkload{}},
					{At: 6 * time.Second, Action: StopWorkload{}},
				},
			}
		},
	})
	register(Def{
		Name: "txload-hotkey-contention",
		Description: "a Zipf-skewed workload hammers a handful of hot keys: " +
			"colliding increments of the same key within a block window lose the " +
			"MVCC check and retry, so the conflict rate climbs far above the " +
			"uniform-keyspace baseline (the paper's §II-C invalidation path under " +
			"real contention)",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			return Scenario{
				Warmup: time.Second,
				Tail:   25 * time.Second,
				Workload: &workload.Config{
					ClientsPerOrg: 4,
					Rate:          10,
					Arrival:       workload.ArrivalFixed,
					Keys:          256,
					ZipfS:         1.5,
					RetryMax:      2,
					BatchTimeout:  500 * time.Millisecond,
				},
				Events: []Event{
					{At: time.Second, Action: StartWorkload{}},
					{At: 6 * time.Second, Action: StopWorkload{}},
				},
			}
		},
	})
	register(Def{
		Name: "txload-org-outage-under-load",
		Description: "an entire organization crashes while transactions keep " +
			"flowing: its clients' proposals fail (no live endorsers) until the " +
			"org restarts cold, catches up through the deliver stream and resumes " +
			"endorsing — in-flight transactions of the victim org resolve only " +
			"once its peers recommit the backlog",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			victim := top.Orgs() - 1
			return Scenario{
				Warmup: time.Second,
				Tail:   30 * time.Second,
				Workload: &workload.Config{
					ClientsPerOrg: 2,
					Rate:          5,
					Arrival:       workload.ArrivalPoisson,
					Keys:          64,
				},
				Events: []Event{
					{At: time.Second, Action: StartWorkload{}},
					{At: 2500 * time.Millisecond, Action: CrashOrg{Org: victim}},
					{At: 6 * time.Second, Action: RestartOrg{Org: victim}},
					{At: 9 * time.Second, Action: StopWorkload{}},
				},
			}
		},
	})
	register(Def{
		Name: "txload-leader-failover-under-load",
		Description: "organization 0's leader — also one of its endorsing " +
			"peers — crashes mid-load: the deliver stream fails over, the second " +
			"endorser keeps proposals flowing, and the restarted ex-leader " +
			"catches up while commits continue",
		Build: func(top Topology) Scenario {
			return Scenario{
				Warmup: time.Second,
				Tail:   30 * time.Second,
				Workload: &workload.Config{
					ClientsPerOrg:   2,
					Rate:            5,
					Arrival:         workload.ArrivalPoisson,
					Keys:            64,
					EndorsersPerOrg: 2,
				},
				Events: []Event{
					{At: time.Second, Action: StartWorkload{}},
					{At: 3 * time.Second, Action: CrashLeader{}},
					{At: 6 * time.Second, Action: RestartPeers{Peers: []int{0}}},
					{At: 8 * time.Second, Action: StopWorkload{}},
				},
			}
		},
	})
	register(Def{
		Name: "consenter-minority-loss",
		Description: "one of three ordering consenters crashes under a " +
			"steady transaction load: a minority loss keeps the Raft quorum, so " +
			"ordering continues (after an election if the victim led) and every " +
			"accepted transaction still resolves — submitted equals committed " +
			"plus conflicts with zero drift",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			return Scenario{
				Warmup:     time.Second,
				Tail:       30 * time.Second,
				Consenters: 3,
				Workload: &workload.Config{
					ClientsPerOrg: 2,
					Rate:          5,
					Arrival:       workload.ArrivalPoisson,
					Keys:          64,
				},
				Events: []Event{
					{At: time.Second, Action: StartWorkload{}},
					{At: 3 * time.Second, Action: CrashConsenter{Consenter: 2}},
					{At: 8 * time.Second, Action: StopWorkload{}},
				},
			}
		},
	})
	register(Def{
		Name: "consenter-majority-loss-and-heal",
		Description: "two of three ordering consenters crash mid-run: the " +
			"survivor cannot elect itself (no quorum), ordering halts and the " +
			"deliver gap grows until both victims restart and rejoin by log " +
			"replay — then the buffered backlog orders, streams, and every peer " +
			"catches up in full",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			return Scenario{
				Blocks:        10,
				BlockInterval: time.Second,
				Warmup:        time.Second,
				Tail:          40 * time.Second,
				Consenters:    3,
				Events: []Event{
					{At: 2500 * time.Millisecond, Action: CrashConsenter{Consenter: 1}},
					{At: 2600 * time.Millisecond, Action: CrashConsenter{Consenter: 2}},
					{At: 8 * time.Second, Action: RestartConsenter{Consenter: 1}},
					{At: 8100 * time.Millisecond, Action: RestartConsenter{Consenter: 2}},
				},
			}
		},
	})
	register(Def{
		Name: "consenter-wan-separated",
		Description: "the three consenters are spread across the " +
			"organizations' WAN sites; a partition isolates one consenter, the " +
			"remaining two keep (or re-establish) a WAN-crossing quorum and " +
			"ordering continues at inter-site latency until the heal reunites " +
			"the cluster",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			return Scenario{
				Blocks:          10,
				BlockInterval:   time.Second,
				Warmup:          time.Second,
				Tail:            35 * time.Second,
				Consenters:      3,
				ConsenterSpread: true,
				WANDelay:        20 * time.Millisecond,
				Events: []Event{
					{At: 3 * time.Second, Action: IsolateConsenters{Consenters: []int{2}}},
					{At: 8 * time.Second, Action: HealPartition{}},
				},
			}
		},
	})
	register(Def{
		Name: "consenter-election-under-txload",
		Description: "the ordering cluster's leader crashes under " +
			"transaction load with anchor recovery armed: the election closes " +
			"well inside the orderer-stall threshold, so it adds nothing to the " +
			"anchor-probe count (the nonzero floor is membership heartbeat " +
			"flap — a peer that transiently believes it leads was never a " +
			"deliver-stream target, so its stall clock reads expired; the " +
			"with/without-election comparison is pinned by test), and " +
			"in-flight transactions survive the leadership change with " +
			"accounting intact. The load runs to near the end of the run so " +
			"the election is the only ordering silence — a long post-workload " +
			"tail would itself trip the stall detector and muddy the probe " +
			"count",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			return Scenario{
				Warmup: time.Second,
				// 5s: enough post-workload room for the last block to reach
				// every peer (stragglers need a recovery cycle), but the
				// end-of-run ordering silence stays under the 5s
				// orderer-stall threshold, so the tail itself cannot fire
				// anchor probes.
				Tail:           5 * time.Second,
				Consenters:     3,
				AnchorRecovery: true,
				Workload: &workload.Config{
					ClientsPerOrg: 2,
					Rate:          5,
					Arrival:       workload.ArrivalPoisson,
					Keys:          64,
				},
				Events: []Event{
					{At: time.Second, Action: StartWorkload{}},
					{At: 4 * time.Second, Action: CrashConsenterLeader{}},
					{At: 26 * time.Second, Action: StopWorkload{}},
				},
			}
		},
	})

	// --- per-org shard entries. Each separates the organizations onto WAN
	// sites, which is what gives every organization its own shard engine:
	// the 25 ms inter-site latency floor becomes the conservative
	// lookahead, so shards run long windows between barriers instead of
	// thrashing on the LAN's 150 µs propagation floor. ---

	register(Def{
		Name: "sharded-crash-restart",
		Description: "the crash-restart fault script over a WAN, which shards " +
			"the engine: each WAN-separated organization runs on its own event loop, " +
			"synchronized in conservative lookahead windows, with a " +
			"deterministic, GOMAXPROCS-independent fingerprint — the 10k-peer " +
			"benchmark tier's crash workload",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			n := top.Total()
			k := max(1, n/10)
			return Scenario{
				Blocks:        10,
				BlockInterval: 300 * time.Millisecond,
				Warmup:        time.Second,
				Tail:          30 * time.Second,
				WANDelay:      25 * time.Millisecond,
				Events: []Event{
					{At: 1500 * time.Millisecond, Action: CrashPeers{Peers: span(1, 1+k)}},
					{At: 4 * time.Second, Action: RestartAll{}},
				},
			}
		},
	})
	register(Def{
		Name: "sharded-view-convergence",
		Description: "membership convergence under the SWIM extensions on the " +
			"per-org shards of a WAN topology: every organization's piggybacked events, " +
			"suspicion probes and view shuffles run shard-local, and the " +
			"convergence measurement samples at coordinator barriers — the " +
			"10k-peer benchmark tier's membership workload",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			return Scenario{
				Blocks:            6,
				BlockInterval:     500 * time.Millisecond,
				Warmup:            time.Second,
				Tail:              40 * time.Second,
				WANDelay:          25 * time.Millisecond,
				SwimMembership:    true,
				MeasureMembership: true,
			}
		},
	})
	register(Def{
		Name: "sharded-txload-aggregate",
		Description: "a thousand modeled clients per organization as one " +
			"aggregated per-org arrival process on per-org shards: the " +
			"open-loop Poisson superposition fires one timer per org at the " +
			"summed rate and attributes arrivals round-robin across a bounded " +
			"endpoint set — the client-pool scaling path of the 100k tier",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			return Scenario{
				Warmup:   time.Second,
				Tail:     25 * time.Second,
				WANDelay: 25 * time.Millisecond,
				Workload: &workload.Config{
					ClientsPerOrg:    1000,
					Rate:             0.05,
					Arrival:          workload.ArrivalPoisson,
					AggregateClients: true,
					Keys:             64,
				},
				Events: []Event{
					{At: time.Second, Action: StartWorkload{}},
					{At: 6 * time.Second, Action: StopWorkload{}},
				},
			}
		},
	})
	register(Def{
		Name: "sharded-txload-steady",
		Description: "the steady Poisson transaction workload over a WAN, on " +
			"per-org shards: clients and validation run on their organization's " +
			"shard, the ordering service on its own, and only endorsed " +
			"submissions and block deliveries cross shards — the full " +
			"execute-order-validate pipeline under parallel simulation",
		MinOrgs: 2,
		Build: func(top Topology) Scenario {
			return Scenario{
				Warmup:   time.Second,
				Tail:     25 * time.Second,
				WANDelay: 25 * time.Millisecond,
				Workload: &workload.Config{
					ClientsPerOrg: 2,
					Rate:          5,
					Arrival:       workload.ArrivalPoisson,
					Keys:          64,
				},
				Events: []Event{
					{At: time.Second, Action: StartWorkload{}},
					{At: 6 * time.Second, Action: StopWorkload{}},
				},
			}
		},
	})
}
