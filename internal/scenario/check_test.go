package scenario

import (
	"strings"
	"testing"
	"time"

	"fabricgossip/internal/crypto"
	"fabricgossip/internal/ledger"
	"fabricgossip/internal/raft"
)

// forge is a scripted action that feeds the runner's hooks one bad
// observation mid-run, as a broken protocol would.
type forge func(r *runner)

func (f forge) apply(r *runner) { f(r) }
func (forge) String() string    { return "forge" }

// commitForged has org's first peer that is behind its org's chain (behind)
// or level with it (!behind) commit, at its next height, a block no orderer
// cut. The block links to the org's chain unless prev is given.
func commitForged(r *runner, org int, behind bool, prev *crypto.Digest, mark byte) {
	oc := r.check.orgs[org]
	for _, i := range r.top.OrgSpan(org) {
		if h := r.check.height[i]; h < uint64(len(oc.hashes)) == behind {
			b := &ledger.Block{Num: h, DataHash: crypto.Digest{mark}}
			if prev != nil {
				b.PrevHash = *prev
			} else if h > 0 {
				b.PrevHash = oc.hashes[h-1]
			}
			r.check.commit(i, org, b)
			return
		}
	}
}

// Each case forges one observation that breaks one rule into a live run and
// asserts that Run fails naming that rule. Deleting the rule's check fails
// the case: nothing else catches the forgery, or another rule names it.
func TestRunFailsNamingTheBrokenRule(t *testing.T) {
	chain := Scenario{Blocks: 8, BlockInterval: 500 * time.Millisecond, Warmup: time.Second, Tail: 5 * time.Second}
	txload, err := Lookup("txload-steady")
	if err != nil {
		t.Fatal(err)
	}
	const mid, late = 2600 * time.Millisecond, 8 * time.Second
	for _, c := range []struct {
		name string
		sc   Scenario
		opt  Options
		at   time.Duration
		f    forge
		rule string // "" for a run that must pass
	}{
		{"control", chain, Options{Peers: 10}, mid, func(*runner) {}, ""},
		{"skipped height", chain, Options{Peers: 10, FlightRing: 8, FlightDir: t.TempDir()}, mid, func(r *runner) {
			r.check.commit(1, 0, &ledger.Block{Num: r.check.height[1] + 1})
		}, ruleHeight},
		{"second block at a height", chain, Options{Peers: 10}, mid, func(r *runner) {
			commitForged(r, 0, true, nil, 1)
		}, ruleBlock},
		{"PrevHash that does not link", chain, Options{Peers: 10}, late, func(r *runner) {
			commitForged(r, 0, false, &crypto.Digest{1}, 0)
		}, ruleLink},
		{"second org commits a different block", chain, Options{Peers: 10, Orgs: 2}, late, func(r *runner) {
			commitForged(r, 0, false, nil, 1)
			commitForged(r, 1, false, nil, 2)
		}, ruleAgree},
		{"second leader in a term", chain, Options{Peers: 10, Consenters: 3}, mid, func(r *runner) {
			term := uint64(0)
			for t := range r.check.leaders {
				term = max(term, t)
			}
			r.onConsenterState((r.check.leaders[term]+1)%3, raft.Leader, term)
		}, ruleLeader},
		{"double resolution", txload.Build(Uniform(2, 5)), Options{Peers: 10, Orgs: 2}, 4 * time.Second, func(r *runner) {
			w := r.plane.Stats()
			w.Committed++
			r.check.settle(&w)
		}, ruleBooks},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := c.sc
			sc.Name = c.name
			sc.Events = append(append([]Event(nil), sc.Events...), Event{At: c.at, Action: c.f})
			_, err := Run(sc, c.opt)
			if c.rule == "" && err != nil || c.rule != "" && (err == nil || !strings.Contains(err.Error(), `"`+c.rule+`"`)) {
				t.Fatalf("Run = %v, want an error naming rule %q", err, c.rule)
			}
			if c.opt.FlightRing > 0 && !strings.Contains(err.Error(), "flight dump: "+c.opt.FlightDir) {
				t.Fatalf("Run = %v, want the flight recorder's dump named", err)
			}
		})
	}
}
