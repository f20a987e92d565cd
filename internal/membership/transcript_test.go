package membership

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"fabricgossip/internal/sim"
	"fabricgossip/internal/wire"
)

// TestViewTranscriptPinned is a characterisation test: it drives 48 views
// through a scripted life (staggered joins, lossy delivery, five members
// going silent, two of them coming back at a bumped incarnation) using only
// the exported API and hashes everything a view says or decides — every
// message it sends (marshalled, with sender and destination), every
// OnTransition call, every Observe and Sweep result, and each view's final
// Live, Leader and Stats. The hashes were recorded before the view's storage
// was replaced by the member-record layout, so they pin the protocol — what
// is sent, to whom, in what order, with which random draws — independently
// of how the view stores it. The catalog goldens do the same only at 20
// peers, and `-check` proves determinism, not equality with a parent commit.
//
// A change that moves one of these hashes changed the protocol. If that was
// the point, re-record them deliberately; if not, the storage is wrong.
func TestViewTranscriptPinned(t *testing.T) {
	swim := Config{
		// runner.tuneGossip's SWIM tuning.
		Expiration:      5 * time.Second,
		SuspectTimeout:  10 * time.Second,
		PiggybackMax:    32,
		PiggybackBudget: 4,
		ShuffleInterval: 2 * time.Second,
		ShuffleSample:   256,
	}
	// The same protocol squeezed until the bounded paths run all the time:
	// the queue overflows (head eviction), digests and samples are a
	// fraction of the view, so the sample cursor wraps mid-payload.
	tight := swim
	tight.PiggybackMax = 4
	tight.PiggybackBudget = 3
	tight.ShuffleSample = 12
	tight.QueueCap = 16
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"swim", swim, "91fcd96341eb8ab261cf67e2febaba228e05ce35cec1d4869f0f96d831dcb495"},
		{"swim-tight-queue", tight, "b670b8fae0c9b18e763bbbf1d4852e15430036527d0f905f0a5d16b7af884b49"},
		{"legacy", Config{Expiration: 5 * time.Second}, "a896cf0a0381356a790ac8b7a9fccb059313e7e35955788f589227ab380d9785"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := runTranscript(tc.cfg); got != tc.want {
				t.Fatalf("transcript hash = %s, want %s", got, tc.want)
			}
		})
	}
}

// transcriptHost is one view's peer in the transcript: sends go onto the
// shared FIFO router.
type transcriptHost struct {
	id  wire.NodeID
	rng *sim.Rand
	net *transcriptNet
}

func (h *transcriptHost) Send(to wire.NodeID, msg wire.Message) {
	h.net.record('M', uint64(h.id), uint64(to))
	h.net.hash.Write(wire.Marshal(msg))
	h.net.queue = append(h.net.queue, transcriptMsg{from: h.id, to: to, msg: msg})
}

func (h *transcriptHost) Rand() *sim.Rand { return h.rng }

type transcriptMsg struct {
	from, to wire.NodeID
	msg      wire.Message
}

// transcriptNet is the in-test router and the running hash.
type transcriptNet struct {
	hash  hash.Hash
	queue []transcriptMsg
}

// record hashes one tagged tuple of integers.
func (n *transcriptNet) record(tag byte, vals ...uint64) {
	buf := make([]byte, 1, 1+8*len(vals))
	buf[0] = tag
	for _, v := range vals {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	n.hash.Write(buf)
}

func (n *transcriptNet) recordIDs(tag byte, owner wire.NodeID, ids []wire.NodeID) {
	vals := make([]uint64, 0, 2+len(ids))
	vals = append(vals, uint64(owner), uint64(len(ids)))
	for _, id := range ids {
		vals = append(vals, uint64(id))
	}
	n.record(tag, vals...)
}

func runTranscript(base Config) string {
	const (
		members   = 48
		rounds    = 200
		silenceAt = 60
		reviveAt  = 120
		fanout    = 3 // heartbeats per alive tick
		chatter   = 2 // other gossip sends per round (piggyback carriers)
	)
	h := sha256.New()
	net := &transcriptNet{hash: h}
	driver := sim.NewRand(7) // heartbeat targets and the 10 % drop

	id := func(i int) wire.NodeID { return wire.NodeID(3*i + 1) } // ranks != ids
	idx := func(p wire.NodeID) int { return (int(p) - 1) / 3 }
	views := make([]*View, members)
	seqs := make([]uint64, members)
	silent := make([]bool, members)
	for i := range views {
		cfg := base
		cfg.Self = id(i)
		host := &transcriptHost{id: id(i), rng: sim.NewRand(int64(100 + i)), net: net}
		v := New(cfg, host)
		self := id(i)
		v.OnTransition(func(p wire.NodeID, alive bool) {
			a := uint64(0)
			if alive {
				a = 1
			}
			net.record('T', uint64(self), uint64(p), a)
		})
		views[i] = v
	}
	silenced := []int{2, 11, 23, 30, 47}
	revived := []int{11, 30}

	// other draws a member index different from i.
	other := func(i int) int {
		j := driver.Intn(members - 1)
		if j >= i {
			j++
		}
		return j
	}
	refute := func(i int) {
		if views[i].TakeAccusation() {
			seqs[i]++
			views[i].QueueSelfAlive(seqs[i])
			net.record('R', uint64(id(i)), seqs[i])
		}
	}
	deliver := func(now time.Duration) {
		for len(net.queue) > 0 {
			m := net.queue[0]
			net.queue = net.queue[1:]
			to := idx(m.to)
			if driver.Intn(10) == 0 || silent[to] {
				continue
			}
			views[to].Handle(m.from, m.msg, now)
			refute(to)
		}
	}

	for round := 0; round < rounds; round++ {
		now := time.Duration(round) * time.Second
		if round == silenceAt {
			for _, i := range silenced {
				silent[i] = true
			}
		}
		if round == reviveAt {
			for _, i := range revived {
				silent[i] = false
				seqs[i] += 10 // a restarted incarnation
				views[i].QueueSelfAlive(seqs[i])
			}
		}
		for i, v := range views {
			if silent[i] || round < i/4 { // four members join per round
				continue
			}
			if round%2 == i%2 { // the alive tick
				seqs[i]++
				v.NoteSelfSeq(seqs[i])
				net.recordIDs('S', id(i), v.Sweep(now))
				for k := 0; k < fanout; k++ {
					j := other(i)
					v.PiggybackOnto(id(j))
					if silent[j] || driver.Intn(10) == 0 {
						continue
					}
					became := uint64(0)
					if views[j].Observe(id(i), seqs[i], now) {
						became = 1
					}
					net.record('O', uint64(id(j)), uint64(id(i)), became)
				}
			} else {
				v.ShuffleTick(now)
			}
			for k := 0; k < chatter; k++ {
				v.PiggybackOnto(id(other(i)))
			}
		}
		deliver(now)
	}

	end := time.Duration(rounds) * time.Second
	for i, v := range views {
		net.recordIDs('L', id(i), v.Live(end))
		s := v.Stats()
		net.record('F', uint64(id(i)), uint64(v.Leader(end)),
			uint64(s.Known), uint64(s.Live), uint64(s.Suspects), uint64(s.Dead), uint64(s.Queued),
			s.EventsQueued, s.EventsSent, s.EventsApplied, s.Refutations, s.DeadDeclared)
	}
	return hex.EncodeToString(h.Sum(nil))
}
