package raft

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
	"fabricgossip/internal/transport"
	"fabricgossip/internal/wire"
)

// applyStream feeds a scripted apply stream straight into a Consenter's
// exactly-once window and returns what it delivers downstream.
func applyStream(t *testing.T, window int, stream []string) []string {
	t.Helper()
	engine := sim.NewEngine(1)
	net := transport.NewSimNetwork(engine, netmodel.Model{}, nil)
	ep := net.AddNode()
	node := New(DefaultConfig(ep.ID(), []wire.NodeID{ep.ID()}), ep, engine, engine.Rand("raft"))
	c := NewConsenter(node, engine)
	c.window = window
	var out []string
	c.OnCommit(func(data []byte) { out = append(out, string(data)) })
	for _, s := range stream {
		node.applyFn([]byte(s))
	}
	return out
}

// stringKeyed is the window as it was before it kept digests: a FIFO of
// retained payload copies. It is the reference the digest-keyed window must
// reproduce delivery for delivery.
func stringKeyed(window int, stream []string) []string {
	seen := map[string]bool{}
	var q, out []string
	for _, s := range stream {
		if seen[s] {
			continue
		}
		seen[s] = true
		q = append(q, s)
		if len(q) > window {
			delete(seen, q[0])
			q = q[1:]
		}
		out = append(out, s)
	}
	return out
}

// fill returns n distinct transaction payloads tagged with tag.
func fill(tag string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tx/%s/%d", tag, i)
	}
	return out
}

// ttc is a time-to-cut marker for block num, in the ordering service's
// entry layout (kind byte 2, then the block number): every consenter
// proposes the same bytes for the same block.
func ttc(num byte) string { return string([]byte{2, num}) }

func cat(parts ...[]string) []string { return slices.Concat(parts...) }

// The digest-keyed window suppresses exactly what the string-keyed one did:
// duplicates inside the 4 096-entry window, none past it, and repeated
// time-to-cut markers.
func TestDedupWindowDeliversEachPayloadOnce(t *testing.T) {
	a, b := "tx/a", "tx/b"
	cases := []struct {
		name   string
		window int
		stream []string
		want   []string
	}{
		{"duplicate inside the window", dedupWindow,
			[]string{a, b, a, b, a}, []string{a, b}},
		{"three consenters' time-to-cut markers", dedupWindow,
			[]string{ttc(1), a, ttc(1), ttc(1), b, ttc(2), ttc(2), ttc(1)},
			[]string{ttc(1), a, b, ttc(2)}},
		{"duplicate at the window's last slot", dedupWindow,
			cat([]string{a}, fill("f", dedupWindow-1), []string{a}),
			cat([]string{a}, fill("f", dedupWindow-1))},
		{"resubmission just past the window", dedupWindow,
			cat([]string{a}, fill("f", dedupWindow), []string{a}),
			cat([]string{a}, fill("f", dedupWindow), []string{a})},
		{"a suppressed copy does not refresh its slot", dedupWindow,
			cat([]string{a}, fill("f", 4000), []string{a}, fill("g", 96), []string{a}),
			cat([]string{a}, fill("f", 4000), fill("g", 96), []string{a})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if ref := stringKeyed(tc.window, tc.stream); !slices.Equal(ref, tc.want) {
				t.Fatalf("the table disagrees with the string-keyed window: %d delivered, want %d", len(ref), len(tc.want))
			}
			if got := applyStream(t, tc.window, tc.stream); !slices.Equal(got, tc.want) {
				t.Fatalf("delivered %d payloads, want %d (first %q)", len(got), len(tc.want), got[:min(len(got), 3)])
			}
		})
	}
}

// On random streams that revisit a small alphabet at every distance around
// the window's size, the digest-keyed window delivers exactly the sequence
// the string-keyed one does.
func TestDedupWindowMatchesStringKeyed(t *testing.T) {
	for _, window := range []int{1, 7, 64} {
		rng := rand.New(rand.NewSource(int64(window)))
		stream := make([]string, 20*window+100)
		for i := range stream {
			stream[i] = fmt.Sprintf("p%d", rng.Intn(2*window+3))
		}
		if got, want := applyStream(t, window, stream), stringKeyed(window, stream); !slices.Equal(got, want) {
			t.Fatalf("window %d: delivered %d payloads, the string-keyed window %d", window, len(got), len(want))
		}
	}
}
