package gossip

import (
	"fmt"
	"reflect"
	"testing"

	"fabricgossip/internal/sim"
)

// refHeldWindow is the per-number loop the stock protocol answered a pull
// hello with before Core.HeldRun: one HasBlock per number, from window
// below the height up to the first gap, then the probe-1 numbers above it.
func refHeldWindow(c *Core, window, probe uint64) []uint64 {
	height := c.Height()
	var lo uint64
	if window > 0 && height > window {
		lo = height - window
	}
	var nums []uint64
	for num := lo; ; num++ {
		if !c.HasBlock(num) {
			for extra := num + 1; extra < num+probe; extra++ {
				if c.HasBlock(extra) {
					nums = append(nums, extra)
				}
			}
			return nums
		}
		nums = append(nums, num)
	}
}

// refMissing is the per-number filter a pull digest's receiver ran.
func refMissing(c *Core, nums []uint64) []uint64 {
	var missing []uint64
	for _, num := range nums {
		if !c.HasBlock(num) {
			missing = append(missing, num)
		}
	}
	return missing
}

// seq returns the numbers [lo, hi) as a list.
func seq(lo, hi uint64) []uint64 {
	var nums []uint64
	for num := lo; num < hi; num++ {
		nums = append(nums, num)
	}
	return nums
}

// storeWith returns a core holding blocks [0, prefix) and prefix+off for
// each stray offset (off >= 1, so prefix stays the first gap).
func storeWith(t *testing.T, prefix uint64, strays ...uint64) *Core {
	t.Helper()
	c, _, _ := newTestCore(t, 0, 4, nil)
	for _, off := range strays {
		c.AddBlock(blockN(prefix + off)) // out of order first
	}
	for num := uint64(0); num < prefix; num++ {
		c.AddBlock(blockN(num))
	}
	if c.Height() != prefix {
		t.Fatalf("height = %d, want %d", c.Height(), prefix)
	}
	return c
}

func checkStoreReads(t *testing.T, name string, c *Core) {
	t.Helper()
	height := c.Height()
	for _, window := range []uint64{0, 1, 16, 100, height, height + 1} {
		for _, probe := range []uint64{64, 0, 1, 2, 200} {
			want := refHeldWindow(c, window, probe)
			lo, gap, strays := c.HeldRun(window, probe)
			got := append(seq(lo, gap), strays...)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: HeldRun(%d, %d) = [%d, %d) + %v, want %v", name, window, probe, lo, gap, strays, want)
			}
			if cap(strays) != len(strays) || (len(strays) == 0 && strays != nil) {
				t.Fatalf("%s: HeldRun(%d, %d) sized its strays %d for %d numbers (nil %v)", name, window, probe, cap(strays), len(strays), strays == nil)
			}
		}
	}
	var hi uint64
	if c.hasAny {
		hi = c.highest
	}
	asked := [][]uint64{nil, {0}, {hi}, {hi + 1, hi + 70}, {hi + 70, 0, hi}} // any order, beyond the store
	var all []uint64
	for num := uint64(0); num <= hi+3; num++ {
		all = append(all, num)
	}
	for _, nums := range append(asked, all) {
		want := refMissing(c, nums)
		got := c.MissingIn(0, 0, nums)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: MissingIn(0, 0, %v) = %v, want %v", name, nums, got, want)
		}
	}
	// A digest's run: each [lo, end) on a grid around the height and the top, alone and with the
	// asked numbers as its strays.
	for _, lo := range []uint64{0, height / 2, height, hi + 1} {
		for _, end := range []uint64{lo, lo + 1, height + 1, hi + 70} {
			if end < lo {
				continue
			}
			for _, strays := range [][]uint64{nil, asked[4]} {
				want := refMissing(c, append(seq(lo, end), strays...))
				got := c.MissingIn(lo, end, strays)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s: MissingIn(%d, %d, %v) = %v, want %v", name, lo, end, strays, got, want)
				}
			}
		}
	}
}

// TestStoreRangeReadsMatchPerNumberLoops: the two one-lock range reads equal
// the HasBlock loops they replaced, on the shapes a store takes — empty, an
// in-order prefix, a gap with strays at the probe's edges (+1, +63 inside,
// +64 outside), and random ones.
func TestStoreRangeReadsMatchPerNumberLoops(t *testing.T) {
	shapes := []struct {
		prefix uint64
		strays []uint64
	}{
		{0, nil},
		{0, []uint64{1}},
		{0, []uint64{63, 64}},
		{1, nil},
		{150, nil},
		{150, []uint64{1}},
		{150, []uint64{63}},
		{150, []uint64{64}},
		{150, []uint64{1, 2, 62, 63, 64, 65, 300}},
		{99, []uint64{5}},
		{100, []uint64{5}},
		{101, []uint64{5}},
	}
	for _, s := range shapes {
		checkStoreReads(t, fmt.Sprintf("prefix %d strays %v", s.prefix, s.strays), storeWith(t, s.prefix, s.strays...))
	}
	rng := sim.NewRand(3)
	for i := 0; i < 200; i++ {
		prefix := uint64(rng.Intn(260))
		var strays []uint64
		for off := uint64(1); off < 140; off++ {
			if rng.Intn(4) == 0 {
				strays = append(strays, off)
			}
		}
		checkStoreReads(t, fmt.Sprintf("random %d", i), storeWith(t, prefix, strays...))
	}
}
