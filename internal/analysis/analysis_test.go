package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"fabricgossip/internal/sim"
)

func TestLambertW0KnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0},
		{math.E, 1},                  // W(e) = 1
		{2 * math.E * math.E, 2},     // W(2e^2) = 2
		{-1 / math.E, -1},            // branch point
		{1, 0.5671432904097838},      // Ω constant
		{-0.25, -0.3574029561813889}, // negative domain
	}
	for _, c := range cases {
		got, err := LambertW0(c.x)
		if err != nil {
			t.Fatalf("LambertW0(%g): %v", c.x, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("LambertW0(%g) = %.12f, want %.12f", c.x, got, c.want)
		}
	}
}

func TestLambertW0Domain(t *testing.T) {
	if _, err := LambertW0(-1); err == nil {
		t.Fatal("x < -1/e accepted")
	}
}

// Property: w*e^w = x for any x in the domain.
func TestPropertyLambertWInverse(t *testing.T) {
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 100) // [0, 100)
		w, err := LambertW0(x)
		if err != nil {
			return false
		}
		return math.Abs(w*math.Exp(w)-x) < 1e-8*(1+x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCarryingCapacityMatchesFixpoint(t *testing.T) {
	// γ/n must satisfy s = 1 - e^{-fout*s}.
	for _, fout := range []int{2, 3, 4, 5} {
		g, err := CarryingCapacity(100, fout)
		if err != nil {
			t.Fatal(err)
		}
		s := g / 100
		if math.Abs(s-(1-math.Exp(-float64(fout)*s))) > 1e-9 {
			t.Errorf("fout=%d: s=%g is not a fixpoint", fout, s)
		}
	}
	// Paper's implicit values: ~94% for fout=3, ~98% for fout=4.
	g3, _ := CarryingCapacity(100, 3)
	if g3 < 93.5 || g3 > 94.5 {
		t.Errorf("γ(100, 3) = %g, want ≈ 94", g3)
	}
	g4, _ := CarryingCapacity(100, 4)
	if g4 < 97.5 || g4 > 98.5 {
		t.Errorf("γ(100, 4) = %g, want ≈ 98", g4)
	}
}

func TestCarryingCapacityInvalidParams(t *testing.T) {
	if _, err := CarryingCapacity(1, 3); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := CarryingCapacity(100, 0); err == nil {
		t.Error("fout=0 accepted")
	}
}

func TestPsiRecursion(t *testing.T) {
	psi := Psi(100, 4, 10)
	if psi[0] != 1 {
		t.Fatalf("ψ(0) = %g, want 1", psi[0])
	}
	// Monotonically increasing, bounded by n.
	for i := 1; i < len(psi); i++ {
		if psi[i] <= psi[i-1] {
			t.Fatalf("ψ not increasing at %d: %v", i, psi)
		}
		if psi[i] > 100 {
			t.Fatalf("ψ(%d) = %g exceeds n", i, psi[i])
		}
	}
	// Converges towards the carrying capacity.
	g, _ := CarryingCapacity(100, 4)
	if math.Abs(psi[10]-g) > 1.0 {
		t.Fatalf("ψ(10) = %g, want ≈ γ = %g", psi[10], g)
	}
}

// The headline parameter claims of §IV: pe(100, fout=4, TTL=9) ≈ 10^-6,
// pe(100, fout=2, TTL=19) ≈ 10^-6, and pe(100, fout=4, TTL=12) ≈ 10^-12.
func TestPaperTTLConfigurations(t *testing.T) {
	ttl4, err := TTLFor(100, 4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if ttl4 != 9 {
		t.Errorf("TTLFor(100, 4, 1e-6) = %d, want 9", ttl4)
	}
	// The paper reports TTL = 19 for fout = 2; our ψ-recursion bound is
	// slightly tighter and certifies pe <= 1e-6 already at 18 (the paper
	// notes its own analysis is conservative). Running with the paper's
	// 19 only lowers pe further; the experiment configs use 19.
	ttl2, err := TTLFor(100, 2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if ttl2 != 18 {
		t.Errorf("TTLFor(100, 2, 1e-6) = %d, want 18 (paper: 19, looser bound)", ttl2)
	}
	if pe19 := ImperfectProb(100, 2, 19); pe19 > 1e-6 {
		t.Errorf("pe at the paper's TTL=19 = %g, must also satisfy the target", pe19)
	}
	ttl12, err := TTLFor(100, 4, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ttl12 != 12 {
		t.Errorf("TTLFor(100, 4, 1e-12) = %d, want 12", ttl12)
	}
	// fout = floor(ln 100) = 4, as the paper sets it.
	if got := int(math.Log(100)); got != 4 {
		t.Errorf("floor(ln 100) = %d", got)
	}
}

func TestImperfectProbDecreasesWithTTL(t *testing.T) {
	prev := math.Inf(1)
	for ttl := 1; ttl <= 15; ttl++ {
		pe := ImperfectProb(100, 4, ttl)
		if pe > prev {
			t.Fatalf("pe not non-increasing at TTL=%d: %g > %g", ttl, pe, prev)
		}
		if pe > 1 {
			t.Fatalf("pe = %g exceeds 1 (must be clamped)", pe)
		}
		prev = pe
	}
	if ImperfectProb(100, 4, 15) >= ImperfectProb(100, 4, 5) {
		t.Fatal("pe not strictly decreasing over the useful range")
	}
}

func TestTTLForInvalidParams(t *testing.T) {
	for _, c := range []struct {
		n, fout int
		pe      float64
	}{{1, 4, 1e-6}, {100, 0, 1e-6}, {100, 4, 0}, {100, 4, 1.5}} {
		if _, err := TTLFor(c.n, c.fout, c.pe); err == nil {
			t.Errorf("TTLFor(%d, %d, %g) accepted", c.n, c.fout, c.pe)
		}
	}
}

func TestTTLTableAndLookup(t *testing.T) {
	table, err := TTLTable([]int{50, 100, 200, 500, 1000}, 4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// TTL varies slowly with n (paper §IV).
	for i := 1; i < len(table); i++ {
		if table[i].TTL < table[i-1].TTL {
			t.Fatalf("TTL not monotone in n: %+v", table)
		}
		if table[i].TTL > table[i-1].TTL+3 {
			t.Fatalf("TTL grows too fast with n: %+v", table)
		}
	}
	for _, e := range table {
		if e.Pe > 1e-6 {
			t.Fatalf("table entry %+v misses pe target", e)
		}
	}
}

// §IV claim: infect-and-die with n=100, fout=3 reaches on average 94 peers
// with standard deviation 2.6, transmitting each block 282 times.
func TestInfectAndDieMatchesPaper(t *testing.T) {
	rng := sim.NewRand(123)
	st := SimulateInfectAndDie(100, 3, 4000, rng)
	if st.MeanReached < 93 || st.MeanReached > 95 {
		t.Errorf("mean reached = %.2f, want ≈ 94", st.MeanReached)
	}
	if st.StdDevReached < 1.8 || st.StdDevReached > 3.4 {
		t.Errorf("std dev = %.2f, want ≈ 2.6", st.StdDevReached)
	}
	if st.MeanTransmits < 276 || st.MeanTransmits > 288 {
		t.Errorf("transmissions = %.1f, want ≈ 282", st.MeanTransmits)
	}
	// Reaching all 100 peers must be rare — that is the paper's whole
	// point about needing pull as a safety net.
	if st.ReachAllPercent > 0.2 {
		t.Errorf("reach-all fraction = %.3f, expected rare", st.ReachAllPercent)
	}
}
