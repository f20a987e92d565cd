package analysis

import (
	"fmt"
	"math"
)

// CarryingCapacity returns γ, the limit population of the push epidemic for
// a network of n peers with fan-out fout (appendix):
//
//	γ = n * (fout + W(-fout * e^{-fout})) / fout
//
// It equals n times the non-trivial fixpoint of s = 1 - e^{-fout*s}.
func CarryingCapacity(n int, fout int) (float64, error) {
	if n < 2 || fout < 1 {
		return 0, fmt.Errorf("analysis: invalid parameters n=%d fout=%d", n, fout)
	}
	f := float64(fout)
	w, err := LambertW0(-f * math.Exp(-f))
	if err != nil {
		return 0, err
	}
	return float64(n) * (f + w) / f, nil
}

// Psi returns the first rounds+1 values of the ψ recursion from the
// appendix: ψ(0) = 1, ψ(r+1) = n * (1 - (1-1/n)^(fout*ψ(r))). ψ(r) upper
// bounds E[X_r], the expected number of peers that receive at least one
// push digest by round r.
func Psi(n, fout, rounds int) []float64 {
	out := make([]float64, rounds+1)
	out[0] = 1
	nn := float64(n)
	base := 1 - 1/nn
	for r := 0; r < rounds; r++ {
		out[r+1] = nn * (1 - math.Pow(base, float64(fout)*out[r]))
	}
	return out
}

// ExpectedDigests returns m, the expected number of push digests (or direct
// pushes) transmitted during ttl rounds: m = fout * Σ_{i=0}^{ttl-1} ψ(i).
func ExpectedDigests(n, fout, ttl int) float64 {
	psi := Psi(n, fout, ttl)
	var sum float64
	for i := 0; i < ttl; i++ {
		sum += psi[i]
	}
	return float64(fout) * sum
}

// ImperfectProb returns pe, the (conservative) probability that at least
// one peer remains uninformed after ttl rounds of infect-upon-contagion
// push: pe <= n * (1 - 1/n)^m with m = ExpectedDigests. The bound is
// clamped to 1 (for very small TTL the raw union bound exceeds 1 and is
// vacuous).
func ImperfectProb(n, fout, ttl int) float64 {
	m := ExpectedDigests(n, fout, ttl)
	pe := float64(n) * math.Exp(m*math.Log1p(-1/float64(n)))
	if pe > 1 {
		return 1
	}
	return pe
}

// TTLFor returns the smallest TTL whose probability of imperfect
// dissemination is at most peTarget, for a network of n peers and fan-out
// fout. The scan is bounded; fan-outs >= 2 reach any practical target within
// it.
func TTLFor(n, fout int, peTarget float64) (int, error) {
	if n < 2 || fout < 1 || peTarget <= 0 || peTarget >= 1 {
		return 0, fmt.Errorf("analysis: invalid parameters n=%d fout=%d pe=%g", n, fout, peTarget)
	}
	const maxTTL = 10_000
	for ttl := 1; ttl <= maxTTL; ttl++ {
		if ImperfectProb(n, fout, ttl) <= peTarget {
			return ttl, nil
		}
	}
	return 0, fmt.Errorf("analysis: no TTL <= %d reaches pe <= %g for n=%d fout=%d", maxTTL, peTarget, n, fout)
}

// TTLTableEntry is one row of the lookup table peers consult to pick TTL
// (paper §IV: "TTL varies slowly with n; we can store a small number of TTL
// values for (n, pe) pairs in a lookup table").
type TTLTableEntry struct {
	N   int
	TTL int
	Pe  float64 // achieved pe at that TTL (<= target)
}

// TTLTable computes lookup-table rows for the given network sizes at a
// fixed fan-out and pe target.
func TTLTable(sizes []int, fout int, peTarget float64) ([]TTLTableEntry, error) {
	out := make([]TTLTableEntry, 0, len(sizes))
	for _, n := range sizes {
		ttl, err := TTLFor(n, fout, peTarget)
		if err != nil {
			return nil, err
		}
		out = append(out, TTLTableEntry{N: n, TTL: ttl, Pe: ImperfectProb(n, fout, ttl)})
	}
	return out, nil
}
