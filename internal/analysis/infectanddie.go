package analysis

import (
	"math"

	"fabricgossip/internal/sim"
)

// InfectAndDieStats characterizes Fabric's stock push phase for a network
// of n peers and fan-out fout.
type InfectAndDieStats struct {
	MeanReached     float64 // peers informed at the end of the push phase
	StdDevReached   float64
	MeanTransmits   float64 // full-block transmissions per block
	ReachAllPercent float64 // fraction of trials where every peer was informed
}

// SimulateInfectAndDie Monte-Carlo estimates the reach of infect-and-die
// push: the source pushes to fout random peers; every peer infected for the
// first time pushes once to fout random peers (excluding itself) and then
// "dies". Blocks received again are not re-pushed.
func SimulateInfectAndDie(n, fout, trials int, rng *sim.Rand) InfectAndDieStats {
	var sum, sumSq, transmits float64
	reachedAll := 0
	infected := make([]bool, n)
	frontier := make([]int, 0, n)
	for trial := 0; trial < trials; trial++ {
		for i := range infected {
			infected[i] = false
		}
		frontier = frontier[:0]
		infected[0] = true
		frontier = append(frontier, 0)
		count := 1
		sends := 0
		for len(frontier) > 0 {
			p := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			targets := rng.SampleWithout(n, fout, map[int]bool{p: true})
			sends += fout
			for _, q := range targets {
				if !infected[q] {
					infected[q] = true
					count++
					frontier = append(frontier, q)
				}
			}
		}
		sum += float64(count)
		sumSq += float64(count) * float64(count)
		transmits += float64(sends)
		if count == n {
			reachedAll++
		}
	}
	mean := sum / float64(trials)
	variance := sumSq/float64(trials) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return InfectAndDieStats{
		MeanReached:     mean,
		StdDevReached:   math.Sqrt(variance),
		MeanTransmits:   transmits / float64(trials),
		ReachAllPercent: float64(reachedAll) / float64(trials),
	}
}
