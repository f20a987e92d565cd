// Compare: run the original and enhanced gossip protocols side by side on
// the same workload and print the paper's headline comparison — tail
// latency and bandwidth (paper §V-C: ">10x faster to reach all peers, >40%
// less bandwidth").
//
//	go run ./examples/compare
package main

import (
	"fmt"
	"log"

	"fabricgossip/internal/harness"
	"fabricgossip/internal/metrics"
)

func main() {
	const seed = 7
	// 60 peers x 120 blocks keeps the example under ~10 s of wall time;
	// cmd/figures regenerates the full 100x1000 runs.
	origP := harness.QuickScale(harness.DefaultParams(harness.VariantOriginal, seed), 60, 120)
	enhP := harness.QuickScale(harness.DefaultParams(harness.VariantEnhanced, seed), 60, 120)

	orig, err := harness.RunDissemination(origP)
	if err != nil {
		log.Fatal(err)
	}
	enh, err := harness.RunDissemination(enhP)
	if err != nil {
		log.Fatal(err)
	}

	oAll, eAll := orig.Latencies.All(), enh.Latencies.All()
	fmt.Println("dissemination latency across all peers and blocks:")
	fmt.Printf("  original: %v\n", metrics.Summarize(oAll))
	fmt.Printf("  enhanced: %v\n", metrics.Summarize(eAll))
	o99, e99 := oAll.Quantile(0.999), eAll.Quantile(0.999)
	fmt.Printf("  p99.9 tail: original %v vs enhanced %v (%.1fx faster)\n",
		o99, e99, float64(o99)/float64(e99))
	fmt.Printf("  worst case: original %v vs enhanced %v (%.1fx faster)\n\n",
		oAll.Max(), eAll.Max(), float64(oAll.Max())/float64(eAll.Max()))

	fmt.Println(harness.CompareBandwidth(orig, enh))

	// The example's claim, checked: CI runs it.
	if e99 >= o99 {
		log.Fatalf("enhanced p99.9 tail %v is not below the original's %v", e99, o99)
	}
}
