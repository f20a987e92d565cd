// Package fabricgossip reproduces "Fair and Efficient Gossip in Hyperledger
// Fabric" (Berendea, Mercier, Onica, Rivière — IEEE ICDCS 2020): the stock
// Fabric gossip layer, the paper's enhanced infect-upon-contagion protocol,
// and the full execute-order-validate substrate needed to regenerate every
// figure and table of the paper's evaluation.
//
// The implementation lives under internal/:
//
//   - internal/gossip (+ original, enhanced) — the dissemination protocols;
//   - internal/analysis — the appendix mathematics (Lambert-W, TTL tables);
//   - internal/sim, netmodel, transport, wire — the deterministic
//     discrete-event network substrate and a live TCP runtime;
//   - internal/ledger, chaincode, endorse, order, raft, peer, client — the
//     Fabric EOV pipeline;
//   - internal/harness — the experiment runners behind cmd/figures.
//
// Beyond the paper, internal/scenario scripts deterministic fault and churn
// experiments — crashes, restarts with catch-up, partitions, leader
// failover, slow links, staggered joins — against both protocols at up to
// thousands of peers (cmd/scenarios runs the built-in catalog).
//
// Entry points: cmd/figures regenerates the paper's artifacts (-exp
// analytics prints the protocol-parameter tables), cmd/gossipnet runs a
// live TCP demo, cmd/scenarios runs the fault-scenario catalog, and
// examples/ holds four self-checking walkthroughs. bench_test.go benchmarks
// one workload per figure/table plus the scenario engine. See README.md for
// the full paper mapping and usage guide.
package fabricgossip
