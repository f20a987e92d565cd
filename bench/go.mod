module fabricgossip/bench

go 1.22

require fabricgossip v0.0.0

replace fabricgossip => ../
