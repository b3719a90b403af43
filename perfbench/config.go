package main

import (
	"time"

	"repro/hurricane/q"
	"repro/internal/core"
	"repro/internal/sched"
)

// Deployment settings, copied from the hurricane-run mode each workload
// mirrors and kept in this one place. None of the knobs the engine plans
// to delete (PollInterval, Disable*, HURRICANE_NO*) is set, so those
// deletions cannot change what the benchmark runs.
const (
	computeNodes = 4
	slotsPerNode = 2
	storageNodes = 4
	chunkSize    = 256 << 10 // hurricane-run's bag.Config.ChunkSize
	parts        = 4         // hurricane-run -parts default
	sketchEvery  = 512
	pollEvery    = 256
)

// nodeConfig is the compute-node tuning every hurricane-run mode uses.
func nodeConfig() core.NodeConfig {
	return core.NodeConfig{MonitorInterval: 25 * time.Millisecond, OverloadThreshold: 0.5}
}

// skewMaster is the master of the query and stream modes
// (cmd/hurricane-run/query.go and stream.go).
func skewMaster() core.MasterConfig {
	return core.MasterConfig{
		CloneInterval:   50 * time.Millisecond,
		SplitInterval:   20 * time.Millisecond,
		SplitImbalance:  1.5,
		SplitMinRecords: 4096,
		SplitFan:        4,
	}
}

// queryCluster is cmd/hurricane-run/query.go's cluster.
func queryCluster() core.ClusterConfig {
	return core.ClusterConfig{
		ComputeNodes: computeNodes, SlotsPerNode: slotsPerNode,
		Master: skewMaster(), Node: nodeConfig(),
	}
}

// queryOptions is query.go's compile options; stats are the caller's.
func queryOptions(stats *q.Stats) q.Options {
	return q.Options{Parts: parts, SketchEvery: sketchEvery, PollEvery: pollEvery, Stats: stats}
}

// serveCluster is cmd/hurricane-run/serve.go's scheduler service.
func serveCluster() core.ClusterConfig {
	return core.ClusterConfig{
		ComputeNodes: computeNodes, SlotsPerNode: slotsPerNode,
		Master: core.MasterConfig{
			CloneInterval: 50 * time.Millisecond,
			SplitInterval: 20 * time.Millisecond,
		},
		Node:  nodeConfig(),
		Sched: sched.Config{Interval: 10 * time.Millisecond},
	}
}

// streamCluster is cmd/hurricane-run/stream.go's cluster; its master
// settings travel per window in the stream spec (skewMaster).
func streamCluster() core.ClusterConfig {
	return core.ClusterConfig{ComputeNodes: computeNodes, SlotsPerNode: slotsPerNode, Node: nodeConfig()}
}
