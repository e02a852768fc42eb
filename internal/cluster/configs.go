package cluster

import (
	"vrcluster/internal/memory"
	"vrcluster/internal/node"
)

// DefaultCPUThreshold is the maximum number of job slots a CPU is willing
// to take. The paper sets a CPU threshold "to balance the number of jobs in
// the cluster, and to set a reasonable queuing delay time" without
// publishing its value; 4 slots keeps round-robin queuing delay bounded
// while leaving memory as the binding resource, as the blocking analysis
// requires.
const DefaultCPUThreshold = 4

// Homogeneous builds an n-node cluster of identical workstations.
func Homogeneous(n int, proto node.Config) Config {
	nodes := make([]node.Config, n)
	for i := range nodes {
		nodes[i] = proto
		nodes[i].ID = i
	}
	return Config{Nodes: nodes}
}

// Cluster1 is the paper's first simulated cluster: 32 workstations of the
// workload-group-1 type (400 MHz Pentium II, 384 MB memory, 380 MB swap,
// 4 KB pages, 10 ms page fault service, 0.1 ms context switch, 10 Mbps
// Ethernet).
func Cluster1() Config {
	return Homogeneous(32, node.Config{
		CPUSpeedMHz:  400,
		CPUThreshold: DefaultCPUThreshold,
		Memory:       memory.Config{CapacityMB: 384},
	})
}

// Cluster2 is the paper's second simulated cluster: 32 workstations of the
// workload-group-2 type (233 MHz Pentium, 128 MB memory, 128 MB swap, same
// paging and network constants).
func Cluster2() Config {
	return Homogeneous(32, node.Config{
		CPUSpeedMHz:  233,
		CPUThreshold: DefaultCPUThreshold,
		Memory:       memory.Config{CapacityMB: 128},
	})
}

// Heterogeneous builds a cluster whose workstations vary in CPU speed and
// memory size, cycling through the provided prototypes. Job CPU demands
// are interpreted relative to refSpeedMHz (Section 2.3: a reserved
// workstation should be one with relatively large memory space).
func Heterogeneous(n int, protos []node.Config, refSpeedMHz float64) Config {
	nodes := make([]node.Config, n)
	for i := range nodes {
		nodes[i] = protos[i%len(protos)]
		nodes[i].ID = i
		nodes[i].RefSpeedMHz = refSpeedMHz
	}
	return Config{Nodes: nodes}
}
