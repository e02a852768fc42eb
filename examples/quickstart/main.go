// Quickstart: build a small cluster, generate a workload trace, and run it
// under dynamic load sharing with virtual reconfiguration — the minimal
// tour of the public simulation API.
package main

import (
	"fmt"
	"log"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/memory"
	"vrcluster/internal/node"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// An 8-workstation cluster: 233 MHz CPUs with 128 MB memory each,
	// up to 4 job slots per workstation (the paper's cluster 2 type,
	// scaled down).
	cfg := cluster.Homogeneous(8, node.Config{
		CPUSpeedMHz:  233,
		CPUThreshold: 4,
		Memory:       memory.Config{CapacityMB: 128},
	})
	cfg.Quantum = 10 * time.Millisecond

	// The scheduling policy: G-Loadsharing extended with adaptive and
	// virtual reconfiguration (the paper's contribution).
	sched, err := core.NewVReconfiguration(core.Options{Rule: core.RuleFullDrain})
	if err != nil {
		return err
	}
	c, err := cluster.New(cfg, sched)
	if err != nil {
		return err
	}

	// A 10-minute lognormal submission stream of 60 jobs drawn from the
	// group-2 application programs (Table 2).
	tr, err := trace.Generate(trace.Config{
		Name:     "quickstart",
		Group:    workload.Group2,
		Sigma:    2.0,
		Mu:       2.0,
		Jobs:     60,
		Duration: 10 * time.Minute,
		Nodes:    8,
		Seed:     7,
		Jitter:   workload.DefaultJitter,
	})
	if err != nil {
		return err
	}

	res, err := c.Run(tr)
	if err != nil {
		return err
	}

	fmt.Printf("ran %d jobs under %s\n", res.Jobs, res.Policy)
	fmt.Printf(" total execution time: %.1fs (cpu %.1fs, paging %.1fs, queuing %.1fs, migration %.1fs)\n",
		res.TotalExec.Seconds(), res.TotalCPU.Seconds(), res.TotalPage.Seconds(),
		res.TotalQueue.Seconds(), res.TotalMig.Seconds())
	fmt.Printf(" mean slowdown: %.2f (max %.2f)\n", res.MeanSlowdown, res.MaxSlowdown)
	fmt.Printf(" makespan: %v\n", res.Makespan.Round(time.Second))
	fmt.Printf(" reservations: %d, jobs served by reserved workstations: %d\n",
		res.Reservations, res.ReservedMigration)
	fmt.Printf(" reconfiguration activity: %+v\n", sched.Manager().Stats())
	return nil
}
