package cluster

// UseDenseTicks replaces c's quantum clock with the dense-tick reference
// oracle: at every quantum boundary every workstation, idle or not, folds
// that one quantum, with no idle-tick elision and no batching. A one-quantum
// Fold is exactly the per-quantum rule (node.Fold's own fuzzers hold it to
// a job-by-job tick), so the equivalence suites that run a trace both ways
// check the elision and the batching, and nothing else. Call it before Run.
func UseDenseTicks(c *Cluster) {
	c.denseClock = func() {
		c.quantumHandle = c.engine.After(c.cfg.Quantum, c.denseClock)
		now := c.engine.Now()
		for _, n := range c.nodes {
			if err := c.fold(n, now, 1); err != nil {
				c.fail(err)
				return
			}
		}
		if c.outstanding == 0 && !c.holdOpen {
			c.engine.Stop()
		}
	}
}

// UseDenseBoard forces c's load-board selections onto the dense O(nodes)
// scans instead of the partition heaps, the reference the sharded-vs-dense
// board suites hold the heaps to.
func UseDenseBoard(c *Cluster) { c.board.SetDenseSelect(true) }
