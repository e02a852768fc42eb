package cluster

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"vrcluster/internal/audit"
	"vrcluster/internal/obs"
)

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

// RefillCoverage counts, over CheckRefills calls, the audit views compared
// in each state and the samples compared.
type RefillCoverage struct {
	Checks, Views, Samples            int
	Reserved, Down, Draining, Removed int
}

// CheckRefills fills c's reused audit views and sample batch with sentinels
// in every field, refills both as the auditor and the sample tick do, and
// compares each view and sample with one built from a fresh composite
// literal. A field the in-place refill forgot keeps its sentinel: a bool
// holds the negation of the node's state, a number a value no workstation
// has, and a resident list more entries than the node has slots.
func CheckRefills(c *Cluster, cov *RefillCoverage) error {
	cov.Checks++
	s := &c.auditSnap
	for i, n := range c.nodes {
		if i >= len(s.Nodes) {
			break
		}
		v := &s.Nodes[i]
		v.ID, v.Held, v.Slots = -7, -7, -7
		v.IdleMB, v.UserMB = math.NaN(), math.NaN()
		v.Reserved, v.Down, v.Draining, v.Removed = !n.Reserved(), !n.Down(), !n.Draining(), !n.Removed()
		v.Resident = v.Resident[:0]
		for range n.Slots() + 1 {
			v.Resident = append(v.Resident, -1)
		}
	}
	snap := c.auditSnapshot()
	if len(snap.Nodes) != len(c.nodes) {
		return fmt.Errorf("%d audit views for %d nodes", len(snap.Nodes), len(c.nodes))
	}
	for i, n := range c.nodes {
		ids := make([]int, 0, n.NumJobs())
		for k := 0; k < n.NumJobs(); k++ {
			ids = append(ids, n.JobAt(k).ID)
		}
		want := audit.NodeView{
			ID:       n.ID(),
			Resident: ids,
			Held:     n.ExpectedCount(),
			Reserved: n.Reserved(),
			Down:     n.Down(),
			Draining: n.Draining(),
			Removed:  n.Removed(),
			IdleMB:   n.IdleMB(),
			UserMB:   n.Memory().UserMB(),
			Slots:    n.Slots(),
		}
		got := snap.Nodes[i]
		if !slices.Equal(got.Resident, want.Resident) {
			return fmt.Errorf("audit view %d resident %v, want %v", i, got.Resident, want.Resident)
		}
		got.Resident, want.Resident = nil, nil
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("audit view %d = %+v, want %+v", i, got, want)
		}
		cov.Views++
		if want.Reserved {
			cov.Reserved++
		}
		if want.Down {
			cov.Down++
		}
		if want.Draining {
			cov.Draining++
		}
		if want.Removed {
			cov.Removed++
		}
	}

	buf := c.sampleBuf[:cap(c.sampleBuf)]
	for i := range buf {
		buf[i] = obs.Event{At: -1, Kind: obs.Kind(255), Flags: 0xff, Node: -7, Job: 7, Aux: -7, Val: math.NaN()}
	}
	got := c.readSamples()
	now := c.engine.Now()
	k := 0
	for _, n := range c.nodes {
		if n.Removed() {
			continue
		}
		var fl uint8
		if n.Reserved() {
			fl |= obs.FlagReserved
		}
		if n.Down() {
			fl |= obs.FlagDown
		}
		if n.Draining() {
			fl |= obs.FlagDrain
		}
		want := obs.Event{
			At:    now,
			Kind:  obs.KindNodeSample,
			Flags: fl,
			Node:  int32(n.ID()),
			Job:   -1,
			Aux:   int32(n.NumJobs()),
			Val:   n.IdleMB(),
		}
		if k >= len(got) {
			return fmt.Errorf("%d samples, want more", len(got))
		}
		if got[k] != want {
			return fmt.Errorf("sample %d = %+v, want %+v", k, got[k], want)
		}
		k++
		cov.Samples++
	}
	if k != len(got) {
		return fmt.Errorf("%d samples, want %d", len(got), k)
	}
	return nil
}
