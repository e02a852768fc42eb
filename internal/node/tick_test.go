package node

import (
	"fmt"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/obs"
)

// tick is the reference oracle for Fold: it advances the workstation by one
// scheduling quantum dt ending at virtual time now, job by job, straight
// through the memory manager. Runnable jobs share the CPU round-robin: each
// receives an equal share of the quantum, loses context-switch overhead
// when multiprogrammed, and converts execution time into CPU progress at
// the node's speed factor, degraded by the paging stall and cache misses at
// the demand total the quantum starts from. Completed jobs are removed and
// returned. k sequential ticks must leave exactly the node and job state,
// completions and events of one Fold of k quanta.
func (n *Node) tick(dt time.Duration, now time.Duration) ([]*job.Job, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("node %d: nonpositive quantum %v", n.cfg.ID, dt)
	}
	if len(n.jobs) == 0 {
		return nil, nil
	}
	n.version++
	q := n.newQuantum(dt, n.mem.StallPerCPUSecond(), 1-n.CacheAvailability())
	lo := now - dt
	var done []*job.Job
	for i, j := range n.jobs {
		// Credit only the portion of the quantum the job was actually
		// resident for (it may have been admitted mid-quantum).
		resid := dt
		if from := n.covered[i]; from > lo {
			resid = now - from
		}
		n.covered[i] = now
		if resid <= 0 {
			continue
		}
		c := q.charge(n.ioPerMiss(j), resid, j.Remaining())
		finished, err := j.Account(c.cpu, c.page, c.queue, now)
		if err != nil {
			return nil, err
		}
		n.ioStall += c.io
		n.cpuDelivered += c.cpu
		if finished {
			done = append(done, j)
			if err := n.mem.Remove(j.ID); err != nil {
				return nil, err
			}
			delete(n.reservedJobs, j.ID)
			if n.tr != nil {
				n.tr.Emit(obs.Event{At: now, Kind: obs.KindJobDone,
					Node: int32(n.cfg.ID), Job: int32(j.ID), Aux: -1})
			}
			continue
		}
		// Demand evolves with progress; a flat cursor that still covers
		// the job's service proves it has not moved.
		cur, svc := &n.cursor[i], j.CPUDone()
		if !cur.Covers(svc) {
			*cur = j.SegmentAt(svc)
		} else if cur.Flat() {
			continue
		}
		if d := cur.DemandAt(svc); d != n.demand[i] {
			if err := n.mem.Update(j.ID, d); err != nil {
				return nil, err
			}
			n.demand[i] = d
		}
	}
	if len(done) > 0 {
		n.compact()
		n.notifyResidency()
	}
	// Demand refreshes and completions above may have moved pressure in
	// either direction; one transition check covers the whole tick.
	n.notifyPressure()
	return done, nil
}
