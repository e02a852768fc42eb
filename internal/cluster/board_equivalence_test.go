// Sharded-vs-dense board equivalence: the partition heaps behind
// BestDestination and ReservationCandidate are a pure performance
// transformation — selection is an argmax under a total order (idle memory
// desc, jobs asc, index asc) — so running the same seeded trace with the
// dense board scans (UseDenseBoard) and with the heaps must produce
// byte-identical metrics.Results and byte-identical scheduler event
// traces. Checked over all five standard traces of both workload groups,
// under both policies, under fault injection, and with the structured
// tracer attached.
package cluster_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/faults"
	"vrcluster/internal/metrics"
	"vrcluster/internal/obs"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// runBoard executes one standard trace level with the board's selection
// path forced dense or left on the partition heaps, optionally capturing
// the full event trace.
func runBoard(t *testing.T, g workload.Group, level int, vr bool, denseBoard bool, plan faults.Plan, traced bool, mutate ...func(*cluster.Config)) (*metrics.Result, []obs.Event) {
	t.Helper()
	tr, err := trace.Standard(g, level, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := equivSched(t, vr)
	cfg := equivCluster(g)
	cfg.Quantum = equivQuantum
	cfg.Faults = plan
	for _, m := range mutate {
		m(&cfg)
	}
	var tracer *obs.Tracer
	if traced {
		tracer = obs.NewTracer(0)
		cfg.Obs = tracer
	}
	c, err := cluster.New(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if denseBoard {
		cluster.UseDenseBoard(c)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res, tracer.Events()
}

// TestShardedVsDenseBoardEquivalence runs every standard trace of both
// workload groups through the dense O(n) selection scans and the partition
// heaps under both policies, requiring identical results.
func TestShardedVsDenseBoardEquivalence(t *testing.T) {
	for _, g := range []workload.Group{workload.Group1, workload.Group2} {
		for level := 1; level <= len(trace.Levels); level++ {
			if testing.Short() && level > 2 {
				continue
			}
			for _, vr := range []bool{false, true} {
				g, level, vr := g, level, vr
				name := fmt.Sprintf("group%d/level%d/vr=%v", g, level, vr)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					dense, _ := runBoard(t, g, level, vr, true, faults.Plan{}, false)
					sharded, _ := runBoard(t, g, level, vr, false, faults.Plan{}, false)
					if !reflect.DeepEqual(dense, sharded) {
						t.Fatalf("dense and sharded board results differ:\ndense:   %+v\nsharded: %+v", dense, sharded)
					}
				})
			}
		}
	}
}

// TestShardedVsDenseBoardEquivalenceFaults repeats the check with every
// fault dimension enabled: crashes take candidates off the board,
// recoveries bring them back, dropped refreshes leave partitions stale,
// and aborted migrations retry through BestDestination — all paths where a
// heap gone subtly wrong would steer a different placement.
func TestShardedVsDenseBoardEquivalenceFaults(t *testing.T) {
	plan := faults.Plan{
		MTBF:      20 * time.Minute,
		Crash:     faults.Requeue,
		DropRate:  0.1,
		AbortRate: 0.2,
	}
	for _, g := range []workload.Group{workload.Group1, workload.Group2} {
		for _, vr := range []bool{false, true} {
			g, vr := g, vr
			t.Run(fmt.Sprintf("group%d/vr=%v", g, vr), func(t *testing.T) {
				t.Parallel()
				dense, _ := runBoard(t, g, 1, vr, true, plan, false)
				sharded, _ := runBoard(t, g, 1, vr, false, plan, false)
				if !reflect.DeepEqual(dense, sharded) {
					t.Fatalf("dense and sharded board results differ under faults:\ndense:   %+v\nsharded: %+v", dense, sharded)
				}
			})
		}
	}
}

// TestShardedVsDenseBoardEquivalenceMembership repeats the check while the
// fleet itself changes shape mid-run: runtime joins grow the board's
// partition set incrementally, drains take candidates out of selection and
// migrate their residents, and removals tombstone board slots. Heap
// admit/retire must steer placement exactly like the dense rescan, with the
// invariant auditor watching every control period on both sides.
func TestShardedVsDenseBoardEquivalenceMembership(t *testing.T) {
	plan := faults.Plan{
		MTBF:      20 * time.Minute,
		Crash:     faults.Requeue,
		DropRate:  0.05,
		AbortRate: 0.1,
	}
	churn := func(cfg *cluster.Config) {
		proto := cfg.Nodes[0]
		n := len(cfg.Nodes)
		cfg.Audit = true
		cfg.Membership = []cluster.MembershipEvent{
			{At: 2 * time.Minute, Kind: cluster.MemberJoin, Node: proto},
			{At: 4 * time.Minute, Kind: cluster.MemberDrain, ID: n - 1},
			{At: 6 * time.Minute, Kind: cluster.MemberJoin, Node: proto},
			{At: 8 * time.Minute, Kind: cluster.MemberDrain, ID: n - 2},
		}
	}
	for _, g := range []workload.Group{workload.Group1, workload.Group2} {
		for _, vr := range []bool{false, true} {
			g, vr := g, vr
			t.Run(fmt.Sprintf("group%d/vr=%v", g, vr), func(t *testing.T) {
				t.Parallel()
				dense, _ := runBoard(t, g, 1, vr, true, plan, false, churn)
				sharded, _ := runBoard(t, g, 1, vr, false, plan, false, churn)
				if dense.NodesJoined != 2 || dense.NodesDrained != 2 {
					t.Fatalf("membership script did not run: joined %d drained %d",
						dense.NodesJoined, dense.NodesDrained)
				}
				if !reflect.DeepEqual(dense, sharded) {
					t.Fatalf("dense and sharded board results differ under membership churn:\ndense:   %+v\nsharded: %+v", dense, sharded)
				}
			})
		}
	}
}

// TestShardedVsDenseBoardTraceEquivalence captures the full structured
// event stream both ways on a traced fault run: not just the summary
// metrics but every individual decision — placements, migrations,
// reservations, lease events — must be byte-identical.
func TestShardedVsDenseBoardTraceEquivalence(t *testing.T) {
	plan := faults.Plan{
		MTBF:      20 * time.Minute,
		Crash:     faults.Requeue,
		DropRate:  0.1,
		AbortRate: 0.2,
	}
	denseRes, denseEv := runBoard(t, workload.Group1, 2, true, true, plan, true)
	shardRes, shardEv := runBoard(t, workload.Group1, 2, true, false, plan, true)
	if !reflect.DeepEqual(denseRes, shardRes) {
		t.Fatalf("traced results differ:\ndense:   %+v\nsharded: %+v", denseRes, shardRes)
	}
	if len(denseEv) == 0 {
		t.Fatal("traced run emitted no events")
	}
	if !reflect.DeepEqual(denseEv, shardEv) {
		if len(denseEv) != len(shardEv) {
			t.Fatalf("event counts differ: dense %d, sharded %d", len(denseEv), len(shardEv))
		}
		for i := range denseEv {
			if denseEv[i] != shardEv[i] {
				t.Fatalf("event %d differs:\ndense:   %+v\nsharded: %+v", i, denseEv[i], shardEv[i])
			}
		}
	}
}
