package faults

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/sim"
)

// chaosPlan enables every fault dimension, so a snapshot/restore exercise
// covers all five stream salts: per-node crash, per-node drop, migration
// abort, per-domain wave, and per-domain partition.
func chaosPlan() Plan {
	return Plan{
		Seed:          7,
		MTBF:          40 * time.Second,
		MTTR:          5 * time.Second,
		DropRate:      0.25,
		AbortRate:     0.5,
		Domains:       2,
		DomainMTBF:    90 * time.Second,
		DomainMTTR:    10 * time.Second,
		PartitionMTBF: 70 * time.Second,
		PartitionMTTR: 8 * time.Second,
	}
}

// chaosHarness is an injector wired to a recording log plus a sampling
// ticker that drains the drop and abort streams like a cluster would.
type chaosHarness struct {
	e   *sim.Engine
	in  *Injector
	log []string
}

func newChaosHarness(t *testing.T, nodes int) *chaosHarness {
	t.Helper()
	h := &chaosHarness{e: sim.NewEngine()}
	in, err := NewInjector(h.e, chaosPlan(), nodes, Hooks{
		Crash:   func(id int) { h.log = append(h.log, fmt.Sprintf("%v crash %d", h.e.Now(), id)) },
		Recover: func(id int) { h.log = append(h.log, fmt.Sprintf("%v recover %d", h.e.Now(), id)) },
		PartitionStart: func(d int, members []int) {
			h.log = append(h.log, fmt.Sprintf("%v part %d %v", h.e.Now(), d, members))
		},
		PartitionEnd: func(d int, members []int) {
			h.log = append(h.log, fmt.Sprintf("%v heal %d %v", h.e.Now(), d, members))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.in = in
	if _, err := sim.NewTicker(h.e, time.Second, func() {
		in.Drops()
		for id := 0; id < nodes; id++ {
			if in.Dropped(id) {
				h.log = append(h.log, fmt.Sprintf("%v drop %d", h.e.Now(), id))
			}
		}
		if abort, frac := in.AbortMigration(); abort {
			h.log = append(h.log, fmt.Sprintf("%v abort %.4f", h.e.Now(), frac))
		}
	}); err != nil {
		t.Fatal(err)
	}
	in.Start()
	return h
}

// TestSnapshotRestoresAllStreams runs the full chaos plan to a midpoint,
// snapshots, continues to the end twice — once live, once after a rewind —
// and requires the two continuations to emit byte-identical fault
// schedules across every dimension.
func TestSnapshotRestoresAllStreams(t *testing.T) {
	const nodes = 8
	h := newChaosHarness(t, nodes)
	h.e.RunUntil(2 * time.Minute)
	if len(h.log) == 0 {
		t.Fatal("no fault activity before the snapshot")
	}
	es := h.e.Snapshot()
	is := h.in.Snapshot()

	h.log = h.log[:0]
	h.e.RunUntil(5 * time.Minute)
	first := append([]string(nil), h.log...)

	h.e.Restore(es)
	h.in.Restore(is)
	h.log = h.log[:0]
	h.e.RunUntil(5 * time.Minute)
	second := append([]string(nil), h.log...)

	if !reflect.DeepEqual(first, second) {
		t.Fatalf("restored continuation diverged:\nfirst:  %v\nsecond: %v", first, second)
	}
	var crashes, drops, aborts, parts int
	for _, l := range first {
		switch {
		case contains(l, " crash "):
			crashes++
		case contains(l, " drop "):
			drops++
		case contains(l, " abort "):
			aborts++
		case contains(l, " part "):
			parts++
		}
	}
	if crashes == 0 || drops == 0 || aborts == 0 || parts == 0 {
		t.Errorf("post-snapshot continuation missing a dimension: %d crashes, %d drops, %d aborts, %d partitions",
			crashes, drops, aborts, parts)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSnapshotRestoresTombstonesAndPartitions pins the non-stream state:
// nodes retired and domains partitioned after the snapshot must roll back
// to their snapshot-time values, and nodes added after it must vanish.
func TestSnapshotRestoresTombstonesAndPartitions(t *testing.T) {
	const nodes = 6
	h := newChaosHarness(t, nodes)
	h.e.RunUntil(30 * time.Second)

	h.in.RetireNode(2)
	partedBefore := make([]bool, nodes)
	for id := 0; id < nodes; id++ {
		partedBefore[id] = h.in.Partitioned(id)
	}
	es := h.e.Snapshot()
	is := h.in.Snapshot()

	// Mutate everything the snapshot should shield.
	h.in.RetireNode(4)
	if err := h.in.AddNode(nodes); err != nil {
		t.Fatal(err)
	}
	h.e.RunUntil(3 * time.Minute)

	h.e.Restore(es)
	h.in.Restore(is)

	if !h.in.retired[2] {
		t.Error("node 2 retirement lost across restore")
	}
	if h.in.retired[4] {
		t.Error("node 4 retirement leaked from the abandoned continuation")
	}
	if len(h.in.retired) != nodes {
		t.Errorf("post-snapshot node survived the restore: %d tracked, want %d", len(h.in.retired), nodes)
	}
	for id := 0; id < nodes; id++ {
		if h.in.Partitioned(id) != partedBefore[id] {
			t.Errorf("node %d partition state changed across restore", id)
		}
	}
}
