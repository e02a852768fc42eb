package loadinfo

import (
	"math"
	"testing"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/memory"
	"vrcluster/internal/node"
)

func buildNodes(t *testing.T, count int, capacityMB float64, slots int) []*node.Node {
	t.Helper()
	nodes := make([]*node.Node, count)
	for i := range nodes {
		n, err := node.New(node.Config{
			ID: i, CPUSpeedMHz: 400, CPUThreshold: slots,
			Memory: memory.Config{CapacityMB: capacityMB, UserFraction: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	return nodes
}

func admit(t *testing.T, n *node.Node, id int, memMB float64) *job.Job {
	t.Helper()
	j, err := job.New(id, "p", time.Hour, []job.Phase{{EndFrac: 1, StartMB: memMB, EndMB: memMB}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	return j
}

func TestNewBoardValidation(t *testing.T) {
	if _, err := NewBoard(0, time.Second); err == nil {
		t.Error("zero nodes should error")
	}
	if _, err := NewBoard(4, 0); err == nil {
		t.Error("zero period should error")
	}
	b, err := NewBoard(4, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 4 || b.Period() != time.Second {
		t.Errorf("Len=%d Period=%v", b.Len(), b.Period())
	}
}

func TestRefreshSnapshots(t *testing.T) {
	nodes := buildNodes(t, 3, 100, 4)
	admit(t, nodes[1], 1, 60)
	admit(t, nodes[2], 2, 150) // pressured

	b, err := NewBoard(3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(5*time.Second, nodes); err != nil {
		t.Fatal(err)
	}
	e0, err := b.Entry(0)
	if err != nil {
		t.Fatal(err)
	}
	if e0.Jobs != 0 || e0.IdleMB != 100 || e0.Pressured || !e0.HasSlot {
		t.Errorf("entry 0 = %+v", e0)
	}
	e1, _ := b.Entry(1)
	if e1.Jobs != 1 || math.Abs(e1.IdleMB-40) > 1e-9 {
		t.Errorf("entry 1 = %+v", e1)
	}
	e2, _ := b.Entry(2)
	if !e2.Pressured || e2.IdleMB != 0 || e2.FaultRate <= 0 {
		t.Errorf("entry 2 = %+v", e2)
	}
	if e2.UpdatedAt != 5*time.Second {
		t.Errorf("UpdatedAt = %v", e2.UpdatedAt)
	}
	if _, err := b.Entry(7); err == nil {
		t.Error("out-of-range entry should error")
	}
	if err := b.Refresh(0, nodes[:2]); err == nil {
		t.Error("mismatched node count should error")
	}
}

func TestStalenessUntilRefresh(t *testing.T) {
	nodes := buildNodes(t, 2, 100, 4)
	b, err := NewBoard(2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(0, nodes); err != nil {
		t.Fatal(err)
	}
	admit(t, nodes[0], 1, 90)
	e, _ := b.Entry(0)
	if e.Jobs != 0 {
		t.Error("board should be stale until the next refresh")
	}
	if err := b.Refresh(time.Second, nodes); err != nil {
		t.Fatal(err)
	}
	e, _ = b.Entry(0)
	if e.Jobs != 1 {
		t.Error("refresh did not pick up the new job")
	}
}

func TestAccumulatedIdleAndMeanUser(t *testing.T) {
	nodes := buildNodes(t, 4, 100, 4)
	admit(t, nodes[0], 1, 30)
	nodes[3].SetReserved(true)
	b, err := NewBoard(4, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(0, nodes); err != nil {
		t.Fatal(err)
	}
	if got := b.AccumulatedIdleMB(false); math.Abs(got-370) > 1e-9 {
		t.Errorf("accumulated idle = %v, want 370", got)
	}
	if got := b.AccumulatedIdleMB(true); math.Abs(got-270) > 1e-9 {
		t.Errorf("accumulated idle excl reserved = %v, want 270", got)
	}
	if got := b.MeanUserMB(); math.Abs(got-100) > 1e-9 {
		t.Errorf("mean user = %v, want 100", got)
	}
}

func TestBestDestination(t *testing.T) {
	nodes := buildNodes(t, 4, 100, 2)
	admit(t, nodes[0], 1, 95)  // nearly full
	admit(t, nodes[1], 2, 120) // pressured
	admit(t, nodes[2], 3, 20)
	admit(t, nodes[2], 4, 20) // no slot left (threshold 2)
	b, err := NewBoard(4, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(0, nodes); err != nil {
		t.Fatal(err)
	}
	id, ok := b.BestDestination(50, nil)
	if !ok || id != 3 {
		t.Errorf("destination = %d, %v; want 3 (only qualified node)", id, ok)
	}
	// Excluding node 3 leaves nothing with 50 MB free and a slot.
	if _, ok := b.BestDestination(50, map[int]bool{3: true}); ok {
		t.Error("exclusion should leave no destination")
	}
	// A tiny payload fits on node 0 too; node 3 still wins on idle memory.
	id, ok = b.BestDestination(1, nil)
	if !ok || id != 3 {
		t.Errorf("destination = %d, %v; want 3", id, ok)
	}
	// Reserved nodes never qualify.
	nodes[3].SetReserved(true)
	if err := b.Refresh(0, nodes); err != nil {
		t.Fatal(err)
	}
	if id, ok := b.BestDestination(50, nil); ok {
		t.Errorf("reserved node %d offered as destination", id)
	}
}

func TestBestDestinationPrefersFewerJobsOnTie(t *testing.T) {
	nodes := buildNodes(t, 2, 100, 4)
	admit(t, nodes[0], 1, 0) // zero-demand job: same idle memory, more jobs
	b, err := NewBoard(2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(0, nodes); err != nil {
		t.Fatal(err)
	}
	id, ok := b.BestDestination(10, nil)
	if !ok || id != 1 {
		t.Errorf("destination = %d, want 1 (fewer jobs at equal idle)", id)
	}
}

func TestReservationCandidate(t *testing.T) {
	nodes := buildNodes(t, 3, 100, 4)
	admit(t, nodes[0], 1, 10)
	admit(t, nodes[0], 2, 10)
	admit(t, nodes[1], 3, 80)
	b, err := NewBoard(3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(0, nodes); err != nil {
		t.Fatal(err)
	}
	id, ok := b.ReservationCandidate(nil)
	if !ok || id != 2 {
		t.Errorf("candidate = %d, want 2 (all memory idle)", id)
	}
	// With node 2 excluded, node 0 wins on idle memory (80 MB vs 20 MB)
	// even though it runs more jobs.
	id, ok = b.ReservationCandidate(map[int]bool{2: true})
	if !ok || id != 0 {
		t.Errorf("candidate = %d, want 0", id)
	}
	for _, n := range nodes {
		n.SetReserved(true)
	}
	if err := b.Refresh(0, nodes); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.ReservationCandidate(nil); ok {
		t.Error("all-reserved cluster should yield no candidate")
	}
}

func TestReservationCandidateTieBreaksOnIdle(t *testing.T) {
	nodes := buildNodes(t, 2, 100, 4)
	admit(t, nodes[0], 1, 60)
	admit(t, nodes[1], 2, 20)
	b, err := NewBoard(2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(0, nodes); err != nil {
		t.Fatal(err)
	}
	id, ok := b.ReservationCandidate(nil)
	if !ok || id != 1 {
		t.Errorf("candidate = %d, want 1 (equal jobs, more idle memory)", id)
	}
}

func TestNotePlacement(t *testing.T) {
	nodes := buildNodes(t, 2, 100, 2)
	b, err := NewBoard(2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(0, nodes); err != nil {
		t.Fatal(err)
	}
	if err := b.NotePlacement(0, 30); err != nil {
		t.Fatal(err)
	}
	e, _ := b.Entry(0)
	if e.Jobs != 1 || math.Abs(e.IdleMB-70) > 1e-9 || !e.HasSlot {
		t.Errorf("after first placement: %+v", e)
	}
	if err := b.NotePlacement(0, 90); err != nil {
		t.Fatal(err)
	}
	e, _ = b.Entry(0)
	if e.Jobs != 2 || e.IdleMB != 0 || e.HasSlot || !e.Pressured {
		t.Errorf("after overfill: %+v", e)
	}
	// Second node now the only destination.
	id, ok := b.BestDestination(10, nil)
	if !ok || id != 1 {
		t.Errorf("destination = %d, %v; want 1", id, ok)
	}
	if err := b.NotePlacement(9, 1); err == nil {
		t.Error("out-of-range note should fail")
	}
	// Refresh clears debits.
	if err := b.Refresh(time.Second, nodes); err != nil {
		t.Fatal(err)
	}
	e, _ = b.Entry(0)
	if e.Jobs != 0 || e.IdleMB != 100 {
		t.Errorf("refresh did not clear debits: %+v", e)
	}
}

func TestEntriesReturnsCopy(t *testing.T) {
	nodes := buildNodes(t, 2, 100, 4)
	b, err := NewBoard(2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(0, nodes); err != nil {
		t.Fatal(err)
	}
	es := b.Entries()
	es[0].Jobs = 99
	e0, _ := b.Entry(0)
	if e0.Jobs == 99 {
		t.Error("Entries leaked internal slice")
	}
}

func TestIOStatusPublished(t *testing.T) {
	nodes := buildNodes(t, 1, 100, 4)
	j, err := job.New(1, "io", time.Hour, []job.Phase{{EndFrac: 1, StartMB: 90, EndMB: 90}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	j.SetIORate(3)
	if err := nodes[0].Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	b, err := NewBoard(1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(0, nodes); err != nil {
		t.Fatal(err)
	}
	e, _ := b.Entry(0)
	if e.IOActiveJobs != 1 {
		t.Errorf("IOActiveJobs = %d, want 1", e.IOActiveJobs)
	}
	// Idle 10 MB against a 16 MB default cache need.
	if e.CacheAvailability >= 1 || e.CacheAvailability <= 0 {
		t.Errorf("CacheAvailability = %v, want squeezed in (0, 1)", e.CacheAvailability)
	}
}

// TestRefreshWithSkips checks the ways a refresh leaves a slot's status
// unread: a dropped exchange keeps the whole entry, timestamp included,
// and a clean slot (its node's status version unchanged, the board not
// written since) takes only the new timestamp. A node that changed while
// its exchange was dropped, and a slot the board wrote itself, are read
// at the next refresh.
func TestRefreshWithSkips(t *testing.T) {
	nodes := buildNodes(t, 2, 100, 4)
	b, err := NewBoard(2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	refresh := func(now time.Duration, dropped []uint64) {
		t.Helper()
		if err := b.RefreshWith(now, nodes, dropped); err != nil {
			t.Fatal(err)
		}
	}
	entry := func(id int) Entry {
		t.Helper()
		e, err := b.Entry(id)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	refresh(0, nil)
	admit(t, nodes[0], 1, 40)
	admit(t, nodes[1], 2, 40)
	refresh(time.Second, []uint64{1 << 1}) // node 1's exchange is lost
	if e := entry(0); e.Jobs != 1 || e.UpdatedAt != time.Second {
		t.Errorf("refreshed entry %+v", e)
	}
	if e := entry(1); e.Jobs != 0 || e.UpdatedAt != 0 {
		t.Errorf("dropped entry %+v, want the previous one", e)
	}
	refresh(2*time.Second, nil)
	if e := entry(1); e.Jobs != 1 || e.UpdatedAt != 2*time.Second {
		t.Errorf("entry after the dropped period %+v", e)
	}
	clean := entry(0)
	refresh(3*time.Second, nil)
	if e := entry(0); e.UpdatedAt != 3*time.Second || e.Jobs != clean.Jobs || e.IdleMB != clean.IdleMB {
		t.Errorf("clean entry %+v, want %+v stamped 3s", e, clean)
	}
	if err := b.Publish(0, Entry{NodeID: 0, Jobs: 3}); err != nil {
		t.Fatal(err)
	}
	refresh(4*time.Second, nil)
	if e := entry(0); e.Jobs != 1 || e.IdleMB != 60 || !e.HasSlot {
		t.Errorf("entry after a board write %+v, want the node's status", e)
	}
	// Fresh nodes of another capacity report the same status version as
	// the fresh nodes the board first read; they are read, not trusted.
	fresh, err := NewBoard(2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	first, other := buildNodes(t, 2, 100, 4), buildNodes(t, 2, 300, 4)
	if err := fresh.Refresh(0, first); err != nil {
		t.Fatal(err)
	}
	if v, w := other[0].StatusVersion(), first[0].StatusVersion(); v != w {
		t.Fatalf("fresh nodes report versions %d and %d", v, w)
	}
	if err := fresh.Refresh(time.Second, other); err != nil {
		t.Fatal(err)
	}
	if e, err := fresh.Entry(0); err != nil || e.UserMB != 300 {
		t.Errorf("entry after a refresh from other nodes %+v (%v), want their 300 MB", e, err)
	}
}

// TestAdmits checks the in-place home test against the entry it reads.
func TestAdmits(t *testing.T) {
	b, err := NewBoard(3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range []Entry{
		{NodeID: 0, HasSlot: true, IdleMB: 50},
		{NodeID: 1, HasSlot: true, IdleMB: 50, Reserved: true},
		{NodeID: 2, HasSlot: true, IdleMB: 50, Pressured: true},
	} {
		if err := b.Publish(i, e); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		id   int
		need float64
		want bool
	}{
		{0, 50, true}, {0, 51, false}, {1, 10, false}, {2, 10, false}, {-1, 0, false}, {3, 0, false},
	} {
		if got := b.Admits(tc.id, tc.need); got != tc.want {
			t.Errorf("Admits(%d, %v) = %v, want %v", tc.id, tc.need, got, tc.want)
		}
	}
}
