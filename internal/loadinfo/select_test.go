package loadinfo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestRefreshMismatchLeavesBoardUntouched is the regression test for the
// silent mis-indexing bug: a refresh with the wrong node count must fail
// before mutating any entry, aggregate, or statistic.
func TestRefreshMismatchLeavesBoardUntouched(t *testing.T) {
	nodes := buildNodes(t, 3, 100, 4)
	admit(t, nodes[1], 1, 60)

	b, err := NewBoard(3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Refresh(time.Second, nodes); err != nil {
		t.Fatal(err)
	}
	before := b.Entries()
	idleBefore := b.AccumulatedIdleMB(false)

	if err := b.Refresh(2*time.Second, nodes[:2]); err == nil {
		t.Fatal("short node list: want error")
	}
	if err := b.Refresh(2*time.Second, append(nodes, buildNodes(t, 1, 50, 4)...)); err == nil {
		t.Fatal("long node list: want error")
	}
	if got := b.Entries(); !reflect.DeepEqual(got, before) {
		t.Fatalf("entries mutated by failed refresh:\n got %+v\nwant %+v", got, before)
	}
	if got := b.AccumulatedIdleMB(false); got != idleBefore {
		t.Fatalf("AccumulatedIdleMB = %v after failed refresh, want %v", got, idleBefore)
	}
}

// randomEntry draws one node's published status. Idle memory and job
// counts are drawn from small discrete sets so ties — where the index
// tie-break decides — occur constantly, and the flag mix exercises down,
// reserved, pressured, and slot-full nodes together.
func randomEntry(rng *rand.Rand, id int) Entry {
	e := Entry{
		NodeID: id,
		Jobs:   rng.Intn(5),
		Slots:  4,
		IdleMB: float64(rng.Intn(8)) * 48,
		UserMB: float64(rng.Intn(300)),
	}
	e.HasSlot = e.Jobs < e.Slots
	switch rng.Intn(8) {
	case 0:
		e.Pressured = true
	case 1:
		e.Reserved = true
	case 2:
		e.Down = true
	case 3:
		e.Down, e.Pressured = true, true
	}
	return e
}

// TestHeapMatchesDenseSelection is the equivalence property test: across
// random boards — including ties, down/reserved/pressured nodes, excluded
// candidates, and NotePlacement churn between queries — the heap-guided
// selection must return exactly the node the dense O(n) scan returns, for
// both query kinds, on every board size around the partition boundaries.
func TestHeapMatchesDenseSelection(t *testing.T) {
	sizes := []int{1, 2, 63, 64, 65, 127, 128, 129, 300}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		b, err := NewBoard(n, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := b.Publish(i, randomEntry(rng, i)); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 400; trial++ {
			// Mutate a slice of the board between queries so the heaps
			// are exercised through their maintenance paths, not just a
			// fresh heapify.
			switch rng.Intn(4) {
			case 0:
				if err := b.Publish(rng.Intn(n), randomEntry(rng, rng.Intn(n))); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := b.NotePlacement(rng.Intn(n), float64(rng.Intn(200))); err != nil {
					t.Fatal(err)
				}
			}
			demand := float64(rng.Intn(9)) * 48
			if rng.Intn(8) == 0 {
				demand = math.Inf(1) // unsatisfiable
			}
			var exclude map[int]bool
			if rng.Intn(2) == 0 {
				exclude = map[int]bool{rng.Intn(n): true}
			}

			b.SetDenseSelect(true)
			wantDest, wantDestOK := b.BestDestination(demand, exclude)
			wantResv, wantResvOK := b.ReservationCandidate(exclude)
			b.SetDenseSelect(false)
			gotDest, gotDestOK := b.BestDestination(demand, exclude)
			gotResv, gotResvOK := b.ReservationCandidate(exclude)

			if gotDest != wantDest || gotDestOK != wantDestOK {
				t.Fatalf("n=%d trial=%d BestDestination(%v, %v): heap (%d,%v) != dense (%d,%v)",
					n, trial, demand, exclude, gotDest, gotDestOK, wantDest, wantDestOK)
			}
			if gotResv != wantResv || gotResvOK != wantResvOK {
				t.Fatalf("n=%d trial=%d ReservationCandidate(%v): heap (%d,%v) != dense (%d,%v)",
					n, trial, exclude, gotResv, gotResvOK, wantResv, wantResvOK)
			}
		}
	}
}

// TestHeapMatchesDenseUnderFaultChurn drives the same property through
// fault-plan-shaped state: waves of nodes crashing (Down) and recovering,
// with reservations acquired and released, as a refresh-driven board sees
// under an injector.
func TestHeapMatchesDenseUnderFaultChurn(t *testing.T) {
	const n = 130
	rng := rand.New(rand.NewSource(7))
	b, err := NewBoard(n, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = randomEntry(rng, i)
		entries[i].Down, entries[i].Reserved = false, false
		if err := b.Publish(i, entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	for wave := 0; wave < 50; wave++ {
		// Crash a random clump, recover another, flip one reservation.
		for k := 0; k < 5; k++ {
			i := rng.Intn(n)
			entries[i].Down = !entries[i].Down
			if err := b.Publish(i, entries[i]); err != nil {
				t.Fatal(err)
			}
		}
		i := rng.Intn(n)
		entries[i].Reserved = !entries[i].Reserved
		if err := b.Publish(i, entries[i]); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			demand := float64(rng.Intn(9)) * 48
			exclude := map[int]bool{rng.Intn(n): true}
			b.SetDenseSelect(true)
			wantDest, wantDestOK := b.BestDestination(demand, exclude)
			wantResv, wantResvOK := b.ReservationCandidate(exclude)
			b.SetDenseSelect(false)
			gotDest, gotDestOK := b.BestDestination(demand, exclude)
			gotResv, gotResvOK := b.ReservationCandidate(exclude)
			if gotDest != wantDest || gotDestOK != wantDestOK || gotResv != wantResv || gotResvOK != wantResvOK {
				t.Fatalf("wave=%d q=%d: heap (%d,%v / %d,%v) != dense (%d,%v / %d,%v)",
					wave, q, gotDest, gotDestOK, gotResv, gotResvOK,
					wantDest, wantDestOK, wantResv, wantResvOK)
			}
		}
	}
}

// TestPartitionStats sanity-checks the per-partition observability
// aggregates against a straight recount of the entries.
func TestPartitionStats(t *testing.T) {
	const n = 150
	rng := rand.New(rand.NewSource(11))
	b, err := NewBoard(n, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Publish(i, randomEntry(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	entries := b.Entries()
	for p := 0; p < b.Partitions(); p++ {
		st, err := b.PartitionStats(p)
		if err != nil {
			t.Fatal(err)
		}
		var up, unreserved float64
		down, pressured := 0, 0
		for _, e := range entries[st.Lo:st.Hi] {
			if e.Pressured {
				pressured++
			}
			if e.Down {
				down++
				continue
			}
			up += e.IdleMB
			if !e.Reserved {
				unreserved += e.IdleMB
			}
		}
		if st.Down != down || st.Pressured != pressured ||
			math.Abs(st.IdleUpMB-up) > 1e-9 || math.Abs(st.IdleUnreservedMB-unreserved) > 1e-9 {
			t.Fatalf("partition %d stats %+v, want down=%d pressured=%d up=%v unreserved=%v",
				p, st, down, pressured, up, unreserved)
		}
	}
	if _, err := b.PartitionStats(-1); err == nil {
		t.Error("negative partition should error")
	}
	if _, err := b.PartitionStats(b.Partitions()); err == nil {
		t.Error("out-of-range partition should error")
	}
}

// BenchmarkSelect times one BestDestination query on an n-node board,
// through the partition heaps (algo=heap) and through the dense O(n)
// reference (algo=dense), on the cluster sizes of the scaling sweep
// (vrbench -exp scale). Both algorithms see the identical board and query
// sequence: a seeded mix of idle spreads, full slots, pressure and a few
// reserved and down nodes, so the timings reflect a realistically mixed
// board rather than a best-case one.
func BenchmarkSelect(b *testing.B) {
	for _, algo := range []string{"heap", "dense"} {
		for _, n := range []int{32, 100, 320, 1000, 3200, 10000} {
			b.Run(fmt.Sprintf("algo=%s/nodes=%d", algo, n), func(b *testing.B) {
				board, demands, exclude := selectBoard(b, n, 42)
				board.SetDenseSelect(algo == "dense")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					selectSink, _ = board.BestDestination(demands[i%len(demands)], exclude)
				}
			})
		}
	}
}

// selectSink keeps BenchmarkSelect's queries from being optimized away.
var selectSink int

// selectBoard builds BenchmarkSelect's seeded n-node board of 4-slot,
// 384 MB workstations, plus 4096 query demands and one excluded node.
func selectBoard(tb testing.TB, n int, seed int64) (*Board, []float64, map[int]bool) {
	tb.Helper()
	b, err := NewBoard(n, DefaultPeriod)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		e := Entry{
			NodeID: i,
			Jobs:   rng.Intn(5),
			Slots:  4,
			IdleMB: float64(rng.Intn(384)),
			UserMB: float64(rng.Intn(200)),
		}
		e.HasSlot = e.Jobs < e.Slots
		switch rng.Intn(16) {
		case 0:
			e.Pressured = true
		case 1:
			e.Reserved = true
		case 2:
			e.Down = true
		}
		if err := b.Publish(i, e); err != nil {
			tb.Fatal(err)
		}
	}
	demands := make([]float64, 4096)
	for i := range demands {
		demands[i] = float64(rng.Intn(400))
	}
	return b, demands, map[int]bool{rng.Intn(n): true}
}
