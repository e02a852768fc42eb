// The race detector's instrumentation allocates, so the guards are built
// only without it.

//go:build !race

package metrics

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"vrcluster/internal/obs"
)

// observed returns a collector holding n one-node samples.
func observed(t *testing.T, n int) *Collector {
	t.Helper()
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		c.Observe(time.Duration(i+1)*time.Second, []obs.Event{sample(0, float64(i), i%3, 0)}, 0)
	}
	return c
}

// bytesPerRun reports the heap bytes f allocates per call, averaged over
// runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

var (
	snapSink  *CollectorSnapshot
	cloneSink *Collector
)

// TestSnapshotAndCloneShareSealedChunks requires Snapshot and Clone of a
// collector holding ten sealed chunks to allocate at most one chunk's
// bytes: the sealed chunks are shared, and only the tail is copied.
func TestSnapshotAndCloneShareSealedChunks(t *testing.T) {
	limit := uint64(unsafe.Sizeof(chunk{}))
	for _, tail := range []int{0, chunkLen / 2} {
		c := observed(t, 10*chunkLen+tail)
		if len(c.samples.sealed) != 10 {
			t.Fatalf("%d sealed chunks, want 10", len(c.samples.sealed))
		}
		for _, op := range []struct {
			name string
			f    func()
		}{
			{"Snapshot", func() { snapSink = c.Snapshot() }},
			{"Clone", func() { cloneSink = c.Clone() }},
		} {
			if b := bytesPerRun(100, op.f); b > limit {
				t.Errorf("tail %d: %s allocates %d bytes, want at most one chunk's %d", tail, op.name, b, limit)
			}
		}
	}
}

// TestRewoundWindowAcrossChunkBoundaryAllocatesNothing rewinds a collector
// to a snapshot just short of a chunk's end and observes past it, as a
// forked cell does. Once primed, the window must not allocate: Restore
// copies the tail into the live tail chunk, and the chunk the window seals
// is taken back as a spare, since no share saw it.
func TestRewoundWindowAcrossChunkBoundaryAllocatesNothing(t *testing.T) {
	const at = 3*chunkLen - 10
	c := observed(t, at)
	snap := c.Snapshot()
	batch := []obs.Event{sample(0, 1, 1, 0), sample(1, 2, 0, obs.FlagReserved)}
	window := func() {
		c.Restore(snap)
		for i := range 20 {
			c.Observe(time.Duration(at+i+1)*time.Second, batch, 0)
		}
	}
	window()
	window()
	if len(c.samples.sealed) != 3 {
		t.Fatalf("window ends with %d sealed chunks, want 3", len(c.samples.sealed))
	}
	if n := testing.AllocsPerRun(20, window); n != 0 {
		t.Errorf("%.0f allocs per window, want 0", n)
	}
}
