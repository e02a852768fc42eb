// The race detector's instrumentation allocates, so the guards are built
// only without it.

//go:build !race

package faults

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"vrcluster/internal/sim"
)

// allocNodes and allocPlan are the chaos workload's cluster size and
// fault plan: 128 workstations in 8 failure domains, with every fault
// dimension on.
const allocNodes = 128

func allocPlan() Plan {
	return Plan{
		Seed:          42,
		Crash:         Requeue,
		MTBF:          2 * time.Hour,
		DropRate:      0.05,
		AbortRate:     0.1,
		Domains:       8,
		DomainMTBF:    3 * time.Hour,
		PartitionMTBF: 2 * time.Hour,
	}
}

// sparseStreams counts allocPlan's sparse streams: one crash stream per
// node, the abort stream, and a wave and a partition stream per domain.
const sparseStreams = allocNodes + 1 + 2*8

// perStreamBytes bounds what one stream costs an injector or a snapshot
// besides a register: the sparse stream and its *rand.Rand, and a node's
// share of the per-node slices. A register is about 4.9 KB.
const perStreamBytes = 192

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

// newAllocInjector builds allocPlan's injector on a fresh engine.
func newAllocInjector(t *testing.T) *Injector {
	t.Helper()
	in, err := NewInjector(sim.NewEngine(), allocPlan(), allocNodes, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

var (
	injectorSink *Injector
	snapshotSink *Snapshot
)

// streamBound is the bytes an injector or snapshot may allocate: the drop
// streams' registers plus perStreamBytes per stream, and no register for
// a sparse stream.
func streamBound() uint64 {
	return allocNodes*uint64(unsafe.Sizeof(stream{})) + (allocNodes+sparseStreams)*perStreamBytes
}

// TestNewInjectorBuildsOnlyDropRegisters requires NewInjector to allocate
// the 128 drop streams' registers and no register for a sparse stream.
func TestNewInjectorBuildsOnlyDropRegisters(t *testing.T) {
	e := sim.NewEngine()
	b := bytesPerRun(20, func() {
		in, err := NewInjector(e, allocPlan(), allocNodes, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		injectorSink = in
	})
	if limit := streamBound(); b > limit {
		t.Errorf("NewInjector allocates %d bytes, want at most %d", b, limit)
	}
}

// TestSnapshotCopiesOnlyBuiltRegisters requires a snapshot of a started
// injector, whose sparse streams have drawn fewer than rngTap values, to
// copy the drop registers and no sparse stream's register, and a restore
// into the injector it came from, once primed, to allocate nothing.
func TestSnapshotCopiesOnlyBuiltRegisters(t *testing.T) {
	in := newAllocInjector(t)
	in.Start()
	for range 100 {
		in.Drops()
		in.AbortMigration()
	}
	sparse := append([]*sparseStream{in.migSrc}, in.crashSrc...)
	sparse = append(append(sparse, in.domainSrc...), in.partSrc...)
	for _, src := range sparse {
		if src.n >= rngTap {
			t.Fatalf("a sparse stream drew %d values, want fewer than %d", src.n, rngTap)
		}
	}
	if b := bytesPerRun(20, func() { snapshotSink = in.Snapshot() }); b > streamBound() {
		t.Errorf("Snapshot allocates %d bytes, want at most %d", b, streamBound())
	}
	snap := in.Snapshot()
	in.Restore(snap)
	if b := bytesPerRun(20, func() { in.Restore(snap) }); b != 0 {
		t.Errorf("primed Restore allocates %d bytes, want 0", b)
	}
}

// TestRestoreIntoBuiltRegisterAllocatesNothing drives the abort stream
// past its prefix, snapshots it, and requires the snapshot to hold a
// register of its own and a restore into the live injector, whose
// register already exists, to allocate nothing.
func TestRestoreIntoBuiltRegisterAllocatesNothing(t *testing.T) {
	in := newAllocInjector(t)
	in.Start()
	for range rngTap {
		in.AbortMigration()
	}
	if in.migSrc.n != onRegister {
		t.Fatalf("abort stream at %d, want on its register", in.migSrc.n)
	}
	snap := in.Snapshot()
	if snap.mig.reg == nil || snap.mig.reg == in.migSrc.reg {
		t.Fatal("snapshot holds no register of its own for the abort stream")
	}
	in.AbortMigration()
	if b := bytesPerRun(20, func() { in.Restore(snap) }); b != 0 {
		t.Errorf("Restore with the register built allocates %d bytes, want 0", b)
	}
}
