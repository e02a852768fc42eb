// The race detector's instrumentation allocates, so the guard is built
// only without it.

//go:build !race

package vrcluster_test

import "testing"

// TestSteadyStateAllocs is the zero-allocation guard for every steady-state
// window.
func TestSteadyStateAllocs(t *testing.T) {
	for _, sc := range steadyCases {
		t.Run(sc.name, func(t *testing.T) {
			run := sc.arm(t)
			if n := testing.AllocsPerRun(10, run); n != 0 {
				t.Errorf("%.0f allocs per window, want 0", n)
			}
		})
	}
}
