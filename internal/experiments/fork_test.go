package experiments

import (
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/workload"
)

// The fork execution strategy is pure performance: TestGridDeterminism
// pins every grid's outputs with Fork on to the fresh strategy at any
// parallel width, and the root fork_equivalence_test.go pins the contract
// at the cluster level. The seed tests below repeat that contract on
// their own seed sets; the rest cover the forked grids' own shape.

func TestSeedSensitivityForkMatchesFresh(t *testing.T) {
	seeds := []int64{7, 21, 42, 99}
	for _, parallel := range []int{1, 3} {
		fresh := fastConfig()
		fresh.Parallel = parallel
		a, err := SeedSensitivity(fresh, 1, seeds)
		if err != nil {
			t.Fatal(err)
		}
		forked := fresh
		forked.Fork = true
		b, err := SeedSensitivity(forked, 1, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("parallel=%d: fork rows differ from fresh:\nfresh: %+v\nfork:  %+v", parallel, a, b)
		}
	}
}

func TestSeedSensitivityForkParallelMatchesSequential(t *testing.T) {
	seeds := []int64{7, 21, 42}
	seq := fastConfig()
	seq.Fork = true
	seq.Parallel = 1
	par := seq
	par.Parallel = 3
	a, err := SeedSensitivity(seq, 1, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SeedSensitivity(par, 1, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("forked seed rows differ across widths:\nseq: %+v\npar: %+v", a, b)
	}
}

func TestWhatIfGrid(t *testing.T) {
	cfg := fastConfig()
	whatIfs := StandardWhatIfs(cfg)
	results, err := WhatIfGrid(cfg, 1, whatIfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(whatIfs) {
		t.Fatalf("results = %d, want %d", len(results), len(whatIfs))
	}
	byName := map[string]*AblationResult{}
	for i := range results {
		r := &results[i]
		if r.Result == nil {
			t.Fatalf("variant %s has no result", r.Variant)
		}
		if r.Result.Jobs == 0 {
			t.Errorf("variant %s ran no jobs", r.Variant)
		}
		byName[r.Variant] = r
	}
	for _, w := range whatIfs {
		if byName[w.Name] == nil {
			t.Errorf("missing variant %s", w.Name)
		}
	}
	// Swapping VR away mid-run cannot beat keeping it on total exec by a
	// large margin and must still complete every job.
	keep, swap := byName["keep-vr"], byName["swap-gls"]
	if keep != nil && swap != nil && keep.Result.Jobs != swap.Result.Jobs {
		t.Errorf("variants completed different job counts: %d vs %d", keep.Result.Jobs, swap.Result.Jobs)
	}

	if _, err := WhatIfGrid(cfg, 1, nil); err == nil {
		t.Error("empty variant list should fail")
	}
}

// The composite warmup prefix must be identical across cells: every row's
// result depends on the base seed's prefix plus only its own tail, so two
// sweeps sharing the base seed but listing seeds in different orders must
// agree cell by cell.
func TestSeedSensitivityCellIndependence(t *testing.T) {
	cfg := fastConfig()
	cfg.Fork = true
	a, err := SeedSensitivity(cfg, 1, []int64{7, 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SeedSensitivity(cfg, 1, []int64{21, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[0], b[1]) || !reflect.DeepEqual(a[1], b[0]) {
		t.Errorf("cells depend on sweep order:\n%+v\n%+v", a, b)
	}
}

// Warmup fraction sanity: the fork point lies inside every level's window.
func TestWarmupInstant(t *testing.T) {
	for lvl := 1; lvl <= 5; lvl++ {
		at := warmupInstant(lvl)
		if at <= 0 || at >= time.Hour {
			t.Errorf("level %d warmup instant %v out of range", lvl, at)
		}
	}
	if DefaultWarmupFrac <= 0 || DefaultWarmupFrac >= 1 {
		t.Errorf("DefaultWarmupFrac %v out of (0,1)", DefaultWarmupFrac)
	}
	_ = workload.Group1
}
