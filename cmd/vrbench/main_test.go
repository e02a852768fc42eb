package main

import (
	"strings"
	"testing"
)

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run([]string{"-exp", "bogus"}); err == nil {
		t.Error("unknown experiment should fail")
	}
	// Each case fails in validation, before any simulation starts.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "chaos", "-levels", "1,1"}, "duplicate level 1"},
		{[]string{"-exp", "table1", "-nodes", "5"}, "-nodes needs -exp scale"},
		{[]string{"-exp", "table1", "-jobs", "3"}, "-jobs needs -exp scale"},
		{[]string{"-exp", "table1", "-levels", "9"}, "-levels needs -exp chaos"},
		{[]string{"-exp", "scale", "-levels", "1"}, "-levels needs -exp chaos"},
		{[]string{"-exp", "fig1", "-level", "1"}, "-level needs -exp all|ablations|seeds|ablate|faults"},
		{[]string{"-exp", "chaos", "-level", "1"}, "-level needs -exp"},
		{[]string{"-exp", "seeds", "-nodes", "32"}, "-nodes needs -exp scale"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestScaleFlags(t *testing.T) {
	// One 32-node point with 8 submissions: -nodes and -jobs reach the
	// sweep.
	if err := run([]string{"-exp", "scale", "-nodes", "32", "-jobs", "8", "-parallel", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogExperiments(t *testing.T) {
	// The two table experiments run no simulations and must be fast.
	if err := run([]string{"-exp", "table1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "table2"}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelFlag(t *testing.T) {
	// The catalog experiments run no simulations; this just pins that the
	// -parallel flag parses and threads through the config builder.
	if err := run([]string{"-exp", "table1", "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "table1", "-parallel", "0"}); err != nil {
		t.Fatal(err)
	}
}
