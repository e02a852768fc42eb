package audit

import (
	"strings"
	"testing"
	"time"

	"vrcluster/internal/obs"
)

// clean is a consistent two-node snapshot every mutation test starts from.
func clean() Snapshot {
	return Snapshot{
		Now:     time.Minute,
		Arrived: 6,
		Done:    2,
		Killed:  1,
		Pending: []int{10},
		Wire:    []int{11},
		Nodes: []NodeView{
			{ID: 0, Resident: []int{12}, IdleMB: 40, UserMB: 100, Slots: 4},
			{ID: 1, IdleMB: 100, UserMB: 100, Slots: 4},
		},
	}
}

func TestCheckCleanSnapshot(t *testing.T) {
	a := New()
	if err := a.Check(clean()); err != nil {
		t.Fatalf("clean snapshot flagged: %v", err)
	}
	if a.Checks() != 1 || len(a.Violations()) != 0 {
		t.Errorf("checks %d violations %d, want 1 and 0", a.Checks(), len(a.Violations()))
	}
}

// TestCheckFlagsEachInvariant breaks one invariant per case and expects the
// auditor to name exactly that invariant. Where detail is set, the whole
// message is pinned too.
func TestCheckFlagsEachInvariant(t *testing.T) {
	cases := []struct {
		name      string
		invariant string
		detail    string
		mutate    func(*Snapshot)
	}{
		{"lost job", "job conservation", "", func(s *Snapshot) { s.Arrived++ }},
		{"phantom job", "job conservation", "", func(s *Snapshot) { s.Arrived-- }},
		{"duplicated across nodes", "job uniqueness",
			"job 12 in resident on node 0 and resident on node 1", func(s *Snapshot) {
				s.Nodes[1].Resident = []int{12}
			}},
		{"resident and pending", "job uniqueness",
			"job 12 in resident on node 0 and pending queue", func(s *Snapshot) {
				s.Pending = append(s.Pending, 12)
			}},
		{"wire and stranded", "job uniqueness",
			"job 11 in stranded pool and migration wire", func(s *Snapshot) {
				s.Stranded = append(s.Stranded, 11)
			}},
		{"negative job ID", "job identity",
			"job -3 in pending queue has a negative ID", func(s *Snapshot) {
				s.Pending = append(s.Pending, -3)
			}},
		{"removed node holds job", "removed-node emptiness", "", func(s *Snapshot) {
			s.Nodes[0].Removed = true
		}},
		{"removed node holds hold", "removed-node emptiness",
			"removed node 1 holds 0 resident and 1 expected jobs", func(s *Snapshot) {
				s.Nodes[1].Removed = true
				s.Nodes[1].Held = 1
			}},
		{"removed node reserved", "lease integrity", "", func(s *Snapshot) {
			s.Nodes[1].Removed = true
			s.Nodes[1].Reserved = true
		}},
		{"removed while draining", "membership lifecycle", "", func(s *Snapshot) {
			s.Nodes[1].Removed = true
			s.Nodes[1].Draining = true
		}},
		{"down node holds job", "crash emptiness", "", func(s *Snapshot) {
			s.Nodes[0].Down = true
		}},
		{"negative idle", "memory accounting", "", func(s *Snapshot) {
			s.Nodes[0].IdleMB = -1
		}},
		{"idle above capacity", "memory accounting", "", func(s *Snapshot) {
			s.Nodes[0].IdleMB = s.Nodes[0].UserMB + 1
		}},
		{"slot overflow", "slot discipline",
			"node 0 holds 1 resident + 4 expected over 4 slots", func(s *Snapshot) {
				s.Nodes[0].Held = 4
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New()
			s := clean()
			tc.mutate(&s)
			err := a.Check(s)
			if err == nil {
				t.Fatalf("broken snapshot passed the audit")
			}
			v, ok := err.(Violation)
			if !ok {
				t.Fatalf("error is not a Violation: %v", err)
			}
			if v.Invariant != tc.invariant {
				t.Errorf("flagged %q, want %q (%v)", v.Invariant, tc.invariant, err)
			}
			if tc.detail != "" && v.Detail != tc.detail {
				t.Errorf("detail %q, want %q", v.Detail, tc.detail)
			}
			if v.At != time.Minute || !strings.Contains(err.Error(), "1m") {
				t.Errorf("violation lost the virtual time: %v", err)
			}
			if len(a.Violations()) != 1 {
				t.Errorf("recorded %d violations, want 1", len(a.Violations()))
			}
		})
	}
}

// TestCheckReusesSeenSet runs one auditor over a violating snapshot and
// then a clean one: the jobs found by the first check must not leak into
// the second.
func TestCheckReusesSeenSet(t *testing.T) {
	a := New()
	dup := clean()
	dup.Pending = append(dup.Pending, 12)
	if err := a.Check(dup); err == nil {
		t.Fatal("duplicated job passed the audit")
	}
	for i := 0; i < 2; i++ {
		if err := a.Check(clean()); err != nil {
			t.Fatalf("clean snapshot flagged after a violation (check %d): %v", i+2, err)
		}
	}
	if a.Checks() != 3 || len(a.Violations()) != 1 {
		t.Errorf("checks %d violations %d, want 3 and 1", a.Checks(), len(a.Violations()))
	}
}

// TestCheckStampsSurviveRewind covers the fork pattern: checks run past a
// snapshot point, the auditor is rewound, and the next continuation takes
// other paths. A job stamped only by the abandoned checks must not read as
// seen when it turns up again at the same check count, while a real
// duplicate is still caught.
func TestCheckStampsSurviveRewind(t *testing.T) {
	a := New()
	if err := a.Check(clean()); err != nil {
		t.Fatal(err)
	}
	abandoned := clean()
	abandoned.Pending = append(abandoned.Pending, 13)
	abandoned.Arrived++
	for i := 0; i < 3; i++ { // checks 2-4, then rewound away
		if err := a.Check(abandoned); err != nil {
			t.Fatal(err)
		}
	}
	a.Rewind(1, 0)
	for i := 0; i < 2; i++ { // checks 2-3 without job 13
		if err := a.Check(clean()); err != nil {
			t.Fatalf("check %d after rewind: %v", i+2, err)
		}
	}
	// Check 4 again, with job 13 back where the abandoned check 4 saw it.
	if err := a.Check(abandoned); err != nil {
		t.Fatalf("check 4 after rewind: false violation %v", err)
	}
	dup := abandoned
	dup.Stranded = []int{13}
	dup.Arrived++
	err := a.Check(dup)
	if v, ok := err.(Violation); !ok || v.Invariant != "job uniqueness" {
		t.Fatalf("duplicate after rewind: got %v, want a job uniqueness violation", err)
	}
	if a.Checks() != 5 || len(a.Violations()) != 1 {
		t.Errorf("checks %d violations %d, want 5 and 1", a.Checks(), len(a.Violations()))
	}
}

// TestCheckGrowsForLargeJobIDs checks job IDs far past any seen so far.
func TestCheckGrowsForLargeJobIDs(t *testing.T) {
	a := New()
	s := clean()
	s.Pending = []int{100000}
	if err := a.Check(s); err != nil {
		t.Fatal(err)
	}
	s.Wire = []int{100000}
	if err := a.Check(s); err == nil {
		t.Fatal("duplicated large job ID passed the audit")
	}
}

func TestCheckTrace(t *testing.T) {
	removed := map[int]time.Duration{3: 10 * time.Second}
	events := []obs.Event{
		{At: 5 * time.Second, Kind: obs.KindJobAdmit, Node: 3},    // before removal
		{At: 15 * time.Second, Kind: obs.KindJobDone, Node: 2},    // other node
		{At: 15 * time.Second, Kind: obs.KindJobSubmit, Node: -1}, // cluster-scoped
		{At: 10 * time.Second, Kind: obs.KindNodeRemove, Node: 3}, // the removal itself
	}
	a := New()
	if err := a.CheckTrace(events, removed); err != nil {
		t.Fatalf("legal trace flagged: %v", err)
	}
	bad := append(events, obs.Event{At: 20 * time.Second, Kind: obs.KindJobAdmit, Node: 3})
	if err := a.CheckTrace(bad, removed); err == nil {
		t.Fatal("post-removal event passed the audit")
	} else if v := err.(Violation); v.Invariant != "no events to removed nodes" {
		t.Errorf("flagged %q", v.Invariant)
	}
	// With no removals the trace scan is a no-op.
	if err := New().CheckTrace(bad, nil); err != nil {
		t.Errorf("trace audit without removals flagged: %v", err)
	}
}
