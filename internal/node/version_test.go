package node

import (
	"reflect"
	"testing"
	"time"
)

// versionCase drives one status mutator on a fresh node: prep brings the
// node to a state the mutator accepts, act calls it.
type versionCase struct {
	method string
	prep   func(t *testing.T, n *Node)
	act    func(t *testing.T, n *Node) error
}

// admitOne admits a 10 s, 10 MB job as job 1.
func admitOne(t *testing.T, n *Node) {
	t.Helper()
	if err := n.Admit(newJob(t, 1, 10*time.Second, 10), 0); err != nil {
		t.Fatal(err)
	}
}

// statusMutators lists every exported Node method that may change what
// LoadStatus returns. The load board skips a workstation whose
// StatusVersion has not moved since its last refresh, so each must move it.
var statusMutators = []versionCase{
	{"Admit", nil, func(t *testing.T, n *Node) error {
		return n.Admit(newJob(t, 1, 10*time.Second, 10), 0)
	}},
	{"AttachMigrated", nil, func(t *testing.T, n *Node) error {
		src := newNode(t, 128, 4)
		j := newJob(t, 1, 10*time.Second, 10)
		if err := src.Admit(j, 0); err != nil {
			t.Fatal(err)
		}
		if err := src.Detach(j, 0); err != nil {
			t.Fatal(err)
		}
		return n.AttachMigrated(j, time.Second, false, time.Second)
	}},
	{"Detach", admitOne, func(t *testing.T, n *Node) error {
		return n.Detach(n.JobAt(0), time.Second)
	}},
	{"ExpectMigration", nil, func(t *testing.T, n *Node) error {
		return n.ExpectMigration(7, 10)
	}},
	{"CancelExpected", func(t *testing.T, n *Node) {
		if err := n.ExpectMigration(7, 10); err != nil {
			t.Fatal(err)
		}
	}, func(t *testing.T, n *Node) error { return n.CancelExpected(7) }},
	{"SetReserved", nil, func(t *testing.T, n *Node) error { n.SetReserved(true); return nil }},
	{"Crash", admitOne, func(t *testing.T, n *Node) error {
		_, err := n.Crash(time.Second)
		return err
	}},
	{"Recover", func(t *testing.T, n *Node) {
		if _, err := n.Crash(0); err != nil {
			t.Fatal(err)
		}
	}, func(t *testing.T, n *Node) error { return n.Recover() }},
	{"StartDrain", nil, func(t *testing.T, n *Node) error { return n.StartDrain() }},
	{"Remove", nil, func(t *testing.T, n *Node) error { return n.Remove() }},
	{"Restore", nil, func(t *testing.T, n *Node) error { n.Restore(n.Snapshot()); return nil }},
	{"Fold", admitOne, func(t *testing.T, n *Node) error {
		_, err := n.Fold(10*time.Millisecond, 10*time.Millisecond, 3)
		return err
	}},
}

// statusNeutral lists every other exported Node method: accessors, and
// setters of hooks that observe the node without changing its status.
var statusNeutral = []string{
	"CPUDelivered", "CacheAvailability", "CompletionFloor", "Config", "DemandAt", "Down",
	"Draining", "ExpectedCount", "HasSlot", "ID", "IOActiveJobs",
	"IOStall", "IdleMB", "JobAt", "Jobs", "LoadStatus", "Memory",
	"MostMemoryIntensiveJob", "NumJobs", "Pressured", "Removed", "Reserved",
	"ReservedJobCount", "SetPressureWatcher", "SetResidencyWatcher",
	"SetTracer", "Slots", "Snapshot", "SpeedFactor", "StatusVersion",
}

func TestStatusVersionMovesOnEveryMutator(t *testing.T) {
	for _, tc := range statusMutators {
		t.Run(tc.method, func(t *testing.T) {
			n := newNode(t, 128, 4)
			if tc.prep != nil {
				tc.prep(t, n)
			}
			v := n.StatusVersion()
			if err := tc.act(t, n); err != nil {
				t.Fatal(err)
			}
			if n.StatusVersion() == v {
				t.Errorf("%s left the status version at %d", tc.method, v)
			}
		})
	}
	// A demand changed through the exposed memory manager moves it too.
	n := newNode(t, 128, 4)
	v := n.StatusVersion()
	if err := n.Memory().Register(9, 5); err != nil {
		t.Fatal(err)
	}
	if n.StatusVersion() == v {
		t.Error("Memory().Register left the status version unchanged")
	}
}

// TestStatusVersionNeutralMethods calls every status-neutral method, with
// zero arguments, on a node holding a resident job, and requires the
// version to stand still.
func TestStatusVersionNeutralMethods(t *testing.T) {
	n := newNode(t, 128, 4)
	admitOne(t, n)
	v := n.StatusVersion()
	rv := reflect.ValueOf(n)
	for _, name := range statusNeutral {
		m := rv.MethodByName(name)
		if !m.IsValid() {
			t.Errorf("statusNeutral names %s, which *Node does not have", name)
			continue
		}
		args := make([]reflect.Value, m.Type().NumIn())
		for i := range args {
			args[i] = reflect.Zero(m.Type().In(i))
		}
		m.Call(args)
		if got := n.StatusVersion(); got != v {
			t.Errorf("%s moved the status version from %d to %d", name, v, got)
			v = got
		}
	}
}

// TestStatusMethodsClassified fails when an exported Node method is listed
// as neither a status mutator nor status-neutral: a new method must be put
// in one of the two lists, and, if it may change LoadStatus, bump the
// version.
func TestStatusMethodsClassified(t *testing.T) {
	known := make(map[string]int)
	for _, tc := range statusMutators {
		known[tc.method]++
	}
	for _, name := range statusNeutral {
		known[name]++
	}
	typ := reflect.TypeOf((*Node)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		switch name := typ.Method(i).Name; known[name] {
		case 0:
			t.Errorf("(*Node).%s is neither a status mutator nor status-neutral", name)
		case 1:
		default:
			t.Errorf("(*Node).%s is listed more than once", name)
		}
		delete(known, typ.Method(i).Name)
	}
	for name := range known {
		t.Errorf("%s is listed but *Node has no such method", name)
	}
}
