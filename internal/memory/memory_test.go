package memory

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func newMgr(t *testing.T, capacityMB float64) *Manager {
	t.Helper()
	m, err := NewManager(Config{CapacityMB: capacityMB, UserFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigDefaults(t *testing.T) {
	m, err := NewManager(Config{CapacityMB: 384})
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	if cfg.UserFraction != DefaultUserFraction {
		t.Errorf("user fraction = %v", cfg.UserFraction)
	}
	if cfg.PageKB != DefaultPageKB || cfg.FaultService != DefaultFaultService || cfg.FaultScale != DefaultFaultScale {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if got, want := m.UserMB(), 384*DefaultUserFraction; math.Abs(got-want) > 1e-9 {
		t.Errorf("UserMB = %v, want %v", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero capacity", Config{}},
		{"negative capacity", Config{CapacityMB: -1}},
		{"user fraction > 1", Config{CapacityMB: 1, UserFraction: 1.5}},
		{"negative page", Config{CapacityMB: 1, PageKB: -4}},
		{"negative service", Config{CapacityMB: 1, FaultService: -time.Second}},
		{"negative scale", Config{CapacityMB: 1, FaultScale: -3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewManager(tt.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestRegisterUpdateRemove(t *testing.T) {
	m := newMgr(t, 100)
	if err := m.Register(1, 30); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(1, 10); err == nil {
		t.Error("double register should fail")
	}
	if err := m.Register(2, -1); err == nil {
		t.Error("negative demand should fail")
	}
	if err := m.Register(2, 20); err != nil {
		t.Fatal(err)
	}
	if m.Jobs() != 2 || m.DemandMB() != 50 || m.IdleMB() != 50 {
		t.Errorf("jobs=%d demand=%v idle=%v", m.Jobs(), m.DemandMB(), m.IdleMB())
	}
	if err := m.Update(1, 60); err != nil {
		t.Fatal(err)
	}
	if m.DemandMB() != 80 || m.IdleMB() != 20 {
		t.Errorf("after update demand=%v idle=%v", m.DemandMB(), m.IdleMB())
	}
	if err := m.Update(3, 10); err == nil {
		t.Error("update of unknown job should fail")
	}
	if err := m.Update(1, -10); err == nil {
		t.Error("negative update should fail")
	}
	if err := m.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(1); err == nil {
		t.Error("double remove should fail")
	}
	if m.Jobs() != 1 || m.DemandMB() != 20 {
		t.Errorf("after remove jobs=%d demand=%v", m.Jobs(), m.DemandMB())
	}
}

func TestPressureAndIdleClamp(t *testing.T) {
	m := newMgr(t, 100)
	if m.Pressured() {
		t.Error("empty manager pressured")
	}
	if err := m.Register(1, 150); err != nil {
		t.Fatal(err)
	}
	if !m.Pressured() {
		t.Error("overcommitted manager not pressured")
	}
	if m.IdleMB() != 0 {
		t.Errorf("idle = %v under pressure, want 0", m.IdleMB())
	}
	if got := m.Overcommit(); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("overcommit = %v, want 1.5", got)
	}
}

func TestFaultRateShape(t *testing.T) {
	m := newMgr(t, 100)
	if m.FaultRate() != 0 || m.StallPerCPUSecond() != 0 {
		t.Error("no pressure should mean no faults")
	}
	if err := m.Register(1, 100); err != nil {
		t.Fatal(err)
	}
	if m.FaultRate() != 0 {
		t.Error("exactly full should not fault")
	}
	// Increasing overcommit must strictly increase fault rate.
	prev := 0.0
	for _, d := range []float64{120, 150, 200, 400, 1000} {
		if err := m.Update(1, d); err != nil {
			t.Fatal(err)
		}
		r := m.FaultRate()
		if r <= prev {
			t.Errorf("fault rate %v at demand %v not above %v", r, d, prev)
		}
		prev = r
	}
	// The cap keeps the rate finite even at absurd overcommit.
	if err := m.Update(1, 1e9); err != nil {
		t.Fatal(err)
	}
	if r := m.FaultRate(); math.IsInf(r, 1) || r > m.Config().FaultScale*0.97/0.03+1 {
		t.Errorf("capped rate = %v", r)
	}
}

func TestStallUsesFaultService(t *testing.T) {
	m, err := NewManager(Config{CapacityMB: 100, UserFraction: 1, FaultService: 20 * time.Millisecond, FaultScale: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(1, 200); err != nil {
		t.Fatal(err)
	}
	// u = 0.5 -> rate = 10*0.5/0.5 = 10 faults/cpu-sec -> 0.2 s stall.
	if got := m.StallPerCPUSecond(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("stall = %v, want 0.2", got)
	}
}

// Property: for any sequence of register/update/remove operations, the
// accounting identity idle + min(demand, user) == user holds and demand is
// the sum of live registrations.
func TestConservationProperty(t *testing.T) {
	type op struct {
		Kind   uint8
		JobID  uint8
		Demand uint16
	}
	f := func(ops []op) bool {
		m, err := NewManager(Config{CapacityMB: 256, UserFraction: 1})
		if err != nil {
			return false
		}
		live := make(map[int]float64)
		for _, o := range ops {
			id := int(o.JobID % 16)
			d := float64(o.Demand % 512)
			switch o.Kind % 3 {
			case 0:
				if err := m.Register(id, d); err == nil {
					live[id] = d
				}
			case 1:
				if err := m.Update(id, d); err == nil {
					live[id] = d
				}
			case 2:
				if err := m.Remove(id); err == nil {
					delete(live, id)
				}
			}
		}
		sum := 0.0
		for _, d := range live {
			sum += d
		}
		if math.Abs(sum-m.DemandMB()) > 1e-6 {
			return false
		}
		backed := math.Min(m.DemandMB(), m.UserMB())
		return math.Abs(m.IdleMB()+backed-m.UserMB()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRemoteBacking(t *testing.T) {
	m, err := NewManager(Config{CapacityMB: 100, UserFraction: 1, FaultService: 10 * time.Millisecond, FaultScale: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(1, 200); err != nil {
		t.Fatal(err)
	}
	disk := m.StallPerCPUSecond()
	if m.RemoteBacked() {
		t.Error("fresh manager should be disk backed")
	}
	m.SetRemoteBacking(2 * time.Millisecond)
	if !m.RemoteBacked() {
		t.Error("remote backing not applied")
	}
	remote := m.StallPerCPUSecond()
	if remote >= disk {
		t.Errorf("network RAM stall %v not below disk stall %v", remote, disk)
	}
	if got, want := remote/disk, 0.2; math.Abs(got-want) > 1e-9 {
		t.Errorf("stall ratio = %v, want %v (2ms vs 10ms service)", got, want)
	}
	// Clearing restores disk paging; negative input also clears.
	m.SetRemoteBacking(-time.Second)
	if m.RemoteBacked() || m.StallPerCPUSecond() != disk {
		t.Error("clearing remote backing did not restore disk service")
	}
}

// versionMutators lists every exported Manager method that may change what
// the manager reports. The load board skips a workstation whose status
// version has not moved since its last refresh, so each must bump Version.
var versionMutators = []struct {
	method string
	act    func(m *Manager) error
}{
	{"Register", func(m *Manager) error { return m.Register(2, 5) }},
	{"Update", func(m *Manager) error { return m.Update(1, 20) }},
	{"ReplayDemands", func(m *Manager) error { return m.ReplayDemands([]int{1}, []float64{30}, 30) }},
	{"Remove", func(m *Manager) error { return m.Remove(1) }},
	{"SetRemoteBacking", func(m *Manager) error { m.SetRemoteBacking(time.Millisecond); return nil }},
	{"Restore", func(m *Manager) error { m.Restore(m.Snapshot()); return nil }},
}

// versionNeutral lists every other exported Manager method: accessors and
// the read-only Replay cursor.
var versionNeutral = []string{
	"Config", "DemandMB", "FaultRate", "FaultRateAt", "IdleAtMB", "IdleMB",
	"Jobs", "Overcommit", "Pressured", "PressuredAt", "RemoteBacked",
	"Replay", "Snapshot", "StallPerCPUSecond", "StallPerCPUSecondAt",
	"UserMB", "Version",
}

// TestVersionMovesOnEveryMutator drives each mutator once, after
// registering job 1 at 10 MB, and requires the version to move.
func TestVersionMovesOnEveryMutator(t *testing.T) {
	for _, tc := range versionMutators {
		m := newMgr(t, 128)
		if err := m.Register(1, 10); err != nil {
			t.Fatal(err)
		}
		v := m.Version()
		if err := tc.act(m); err != nil {
			t.Fatalf("%s: %v", tc.method, err)
		}
		if m.Version() == v {
			t.Errorf("%s left the version at %d", tc.method, v)
		}
	}
}

// TestVersionNeutralMethods calls every version-neutral method, with zero
// arguments, on a pressured manager holding job 1, and requires the
// version to stand still.
func TestVersionNeutralMethods(t *testing.T) {
	m := newMgr(t, 128)
	if err := m.Register(1, 200); err != nil {
		t.Fatal(err)
	}
	v := m.Version()
	rv := reflect.ValueOf(m)
	for _, name := range versionNeutral {
		fn := rv.MethodByName(name)
		if !fn.IsValid() {
			t.Errorf("versionNeutral names %s, which *Manager does not have", name)
			continue
		}
		args := make([]reflect.Value, fn.Type().NumIn())
		for i := range args {
			args[i] = reflect.Zero(fn.Type().In(i))
		}
		fn.Call(args)
		if got := m.Version(); got != v {
			t.Errorf("%s moved the version from %d to %d", name, v, got)
			v = got
		}
	}
}

// TestVersionMethodsClassified fails when an exported Manager method is
// listed as neither a mutator nor version-neutral: a new method must be
// put in one of the two lists, and, if it may change what the manager
// reports, bump the version.
func TestVersionMethodsClassified(t *testing.T) {
	known := make(map[string]int)
	for _, tc := range versionMutators {
		known[tc.method]++
	}
	for _, name := range versionNeutral {
		known[name]++
	}
	typ := reflect.TypeOf((*Manager)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		switch name := typ.Method(i).Name; known[name] {
		case 0:
			t.Errorf("(*Manager).%s is neither a mutator nor version-neutral", name)
		case 1:
		default:
			t.Errorf("(*Manager).%s is listed more than once", name)
		}
		delete(known, typ.Method(i).Name)
	}
	for name := range known {
		t.Errorf("%s is listed but *Manager has no such method", name)
	}
}
