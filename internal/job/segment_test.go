package job_test

import (
	"math"
	"testing"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/workload"
)

// piece names the profile piece MemoryDemandAtMB evaluates at a service:
// -1 at progress 0, else the first phase whose EndFrac is at or above the
// progress. A Segment must cover exactly the services of one piece.
func piece(j *job.Job, service time.Duration) int {
	if len(j.Phases) == 0 {
		return 0
	}
	frac := j.ProgressAt(service)
	if frac <= 0 {
		return -1
	}
	for i, p := range j.Phases {
		if frac <= p.EndFrac {
			return i
		}
	}
	return len(j.Phases)
}

// lastAtOrBelow finds the largest service in [0, CPUDemand] whose progress
// is at or below frac by bisection, independently of SegmentAt's estimate.
func lastAtOrBelow(j *job.Job, frac float64) time.Duration {
	lo, hi := time.Duration(0), j.CPUDemand
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if j.ProgressAt(mid) <= frac {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// checkSegment asserts the cursor identity at service: SegmentAt covers
// it, its bounds are exact (the neighbours just outside belong to another
// piece, the ends just inside to the same one), and DemandAt is
// bit-identical to MemoryDemandAtMB(ProgressAt(s)) at every covered
// service near either bound.
func checkSegment(t *testing.T, j *job.Job, service time.Duration) {
	t.Helper()
	s := j.SegmentAt(service)
	if !s.Covers(service) {
		t.Fatalf("SegmentAt(%d) = (%d, %d] does not cover it", service, s.From, s.Until)
	}
	want := piece(j, service)
	for _, p := range []time.Duration{s.From - 1, s.From, s.From + 1, s.Until - 1, s.Until, s.Until + 1, service} {
		if p < 0 { // below service 0, or Until+1 wrapped past the largest service
			continue
		}
		if !s.Covers(p) {
			if got := piece(j, p); got == want {
				t.Fatalf("SegmentAt(%d) = (%d, %d] misses service %d of the same piece %d", service, s.From, s.Until, p, want)
			}
			continue
		}
		if got := piece(j, p); got != want {
			t.Fatalf("SegmentAt(%d) = (%d, %d] covers service %d of piece %d, not %d", service, s.From, s.Until, p, got, want)
		}
		ref := j.MemoryDemandAtMB(j.ProgressAt(p))
		if got := s.DemandAt(p); math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("SegmentAt(%d).DemandAt(%d) = %v (%#x), MemoryDemandAtMB = %v (%#x)",
				service, p, got, math.Float64bits(got), ref, math.Float64bits(ref))
		}
	}
}

func TestSegmentAt(t *testing.T) {
	metis, ok := workload.ByName("metis")
	if !ok {
		t.Fatal("metis missing")
	}
	cases := []struct {
		name   string
		cpu    time.Duration
		phases []job.Phase
	}{
		{"no phases", 10 * time.Second, nil},
		{"zero-span phases", 10 * time.Second, []job.Phase{
			{EndFrac: 0, StartMB: 5, EndMB: 7},
			{EndFrac: 0.3, StartMB: 10, EndMB: 20},
			{EndFrac: 0.3, StartMB: 30, EndMB: 30},
			{EndFrac: 0.3, StartMB: 40, EndMB: 45},
			{EndFrac: 0.7, StartMB: 50, EndMB: 50},
			{EndFrac: 1, StartMB: 50, EndMB: 60},
			{EndFrac: 1, StartMB: 70, EndMB: 70},
		}},
		{"metis down-then-up ramp", metis.Lifetime, metis.Phases(metis.WorkingSetMB)},
		{"ramp ending at progress 1", 7 * time.Second, []job.Phase{
			{EndFrac: 0.1, StartMB: 12, EndMB: 12},
			{EndFrac: 1, StartMB: 12, EndMB: 97.3},
		}},
		{"1 ns CPU demand", 1, []job.Phase{
			{EndFrac: 0.4, StartMB: 1, EndMB: 2},
			{EndFrac: 1, StartMB: 2, EndMB: 8},
		}},
		{"3 ns CPU demand, unrepresentable boundaries", 3, []job.Phase{
			{EndFrac: 0.1, StartMB: 1, EndMB: 2},
			{EndFrac: 1.0 / 3, StartMB: 2, EndMB: 2},
			{EndFrac: 2.0 / 3, StartMB: 2, EndMB: 5},
			{EndFrac: 1, StartMB: 5, EndMB: 3},
		}},
		{"huge CPU demand", math.MaxInt64 - 12345, []job.Phase{
			{EndFrac: 0.1, StartMB: 10, EndMB: 80},
			{EndFrac: 0.7, StartMB: 80, EndMB: 80},
			{EndFrac: 1, StartMB: 80, EndMB: 40},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j, err := job.New(1, "segment", c.cpu, c.phases, 0)
			if err != nil {
				t.Fatal(err)
			}
			services := []time.Duration{0, 1, 2, c.cpu - 1, c.cpu, c.cpu + 1}
			for _, p := range c.phases {
				b := lastAtOrBelow(j, p.EndFrac)
				services = append(services, b-1, b, b+1)
			}
			for _, s := range services {
				if s >= 0 {
					checkSegment(t, j, s)
				}
			}
		})
	}
}

// TestSegmentAtBounds pins the exact stretches of a two-phase profile
// whose boundary falls between services.
func TestSegmentAtBounds(t *testing.T) {
	j, err := job.New(1, "bounds", 10, []job.Phase{
		{EndFrac: 0.25, StartMB: 10, EndMB: 30}, // progress 0.2 at 2, 0.3 at 3
		{EndFrac: 1, StartMB: 30, EndMB: 30},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		service     time.Duration
		from, until time.Duration
		flat        bool
	}{
		{0, -1, 0, true},
		{1, 0, 2, false},
		{2, 0, 2, false},
		{3, 2, math.MaxInt64, true},
		{10, 2, math.MaxInt64, true},
		{11, 2, math.MaxInt64, true},
	} {
		s := j.SegmentAt(c.service)
		if s.From != c.from || s.Until != c.until || s.Flat() != c.flat {
			t.Errorf("SegmentAt(%d) = (%d, %d] flat=%v, want (%d, %d] flat=%v",
				c.service, s.From, s.Until, s.Flat(), c.from, c.until, c.flat)
		}
	}
	var zero job.Segment
	for _, s := range []time.Duration{-1, 0, 1} {
		if zero.Covers(s) {
			t.Errorf("zero Segment covers %d", s)
		}
	}
}

// FuzzSegmentAt asserts the cursor identity on drawn profiles and
// services: CPU demands from 1 ns to the largest duration, boundaries that
// repeat (zero-span phases) or fall between services, up, down and flat
// phases, and demands of 0, -0 and +Inf.
func FuzzSegmentAt(f *testing.F) {
	f.Fuzz(func(t *testing.T, cpu, service int64, profile []byte) {
		cpu &= math.MaxInt64
		if cpu == 0 {
			cpu = 1
		}
		service &= math.MaxInt64
		if cpu <= math.MaxInt64/2 {
			service %= 2*cpu + 1
		}
		var phases []job.Phase
		frac, mb := 0.0, 0.0
		for len(profile) >= 3 && len(phases) < 8 {
			b, m, shape := profile[0], profile[1], profile[2]
			profile = profile[3:]
			frac += (1 - frac) * float64(b) / 255
			start := mb
			switch shape % 4 {
			case 0:
				mb = float64(m) * 1.7
			case 1: // flat
			case 2:
				start, mb = math.Copysign(0, -1), math.Copysign(0, -1)
			case 3:
				if m == 0 {
					mb = math.Inf(1)
				} else {
					mb = float64(m) / 3
				}
			}
			phases = append(phases, job.Phase{EndFrac: min(frac, 1), StartMB: start, EndMB: mb})
		}
		if len(phases) > 0 {
			phases[len(phases)-1].EndFrac = 1
		}
		j, err := job.New(1, "fuzz", time.Duration(cpu), phases, 0)
		if err != nil {
			t.Skip(err)
		}
		checkSegment(t, j, time.Duration(service))
	})
}
