package metrics

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"vrcluster/internal/obs"
	"vrcluster/internal/stats"
)

// forkCase drives collectors, their clones and snapshots side by side
// with a plain []Sample per collector and per snapshot: the series each
// must read as.
type forkCase struct {
	cols     []*Collector
	want     [][]Sample
	snaps    []*CollectorSnapshot
	snapWant [][]Sample
	n        int // samples observed by any collector; makes every sample distinct
}

// maxForkCollectors bounds the live collector and its clones,
// maxForkOps the operations read from one input, and maxForkSamples the
// samples they observe in all.
const (
	maxForkCollectors = 8
	maxForkOps        = 32
	maxForkSamples    = 4 * chunkLen
)

func newForkCase(t *testing.T) *forkCase {
	t.Helper()
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return &forkCase{cols: []*Collector{c}, want: [][]Sample{nil}}
}

// observe records k samples on collector i, or as many as maxForkSamples
// leaves. Each is a two-node batch whose
// second node is reserved every seventh sample, so skew, running and
// reserved all vary.
func (f *forkCase) observe(i, k int) {
	for range min(k, maxForkSamples-f.n) {
		f.n++
		at := time.Duration(len(f.want[i])+1) * time.Second
		a, b := int32(f.n%5), int32(f.n%3)
		var flags uint8
		counts, reserved := []float64{float64(a)}, 0
		if f.n%7 == 0 {
			flags, reserved = obs.FlagReserved, 1
		} else {
			counts = append(counts, float64(b))
		}
		idle := float64(f.n) * 0.37
		pending := f.n % 4
		f.cols[i].Observe(at, []obs.Event{sample(0, idle, int(a), 0), sample(1, 1.5, int(b), flags)}, pending)
		f.want[i] = append(f.want[i], Sample{
			At: at, IdleMB: idle + 1.5, Skew: stats.StdDev(counts),
			Running: int(a + b), Pending: pending, Reserved: reserved,
		})
	}
}

// step applies one operation to collector who: observe, snapshot, restore
// to snapshot arg, or clone. It returns the collector it applied to.
func (f *forkCase) step(op, who, arg byte) (i int) {
	i = int(who) % len(f.cols)
	switch op % 4 {
	case 0:
		f.observe(i, int(arg)*4+1)
	case 1:
		f.snaps = append(f.snaps, f.cols[i].Snapshot())
		f.snapWant = append(f.snapWant, append([]Sample(nil), f.want[i]...))
	case 2:
		if len(f.snaps) == 0 {
			return i
		}
		k := int(arg) % len(f.snaps)
		f.cols[i].Restore(f.snaps[k])
		f.want[i] = append([]Sample(nil), f.snapWant[k]...)
	case 3:
		if len(f.cols) == maxForkCollectors {
			return i
		}
		f.cols = append(f.cols, f.cols[i].Clone())
		f.want = append(f.want, append([]Sample(nil), f.want[i]...))
	}
	return i
}

// modelCSV is WriteCSV over a plain slice.
func modelCSV(want []Sample) []byte {
	var buf bytes.Buffer
	buf.WriteString("seconds,idle_mb,skew,running,pending,reserved\n")
	for _, s := range want {
		fmt.Fprintf(&buf, "%.3f,%.3f,%.4f,%d,%d,%d\n",
			s.At.Seconds(), s.IdleMB, s.Skew, s.Running, s.Pending, s.Reserved)
	}
	return buf.Bytes()
}

// modelAvg is AvgIdleMB or AvgSkew over a plain slice.
func modelAvg(want []Sample, step int, f func(Sample) float64) float64 {
	var o stats.Online
	for i := 0; i < len(want); i += step {
		o.Add(f(want[i]))
	}
	return o.Mean()
}

// checkSeries requires c to read exactly want: its samples, its averages
// at several intervals and its CSV bytes.
func checkSeries(t *testing.T, label string, c *Collector, want []Sample) {
	t.Helper()
	if got := c.Samples(); !slices.Equal(got, want) {
		t.Fatalf("%s: Samples differ from the model (%d vs %d samples)", label, len(got), len(want))
	}
	for _, every := range []int{1, 2, 7, 60} {
		idle, errI := c.AvgIdleMB(time.Duration(every) * time.Second)
		skew, errS := c.AvgSkew(time.Duration(every) * time.Second)
		if len(want) == 0 {
			if errI == nil || errS == nil {
				t.Fatalf("%s: averages of an empty series should error", label)
			}
			continue
		}
		if errI != nil || errS != nil {
			t.Fatalf("%s: averages at %ds: %v, %v", label, every, errI, errS)
		}
		if w := modelAvg(want, every, func(s Sample) float64 { return s.IdleMB }); idle != w {
			t.Fatalf("%s: AvgIdleMB(%ds) = %v, model %v", label, every, idle, w)
		}
		if w := modelAvg(want, every, func(s Sample) float64 { return s.Skew }); skew != w {
			t.Fatalf("%s: AvgSkew(%ds) = %v, model %v", label, every, skew, w)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), modelCSV(want)) {
		t.Fatalf("%s: WriteCSV differs from the model", label)
	}
}

// FuzzCollectorFork drives a collector, its clones and snapshots through
// random Observe, Snapshot, Restore and Clone sequences. Each collector
// must read as its plain-slice model after every operation on it, and
// every collector and snapshot must at the end: in particular, earlier
// clones and snapshots keep their own samples after later restores
// rewrite the series they were taken from. The input is read as (op, collector, arg)
// triples; an observe records arg*4+1 samples, so a few cross a chunk.
func FuzzCollectorFork(f *testing.F) {
	f.Add([]byte{0, 0, 10, 1, 0, 0, 0, 0, 3, 2, 0, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*maxForkOps {
			data = data[:3*maxForkOps]
		}
		fc := newForkCase(t)
		for len(data) >= 3 {
			i := fc.step(data[0], data[1], data[2])
			data = data[3:]
			if got := fc.cols[i].Samples(); !slices.Equal(got, fc.want[i]) {
				t.Fatalf("collector %d: Samples differ from the model", i)
			}
		}
		for i, c := range fc.cols {
			checkSeries(t, fmt.Sprintf("collector %d", i), c, fc.want[i])
		}
		for k, s := range fc.snaps {
			probe, err := NewCollector(time.Second)
			if err != nil {
				t.Fatal(err)
			}
			probe.Restore(s)
			checkSeries(t, fmt.Sprintf("snapshot %d", k), probe, fc.snapWant[k])
		}
	})
}
