package faults

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"vrcluster/internal/sim"
)

// planCodec reads and writes a plan as fuzz bytes: the seed and the two
// rates as eight bytes each (rates as raw float64 bits, so NaN and the
// infinities are reachable), every duration as a signed 32-bit count of
// milliseconds, the crash policy and the domain count as one signed byte
// (which keeps each input's streams small), the retry cap as two, and a
// last byte picking 1–16 nodes. Reads past the end give zeros.
type planCodec struct{ b []byte }

func (c *planCodec) next(n int) uint64 {
	var w [8]byte
	k := copy(w[:n], c.b)
	c.b = c.b[k:]
	return binary.LittleEndian.Uint64(w[:])
}

func (c *planCodec) put(n int, v uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	c.b = append(c.b, w[:n]...)
}

func (c *planCodec) ms() time.Duration {
	return time.Duration(int32(c.next(4))) * time.Millisecond
}

func (c *planCodec) putMS(d time.Duration) { c.put(4, uint64(d/time.Millisecond)) }

func decodePlan(b []byte) (p Plan, nodes int) {
	c := &planCodec{b: b}
	p.Seed = int64(c.next(8))
	p.MTBF = c.ms()
	p.MTTR = c.ms()
	p.Crash = CrashPolicy(int8(c.next(1)))
	p.DropRate = math.Float64frombits(c.next(8))
	p.AbortRate = math.Float64frombits(c.next(8))
	p.MaxRetries = int(int16(c.next(2)))
	p.RetryBackoff = c.ms()
	p.DegradeAfter = c.ms()
	p.Domains = int(int8(c.next(1)))
	p.DomainMTBF = c.ms()
	p.DomainMTTR = c.ms()
	p.PartitionMTBF = c.ms()
	p.PartitionMTTR = c.ms()
	return p, 1 + int(c.next(1)%16)
}

func encodePlan(p Plan, nodes int) []byte {
	c := &planCodec{}
	c.put(8, uint64(p.Seed))
	c.putMS(p.MTBF)
	c.putMS(p.MTTR)
	c.put(1, uint64(p.Crash))
	c.put(8, math.Float64bits(p.DropRate))
	c.put(8, math.Float64bits(p.AbortRate))
	c.put(2, uint64(p.MaxRetries))
	c.putMS(p.RetryBackoff)
	c.putMS(p.DegradeAfter)
	c.put(1, uint64(p.Domains))
	c.putMS(p.DomainMTBF)
	c.putMS(p.DomainMTTR)
	c.putMS(p.PartitionMTBF)
	c.putMS(p.PartitionMTTR)
	c.put(1, uint64(nodes-1))
	return c.b
}

// FuzzPlanValidate decodes bytes into a plan. Validate must either reject
// it or return a plan that a second Validate leaves unchanged, and for
// such a plan NewInjector, Start, AddNode and a few control periods, abort
// draws and fault events must not panic.
func FuzzPlanValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodePlan(chaosPlan(), 8))
	f.Add(encodePlan(Plan{Seed: -3, MTBF: time.Hour, Crash: Requeue, DropRate: 0.05,
		AbortRate: 0.1, Domains: 8, DomainMTBF: 3 * time.Hour, PartitionMTBF: 2 * time.Hour}, 16))
	f.Add(encodePlan(Plan{MTBF: time.Millisecond, DropRate: 1, AbortRate: 1, Domains: 20,
		PartitionMTBF: time.Millisecond, DegradeAfter: -time.Second}, 1))
	f.Add(encodePlan(Plan{DropRate: math.NaN()}, 4))
	f.Add(encodePlan(Plan{DomainMTBF: time.Minute}, 4))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, nodes := decodePlan(b)
		if err := p.Validate(); err != nil {
			return
		}
		again := p
		if err := again.Validate(); err != nil || again != p {
			t.Fatalf("second Validate changed %+v to %+v (err %v)", p, again, err)
		}
		e := sim.NewEngine()
		in, err := NewInjector(e, p, nodes, Hooks{})
		if err != nil {
			t.Fatalf("validated plan %+v refused: %v", p, err)
		}
		in.Start()
		for i := 0; i < 8; i++ {
			if i == 4 {
				if err := in.AddNode(nodes); err != nil {
					t.Fatal(err)
				}
			}
			in.Drops()
			in.AbortMigration()
			e.Step()
		}
	})
}
