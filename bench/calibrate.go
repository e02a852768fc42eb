package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"unsafe"
)

// The benchmark runs on a few virtual CPUs of a shared host, where other
// guests slow every instruction stream by tens of percent for minutes at a
// time: they share the caches, the memory bus and the cores' sibling
// threads, so the slowdown shows in CPU time as well as in wall time. A
// calibration loop runs around every pass and measures that speed. It is a
// fixed computation that does not touch the simulator, so a change to the
// simulator cannot move it, and the end-to-end times are scaled by how
// long it took against how long it takes on the reference host.

// calibRefSeconds is about what one calibration round takes on the
// reference host, the 2-vCPU Intel Xeon virtual machine the baseline was
// measured on, in a quiet period; a time scaled to it reads as CPU seconds
// on that host.
const calibRefSeconds = 0.0032

// calibrator holds the loop's inputs, built once per child. They are
// pointer-free, so the passes' collections do not scan them, and the loop
// allocates nothing, so it starts no collection of its own.
type calibrator struct {
	next   []int32 // one random cycle through every index
	keys   map[uint32]uint32
	list   []uint32 // the map's keys
	xs     []float64
	ys     []float64
	stream []uint64 // streamBytes, mapped outside the Go heap
	sink   uint64
}

// streamBytes is larger than the 2 MB L2 cache of the reference host. The
// buffer is mapped outside the Go heap, so it does not raise the heap goal
// the collector paces the passes by; it stays mapped until the child exits.
const streamBytes = 4 << 20

func newCalibrator() (*calibrator, error) {
	const n = 1 << 15
	buf, err := syscall.Mmap(-1, 0, streamBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{
		next:   make([]int32, n),
		keys:   make(map[uint32]uint32, 4096),
		list:   make([]uint32, 4096),
		xs:     make([]float64, 4096),
		ys:     make([]float64, 4096),
		stream: unsafe.Slice((*uint64)(unsafe.Pointer(&buf[0])), streamBytes/8),
	}
	perm := rng.Perm(n)
	for i, p := range perm {
		c.next[p] = int32(perm[(i+1)%n])
	}
	for i := 0; i < 4096; i++ {
		c.list[i] = rng.Uint32()
		c.keys[c.list[i]] = uint32(i)
		c.xs[i] = rng.Float64()
	}
	return c, nil
}

// round is one pass of the loop: a dependent walk through memory, map
// lookups, a branchy floating-point sweep and integer mixing, the kinds of
// work the simulator's layers do, and sweeps through the 4 MB buffer,
// which go to the cache level the host's guests share, as the passes'
// fresh allocations do. The sweeps take about a third of the round; adding
// them cut the window-to-window spread of the scaled 90th percentile by
// about a third on paper and pressured.
func (c *calibrator) round() {
	j, acc := int32(0), uint64(0)
	for i := 0; i < 1<<17; i++ {
		j = c.next[j]
		acc += uint64(j)
	}
	x := uint64(88172645463325252)
	for i := 0; i < 1<<16; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += uint64(c.keys[c.list[x%4096]])
	}
	copy(c.ys, c.xs)
	for r := 0; r < 48; r++ {
		for i, v := range c.xs {
			y := c.ys[i]*0.999 + v*1e-3
			if y > 0.5 {
				y -= 0.25
			}
			c.ys[i] = y
		}
	}
	for i := 0; i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	for r := 0; r < 4; r++ {
		for i := range c.stream {
			c.stream[i] += uint64(i)
		}
	}
	c.sink += acc + x
}

// measure runs one untimed round, so the loop's data is back in cache
// whatever the pass left there, then times one round in CPU seconds.
func (c *calibrator) measure() float64 {
	c.round()
	start := cpuSeconds()
	c.round()
	return cpuSeconds() - start
}

// hostScale is the factor that turns CPU seconds measured beside the given
// calibration times into reference-host seconds: the reference loop time
// over the median loop time.
func hostScale(calib []float64) float64 {
	return calibRefSeconds / median(calib)
}
