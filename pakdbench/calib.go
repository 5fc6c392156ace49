package main

import (
	"crypto/sha256"
	"math/big"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's time metrics are reported at a fixed reference speed
// of the host. On a shared VM the speed of the CPU the benchmark gets
// moves with the other tenants' load, from second to second and, by up
// to a factor of two, from one minute to the next. The program's own
// times move with it, so raw times of two runs of the same code differ
// by as much as a real change would.
//
// The client therefore runs a unit of fixed, allocation-free stdlib
// work (refKernel.unit) between two requests once every refEvery, and
// each refSlice of the window gets the median time of the units run in
// it. A request's times are multiplied by refNominal over its slice's
// median, which reads them as they would be on a host that runs the
// unit in refNominal; each set-up round likewise by the median of
// refSetupUnits units run just before it. The run has one P (procs), so
// while a unit runs nothing else of the process does: with one P per
// vCPU, units run beside the server's garbage collections took a third
// to three quarters longer, which would have tied the scale to the
// program's own allocation rate. The unit is the benchmark's own code,
// so a change to the program moves the scaled times as it moves the raw
// ones; the raw figures are written out too, in the # env line. The
// units' time is left out of every time metric.

// refNominal is the unit's median time on an idle 2-vCPU "Intel(R)
// Xeon(R) Processor" VM, the host the bounds were set on, so scaled
// times read about as raw ones on that host.
const refNominal = 500 * time.Microsecond

// refEvery is the time from one unit of the window to the next: about
// 50 units a slice, at a cost of 2.5% of the window.
const refEvery = 20 * time.Millisecond

// refSlice is the length of a window slice that shares one scale. One
// second, not the whole window: with one scale per run, eval-warm's
// time spreads over six runs on a busy host were 0.06–0.10, with one
// per second 0.05–0.08.
const refSlice = time.Second

// refSetupUnits is how many units scale a set-up round.
const refSetupUnits = 16

// refKernel holds the unit's inputs, allocated once before the heap
// baseline so that running a unit allocates nothing.
type refKernel struct {
	table      []uint32 // a random cycle, walked by dependent loads
	sink       uint32
	data       []byte
	keys       []uint64
	scratch    []uint64
	x, y, z, w big.Int
	sum        uint64
}

// The unit's buffers total about 56 KiB. Between two units the server
// runs megabytes through the caches, so timed() first reads one word
// of each cache line back in: the timed part then costs the same
// whatever the program left in the caches, and a change to the
// program's memory footprint does not move the scale.
const (
	refTableLen = 1 << 13 // 32 KiB
	refWalk     = 120000
	refDataLen  = 16 << 10
	refKeys     = 512
	refMulSteps = 6500
)

func newRefKernel() *refKernel {
	k := &refKernel{
		table:   make([]uint32, refTableLen),
		data:    make([]byte, refDataLen),
		keys:    make([]uint64, refKeys),
		scratch: make([]uint64, refKeys),
	}
	rng := newSplitmix(1, 0x7265665f6b65726e)
	// Sattolo's shuffle: one cycle through every slot.
	for i := range k.table {
		k.table[i] = uint32(i)
	}
	for i := len(k.table) - 1; i > 0; i-- {
		j := rng.intn(i)
		k.table[i], k.table[j] = k.table[j], k.table[i]
	}
	for i := range k.data {
		k.data[i] = byte(rng.next())
	}
	for i := range k.keys {
		k.keys[i] = rng.next()
	}
	k.x.SetUint64(rng.next())
	k.x.Lsh(&k.x, 190)
	k.y.SetUint64(rng.next() | 1)
	k.y.Lsh(&k.y, 120) // z·y >> 184 keeps z near x's 254 bits
	k.sum = k.unit()   // the first unit grows the buffers and fixes the checksum
	return k
}

// unit runs the fixed work once and returns its checksum, which is
// the same on every call: a dependent walk of a 32 KiB cycle, SHA-256
// of 16 KiB, a sort of 512 words and a chain of 256-bit
// multiplications.
func (k *refKernel) unit() uint64 {
	var sum uint64
	p := uint32(0)
	for i := 0; i < refWalk; i++ {
		p = k.table[p]
	}
	sum += uint64(p)
	h := sha256.Sum256(k.data)
	for _, b := range h[:8] {
		sum = sum<<8 | uint64(b)
	}
	copy(k.scratch, k.keys)
	slices.Sort(k.scratch)
	sum ^= k.scratch[refKeys/2]
	k.z.Set(&k.x)
	for i := 0; i < refMulSteps; i++ {
		k.w.Mul(&k.z, &k.y)
		k.z.Rsh(&k.w, 184)
		k.z.Add(&k.z, &k.x)
	}
	return sum ^ uint64(k.z.Bits()[0])
}

// timed runs one unit and returns its wall and thread CPU time. A
// checksum that differs from the first unit's panics: the work was not
// what the scale assumes.
func (k *refKernel) timed() (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k.warm()
	c0 := threadCPU()
	t0 := time.Now()
	sum := k.unit()
	wall = time.Since(t0)
	cpu = threadCPU() - c0
	if sum != k.sum {
		panic("pakdbench: the reference unit's checksum changed")
	}
	return wall, cpu
}

// warm reads one word of each cache line of the unit's buffers.
func (k *refKernel) warm() {
	var x uint32
	for i := 0; i < len(k.table); i += 16 {
		x += k.table[i]
	}
	for i := 0; i < len(k.data); i += 64 {
		x += uint32(k.data[i])
	}
	for i := 0; i < len(k.keys); i += 8 {
		x += uint32(k.keys[i] + k.scratch[i])
	}
	k.sink = x
}

// threadCPU is the calling thread's CPU time
// (CLOCK_THREAD_CPUTIME_ID; getrusage counts in ticks).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// refSample is one unit run in the window.
type refSample struct {
	at        time.Duration // since the window's start
	wall, cpu time.Duration
}

// speeds turns the window's units into one factor per refSlice:
// refNominal over the median wall time of the slice's units, or of all
// units for a slice without any.
func speeds(refs []refSample, elapsed time.Duration) []float64 {
	per := make([][]refSample, int(elapsed/refSlice)+1)
	for _, s := range refs {
		i := min(int(s.at/refSlice), len(per)-1)
		per[i] = append(per[i], s)
	}
	whole := scale(refs)
	f := make([]float64, len(per))
	for i, rs := range per {
		f[i] = whole
		if len(rs) > 0 {
			f[i] = scale(rs)
		}
	}
	return f
}

// scale is refNominal over the median of the units' wall times (1
// without units).
func scale(refs []refSample) float64 {
	return nominalOver(refs, func(s refSample) time.Duration { return s.wall })
}

// cpuScale is refNominal over the median thread CPU time of the units,
// the factor for the window's CPU time.
func cpuScale(refs []refSample) float64 {
	return nominalOver(refs, func(s refSample) time.Duration { return s.cpu })
}

func nominalOver(refs []refSample, t func(refSample) time.Duration) float64 {
	xs := make([]float64, len(refs))
	for i, s := range refs {
		xs[i] = float64(t(s))
	}
	if m := median(xs); m > 0 {
		return float64(refNominal) / m
	}
	return 1
}

// setupScale runs refSetupUnits units and returns the factor for the
// set-up round that follows them.
func setupScale(k *refKernel) float64 {
	refs := make([]refSample, refSetupUnits)
	for i := range refs {
		refs[i].wall, _ = k.timed()
	}
	return scale(refs)
}

// refUnitMs is the median wall time of the units, in ms.
func refUnitMs(refs []refSample) float64 {
	return ms(refNominal) / scale(refs)
}

// median is the middle value (the mean of the two middle ones for an
// even count), 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// processCPU is the process's user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
