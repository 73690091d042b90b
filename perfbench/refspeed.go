package main

import (
	"time"
)

// The host this benchmark runs on may be shared, and its speed then drifts
// with its neighbours' load: a fixed loop can take 1.6× longer from one
// minute to the next. That drift moves every host-time metric of a run
// together, and it is larger between runs than within one. So the untraced
// run reports its host times at reference speed: between its operations it
// times refKernel, a fixed workload that uses no repository code, and scales
// every host time by refNominal over the kernel's median. A change to the
// simulator moves the operation times and not the kernel's; host drift
// moves both and cancels out.

// refNominal is the kernel's host time at reference speed, close to what it
// takes on an idle 2-vCPU Xeon host, so scaled times read as host seconds.
const refNominal = 2 * time.Millisecond

// refKernel is the fixed workload: heap operations and map lookups like the
// event queue's and the IOMMU's, reads scattered over 16 MiB that miss the
// caches like simulated RAM does, and clearing and copying like page
// zeroing and the user copy. It allocates nothing after newRefKernel and
// writes no pointers, so the collector neither delays nor assists it.
type refKernel struct {
	buf  []byte
	heap []uint64
	m    map[uint64]uint64
	off  int
	x    uint64 // xorshift state
	sink uint64 // keeps the work observable
}

const (
	refBufBytes  = 16 << 20
	refHeapLen   = 4096
	refHeapOps   = 12000
	refMapKeys   = 1 << 14
	refMapOps    = 12000
	refReads     = 16000
	refClearSpan = 256 << 10
)

func newRefKernel() *refKernel {
	return &refKernel{
		buf:  make([]byte, refBufBytes),
		heap: make([]uint64, 0, refHeapLen+1),
		m:    make(map[uint64]uint64, refMapKeys),
		x:    88172645463325252,
	}
}

func (k *refKernel) next() uint64 {
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	return k.x
}

// run does the kernel's work once and returns its host time.
func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	var s uint64
	k.heap = k.heap[:0]
	for i := 0; i < refHeapLen; i++ {
		k.push(k.next() >> 20)
	}
	for i := 0; i < refHeapOps; i++ {
		v := k.pop()
		s += v
		k.push(v + k.next()>>40)
	}
	clear(k.m)
	for i := 0; i < refMapOps; i++ {
		k.m[k.next()&(refMapKeys-1)] += uint64(i)
		s += k.m[k.next()&(refMapKeys-1)]
	}
	for i := 0; i < refReads; i++ {
		s += uint64(k.buf[k.next()&(refBufBytes-1)])
	}
	span := k.buf[k.off : k.off+refClearSpan]
	clear(span)
	k.off = (k.off + refClearSpan) % refBufBytes
	copy(span, k.buf[k.off:k.off+refClearSpan])
	span[k.next()&(refClearSpan-1)] = byte(s)
	k.sink += s
	return time.Since(t0)
}

func (k *refKernel) push(v uint64) {
	h := append(k.heap, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() uint64 {
	h := k.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	k.heap = h
	return top
}

// speed collects the kernel's host times over a run.
type speed struct {
	k       *refKernel
	samples []float64
}

// run times the kernel once and returns its host seconds.
func (s *speed) run() float64 {
	if s.k == nil {
		s.k = newRefKernel()
		s.k.run() // faults the buffer in, untimed
	}
	return s.k.run().Seconds()
}

// sample times the kernel once and keeps the sample.
func (s *speed) sample() {
	s.samples = append(s.samples, s.run())
}

// scaleNow is the scale of n fresh samples, which it does not keep.
func (s *speed) scaleNow(n int) float64 {
	now := make([]float64, n)
	for i := range now {
		now[i] = s.run()
	}
	return refNominal.Seconds() / median(now)
}

// scale is what host seconds of this run are multiplied by to read at
// reference speed: refNominal over the kernel's median host time.
func (s *speed) scale() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return refNominal.Seconds() / median(s.samples)
}
