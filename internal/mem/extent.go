package mem

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Sparse simulated RAM. A machine's RAM is cut into extents of the buddy
// allocator's largest block, and an extent is materialised only when
// something first writes into it; until then it reads as zeroes and costs
// no host memory. Each extent records which of its 4 KiB pages were ever
// exposed for writing, so Zero, Copy and recycling touch dirtied pages only.
// Sparseness is a host-side representation with no simulated meaning:
// every byte reads exactly as it would from a dense zeroed array.

const (
	// extentShift sizes an extent as a MaxOrder buddy block (4 MiB).
	// Blocks are naturally aligned, so every allocation lies inside one
	// extent and Bytes over it is a single contiguous slice.
	extentShift    = PageShift + MaxOrder
	ExtentSize     = 1 << extentShift
	extentMask     = ExtentSize - 1
	pagesPerExtent = ExtentSize / PageSize
)

// extentPoolCap bounds the free list (256 extents = 1 GiB of host memory).
// Machines are built and closed by the dozen per experiment, and drawing
// every extent fresh from the Go heap costs a runtime memclr per extent
// plus GC churn; recycling scrubs only the pages the last owner dirtied.
const extentPoolCap = 256

type extent struct {
	data  [ExtentSize]byte
	dirty [pagesPerExtent / 64]atomic.Uint64 // one bit per page that may be nonzero
}

// extentPool is the process-wide free list shared by every Memory.
var extentPool struct {
	mu   sync.Mutex
	free []*extent
}

// takeExtent returns an all-zero extent, recycling a pooled one if any.
func takeExtent() *extent {
	extentPool.mu.Lock()
	n := len(extentPool.free)
	if n == 0 {
		extentPool.mu.Unlock()
		return new(extent)
	}
	e := extentPool.free[n-1]
	extentPool.free[n-1] = nil
	extentPool.free = extentPool.free[:n-1]
	extentPool.mu.Unlock()
	e.zero(0, ExtentSize)
	for i := range e.dirty {
		e.dirty[i].Store(0)
	}
	return e
}

// markDirty records that the n > 0 bytes at off may become nonzero. The
// plain load first keeps the common already-dirty case free of atomic
// read-modify-writes.
func (e *extent) markDirty(off uint64, n int) {
	for p := off >> PageShift; p <= (off+uint64(n)-1)>>PageShift; p++ {
		w, bit := &e.dirty[p>>6], uint64(1)<<(p&63)
		if w.Load()&bit == 0 {
			w.Or(bit)
		}
	}
}

// isDirty reports whether the page holding off may be nonzero.
func (e *extent) isDirty(off uint64) bool {
	p := off >> PageShift
	return e.dirty[p>>6].Load()&(1<<(p&63)) != 0
}

// zero clears the dirty pages' share of the n bytes at off; clean pages
// already read as zero. Dirty bits stay set: a slice Bytes handed out
// earlier may still be written through.
func (e *extent) zero(off uint64, n int) {
	end := off + uint64(n)
	p0, p1 := off>>PageShift, (end-1)>>PageShift
	for wi := p0 >> 6; wi <= p1>>6; wi++ {
		w := e.dirty[wi].Load()
		if wi == p0>>6 {
			w &= ^uint64(0) << (p0 & 63)
		}
		if wi == p1>>6 {
			w &= ^uint64(0) >> (63 - p1&63)
		}
		for ; w != 0; w &= w - 1 {
			p := wi<<6 + uint64(bits.TrailingZeros64(w))
			clear(e.data[max(p<<PageShift, off):min((p+1)<<PageShift, end)])
		}
	}
}

// split locates the n > 0 bytes at pa: the extent index, the offset within
// it, and how many of the bytes lie in that extent.
func split(pa uint64, n int) (idx, off uint64, part int) {
	off = pa & extentMask
	return pa >> extentShift, off, int(min(uint64(n), ExtentSize-off))
}

// check panics unless [pa, pa+n) is inside RAM and m is not released.
func (m *Memory) check(pa PhysAddr, n int) {
	if m.extents == nil {
		panic(fmt.Sprintf("mem: access to [%#x,+%d) after Release", pa, n))
	}
	if err := m.CheckRange(pa, n); err != nil {
		panic(err)
	}
}

// materialise returns extent idx, taking a zeroed one on first use. Two
// goroutines racing to materialise the same extent agree on one; the
// loser's is left to the GC.
func (m *Memory) materialise(idx uint64) *extent {
	slot := &m.extents[idx]
	if e := slot.Load(); e != nil {
		return e
	}
	e := takeExtent()
	if !slot.CompareAndSwap(nil, e) {
		return slot.Load()
	}
	return e
}

// ResidentBytes reports the host memory holding m's materialised extents.
// It is for observability and tests; it has no simulated meaning.
func (m *Memory) ResidentBytes() int64 {
	var n int64
	for i := range m.extents {
		if m.extents[i].Load() != nil {
			n += ExtentSize
		}
	}
	return n
}

// Release returns m's extents and page structs to the process-wide pools,
// which keep up to extentPoolCap extents and pagePoolCap page structs and
// drop the rest for the GC. The Memory must not be used afterwards: any
// data or page-struct access panics, and a *Page or Bytes slice taken
// earlier may already belong to another Memory. Release is optional — an
// unreleased Memory is simply collected — and idempotent.
func (m *Memory) Release() {
	slots := m.extents
	if slots == nil {
		return
	}
	m.extents = nil
	putPages(m.pages)
	m.pages = nil
	extentPool.mu.Lock()
	defer extentPool.mu.Unlock()
	for i := range slots {
		if e := slots[i].Load(); e != nil && len(extentPool.free) < extentPoolCap {
			extentPool.free = append(extentPool.free, e)
		}
	}
}
