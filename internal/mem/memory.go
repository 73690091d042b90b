package mem

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/asplos18/damn/internal/faults"
)

// ErrNoMemory reports page-allocator exhaustion after reclaim has run.
// Callers match it with errors.Is: it is the one allocation failure that is
// a state of the machine rather than a caller bug, and every layer above
// (slab, DAMN, netstack) must degrade rather than panic on it.
var ErrNoMemory = errors.New("mem: out of memory")

// Memory is the simulated physical memory of one machine: sparse
// byte-addressable RAM (4 MiB extents materialised on first write, see
// extent.go) plus the page-struct array and per-NUMA-node buddy zones. It is
// safe for concurrent use: the buddy zones serialize internally, and
// extents materialise and record dirty pages atomically. Ordering accesses
// to the same bytes is the caller's job, as on real RAM.
type Memory struct {
	size    uint64                   // bytes of simulated RAM
	extents []atomic.Pointer[extent] // nil entries are all-zero; the slice is nil after Release
	pages   []Page
	zones   []*Zone

	// Counters for the evaluation harness (Fig 9 / Fig 10).
	allocatedPages atomic.Int64
	zeroedBytes    atomic.Int64

	// Memory-pressure reclaim (§5.4's shrinker interface).
	shrinkers      shrinkerRegistry
	reclaimRuns    atomic.Int64
	reclaimedPages atomic.Int64

	inj *faults.Injector
}

// SetFaults attaches the machine's fault-injection plane. An injected
// AllocFail behaves exactly like true exhaustion: reclaim runs (shrinkers
// give pages back), then the allocation fails with ErrNoMemory.
func (m *Memory) SetFaults(inj *faults.Injector) { m.inj = inj }

// Config describes the machine memory layout.
type Config struct {
	// TotalBytes of simulated RAM. Rounded down to a page multiple.
	TotalBytes int64
	// NUMANodes is the number of memory nodes; frames are split evenly
	// into contiguous per-node ranges, matching a dual-socket server.
	NUMANodes int
}

// DefaultConfig models the paper's evaluation server with less RAM: only
// written extents cost host memory, but every frame still has a page
// struct, so 128 GiB would be wasteful; tests use smaller memories and the
// evaluation harness sizes memory to the working set it actually touches.
func DefaultConfig() Config {
	return Config{TotalBytes: 512 << 20, NUMANodes: 2}
}

// New constructs a Memory. Frame 0 is reserved (a NULL physical address is
// never handed out), as on real hardware where low memory is firmware-owned.
func New(cfg Config) (*Memory, error) {
	if cfg.NUMANodes <= 0 {
		cfg.NUMANodes = 1
	}
	nPages := int(cfg.TotalBytes >> PageShift)
	if nPages < cfg.NUMANodes*2 {
		return nil, fmt.Errorf("mem: %d bytes is too small for %d NUMA nodes", cfg.TotalBytes, cfg.NUMANodes)
	}
	size := uint64(nPages) << PageShift
	m := &Memory{
		size:    size,
		extents: make([]atomic.Pointer[extent], (size+extentMask)>>extentShift),
		pages:   takePages(nPages),
		zones:   make([]*Zone, cfg.NUMANodes),
	}
	perNode := nPages / cfg.NUMANodes
	for i := range m.pages {
		node := i / perNode
		if node >= cfg.NUMANodes {
			node = cfg.NUMANodes - 1
		}
		m.pages[i].pfn = PFN(i)
		m.pages[i].Node = node
	}
	// Reserve frame 0.
	m.pages[0].SetFlags(FlagReserved)
	for n := 0; n < cfg.NUMANodes; n++ {
		start := PFN(n * perNode)
		end := PFN((n + 1) * perNode)
		if n == cfg.NUMANodes-1 {
			end = PFN(nPages)
		}
		if n == 0 {
			start = 1 // skip reserved frame 0
		}
		m.zones[n] = newZone(m, n, start, end)
	}
	return m, nil
}

// NumPages returns the number of physical frames.
func (m *Memory) NumPages() int { return len(m.pages) }

// NumNodes returns the number of NUMA nodes.
func (m *Memory) NumNodes() int { return len(m.zones) }

// PageOf returns the page struct for a frame number.
func (m *Memory) PageOf(pfn PFN) *Page {
	return &m.pages[pfn]
}

// PageOfAddr returns the page struct covering a physical address.
func (m *Memory) PageOfAddr(pa PhysAddr) *Page { return m.PageOf(PFNOf(pa)) }

// CheckRange validates that [pa, pa+n) lies inside simulated RAM.
func (m *Memory) CheckRange(pa PhysAddr, n int) error {
	if n < 0 || uint64(pa)+uint64(n) > m.size {
		return fmt.Errorf("mem: physical range [%#x,+%d) out of bounds (RAM is %d bytes)", pa, n, m.size)
	}
	return nil
}

// Bytes returns the live byte slice backing [pa, pa+n). Callers are kernel
// code or post-IOMMU device accesses; bounds are enforced, and the span must
// not cross a 4 MiB extent boundary (no allocation does). The slice is
// mutable, so Bytes materialises the extent and marks the covered pages
// dirty: it is the single choke point for writes that Zero and extent
// recycling rely on. Those pages stay dirty for the Memory's lifetime, so
// code that only reads must use Read or Copy instead: a read through Bytes
// makes every later Zero and Copy over the span run full size.
func (m *Memory) Bytes(pa PhysAddr, n int) []byte {
	m.check(pa, n)
	if n == 0 {
		return nil
	}
	idx, off, part := split(uint64(pa), n)
	if part != n {
		panic(fmt.Sprintf("mem: Bytes span [%#x,+%d) crosses an extent boundary", pa, n))
	}
	e := m.materialise(idx)
	e.markDirty(off, n)
	return e.data[off : off+uint64(n)]
}

// Read copies len(dst) bytes at pa into dst and returns the count. Bytes of
// an extent never written read as zero without materialising it.
func (m *Memory) Read(pa PhysAddr, dst []byte) int {
	m.check(pa, len(dst))
	for done := 0; done < len(dst); {
		idx, off, part := split(uint64(pa)+uint64(done), len(dst)-done)
		if e := m.extents[idx].Load(); e != nil {
			copy(dst[done:done+part], e.data[off:])
		} else {
			clear(dst[done : done+part])
		}
		done += part
	}
	return len(dst)
}

// Write copies src into memory at pa and returns the count.
func (m *Memory) Write(pa PhysAddr, src []byte) int {
	m.check(pa, len(src))
	for done := 0; done < len(src); {
		idx, off, part := split(uint64(pa)+uint64(done), len(src)-done)
		e := m.materialise(idx)
		e.markDirty(off, part)
		copy(e.data[off:], src[done:done+part])
		done += part
	}
	return len(src)
}

// Copy copies the n bytes at src to dst, exactly as a Read into a buffer
// followed by a Write of it would, but moves only bytes that may be
// nonzero. It goes page by page: a dirty source page is copied (the
// destination page becomes dirty); a clean or absent source page reads as
// zero, so the destination is cleared only where it is dirty and is
// otherwise left untouched. Copy never marks the source dirty. Overlapping
// ranges panic.
func (m *Memory) Copy(dst, src PhysAddr, n int) {
	m.check(dst, n)
	m.check(src, n)
	if n > 0 && dst < src+PhysAddr(n) && src < dst+PhysAddr(n) {
		panic(fmt.Sprintf("mem: Copy ranges [%#x,+%d) and [%#x,+%d) overlap", dst, n, src, n))
	}
	for done := 0; done < n; {
		s, d := uint64(src)+uint64(done), uint64(dst)+uint64(done)
		// The chunk ends at the next page boundary of either side, so
		// it is one page, and one dirty bit, on each.
		part := min(n-done, PageSize-int(s&PageMask), PageSize-int(d&PageMask))
		soff, doff := s&extentMask, d&extentMask
		if se := m.extents[s>>extentShift].Load(); se != nil && se.isDirty(soff) {
			de := m.materialise(d >> extentShift)
			de.markDirty(doff, part)
			copy(de.data[doff:doff+uint64(part)], se.data[soff:])
		} else if de := m.extents[d>>extentShift].Load(); de != nil && de.isDirty(doff) {
			clear(de.data[doff : doff+uint64(part)])
		}
		done += part
	}
}

// Zero clears [pa, pa+n). DAMN zeroes every chunk it takes from the page
// allocator (§5.6 TX security argument), and the counter lets tests assert
// that it really happened. The counter charges every requested byte; the
// host clears only pages that may be nonzero, and an extent never written
// is skipped whole.
func (m *Memory) Zero(pa PhysAddr, n int) {
	m.check(pa, n)
	for done := 0; done < n; {
		idx, off, part := split(uint64(pa)+uint64(done), n-done)
		if e := m.extents[idx].Load(); e != nil {
			e.zero(off, part)
		}
		done += part
	}
	m.zeroedBytes.Add(int64(n))
}

// ZeroedBytes reports the cumulative number of bytes zeroed.
func (m *Memory) ZeroedBytes() int64 { return m.zeroedBytes.Load() }

// AllocatedPages reports the number of pages currently held by callers.
func (m *Memory) AllocatedPages() int64 { return m.allocatedPages.Load() }

// AllocPages allocates 2^order physically contiguous frames on the given
// NUMA node (falling back to other nodes if the preferred one is exhausted)
// and returns the head page struct. The block is returned as a compound
// page when order > 0, mirroring __GFP_COMP which network buffer
// allocations use and which DAMN's metadata scheme (§5.5) depends on.
func (m *Memory) AllocPages(order int, node int) (*Page, error) {
	if order < 0 || order > MaxOrder {
		return nil, fmt.Errorf("mem: bad order %d", order)
	}
	if node < 0 || node >= len(m.zones) {
		node = 0
	}
	if m.inj.Should(faults.AllocFail) {
		m.reclaim()
		return nil, fmt.Errorf("%w: injected failure allocating order-%d block on node %d",
			ErrNoMemory, order, node)
	}
	for round := 0; round < 2; round++ {
		for attempt := 0; attempt < len(m.zones); attempt++ {
			z := m.zones[(node+attempt)%len(m.zones)]
			if pfn, ok := z.alloc(order); ok {
				m.allocatedPages.Add(1 << order)
				head := m.PageOf(pfn)
				m.makeCompound(head, order)
				return head, nil
			}
		}
		// Memory pressure: ask the registered caches (DAMN's DMA
		// caches among them) to give pages back, then retry once.
		if round == 0 && m.reclaim() == 0 {
			break
		}
	}
	return nil, fmt.Errorf("%w allocating order-%d block on node %d", ErrNoMemory, order, node)
}

// FreePages returns a block previously obtained from AllocPages.
func (m *Memory) FreePages(head *Page, order int) {
	if head.Has(FlagBuddy) {
		panic(fmt.Sprintf("mem: double free of pfn %d", head.pfn))
	}
	m.breakCompound(head, order)
	m.allocatedPages.Add(-(1 << order))
	m.zones[head.Node].free(head.pfn, order)
}

// makeCompound links 2^order pages into a compound: head gets FlagHead and
// the order; tails get FlagTail and a pointer to the head.
func (m *Memory) makeCompound(head *Page, order int) {
	head.Order = uint8(order)
	head.SetRefCount(1)
	if order == 0 {
		return
	}
	head.SetFlags(FlagHead)
	for i := 1; i < 1<<order; i++ {
		t := m.PageOf(head.pfn + PFN(i))
		t.SetFlags(FlagTail)
		t.HeadPFN = head.pfn
		t.Private = 0
	}
}

// breakCompound dissolves the compound linkage before the block re-enters
// the buddy system.
func (m *Memory) breakCompound(head *Page, order int) {
	head.ClearFlags(FlagHead)
	head.Order = 0
	head.SetRefCount(0)
	for i := 1; i < 1<<order; i++ {
		t := m.PageOf(head.pfn + PFN(i))
		t.ClearFlags(FlagTail | FlagDAMN)
		t.HeadPFN = 0
		t.Private = 0
	}
}

// SplitCompound re-forms one order-`order` compound block into
// 2^(order-sub) independent compounds of order sub, returning their heads.
// The caller must own the block. Used by DAMN's dense-huge-IOVA variant to
// carve a 2 MiB superblock into 64 KiB chunks that each keep their own
// head-page refcount and tail-page metadata.
func (m *Memory) SplitCompound(head *Page, order, sub int) []*Page {
	if sub > order {
		panic(fmt.Sprintf("mem: cannot split order %d into order %d", order, sub))
	}
	m.breakCompound(head, order)
	n := 1 << (order - sub)
	heads := make([]*Page, 0, n)
	for i := 0; i < n; i++ {
		h := m.PageOf(head.pfn + PFN(i<<sub))
		m.makeCompound(h, sub)
		heads = append(heads, h)
	}
	return heads
}

// Head resolves a page to its compound head (itself if not a tail).
func (m *Memory) Head(p *Page) *Page {
	if p.IsCompoundTail() {
		return m.PageOf(p.HeadPFN)
	}
	return p
}

// FreePagesInZone reports the free frame count on a node (for tests and the
// shrinker pressure model).
func (m *Memory) FreePagesInZone(node int) int64 {
	return m.zones[node].freePages()
}

// TotalFreePages reports free frames across all nodes.
func (m *Memory) TotalFreePages() int64 {
	var n int64
	for _, z := range m.zones {
		n += z.freePages()
	}
	return n
}
