package iommu

import "github.com/asplos18/damn/internal/mem"

// refIOTLB is the straightforward sweeping IOTLB the generation-tagged one
// replaced: per-entry valid bits, and device/global invalidation by walking
// every entry. It is the reference model FuzzIOTLB checks IOTLB against;
// hits, misses, victims and all four counters must agree op for op.
type refIOTLB struct {
	cfg   IOTLBConfig
	sets  [][]refEntry
	clock uint64

	Hits          uint64
	Misses        uint64
	Invalidations uint64
	FlushCommands uint64
}

type refEntry struct {
	valid bool
	dev   int
	tag   IOVA
	huge  bool
	pfn   mem.PFN
	perm  Perm
	lru   uint64
}

func newRefIOTLB(cfg IOTLBConfig) *refIOTLB {
	sets := make([][]refEntry, cfg.Sets)
	for i := range sets {
		sets[i] = make([]refEntry, cfg.Ways)
	}
	return &refIOTLB{cfg: cfg, sets: sets}
}

func (t *refIOTLB) setIndex(dev int, tag IOVA) int {
	return (int(tag) ^ dev*7) & (t.cfg.Sets - 1)
}

func (t *refIOTLB) lookup(dev int, iova IOVA) (*refEntry, bool) {
	t.clock++
	for _, probe := range []struct {
		tag  IOVA
		huge bool
	}{{iova >> mem.PageShift, false}, {iova >> mem.HugePageShift, true}} {
		set := t.sets[t.setIndex(dev, probe.tag)]
		for i := range set {
			e := &set[i]
			if e.valid && e.dev == dev && e.huge == probe.huge && e.tag == probe.tag {
				e.lru = t.clock
				t.Hits++
				return e, true
			}
		}
	}
	t.Misses++
	return nil, false
}

func (t *refIOTLB) insert(dev int, iova IOVA, huge bool, pfn mem.PFN, perm Perm) {
	t.clock++
	tag := iova >> mem.PageShift
	if huge {
		tag = iova >> mem.HugePageShift
	}
	set := t.sets[t.setIndex(dev, tag)]
	victim := &set[0]
	for i := range set {
		e := &set[i]
		if !e.valid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	*victim = refEntry{valid: true, dev: dev, tag: tag, huge: huge, pfn: pfn, perm: perm, lru: t.clock}
}

func (t *refIOTLB) InvalidateRange(dev int, iova IOVA, size int) {
	t.FlushCommands++
	pages := (size + mem.PageSize - 1) >> mem.PageShift
	if pages > 64 {
		end := iova + IOVA(size)
		t.sweep(func(e *refEntry) bool {
			if e.dev != dev {
				return false
			}
			lo, span := e.tag<<mem.PageShift, IOVA(mem.PageSize)
			if e.huge {
				lo, span = e.tag<<mem.HugePageShift, IOVA(mem.HugePageSize)
			}
			return lo < end && iova < lo+span
		})
		return
	}
	drop := func(tag IOVA, huge bool) {
		set := t.sets[t.setIndex(dev, tag)]
		for i := range set {
			e := &set[i]
			if e.valid && e.huge == huge && e.dev == dev && e.tag == tag {
				e.valid = false
				t.Invalidations++
			}
		}
	}
	for p := 0; p < pages; p++ {
		drop((iova>>mem.PageShift)+IOVA(p), false)
	}
	for tag := iova >> mem.HugePageShift; tag <= (iova+IOVA(size)-1)>>mem.HugePageShift; tag++ {
		drop(tag, true)
	}
}

func (t *refIOTLB) InvalidateDevice(dev int) {
	t.FlushCommands++
	t.sweep(func(e *refEntry) bool { return e.dev == dev })
}

func (t *refIOTLB) InvalidateAll() {
	t.FlushCommands++
	t.sweep(func(*refEntry) bool { return true })
}

// sweep drops every valid entry matching the predicate.
func (t *refIOTLB) sweep(match func(*refEntry) bool) {
	for si := range t.sets {
		for i := range t.sets[si] {
			e := &t.sets[si][i]
			if e.valid && match(e) {
				e.valid = false
				t.Invalidations++
			}
		}
	}
}
