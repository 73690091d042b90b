package iommu

import (
	"math"

	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/stats"
)

// IOTLBConfig sizes the translation cache. The defaults approximate the
// IOTLB of a server-class VT-d implementation; what matters for the
// reproduction is that the cache is finite, so scattered IOVA usage (DAMN's
// metadata-encoded IOVAs, Table 3) misses more than dense usage.
type IOTLBConfig struct {
	Sets int // must be a power of two
	Ways int
}

// DefaultIOTLBConfig returns a 4096-set, 4-way cache (16384 entries),
// approximating the combined reach of the IOTLB and the paging-structure
// caches of a server-class IOMMU.
func DefaultIOTLBConfig() IOTLBConfig { return IOTLBConfig{Sets: 4096, Ways: 4} }

// tlbEntry is one cached translation, 32 bytes. An entry is live iff its gen
// equals its device's current generation; generation 0 is never current, so
// a zero entry is empty.
type tlbEntry struct {
	tag  IOVA // iova >> PageShift for 4 KiB; iova >> HugePageShift for 2 MiB
	pfn  mem.PFN
	lru  uint64
	dev  int32
	gen  uint16
	huge bool
	perm Perm
}

// tlbDev is one device's invalidation state: its current generation and how
// many of its entries are live (in total, and at 2 MiB).
type tlbDev struct {
	gen  uint16
	live int
	huge int
}

// maxTLBGen is the last generation before a device's counter wraps.
const maxTLBGen = math.MaxUint16

// IOTLB is a set-associative translation cache shared by all devices,
// tagged by device. Invalidation removes entries; until invalidated, a
// cached translation keeps serving DMAs even if the underlying page-table
// entry has been cleared — the property deferred protection trades on.
//
// The cache is one flat array of Sets×Ways entries. Each device has a
// generation, and an entry is live only while it carries its device's
// current generation, so a device-wide or global invalidation bumps
// generations instead of sweeping entries: O(devices), not O(entries). The
// live counts kept per device give Invalidations the number of entries such
// a flush drops, exactly as a sweep would count them, and let a lookup skip
// the 2 MiB probe for a device with no live huge entry. Victim choice is the
// first non-live way, else the least recently used.
type IOTLB struct {
	cfg     IOTLBConfig
	entries []tlbEntry // set s is entries[s*Ways : (s+1)*Ways]
	devs    []tlbDev   // indexed by device id, grown on first insert
	clock   uint64

	Hits          uint64
	Misses        uint64
	Invalidations uint64 // individual entries dropped
	FlushCommands uint64 // invalidation commands processed

	// Observability (nil-safe handles; see SetStats).
	hitC   *stats.Counter
	missC  *stats.Counter
	invC   *stats.Counter
	flushC *stats.Counter
}

// SetStats attaches a metrics registry mirroring the hit/miss/invalidation
// counters, so runs expose them alongside every other layer's metrics.
func (t *IOTLB) SetStats(r *stats.Registry) {
	t.hitC = r.Counter("iommu", "iotlb_hits")
	t.missC = r.Counter("iommu", "iotlb_misses")
	t.invC = r.Counter("iommu", "iotlb_invalidations")
	t.flushC = r.Counter("iommu", "iotlb_flush_commands")
}

// NewIOTLB builds an empty cache.
func NewIOTLB(cfg IOTLBConfig) *IOTLB {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 || cfg.Ways <= 0 {
		panic("iommu: IOTLB sets must be a positive power of two and ways positive")
	}
	return &IOTLB{cfg: cfg, entries: make([]tlbEntry, cfg.Sets*cfg.Ways)}
}

// setIndex uses the low bits of the page tag, as hardware TLBs do. This is
// what makes DAMN's metadata-encoded IOVAs IOTLB-hostile (Table 3): chunks
// from different per-(cpu,rights,dev) regions share their low offset bits,
// so they collide in the same sets, while a dense IOVA range spreads evenly.
func (t *IOTLB) setIndex(dev int, tag IOVA) int {
	return (int(tag) ^ dev*7) & (t.cfg.Sets - 1)
}

// set returns the ways a (dev, tag) pair indexes to.
func (t *IOTLB) set(dev int, tag IOVA) []tlbEntry {
	base := t.setIndex(dev, tag) * t.cfg.Ways
	return t.entries[base : base+t.cfg.Ways]
}

// device returns dev's invalidation state, or nil when dev has never had
// an entry.
func (t *IOTLB) device(dev int) *tlbDev {
	if dev < 0 || dev >= len(t.devs) {
		return nil
	}
	return &t.devs[dev]
}

// live reports whether e holds a current translation.
func (t *IOTLB) live(e *tlbEntry) bool {
	return e.gen != 0 && e.gen == t.devs[e.dev].gen
}

// drop makes a live entry non-live.
func (t *IOTLB) drop(e *tlbEntry) {
	d := &t.devs[e.dev]
	d.live--
	if e.huge {
		d.huge--
	}
	e.gen = 0
}

// probe returns dev's live entry for (tag, huge) in its set, or nil.
func (t *IOTLB) probe(dev int, gen uint16, tag IOVA, huge bool) *tlbEntry {
	set := t.set(dev, tag)
	for i := range set {
		e := &set[i]
		if e.tag == tag && e.gen == gen && int(e.dev) == dev && e.huge == huge {
			return e
		}
	}
	return nil
}

// lookup returns the cached translation for the page containing iova.
// It probes the 4 KiB tag and then, if dev has any live 2 MiB entry, the
// 2 MiB tag.
func (t *IOTLB) lookup(dev int, iova IOVA) (*tlbEntry, bool) {
	t.clock++
	if d := t.device(dev); d != nil && d.live > 0 {
		e := t.probe(dev, d.gen, iova>>mem.PageShift, false)
		if e == nil && d.huge > 0 {
			e = t.probe(dev, d.gen, iova>>mem.HugePageShift, true)
		}
		if e != nil {
			e.lru = t.clock
			t.Hits++
			t.hitC.Inc()
			return e, true
		}
	}
	t.Misses++
	t.missC.Inc()
	return nil, false
}

// bumpInv counts n dropped entries in both the raw and registry counters.
func (t *IOTLB) bumpInv(n int) {
	t.Invalidations += uint64(n)
	t.invC.Add(uint64(n))
}

// bumpFlush counts one processed invalidation command.
func (t *IOTLB) bumpFlush() {
	t.FlushCommands++
	t.flushC.Inc()
}

// insert fills the cache after a page-table walk.
func (t *IOTLB) insert(dev int, iova IOVA, huge bool, pfn mem.PFN, perm Perm) {
	t.clock++
	for dev >= len(t.devs) {
		t.devs = append(t.devs, tlbDev{gen: 1})
	}
	tag := iova >> mem.PageShift
	if huge {
		tag = iova >> mem.HugePageShift
	}
	set := t.set(dev, tag)
	victim := &set[0]
	for i := range set {
		e := &set[i]
		if !t.live(e) {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	if t.live(victim) {
		t.drop(victim)
	}
	d := &t.devs[dev]
	*victim = tlbEntry{tag: tag, pfn: pfn, lru: t.clock, dev: int32(dev), gen: d.gen, huge: huge, perm: perm}
	d.live++
	if huge {
		d.huge++
	}
}

// InvalidateRange drops all entries of dev overlapping [iova, iova+size).
// Small ranges probe only the sets their pages index to (hardware walks the
// cache by set); huge ranges fall back to a full sweep.
func (t *IOTLB) InvalidateRange(dev int, iova IOVA, size int) {
	t.bumpFlush()
	d := t.device(dev)
	if d == nil || d.live == 0 {
		return
	}
	pages := (size + mem.PageSize - 1) >> mem.PageShift
	if pages > 64 {
		t.invalidateRangeSweep(dev, iova, size)
		return
	}
	// 4 KiB entries of the range.
	for p := 0; p < pages; p++ {
		t.dropTag(dev, d.gen, (iova>>mem.PageShift)+IOVA(p), false)
	}
	if d.huge == 0 {
		return
	}
	// Huge entries covering any part of the range.
	firstHuge := iova >> mem.HugePageShift
	lastHuge := (iova + IOVA(size) - 1) >> mem.HugePageShift
	for tag := firstHuge; tag <= lastHuge; tag++ {
		t.dropTag(dev, d.gen, tag, true)
	}
}

// dropTag invalidates every live entry of dev for (tag, huge) in its set.
func (t *IOTLB) dropTag(dev int, gen uint16, tag IOVA, huge bool) {
	for e := t.probe(dev, gen, tag, huge); e != nil; e = t.probe(dev, gen, tag, huge) {
		t.drop(e)
		t.bumpInv(1)
	}
}

func (t *IOTLB) invalidateRangeSweep(dev int, iova IOVA, size int) {
	end := iova + IOVA(size)
	gen := t.devs[dev].gen
	for i := range t.entries {
		e := &t.entries[i]
		if e.gen != gen || int(e.dev) != dev {
			continue
		}
		lo, span := e.tag<<mem.PageShift, IOVA(mem.PageSize)
		if e.huge {
			lo, span = e.tag<<mem.HugePageShift, IOVA(mem.HugePageSize)
		}
		if lo < end && iova < lo+span {
			t.drop(e)
			t.bumpInv(1)
		}
	}
}

// retire drops every live entry of dev by moving the device to its next
// generation. When the generation counter would wrap, the device's entries
// are cleared once, so no entry from an earlier lap can come back alive.
func (t *IOTLB) retire(dev int) {
	d := &t.devs[dev]
	if d.live == 0 {
		// No entry carries the current generation: nothing to retire.
		return
	}
	t.bumpInv(d.live)
	d.live, d.huge = 0, 0
	if d.gen < maxTLBGen {
		d.gen++
		return
	}
	for i := range t.entries {
		if e := &t.entries[i]; int(e.dev) == dev {
			e.gen = 0
		}
	}
	d.gen = 1
}

// InvalidateDevice drops every entry belonging to dev (a domain-selective
// invalidation, what deferred mode issues when its batch overflows).
func (t *IOTLB) InvalidateDevice(dev int) {
	t.bumpFlush()
	if t.device(dev) != nil {
		t.retire(dev)
	}
}

// InvalidateAll drops everything (global invalidation).
func (t *IOTLB) InvalidateAll() {
	t.bumpFlush()
	for dev := range t.devs {
		t.retire(dev)
	}
}

// HitRate returns the fraction of lookups served from the cache.
func (t *IOTLB) HitRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 0
	}
	return float64(t.Hits) / float64(total)
}
