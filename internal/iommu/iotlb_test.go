package iommu

import (
	"testing"
	"unsafe"

	"github.com/asplos18/damn/internal/mem"
)

// resident counts the live entries in set si.
func (t *IOTLB) resident(si int) int {
	n := 0
	for i := si * t.cfg.Ways; i < (si+1)*t.cfg.Ways; i++ {
		if t.live(&t.entries[i]) {
			n++
		}
	}
	return n
}

// TestIOTLBSetIndexDistribution checks that a dense IOVA range spreads
// evenly over the sets: filling exactly Sets×Ways consecutive pages must
// leave every entry resident (no set receives more than Ways pages, so
// nothing is evicted).
func TestIOTLBSetIndexDistribution(t *testing.T) {
	cfg := IOTLBConfig{Sets: 64, Ways: 4}
	tlb := NewIOTLB(cfg)
	dev := 1
	total := cfg.Sets * cfg.Ways
	for p := 0; p < total; p++ {
		iova := IOVA(p) << mem.PageShift
		tlb.insert(dev, iova, false, mem.PFN(p), PermRead)
	}
	perSet := make([]int, cfg.Sets)
	valid := 0
	for si := range perSet {
		perSet[si] = tlb.resident(si)
		valid += perSet[si]
	}
	if valid != total {
		t.Fatalf("dense fill evicted entries: %d resident, want %d", valid, total)
	}
	for si, n := range perSet {
		if n != cfg.Ways {
			t.Fatalf("set %d holds %d entries, want %d (skewed index)", si, n, cfg.Ways)
		}
	}
	// Every inserted page must still translate without a walk.
	for p := 0; p < total; p++ {
		iova := IOVA(p) << mem.PageShift
		if _, ok := tlb.lookup(dev, iova); !ok {
			t.Fatalf("dense page %d missed after full fill", p)
		}
	}
}

// TestIOTLBAdversarialStride drives the all-same-set worst case: an IOVA
// stride of Sets pages maps every access to one set (the collision pattern
// DAMN's region-encoded IOVAs produce, Table 3). The set must behave as a
// bounded LRU: a just-inserted translation always hits, the most recent
// Ways entries stay resident, and older ones are evicted — never an
// unbounded pile-up or a pathological self-eviction.
func TestIOTLBAdversarialStride(t *testing.T) {
	cfg := IOTLBConfig{Sets: 64, Ways: 4}
	tlb := NewIOTLB(cfg)
	dev := 1
	stride := IOVA(cfg.Sets) << mem.PageShift
	n := 3 * cfg.Ways
	for i := 0; i < n; i++ {
		iova := IOVA(i) * stride
		tlb.insert(dev, iova, false, mem.PFN(i), PermWrite)
		// The worst case must still hit immediately after its own insert.
		if e, ok := tlb.lookup(dev, iova); !ok {
			t.Fatalf("entry %d missed right after insert", i)
		} else if e.pfn != mem.PFN(i) {
			t.Fatalf("entry %d returned pfn %d, want %d", i, e.pfn, i)
		}
	}
	// Exactly one set is populated, at exactly Ways entries.
	si := tlb.setIndex(dev, 0)
	for s := 0; s < cfg.Sets; s++ {
		if tlb.resident(s) > 0 && s != si {
			t.Fatalf("adversarial stride leaked into set %d (home set %d)", s, si)
		}
	}
	if valid := tlb.resident(si); valid != cfg.Ways {
		t.Fatalf("home set holds %d entries, want %d", valid, cfg.Ways)
	}
	// LRU: the most recent Ways insertions survive, everything older is
	// gone.
	for i := 0; i < n; i++ {
		iova := IOVA(i) * stride
		_, ok := tlb.lookup(dev, iova)
		if want := i >= n-cfg.Ways; ok != want {
			t.Fatalf("entry %d resident=%v, want %v", i, ok, want)
		}
	}
}

// TestIOTLBAdversarialStrideHuge repeats the worst case with 2 MiB entries:
// huge-tag collisions must obey the same bounded-LRU behaviour.
func TestIOTLBAdversarialStrideHuge(t *testing.T) {
	cfg := IOTLBConfig{Sets: 16, Ways: 2}
	tlb := NewIOTLB(cfg)
	dev := 2
	stride := IOVA(cfg.Sets) << mem.HugePageShift
	n := 4 * cfg.Ways
	for i := 0; i < n; i++ {
		iova := IOVA(i) * stride
		tlb.insert(dev, iova, true, mem.PFN(i), PermRead)
		if _, ok := tlb.lookup(dev, iova); !ok {
			t.Fatalf("huge entry %d missed right after insert", i)
		}
	}
	for i := 0; i < n; i++ {
		iova := IOVA(i) * stride
		_, ok := tlb.lookup(dev, iova)
		if want := i >= n-cfg.Ways; ok != want {
			t.Fatalf("huge entry %d resident=%v, want %v", i, ok, want)
		}
	}
}

// TestIOTLBEntrySize pins the flat layout: two entries per cache line.
func TestIOTLBEntrySize(t *testing.T) {
	if sz := unsafe.Sizeof(tlbEntry{}); sz > 32 {
		t.Fatalf("tlbEntry is %d bytes, want at most 32", sz)
	}
}

// TestIOTLBGenerationWrap forces a device's generation to its maximum and
// invalidates: the wrap must clear the device's entries, so a stale entry
// from the generation that becomes current again cannot hit.
func TestIOTLBGenerationWrap(t *testing.T) {
	tlb := NewIOTLB(IOTLBConfig{Sets: 8, Ways: 2})
	const dev = 1
	tlb.insert(dev, 0x1000, false, 1, PermRW) // generation 1
	tlb.insert(2, 0x1000, false, 9, PermRW)   // another device's entry
	tlb.InvalidateDevice(dev)                 // entry at 0x1000 is now stale
	tlb.devs[dev].gen = maxTLBGen
	tlb.insert(dev, 0x2000, false, 2, PermRW)
	tlb.insert(dev, 0, true, 3, PermRW)
	tlb.InvalidateDevice(dev) // wraps back to generation 1
	if got := tlb.devs[dev].gen; got != 1 {
		t.Fatalf("generation after wrap = %d, want 1", got)
	}
	// A fresh entry makes the device live again, so lookups probe.
	tlb.insert(dev, 0x5000, false, 5, PermRW)
	for _, iova := range []IOVA{0x1000, 0x2000, 0x3000} {
		if _, ok := tlb.lookup(dev, iova); ok {
			t.Fatalf("stale entry for %#x hit after generation wrap", iova)
		}
	}
	if e, ok := tlb.lookup(2, 0x1000); !ok || e.pfn != 9 {
		t.Fatal("another device's entry was lost by the wrap")
	}
	if _, ok := tlb.lookup(dev, 0x5000); !ok {
		t.Fatal("entry inserted after the wrap missed")
	}
	if tlb.Invalidations != 3 || tlb.FlushCommands != 2 {
		t.Fatalf("Invalidations/FlushCommands = %d/%d, want 3/2", tlb.Invalidations, tlb.FlushCommands)
	}
}

// FuzzIOTLB decodes bytes into IOTLB operations over a small cache and
// checks every lookup and counter against the sweeping reference model.
// Each op is four bytes: opcode, device, page, argument.
func FuzzIOTLB(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 1, 1, 3, 0, 3, 1, 0, 0, 1, 1, 3, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 7, 0, 2, 0, 0, 200, 1, 0, 0, 0})
	f.Add([]byte{0, 2, 5, 0, 0, 2, 21, 0, 0, 2, 37, 1, 4, 0, 0, 0, 1, 2, 5, 0, 1, 2, 37, 0})
	f.Add([]byte{0, 1, 3, 0, 3, 1, 0, 0, 0, 1, 4, 0, 5, 1, 0, 0, 0, 1, 6, 0, 3, 1, 0, 0, 0, 1, 7, 0, 1, 1, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := IOTLBConfig{Sets: 8, Ways: 2}
		got, want := NewIOTLB(cfg), newRefIOTLB(cfg)
		for i := 0; i+4 <= len(data); i += 4 {
			op, dev, page, arg := data[i]%6, int(data[i+1]%3), IOVA(data[i+2]), int(data[i+3])
			// Pages span a few 2 MiB regions so 4 KiB and 2 MiB entries
			// overlap.
			iova := page << (mem.PageShift + 2)
			switch op {
			case 0:
				huge := arg&1 == 1
				perm := Perm(arg>>1)%3 + 1
				got.insert(dev, iova, huge, mem.PFN(arg), perm)
				want.insert(dev, iova, huge, mem.PFN(arg), perm)
			case 1:
				g, gok := got.lookup(dev, iova+IOVA(arg))
				w, wok := want.lookup(dev, iova+IOVA(arg))
				if gok != wok {
					t.Fatalf("op %d: lookup(%d, %#x) hit=%v, reference %v", i/4, dev, iova, gok, wok)
				}
				if gok && (g.pfn != w.pfn || g.perm != w.perm || g.huge != w.huge) {
					t.Fatalf("op %d: lookup(%d, %#x) = %+v, reference %+v", i/4, dev, iova, *g, *w)
				}
			case 2:
				// arg < 128: up to 64 pages (set-probing path); above: a
				// sweep over up to 2 MiB.
				size := (arg%128 + 1) * mem.PageSize / 2
				if arg >= 128 {
					size = (arg - 127) * 4 * mem.PageSize
				}
				got.InvalidateRange(dev, iova, size)
				want.InvalidateRange(dev, iova, size)
			case 3:
				got.InvalidateDevice(dev)
				want.InvalidateDevice(dev)
			case 4:
				got.InvalidateAll()
				want.InvalidateAll()
			case 5:
				// A device invalidation that also jumps the generation
				// forward to within a few steps of the wrap, so short
				// inputs reach the wrap with stale entries from early
				// generations still cached.
				got.InvalidateDevice(dev)
				want.InvalidateDevice(dev)
				if d := got.device(dev); d != nil && d.gen < maxTLBGen-uint16(arg%4) {
					d.gen = maxTLBGen - uint16(arg%4)
				}
			}
			if got.Hits != want.Hits || got.Misses != want.Misses ||
				got.Invalidations != want.Invalidations || got.FlushCommands != want.FlushCommands {
				t.Fatalf("op %d: counters hits/misses/inv/flush = %d/%d/%d/%d, reference %d/%d/%d/%d", i/4,
					got.Hits, got.Misses, got.Invalidations, got.FlushCommands,
					want.Hits, want.Misses, want.Invalidations, want.FlushCommands)
			}
		}
	})
}
