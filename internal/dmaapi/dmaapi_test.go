package dmaapi

import (
	"bytes"
	"testing"

	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/iova"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
)

type machine struct {
	se    *sim.Engine
	mem   *mem.Memory
	iommu *iommu.IOMMU
	model *perf.Model
}

func newMachine(t *testing.T) *machine {
	t.Helper()
	m, err := mem.New(mem.Config{TotalBytes: 64 << 20, NUMANodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &machine{
		se:    sim.NewEngine(1),
		mem:   m,
		iommu: iommu.New(m),
		model: perf.Default28Core(),
	}
}

func (ma *machine) allocBuf(t *testing.T, order int) mem.PhysAddr {
	t.Helper()
	p, err := ma.mem.AllocPages(order, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p.PFN().Addr()
}

const dev = 7

func TestOffSchemeIdentity(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev).Passthrough = true
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, NewOffScheme())
	pa := ma.allocBuf(t, 0)
	v, err := e.Map(nil, dev, pa, 1000, FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	if v != iommu.IOVA(pa) {
		t.Fatalf("off-scheme iova %#x != pa %#x", v, pa)
	}
	// Device can DMA anywhere — including memory never mapped.
	other := ma.allocBuf(t, 0)
	if _, err := ma.iommu.DMAWrite(dev, iommu.IOVA(other), []byte("rogue")); err != nil {
		t.Fatal("passthrough should allow arbitrary DMA (that is the insecurity)")
	}
	if err := e.Unmap(nil, dev, v, 1000, FromDevice); err != nil {
		t.Fatal(err)
	}
}

func TestStrictMapUnmapRoundTrip(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, NewStrictScheme(ma.iommu, ma.model))
	pa := ma.allocBuf(t, 1)
	msg := []byte("strict payload")
	ma.mem.Write(pa, msg)

	v, err := e.Map(nil, dev, pa, len(msg), ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := ma.iommu.DMARead(dev, v, got); err != nil {
		t.Fatalf("mapped DMA failed: %v", err)
	}
	if string(got) != string(msg) {
		t.Fatalf("DMA read %q", got)
	}
	if err := e.Unmap(nil, dev, v, len(msg), ToDevice); err != nil {
		t.Fatal(err)
	}
	// Strict: the device must be locked out immediately after unmap.
	if _, err := ma.iommu.DMARead(dev, v, got); err == nil {
		t.Fatal("strict unmap left the buffer DMAable")
	}
}

func TestStrictSubPageExposure(t *testing.T) {
	// The partial-protection flaw (§4.1): mapping a sub-page buffer
	// exposes other data on the same page.
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, NewStrictScheme(ma.iommu, ma.model))
	slab := mem.NewSlab(ma.mem)
	bufPA, err := slab.Alloc(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	secretPA, err := slab.Alloc(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mem.PFNOf(bufPA) != mem.PFNOf(secretPA) {
		t.Skip("slab did not co-locate (unexpected)")
	}
	secret := []byte("co-located secret")
	ma.mem.Write(secretPA, secret)

	v, err := e.Map(nil, dev, bufPA, 256, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	// The device reads the *secret* through the page-granularity mapping.
	stolen := make([]byte, len(secret))
	secretIOVA := v - iommu.IOVA(bufPA-secretPA)
	if _, err := ma.iommu.DMARead(dev, secretIOVA, stolen); err != nil {
		t.Fatal("expected page-granularity exposure to allow the read")
	}
	if string(stolen) != string(secret) {
		t.Fatalf("stolen %q", stolen)
	}
}

func TestDeferredWindowThenFlush(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	s := NewDeferredScheme(ma.se, ma.iommu, ma.model)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, s)
	pa := ma.allocBuf(t, 0)
	v, err := e.Map(nil, dev, pa, 512, FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the IOTLB with a device write.
	if _, err := ma.iommu.DMAWrite(dev, v, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := e.Unmap(nil, dev, v, 512, FromDevice); err != nil {
		t.Fatal(err)
	}
	if s.PendingInvalidations() != 1 {
		t.Fatalf("pending = %d", s.PendingInvalidations())
	}
	// Vulnerability window: the write still lands.
	if _, err := ma.iommu.DMAWrite(dev, v, []byte("tocttou!")); err != nil {
		t.Fatal("expected the deferred window to allow the write")
	}
	s.Flush(nil)
	if s.PendingInvalidations() != 0 {
		t.Fatal("flush did not drain")
	}
	if _, err := ma.iommu.DMAWrite(dev, v, []byte("late")); err == nil {
		t.Fatal("post-flush DMA should fault")
	}
}

func TestDeferredBatchSizeTriggersFlush(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	ma.model.DeferredBatchSize = 10
	s := NewDeferredScheme(ma.se, ma.iommu, ma.model)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, s)
	for i := 0; i < 10; i++ {
		pa := ma.allocBuf(t, 0)
		v, err := e.Map(nil, dev, pa, 512, FromDevice)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Unmap(nil, dev, v, 512, FromDevice); err != nil {
			t.Fatal(err)
		}
	}
	if s.Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1 (batch size reached)", s.Flushes)
	}
	if s.PendingInvalidations() != 0 {
		t.Fatal("pending should be empty after batch flush")
	}
}

func TestDeferredTimerFlush(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	s := NewDeferredScheme(ma.se, ma.iommu, ma.model)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, s)
	pa := ma.allocBuf(t, 0)
	v, _ := e.Map(nil, dev, pa, 512, FromDevice)
	e.Unmap(nil, dev, v, 512, FromDevice)
	if s.Flushes != 0 {
		t.Fatal("premature flush")
	}
	ma.se.Run(11 * sim.Millisecond) // past the 10 ms timer
	if s.Flushes != 1 {
		t.Fatalf("timer flush did not run; Flushes = %d", s.Flushes)
	}
}

func TestDeferredIOVANotReusedInWindow(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	s := NewDeferredScheme(ma.se, ma.iommu, ma.model)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, s)
	pa := ma.allocBuf(t, 0)
	v1, _ := e.Map(nil, dev, pa, 512, FromDevice)
	e.Unmap(nil, dev, v1, 512, FromDevice)
	// While the invalidation is pending, the same IOVA must not be
	// handed to a new mapping (that would corrupt the new buffer).
	pa2 := ma.allocBuf(t, 0)
	v2, _ := e.Map(nil, dev, pa2, 512, FromDevice)
	if v1 == v2 {
		t.Fatal("IOVA reused during the invalidation window")
	}
	s.Flush(nil)
}

func TestStrictChargesInvalidationCosts(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, NewStrictScheme(ma.iommu, ma.model))
	core := sim.NewCore(ma.se, 0, 0, ma.model.CoreHz)
	pa := ma.allocBuf(t, 0)
	var elapsed sim.Time
	core.Submit(false, func(task *sim.Task) {
		v, err := e.Map(task, dev, pa, 512, FromDevice)
		if err != nil {
			t.Error(err)
			return
		}
		if err := e.Unmap(task, dev, v, 512, FromDevice); err != nil {
			t.Error(err)
		}
		elapsed = task.Elapsed()
	})
	ma.se.RunUntilIdle()
	// Must include at least the hardware invalidation latency.
	if elapsed < ma.model.IOTLBInvLatency {
		t.Fatalf("strict unmap cost %v < hardware latency %v", elapsed, ma.model.IOTLBInvLatency)
	}
}

func TestShadowCopiesThroughPool(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	sh := NewShadowScheme(ma.mem, ma.iommu, ma.model, nil)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, sh)

	// TX: payload must be staged into the shadow pool; the device reads
	// the copy, not the original.
	pa := ma.allocBuf(t, 0)
	msg := []byte("shadow tx payload")
	ma.mem.Write(pa, msg)
	v, err := e.Map(nil, dev, pa, len(msg), ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if v == iommu.IOVA(pa) {
		t.Fatal("shadow map must not expose the original buffer")
	}
	got := make([]byte, len(msg))
	if _, err := ma.iommu.DMARead(dev, v, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("device read %q through shadow", got)
	}
	// Mutating the original after Map must NOT be visible to the device
	// (the device only sees the staged copy).
	ma.mem.Write(pa, []byte("MUTATED AFTERWARDS"))
	if _, err := ma.iommu.DMARead(dev, v, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatal("device observed post-map mutation; shadow isolation broken")
	}
	if err := e.Unmap(nil, dev, v, len(msg), ToDevice); err != nil {
		t.Fatal(err)
	}

	// RX: device writes into the shadow; unmap copies back.
	rxPA := ma.allocBuf(t, 0)
	v2, err := e.Map(nil, dev, rxPA, 64, FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ma.iommu.DMAWrite(dev, v2, []byte("rx data")); err != nil {
		t.Fatal(err)
	}
	if err := e.Unmap(nil, dev, v2, 64, FromDevice); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 7)
	ma.mem.Read(rxPA, back)
	if string(back) != "rx data" {
		t.Fatalf("unmap copy-back gave %q", back)
	}
	if sh.CopiedBytes == 0 {
		t.Fatal("no bytes accounted as copied")
	}
}

func TestShadowPoolRecycles(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	sh := NewShadowScheme(ma.mem, ma.iommu, ma.model, nil)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, sh)
	pa := ma.allocBuf(t, 0)
	for i := 0; i < 100; i++ {
		v, err := e.Map(nil, dev, pa, 2048, FromDevice)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Unmap(nil, dev, v, 2048, FromDevice); err != nil {
			t.Fatal(err)
		}
	}
	if sh.PoolGrowths != 1 {
		t.Fatalf("PoolGrowths = %d, want 1 (buffer should be recycled)", sh.PoolGrowths)
	}
	// Mappings are permanent: zero unmappings in the IOMMU.
	if ma.iommu.Unmappings != 0 {
		t.Fatalf("shadow performed %d IOMMU unmaps; should be zero", ma.iommu.Unmappings)
	}
	if ma.iommu.TLB().FlushCommands != 0 {
		t.Fatal("shadow should never invalidate the IOTLB")
	}
}

// TestShadowRecycledBufferHasNoStaleBytes pins the exactness of the
// sparse shadow copies: a recycled shadow buffer still holds the previous
// transfer, and staging a never-written buffer into it must overwrite all
// of that, as must copying a mostly unwritten shadow buffer out over a
// caller's stale bytes.
func TestShadowRecycledBufferHasNoStaleBytes(t *testing.T) {
	const size = 64 << 10
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	sh := NewShadowScheme(ma.mem, ma.iommu, ma.model, nil)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, sh)
	stale := bytes.Repeat([]byte{0xa5}, size)
	nonzero := func(b []byte) int { return bytes.IndexFunc(b, func(r rune) bool { return r != 0 }) }

	// TX: the device must never see the previous packet.
	first, fresh := ma.allocBuf(t, 4), ma.allocBuf(t, 4)
	ma.mem.Write(first, stale)
	v1, err := e.Map(nil, dev, first, size, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Unmap(nil, dev, v1, size, ToDevice); err != nil {
		t.Fatal(err)
	}
	v2, err := e.Map(nil, dev, fresh, size, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1 || sh.PoolGrowths != 1 {
		t.Fatalf("second map did not reuse the shadow buffer (iova %#x vs %#x, %d growths)", v2, v1, sh.PoolGrowths)
	}
	got := make([]byte, size)
	if _, err := ma.iommu.DMARead(dev, v2, got); err != nil {
		t.Fatal(err)
	}
	if i := nonzero(got); i >= 0 {
		t.Fatalf("device reads the previous packet's byte %#x at %d", got[i], i)
	}
	if err := e.Unmap(nil, dev, v2, size, ToDevice); err != nil {
		t.Fatal(err)
	}

	// RX: a 64-byte header lands in a buffer that held stale bytes.
	rx := ma.allocBuf(t, 4)
	ma.mem.Write(rx, stale)
	v3, err := e.Map(nil, dev, rx, size, FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	hdr := bytes.Repeat([]byte{0x3c}, 64)
	if _, err := ma.iommu.DMAWrite(dev, v3, hdr); err != nil {
		t.Fatal(err)
	}
	if err := e.Unmap(nil, dev, v3, size, FromDevice); err != nil {
		t.Fatal(err)
	}
	ma.mem.Read(rx, got)
	if !bytes.Equal(got[:64], hdr) {
		t.Fatal("unmap lost the device's header")
	}
	if i := nonzero(got[64:]); i >= 0 {
		t.Fatalf("caller buffer keeps stale byte %#x at %d after unmap", got[64+i], 64+i)
	}
	if want := uint64(3 * size); sh.CopiedBytes != want {
		t.Fatalf("CopiedBytes = %d, want every mapped byte (%d)", sh.CopiedBytes, want)
	}
}

// TestShadowRoundTripOfZeroesMaterialisesNothing: copying a never-written
// buffer in and out of a never-written shadow buffer moves no host memory.
func TestShadowRoundTripOfZeroesMaterialisesNothing(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	sh := NewShadowScheme(ma.mem, ma.iommu, ma.model, nil)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, sh)
	pa := ma.allocBuf(t, 4)
	v, err := e.Map(nil, dev, pa, 64<<10, Bidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Unmap(nil, dev, v, 64<<10, Bidirectional); err != nil {
		t.Fatal(err)
	}
	if got := ma.mem.ResidentBytes(); got != 0 {
		t.Fatalf("round trip of zeroes materialised %d bytes", got)
	}
}

func TestShadowNeverExposesKernelMemory(t *testing.T) {
	// Byte granularity: the device sees only the shadow pool, so memory
	// co-located with the original buffer is unreachable.
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	sh := NewShadowScheme(ma.mem, ma.iommu, ma.model, nil)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, sh)
	slab := mem.NewSlab(ma.mem)
	bufPA, _ := slab.Alloc(256, 0)
	secretPA, _ := slab.Alloc(256, 0)
	ma.mem.Write(secretPA, []byte("secret"))
	v, err := e.Map(nil, dev, bufPA, 256, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	// The attacker knows the co-location offset; through shadow buffers
	// the neighbouring IOVA either faults or hits other shadow data —
	// never the secret.
	stolen := make([]byte, 6)
	probe := v - iommu.IOVA(bufPA-secretPA)
	if _, err := ma.iommu.DMARead(dev, probe, stolen); err == nil {
		if string(stolen) == "secret" {
			t.Fatal("shadow scheme exposed co-located kernel data")
		}
	}
}

func TestShadowRejectsOversizedBuffers(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	sh := NewShadowScheme(ma.mem, ma.iommu, ma.model, nil)
	pa := ma.allocBuf(t, 0)
	if _, err := sh.Map(nil, dev, pa, 128<<10, ToDevice); err == nil {
		t.Fatal("oversized shadow map should fail")
	}
}

func TestEngineEverDMAPagesMonotone(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	s := NewDeferredScheme(ma.se, ma.iommu, ma.model)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, s)
	// Map 5 distinct pages, then re-map the first one: ever-count is 5.
	var first mem.PhysAddr
	for i := 0; i < 5; i++ {
		pa := ma.allocBuf(t, 0)
		if i == 0 {
			first = pa
		}
		v, _ := e.Map(nil, dev, pa, mem.PageSize, FromDevice)
		e.Unmap(nil, dev, v, mem.PageSize, FromDevice)
	}
	if e.EverDMAPages() != 5 {
		t.Fatalf("EverDMAPages = %d, want 5", e.EverDMAPages())
	}
	v, _ := e.Map(nil, dev, first, mem.PageSize, FromDevice)
	e.Unmap(nil, dev, v, mem.PageSize, FromDevice)
	if e.EverDMAPages() != 5 {
		t.Fatalf("re-mapping an old page changed the ever count: %d", e.EverDMAPages())
	}
}

func TestInterposerShortCircuits(t *testing.T) {
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, NewStrictScheme(ma.iommu, ma.model))
	fake := &fakeInterposer{iova: 0x8000_1234_0000}
	e.SetInterposer(fake)
	pa := ma.allocBuf(t, 0)
	v, err := e.Map(nil, dev, pa, 512, ToDevice)
	if err != nil {
		t.Fatal(err)
	}
	if v != fake.iova {
		t.Fatalf("interposer bypassed: got %#x", v)
	}
	if err := e.Unmap(nil, dev, v, 512, ToDevice); err != nil {
		t.Fatal(err)
	}
	if !fake.unmapped {
		t.Fatal("unmap hook not consulted")
	}
	if ma.iommu.Mappings != 0 {
		t.Fatal("scheme ran despite interposer claim")
	}
}

type fakeInterposer struct {
	iova     iommu.IOVA
	unmapped bool
}

func (f *fakeInterposer) MapHook(perf.Charger, int, mem.PhysAddr, int, Direction) (iommu.IOVA, bool) {
	return f.iova, true
}

func (f *fakeInterposer) UnmapHook(c perf.Charger, d int, v iommu.IOVA, s int, dir Direction) bool {
	if iova.IsDAMN(v) || v == f.iova {
		f.unmapped = true
		return true
	}
	return false
}

func TestDirectionPerms(t *testing.T) {
	if ToDevice.Perm() != iommu.PermRead {
		t.Error("ToDevice should need read")
	}
	if FromDevice.Perm() != iommu.PermWrite {
		t.Error("FromDevice should need write")
	}
	if Bidirectional.Perm() != iommu.PermRW {
		t.Error("Bidirectional should need rw")
	}
}

func TestStrictContentionInflatesCost(t *testing.T) {
	// Two cores unmapping at once: the second pays the bounce penalty,
	// so its elapsed time exceeds an uncontended unmap.
	ma := newMachine(t)
	ma.iommu.AttachDevice(dev)
	e := NewEngine(ma.se, ma.mem, ma.iommu, ma.model, NewStrictScheme(ma.iommu, ma.model))
	c0 := sim.NewCore(ma.se, 0, 0, ma.model.CoreHz)
	c1 := sim.NewCore(ma.se, 1, 0, ma.model.CoreHz)
	pa0, pa1 := ma.allocBuf(t, 0), ma.allocBuf(t, 0)
	var t0, t1 sim.Time
	c0.Submit(false, func(task *sim.Task) {
		v, _ := e.Map(task, dev, pa0, 512, FromDevice)
		e.Unmap(task, dev, v, 512, FromDevice)
		t0 = task.Elapsed()
	})
	c1.Submit(false, func(task *sim.Task) {
		v, _ := e.Map(task, dev, pa1, 512, FromDevice)
		e.Unmap(task, dev, v, 512, FromDevice)
		t1 = task.Elapsed()
	})
	ma.se.RunUntilIdle()
	if t1 <= t0 {
		t.Fatalf("contended unmap (%v) should cost more than uncontended (%v)", t1, t0)
	}
}
