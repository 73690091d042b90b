package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// boundaryAddr picks an address at or near a page or extent boundary of a
// size-byte RAM, so spans often straddle one.
func boundaryAddr(rng *rand.Rand, size int) int {
	unit := PageSize
	if rng.Intn(2) == 0 {
		unit = ExtentSize
	}
	a := rng.Intn(size/unit+1)*unit + rng.Intn(129) - 64
	return min(max(a, 0), size)
}

// junk returns n bytes of random content; long spans repeat one random
// byte so the race-instrumented test stays fast.
func junk(rng *rand.Rand, n int) []byte {
	if n > 3*PageSize {
		return bytes.Repeat([]byte{byte(rng.Intn(255) + 1)}, n)
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// dirtyPages returns the dirty bit of every page [pa, pa+n) touches; a page
// of an absent extent reads as clean.
func dirtyPages(m *Memory, pa, n int) []bool {
	var bits []bool
	for p := pa >> PageShift; p<<PageShift < pa+n; p++ {
		e := m.extents[p>>(extentShift-PageShift)].Load()
		bits = append(bits, e != nil && e.isDirty(uint64(p<<PageShift)&extentMask))
	}
	return bits
}

// TestSparseModelCheck drives random Write/Zero/Copy/Read/Bytes/Release/New
// sequences against a dense []byte reference; a New after Release runs on
// recycled extents, which must read exactly like fresh zeroed RAM. Copy
// spans start near page and extent boundaries, so they are page-unaligned,
// straddle extents, and meet every mix of dirty, clean and absent pages on
// either side.
func TestSparseModelCheck(t *testing.T) {
	const size = 2*ExtentSize + 24*PageSize // last extent is partial
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newTestMemory(t, size, 1)
		ref := make([]byte, size)
		var zeroed int64
		for op := 0; op < 2000; op++ {
			pa := boundaryAddr(rng, size)
			n := min(rng.Intn(3*PageSize)+1, size-pa)
			if rng.Intn(50) == 0 {
				n = size - pa // occasionally a long span across extents
			}
			switch rng.Intn(11) {
			case 0, 1:
				src := junk(rng, n)
				m.Write(PhysAddr(pa), src)
				copy(ref[pa:], src)
			case 2:
				m.Zero(PhysAddr(pa), n)
				clear(ref[pa : pa+n])
				zeroed += int64(n)
			case 3, 4, 5:
				dst := junk(rng, n) // Read must overwrite every byte
				m.Read(PhysAddr(pa), dst)
				if !bytes.Equal(dst, ref[pa:pa+n]) {
					t.Fatalf("seed %d op %d: Read([%#x,+%d)) differs from reference", seed, op, pa, n)
				}
			case 6, 7:
				n = min(n, ExtentSize-pa%ExtentSize)
				b := m.Bytes(PhysAddr(pa), n)
				if !bytes.Equal(b, ref[pa:pa+n]) {
					t.Fatalf("seed %d op %d: Bytes([%#x,+%d)) differs from reference", seed, op, pa, n)
				}
				if n > 0 {
					i := rng.Intn(n)
					b[i] = byte(rng.Intn(256))
					ref[pa+i] = b[i]
				}
			case 8:
				if rng.Intn(10) == 0 {
					if m.ZeroedBytes() != zeroed {
						t.Fatalf("seed %d: ZeroedBytes = %d, want %d", seed, m.ZeroedBytes(), zeroed)
					}
					m.Release()
					m = newTestMemory(t, size, 1)
					clear(ref)
					zeroed = 0
				}
			case 9, 10:
				src := boundaryAddr(rng, size)
				n = min(n, size-src)
				if pa < src+n && src < pa+n {
					mustPanic(t, "overlapping Copy", func() { m.Copy(PhysAddr(pa), PhysAddr(src), n) })
					break
				}
				before := dirtyPages(m, src, n)
				m.Copy(PhysAddr(pa), PhysAddr(src), n)
				copy(ref[pa:pa+n], ref[src:src+n])
				if after := dirtyPages(m, src, n); !slices.Equal(before, after) {
					t.Fatalf("seed %d op %d: Copy changed its source's dirty bits", seed, op)
				}
			}
		}
		all := make([]byte, size)
		m.Read(0, all)
		if !bytes.Equal(all, ref) {
			t.Fatalf("seed %d: final image differs from reference", seed)
		}
		m.Release()
	}
}

func TestRecycledExtentsReadZero(t *testing.T) {
	const size = 3 * ExtentSize
	m := newTestMemory(t, size, 1)
	junk := bytes.Repeat([]byte{0xa5}, 3*PageSize)
	for pa := PageSize - 7; pa+len(junk) <= size; pa += ExtentSize / 3 {
		m.Write(PhysAddr(pa), junk)
	}
	m.Bytes(ExtentSize-PageSize, PageSize)[PageSize-1] = 0x5a
	m.Release()

	m = newTestMemory(t, size, 1)
	defer m.Release()
	if got := m.ResidentBytes(); got != 0 {
		t.Fatalf("fresh memory holds %d resident bytes", got)
	}
	for pa := 0; pa < size; pa += ExtentSize {
		m.Write(PhysAddr(pa), []byte{0}) // materialise (recycled) extents
	}
	if got := m.ResidentBytes(); got != size {
		t.Fatalf("ResidentBytes = %d, want %d", got, size)
	}
	all := make([]byte, size)
	m.Read(0, all)
	if i := bytes.IndexFunc(all, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("recycled extent has a stale byte at %#x", i)
	}
}

func TestUntouchedExtentsStayAbsent(t *testing.T) {
	m := newTestMemory(t, 2*ExtentSize, 1)
	defer m.Release()
	dst := bytes.Repeat([]byte{1}, 2*ExtentSize)
	m.Read(0, dst)
	if bytes.IndexByte(dst, 1) >= 0 {
		t.Fatal("Read of an untouched extent returned nonzero bytes")
	}
	m.Zero(ExtentSize-PageSize, 2*PageSize)
	if got := m.ResidentBytes(); got != 0 {
		t.Fatalf("Read and Zero materialised %d bytes", got)
	}
	if m.ZeroedBytes() != 2*PageSize {
		t.Fatalf("ZeroedBytes = %d, want every requested byte (%d)", m.ZeroedBytes(), 2*PageSize)
	}
	m.Write(ExtentSize+5, []byte{7})
	if got := m.ResidentBytes(); got != ExtentSize {
		t.Fatalf("one write materialised %d bytes, want one extent", got)
	}
}

func TestCopyOfZeroesMaterialisesNothing(t *testing.T) {
	m := newTestMemory(t, 3*ExtentSize, 1)
	defer m.Release()
	m.Copy(ExtentSize+100, 100, ExtentSize)               // absent to absent, across extents
	m.Copy(2*ExtentSize-PageSize/2, PageSize/3, PageSize) // straddles an extent on both sides
	if got := m.ResidentBytes(); got != 0 {
		t.Fatalf("copying zeroes materialised %d bytes", got)
	}
	// A materialised but clean source page is zero too: nothing to move.
	m.Write(0, []byte{1})
	m.Copy(2*ExtentSize, PageSize, 16*PageSize)
	if got := m.ResidentBytes(); got != ExtentSize {
		t.Fatalf("copying clean pages materialised the destination: %d resident bytes", got)
	}
}

func TestCopyLeavesSourceClean(t *testing.T) {
	const n = 64 << 10 // a shadow buffer with a NIC header in its first page
	m := newTestMemory(t, 2*ExtentSize, 1)
	defer m.Release()
	src, dst := ExtentSize-n/2, 3*PageSize+100 // src straddles the extents
	hdr := bytes.Repeat([]byte{0xab}, 64)
	m.Write(PhysAddr(src), hdr)
	before := dirtyPages(m, src, n)
	m.Copy(PhysAddr(dst), PhysAddr(src), n)
	if after := dirtyPages(m, src, n); !slices.Equal(before, after) {
		t.Fatalf("Copy dirtied its source: %v -> %v", before, after)
	}
	// dst is unaligned, so the header's page lands on two dst pages.
	if got, want := dirtyPages(m, dst, n), append([]bool{true, true}, make([]bool, 15)...); !slices.Equal(got, want) {
		t.Fatalf("destination dirty pages = %v, want %v", got, want)
	}
	got := make([]byte, n)
	m.Read(PhysAddr(dst), got)
	if !bytes.Equal(got[:64], hdr) || bytes.IndexFunc(got[64:], func(r rune) bool { return r != 0 }) >= 0 {
		t.Fatal("Copy did not reproduce header then zeroes")
	}
}

func TestCopyPanics(t *testing.T) {
	const size = 2 * ExtentSize
	m := newTestMemory(t, size, 1)
	m.Copy(PageSize, 2*PageSize, PageSize) // adjacent, not overlapping
	m.Copy(PageSize, PageSize, 0)          // empty ranges never overlap
	mustPanic(t, "overlapping Copy", func() { m.Copy(PageSize, 2*PageSize, PageSize+1) })
	mustPanic(t, "overlapping Copy", func() { m.Copy(2*PageSize, PageSize, PageSize+1) })
	mustPanic(t, "Copy onto itself", func() { m.Copy(PageSize, PageSize, 1) })
	mustPanic(t, "Copy past the end", func() { m.Copy(size-PageSize, 0, PageSize+1) })
	mustPanic(t, "Copy from past the end", func() { m.Copy(0, size-PageSize, PageSize+1) })
	mustPanic(t, "negative Copy", func() { m.Copy(0, PageSize, -1) })
	m.Release()
	mustPanic(t, "Copy after Release", func() { m.Copy(0, PageSize, 1) })
	mustPanic(t, "empty Copy after Release", func() { m.Copy(0, PageSize, 0) })
}

func TestBytesAcrossExtentPanics(t *testing.T) {
	m := newTestMemory(t, 2*ExtentSize, 1)
	defer m.Release()
	m.Bytes(ExtentSize-PageSize, PageSize) // ends exactly at the boundary
	mustPanic(t, "Bytes across an extent boundary", func() { m.Bytes(ExtentSize-1, 2) })
}

func TestAccessAfterReleasePanics(t *testing.T) {
	m := newTestMemory(t, 2*ExtentSize, 1)
	m.Write(0, []byte{1})
	m.Release()
	m.Release() // idempotent
	if got := m.ResidentBytes(); got != 0 {
		t.Fatalf("released memory holds %d resident bytes", got)
	}
	mustPanic(t, "Read after Release", func() { m.Read(0, make([]byte, 1)) })
	mustPanic(t, "Write after Release", func() { m.Write(ExtentSize, []byte{1}) })
	mustPanic(t, "Zero after Release", func() { m.Zero(0, PageSize) })
	mustPanic(t, "Bytes after Release", func() { m.Bytes(0, 1) })
	mustPanic(t, "empty Bytes after Release", func() { m.Bytes(0, 0) })
	mustPanic(t, "PageOf after Release", func() { m.PageOf(1) })
}

// TestRecycledPagesMatchFresh dirties every kind of page-struct state,
// releases the memory and builds one of the same size, which takes the
// pooled array: its page structs must equal those of a memory built from a
// fresh array.
func TestRecycledPagesMatchFresh(t *testing.T) {
	const size, nodes = 4 * ExtentSize, 2
	m := newTestMemory(t, size, nodes)
	for order := 0; order <= MaxOrder; order++ {
		if _, err := m.AllocPages(order, order%nodes); err != nil {
			t.Fatalf("AllocPages(%d): %v", order, err)
		}
	}
	for i := range m.pages {
		p := &m.pages[i]
		p.SetFlags(FlagDAMN)
		p.Get()
		p.Private, p.HeadPFN, p.Order = ^uint64(0), PFN(i+1), 7
	}
	dirty := &m.pages[0]
	m.Release()

	m = newTestMemory(t, size, nodes)
	defer m.Release()
	if &m.pages[0] != dirty {
		t.Fatal("a memory of the released one's size did not recycle its page structs")
	}
	putPages(make([]Page, len(m.pages))) // a fresh array for the reference to take
	ref := newTestMemory(t, size, nodes)
	defer ref.Release()
	for i := range m.pages {
		if m.pages[i] != ref.pages[i] {
			t.Fatalf("recycled page struct %d = %+v, fresh = %+v", i, &m.pages[i], &ref.pages[i])
		}
	}
}

// TestConcurrentMemoriesShareExtentPool builds, writes, checks and
// releases memories from several goroutines at once; run under -race it
// checks the process-wide pool's locking.
func TestConcurrentMemoriesShareExtentPool(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pattern := bytes.Repeat([]byte{byte(g + 1)}, 2*PageSize)
			got := make([]byte, len(pattern))
			for round := 0; round < 20; round++ {
				m, err := New(Config{TotalBytes: 3 * ExtentSize, NUMANodes: 1})
				if err != nil {
					t.Error(err)
					return
				}
				pa := PhysAddr(ExtentSize - PageSize + round)
				m.Read(pa, got)
				if bytes.IndexFunc(got, func(r rune) bool { return r != 0 }) >= 0 {
					t.Errorf("goroutine %d: fresh memory is not zero", g)
				}
				m.Write(pa, pattern)
				m.Read(pa, got)
				if !bytes.Equal(got, pattern) {
					t.Errorf("goroutine %d: read back a foreign pattern", g)
				}
				m.Release()
			}
		}(g)
	}
	wg.Wait()
}
