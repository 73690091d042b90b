package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzRAM is two extents, the second partial, so spans can straddle an
// extent boundary and run into the end of RAM.
const fuzzRAM = ExtentSize + 8*PageSize

// fuzzOpLen is the encoded size of one op: an opcode, two addresses and a
// length (see fuzzAddr).
const fuzzOpLen = 7

// fuzzAddr decodes an address within 128 pages of the extent boundary (hi
// picks the page) and up to 128 bytes either side of that page's start
// (lo), so decoded spans are page-unaligned and cross page, extent and RAM
// boundaries.
func fuzzAddr(hi, lo byte) int {
	pa := (ExtentSize/PageSize+int(hi)-128)*PageSize + int(int8(lo))
	return min(max(pa, 0), fuzzRAM)
}

// FuzzMemoryOps decodes its input into Write, Zero, Copy, Read and Bytes
// ops on a multi-extent Memory and checks every op, then the final image,
// against a dense reference.
func FuzzMemoryOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newTestMemory(t, fuzzRAM, 1)
		defer m.Release()
		ref := make([]byte, fuzzRAM)
		for i := 0; i+fuzzOpLen <= len(data) && i < 64*fuzzOpLen; i += fuzzOpLen {
			op := data[i : i+fuzzOpLen]
			pa, src := fuzzAddr(op[1], op[2]), fuzzAddr(op[3], op[4])
			n := min(int(binary.LittleEndian.Uint16(op[5:]))%(4*PageSize+1), fuzzRAM-pa)
			switch op[0] % 5 {
			case 0:
				b := make([]byte, n)
				for j := range b {
					b[j] = op[0] + byte(j) // no two neighbours both zero
				}
				m.Write(PhysAddr(pa), b)
				copy(ref[pa:], b)
			case 1:
				m.Zero(PhysAddr(pa), n)
				clear(ref[pa : pa+n])
			case 2:
				n = min(n, fuzzRAM-src)
				if pa < src+n && src < pa+n {
					mustPanic(t, "overlapping Copy", func() { m.Copy(PhysAddr(pa), PhysAddr(src), n) })
					continue
				}
				m.Copy(PhysAddr(pa), PhysAddr(src), n)
				copy(ref[pa:pa+n], ref[src:src+n])
			case 3:
				got := bytes.Repeat([]byte{0xff}, n)
				m.Read(PhysAddr(pa), got)
				if !bytes.Equal(got, ref[pa:pa+n]) {
					t.Fatalf("op %d: Read([%#x,+%d)) differs from reference", i/fuzzOpLen, pa, n)
				}
			case 4:
				n = min(n, ExtentSize-pa%ExtentSize)
				b := m.Bytes(PhysAddr(pa), n)
				if !bytes.Equal(b, ref[pa:pa+n]) {
					t.Fatalf("op %d: Bytes([%#x,+%d)) differs from reference", i/fuzzOpLen, pa, n)
				}
				if n > 0 {
					b[n-1], ref[pa+n-1] = op[4], op[4]
				}
			}
		}
		all := make([]byte, fuzzRAM)
		m.Read(0, all)
		if !bytes.Equal(all, ref) {
			t.Fatal("final image differs from reference")
		}
	})
}
