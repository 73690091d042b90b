// Package netstack is the miniature Linux networking subsystem of the
// reproduction: skbuffs with the accessor API that DAMN's TOCTTOU defence
// interposes on (§5.2), the NIC driver (RX ring management, TX mapping),
// stream senders/receivers with socket-buffer flow control (the TCP-lite
// data path netperf exercises), and netfilter hooks.
//
// Deployment mirrors §5.7: __alloc_skb takes a device argument; a nil
// device (Dev < 0) falls back to the ordinary kernel allocator, and
// DAMN-aware flows call DmaAllocSKB with the device from their socket.
package netstack

import (
	"fmt"

	"github.com/asplos18/damn/internal/damn"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
)

// Kernel bundles the machine's kernel-side services the stack needs.
type Kernel struct {
	Sim   *sim.Engine
	Mem   *mem.Memory
	Slab  *mem.Slab
	IOMMU *iommu.IOMMU
	DMA   *dmaapi.Engine
	// Damn is nil when DAMN is not deployed (baseline schemes).
	Damn  *damn.DAMN
	Model *perf.Model
	MemBW *sim.MemController
	Cores []*sim.Core

	Netfilter Netfilter

	// Free lists recycling SKBuff structs and user-copy destination
	// buffers (host Go memory only — the simulated slab/DAMN memory
	// behind an skb is always released before the struct is recycled, so
	// pooling changes no simulated allocation counts or figure output).
	freeSKBs []*SKBuff
	userBufs [][]byte

	// Observability (nil-safe handles; see SetStats).
	freeErrC *stats.Counter
	// Receive-drop causes, split so the registry can say *why* a stream
	// shed a segment: stack couldn't access the headers, a netfilter hook
	// rejected it, the ARQ reorder window saw a duplicate, or the segment
	// landed outside the reorder window entirely.
	recvDropAccess *stats.Counter
	recvDropFilter *stats.Counter
	recvDropDup    *stats.Counter
	recvDropOow    *stats.Counter
}

// getSKB pops a recycled SKBuff (or allocates the pool's first); every
// field is reset to the zero state before the caller initialises it.
func (k *Kernel) getSKB() *SKBuff {
	if n := len(k.freeSKBs); n > 0 {
		s := k.freeSKBs[n-1]
		k.freeSKBs = k.freeSKBs[:n-1]
		*s = SKBuff{k: k}
		return s
	}
	return &SKBuff{k: k}
}

// getUserBuf pops a length-n user-copy destination from the pool when the
// top buffer is big enough, and reports its dirty length: a pooled buffer
// may hold nonzero bytes only below it, so CopyToUser clears no more than
// that. The caller owns the contents entirely.
func (k *Kernel) getUserBuf(n int) (buf []byte, dirty int) {
	if m := len(k.userBufs); m > 0 && cap(k.userBufs[m-1]) >= n {
		b := k.userBufs[m-1]
		k.userBufs = k.userBufs[:m-1]
		return b[:n], len(b)
	}
	return make([]byte, n), 0
}

// putUserBuf returns a user-copy buffer whose len is its dirty length; the
// pool is bounded so a burst of oversized copies cannot pin memory forever.
func (k *Kernel) putUserBuf(b []byte) {
	if cap(b) == 0 || len(k.userBufs) >= 1024 {
		return
	}
	k.userBufs = append(k.userBufs, b)
}

// SetStats attaches a metrics registry for kernel-level error accounting.
func (k *Kernel) SetStats(r *stats.Registry) {
	k.freeErrC = r.Counter("netstack", "buffer_free_errors")
	k.recvDropAccess = r.Counter("netstack", "recv_drop_access")
	k.recvDropFilter = r.Counter("netstack", "recv_drop_filter")
	k.recvDropDup = r.Counter("netstack", "recv_drop_dup")
	k.recvDropOow = r.Counter("netstack", "recv_drop_out_of_window")
}

// UseDamn reports whether the DAMN allocator is deployed.
func (k *Kernel) UseDamn() bool { return k.Damn != nil }

// Ctx derives a DAMN allocation context from a simulated task.
func (k *Kernel) Ctx(t *sim.Task) damn.Ctx {
	if t == nil {
		return damn.Ctx{}
	}
	return damn.Ctx{C: t, CPU: t.Core().ID, IRQ: t.Interrupt}
}

// AllocBuffer allocates a raw packet buffer for a device: from DAMN when
// deployed and dev is real, otherwise from the ordinary kernel allocator
// (which is exactly the co-location hazard of §4.1 for the legacy schemes).
// Returns the buffer address and whether it is DAMN-owned.
func (k *Kernel) AllocBuffer(t *sim.Task, dev int, rights iommu.Perm, size int) (mem.PhysAddr, bool, error) {
	if k.UseDamn() && dev >= 0 {
		pa, err := k.Damn.Alloc(k.Ctx(t), dev, rights, size)
		return pa, true, err
	}
	node := 0
	if t != nil {
		node = t.Core().Node
	}
	pa, err := k.Slab.Alloc(size, node)
	return pa, false, err
}

// FreeBuffer releases a buffer from AllocBuffer. A failed DAMN free is a
// buffer-accounting error, not a simulator invariant violation: the buffer
// is quarantined (leaked, never reused) rather than handed back in an
// unknown state, the failure is counted, and the error is returned for the
// caller's own accounting.
func (k *Kernel) FreeBuffer(t *sim.Task, pa mem.PhysAddr, damnOwned bool) error {
	if damnOwned {
		if err := k.Damn.Free(k.Ctx(t), pa); err != nil {
			k.freeErrC.Inc()
			return fmt.Errorf("netstack: damn free: %w", err)
		}
		return nil
	}
	k.Slab.Free(pa)
	return nil
}
