// Package hotpath defines the simulator's steady-state hot-path fixtures
// once: the engine's event loop, the DAMN allocator, the DMA API under every
// scheme, the IOMMU, the skb and RX paths, the ARQ retransmit cycle, the
// capability check and the kernel-bypass polling path. The root alloc gate,
// the root micro benchmarks and cmd/benchreport all iterate Cases(), so the
// numbers CI gates and the numbers a report records come from the same rigs.
package hotpath

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"

	"github.com/asplos18/damn/internal/damn"
	"github.com/asplos18/damn/internal/device"
	"github.com/asplos18/damn/internal/dmaapi"
	"github.com/asplos18/damn/internal/iommu"
	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/netstack"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/stats"
	"github.com/asplos18/damn/internal/tenant"
	"github.com/asplos18/damn/internal/testbed"
)

// Case is one steady-state fixture.
type Case struct {
	// Name is the stable key reports and sub-tests use.
	Name string
	// Group is the benchreport section: "engine" or "packet".
	Group string
	// Setup builds a fresh rig and returns its op, the number of op calls
	// that warm every pool before anything is measured, and check, which
	// fails unless the path under test really ran for ops calls in total
	// (warm-up included). check may be nil when op fails on its own.
	Setup func(tb testing.TB) (op func(), warmup int, check func(ops int) error)
	// Allocates names a known defect that makes the steady state allocate.
	// The gate then requires allocation, so the fix of the defect fails it
	// and removes the exemption.
	Allocates string
}

// Bench returns a benchmark of c: setup and warm-up untimed, then b.N ops.
func Bench(c Case) func(b *testing.B) {
	return func(b *testing.B) {
		op, warmup, check := c.Setup(b)
		for i := 0; i < warmup; i++ {
			op()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
		if check != nil {
			if err := check(warmup + b.N); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// GateRuns is the number of measured ops per fixture in Gate.
const GateRuns = 500

// Gate runs c's op GateRuns times after its warm-up and checks the exact
// heap allocation count over those runs: zero mallocs and zero bytes, or,
// for a case with a documented defect, some allocation. Unlike
// testing.AllocsPerRun and BenchmarkResult.AllocsPerOp it does not
// truncate, so 0.2 allocs/op fails.
func Gate(tb testing.TB, c Case) error {
	tb.Helper()
	op, warmup, check := c.Setup(tb)
	for i := 0; i < warmup; i++ {
		op()
	}
	// One P, as AllocsPerRun does, so no other goroutine allocates inside
	// the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < GateRuns; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	if check != nil {
		if err := check(warmup + GateRuns); err != nil {
			return err
		}
	}
	mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	switch {
	case c.Allocates == "" && (mallocs != 0 || bytes != 0):
		return fmt.Errorf("%s: %d mallocs and %d B over %d ops, want 0 and 0", c.Name, mallocs, bytes, GateRuns)
	case c.Allocates != "" && mallocs == 0 && bytes == 0:
		return fmt.Errorf("%s no longer allocates; the defect is fixed, drop the exemption: %s", c.Name, c.Allocates)
	}
	return nil
}

// Cases returns every fixture, engine cases first.
func Cases() []Case {
	cs := []Case{
		{Name: "schedule_run", Group: "engine", Setup: scheduleRun},
		{Name: "ticker", Group: "engine", Setup: ticker},
		{Name: "cancel_storm", Group: "engine", Setup: cancelStorm},
		{Name: "damn_alloc_free", Group: "packet", Setup: damnAllocFree(1500)},
		{Name: "damn_alloc_free_full_chunk", Group: "packet", Setup: damnAllocFree(0)},
		{Name: "slab_alloc_free", Group: "packet", Setup: slabAllocFree},
		{Name: "buddy_alloc_free", Group: "packet", Setup: buddyAllocFree},
	}
	for _, s := range testbed.AllSchemes {
		cs = append(cs, Case{Name: "dma_map_unmap_" + string(s), Group: "packet", Setup: dmaMapUnmap(s)})
	}
	return append(cs,
		Case{Name: "iommu_translate", Group: "packet", Setup: iommuTranslate},
		Case{Name: "device_dma_write", Group: "packet", Setup: deviceDMAWrite},
		Case{Name: "skb_access", Group: "packet", Setup: skbAccess},
		Case{Name: "rx_skb_path", Group: "packet", Setup: rxPath(2, 1, false)},
		Case{Name: "rx_skb_path_4ring", Group: "packet", Setup: rxPath(4, 4, false)},
		Case{Name: "rx_skb_path_tenancy", Group: "packet", Setup: rxPath(2, 1, true)},
		Case{Name: "arq_retransmit", Group: "packet", Setup: arqRetransmit},
		Case{Name: "cap_check", Group: "packet", Setup: capCheck},
		Case{Name: "bypass_poll_tick", Group: "packet", Setup: bypassPollTick},
		Case{Name: "vq_post_harvest", Group: "packet", Setup: vqPostHarvest,
			Allocates: "BypassDriver.Start submits a poll task every BypassPollInterval " +
				"whether or not the previous poll finished, so the busy poll core's run " +
				"queue grows and fresh sim.Task structs are allocated"},
	)
}

// machine builds a small simulated host, released when the test ends.
func machine(tb testing.TB, cfg testbed.MachineConfig) *testbed.Machine {
	ma, err := testbed.NewMachine(cfg)
	must(tb, err)
	tb.Cleanup(ma.Close)
	return ma
}

// microMachine is the 4-core, 512 MiB host of the data-structure fixtures.
func microMachine(tb testing.TB, scheme testbed.Scheme) *testbed.Machine {
	return machine(tb, testbed.MachineConfig{Scheme: scheme, MemBytes: 512 << 20, Cores: 4})
}

// pathMachine is the small-ring host of the end-to-end path fixtures.
func pathMachine(tb testing.TB, scheme testbed.Scheme, cores int) *testbed.Machine {
	return machine(tb, testbed.MachineConfig{Scheme: scheme, MemBytes: 256 << 20, Cores: cores, RingSize: 8})
}

func must(tb testing.TB, err error) {
	if err != nil {
		tb.Helper()
		tb.Fatal(err)
	}
}

// scheduleRun: one event scheduled and dispatched from the engine's pool.
func scheduleRun(tb testing.TB) (func(), int, func(int) error) {
	e := sim.NewEngine(1)
	fn := func() {}
	return func() {
		e.After(sim.Microsecond, fn)
		e.RunUntilIdle()
	}, 100, nil
}

// ticker: one period of a ticker that owns a single pinned event.
func ticker(tb testing.TB) (func(), int, func(int) error) {
	e := sim.NewEngine(1)
	ticks := 0
	stop := e.Every(sim.Microsecond, func() { ticks++ })
	tb.Cleanup(stop)
	return func() { e.Run(e.Now() + sim.Microsecond) }, 0, func(ops int) error {
		if ticks < ops {
			return fmt.Errorf("ticker ran %d times in %d periods", ticks, ops)
		}
		return nil
	}
}

// cancelStorm: a ticker started, raced by a one-shot event, stopped and
// drained — ticker, stop closure and event all come from the free lists.
func cancelStorm(tb testing.TB) (func(), int, func(int) error) {
	e := sim.NewEngine(1)
	fn := func() {}
	return func() {
		stop := e.Every(sim.Microsecond, fn)
		e.After(sim.Microsecond/2, fn)
		stop()
		e.RunUntilIdle()
	}, 100, nil
}

// damnAllocFree: the damn_alloc/damn_free fast path (per-core bump pointer
// and chunk refcount, §5.4); size 0 takes a whole chunk per allocation, so
// every round trips through the magazine layer.
func damnAllocFree(size int) func(testing.TB) (func(), int, func(int) error) {
	return func(tb testing.TB) (func(), int, func(int) error) {
		d := microMachine(tb, testbed.SchemeDAMN).Damn
		n := size
		if n == 0 {
			n = d.MaxAlloc()
		}
		var ctx damn.Ctx
		return func() {
			pa, err := d.Alloc(ctx, testbed.NICDeviceID, iommu.PermWrite, n)
			must(tb, err)
			must(tb, d.Free(ctx, pa))
		}, 100, nil
	}
}

// slabAllocFree: the kmalloc baseline the DAMN paths are compared against.
func slabAllocFree(tb testing.TB) (func(), int, func(int) error) {
	slab := microMachine(tb, testbed.SchemeOff).Slab
	return func() {
		pa, err := slab.Alloc(1500, 0)
		must(tb, err)
		slab.Free(pa)
	}, 100, nil
}

// buddyAllocFree: an order-2 round trip through the buddy page allocator.
func buddyAllocFree(tb testing.TB) (func(), int, func(int) error) {
	m, err := mem.New(mem.Config{TotalBytes: 256 << 20, NUMANodes: 2})
	must(tb, err)
	tb.Cleanup(m.Release)
	return func() {
		p, err := m.AllocPages(4, 0)
		must(tb, err)
		m.FreePages(p, 4)
	}, 100, nil
}

// dmaMapUnmap: a dma_map+dma_unmap round trip — for DAMN the §5.3
// interposition (page-struct lookup and MSB check), for the other schemes
// the real mapping machinery.
func dmaMapUnmap(scheme testbed.Scheme) func(testing.TB) (func(), int, func(int) error) {
	return func(tb testing.TB) (func(), int, func(int) error) {
		ma := microMachine(tb, scheme)
		pa, damnOwned, err := ma.Kernel.AllocBuffer(nil, testbed.NICDeviceID, iommu.PermWrite, 4096)
		must(tb, err)
		tb.Cleanup(func() { ma.Kernel.FreeBuffer(nil, pa, damnOwned) })
		return func() {
			v, err := ma.DMA.Map(nil, testbed.NICDeviceID, pa, 4096, dmaapi.FromDevice)
			must(tb, err)
			must(tb, ma.DMA.Unmap(nil, testbed.NICDeviceID, v, 4096, dmaapi.FromDevice))
		}, 500, nil // past deferred mode's first 250-entry flush
	}
}

// packetBuffer allocates and maps one device-writable NIC buffer.
func packetBuffer(tb testing.TB, ma *testbed.Machine) iommu.IOVA {
	pa, _, err := ma.Kernel.AllocBuffer(nil, testbed.NICDeviceID, iommu.PermWrite, 4096)
	must(tb, err)
	v, err := ma.DMA.Map(nil, testbed.NICDeviceID, pa, 4096, dmaapi.FromDevice)
	must(tb, err)
	return v
}

// iommuTranslate: a warm IOTLB translation.
func iommuTranslate(tb testing.TB) (func(), int, func(int) error) {
	ma := microMachine(tb, testbed.SchemeDAMN)
	v := packetBuffer(tb, ma)
	return func() {
		_, err := ma.IOMMU.Translate(testbed.NICDeviceID, v, true)
		must(tb, err)
	}, 100, nil
}

// deviceDMAWrite: a translated 1500 B device write. The warm-up takes the
// first-touch materialisation of the buffer's memory extent.
func deviceDMAWrite(tb testing.TB) (func(), int, func(int) error) {
	ma := microMachine(tb, testbed.SchemeDAMN)
	v := packetBuffer(tb, ma)
	payload := make([]byte, 1500)
	return func() {
		_, err := ma.IOMMU.DMAWrite(testbed.NICDeviceID, v, payload)
		must(tb, err)
	}, 100, nil
}

// skbAccess: __alloc_skb, the §5.2 accessor with its TOCTTOU copy, and the
// free, on a 4 KiB received skb.
func skbAccess(tb testing.TB) (func(), int, func(int) error) {
	ma := microMachine(tb, testbed.SchemeDAMN)
	return func() {
		skb, err := netstack.AllocSKB(ma.Kernel, nil, testbed.NICDeviceID, 4096, true)
		must(tb, err)
		skb.SetReceived(4096, 0)
		_, err = skb.Access(nil, 128)
		must(tb, err)
		skb.Free(nil)
	}, 100, nil
}

// rxPath: one 9000 B segment into each of the first rings end to end — wire arrival, DMA and
// translation, interrupt dispatch, driver unmap and repost, skb adoption,
// accessor copy, netfilter, user copy, free. The NIC has one ring per core,
// each bound to its own core and DAMN shard; hash h selects ring h under the
// default indirection table. tenancy installs the multi-tenant
// layer: the capability gate on every map/unmap and the fair-share pacer
// on every DMA stay installed; the containment poller is stopped, since it
// is control-plane cadence and RunUntilIdle never drains a live ticker.
func rxPath(cores, rings int, tenancy bool) func(testing.TB) (func(), int, func(int) error) {
	return func(tb testing.TB) (func(), int, func(int) error) {
		ma := pathMachine(tb, testbed.SchemeDAMN, cores)
		var mgr *tenant.Manager
		if tenancy {
			mgr = tenant.Attach(ma, tenant.Config{})
			_, err := mgr.AddTenant(0, 1, []int{0, 1})
			must(tb, err)
		}
		recv := &netstack.Receiver{K: ma.Kernel}
		ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
			recv.HandleSegment(task, skb)
		}
		must(tb, ma.FillAllRings())
		if mgr != nil {
			mgr.Stop()
		}
		hdr := []byte("hdr:steady")
		op := func() {
			for h := 0; h < rings; h++ {
				ma.NIC.InjectRX(0, device.Segment{Flow: h + 1, Hash: uint32(h), Len: 9000, Header: hdr})
			}
			ma.Sim.RunUntilIdle()
		}
		return op, 200, func(ops int) error {
			if recv.Segments < uint64(rings*ops) {
				return fmt.Errorf("receiver saw %d of %d segments; the path under test did not run", recv.Segments, rings*ops)
			}
			if ma.Driver.RxWrongCore != 0 {
				return fmt.Errorf("%d RX completions ran off their ring's core", ma.Driver.RxWrongCore)
			}
			if mgr != nil && mgr.Table().Checks == 0 {
				return fmt.Errorf("capability gate never consulted; the path under test did not run")
			}
			return nil
		}
	}
}

// arqRetransmit: one ARQ loss-recovery cycle — a lost segment, three
// successors whose duplicate ACKs trigger the fast retransmit, the reorder
// flush at the receiver, and the cumulative ACK back through the TX DMA
// path — with pooled segments, header rebuilds into the embedded buffer,
// pooled ACK transmissions and a lazily re-armed RTO timer.
func arqRetransmit(tb testing.TB) (func(), int, func(int) error) {
	ma := pathMachine(tb, testbed.SchemeDAMN, 2)
	must(tb, ma.FillAllRings())
	src := netip.AddrFrom4([4]byte{192, 168, 0, 1})
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	dropNext := false
	arq := netstack.NewArqSender(ma.Sim, netstack.ArqConfig{SegLen: 1500},
		func(seg *netstack.ArqSegment, retx bool) {
			if !retx {
				payload := seg.Len - netstack.HeaderLen
				byteSeq := (seg.Seq - 1) * uint32(payload)
				seg.Hdr = netstack.AppendHeaders(seg.HdrBuf(), src, dst, 10001, 5001, byteSeq, payload)
				if dropNext {
					dropNext = false
					return // lost on the wire; recovery must resend it
				}
			}
			ma.NIC.InjectRX(0, device.Segment{Flow: 1, Seq: seg.Seq, Len: seg.Len, Header: seg.Hdr})
		})
	recv := &netstack.Receiver{K: ma.Kernel}
	rr := netstack.NewReliableReceiver(recv, ma.Driver, 0, 0, arq)
	ma.Driver.OnDeliver = func(task *sim.Task, ring int, skb *netstack.SKBuff) {
		rr.HandleSegment(task, skb)
	}
	op := func() {
		dropNext = true
		for i := 0; i < 4; i++ {
			arq.SendNext()
		}
		ma.Sim.RunUntilIdle()
		if arq.InFlight() != 0 {
			tb.Fatalf("window not drained: %d in flight", arq.InFlight())
		}
	}
	return op, 500, func(ops int) error {
		if arq.FastRetx < uint64(ops) || recv.Segments < uint64(4*ops) {
			return fmt.Errorf("path under test did not run: %d fast retransmits, %d segments in %d cycles", arq.FastRetx, recv.Segments, ops)
		}
		return nil
	}
}

// capCheck: the two-compare capability check the driver runs before every
// map and unmap on a tenant-owned ring — one valid handle, one forged (its
// denial counted through the stats registry) and one unowned ring.
func capCheck(tb testing.TB) (func(), int, func(int) error) {
	tab := tenant.NewTable(4)
	tab.SetStats(stats.NewRegistry())
	tab.AssignRing(0, 0)
	tab.AssignRing(1, 1)
	tab.Present(1, tenant.Handle{Tenant: 0}) // forged: wrong tenant
	return func() {
			if !tab.CheckRing(0) {
				tb.Fatal("valid capability denied")
			}
			if tab.CheckRing(1) {
				tb.Fatal("forged capability passed")
			}
			_ = tab.CheckRing(2) // unowned: passes uncounted
		}, 0, func(ops int) error {
			if tab.Denials < uint64(ops) {
				return fmt.Errorf("deny path saw %d denials in %d ops; the path under test did not run", tab.Denials, ops)
			}
			return nil
		}
}

// bypassRig assembles a bypass machine with a set-up, started polling
// driver. The poll ticker never idles, so ops advance the engine in bounded
// windows instead of RunUntilIdle.
func bypassRig(tb testing.TB, scheme testbed.Scheme) (*testbed.Machine, *netstack.BypassDriver) {
	ma := pathMachine(tb, scheme, 2)
	d := netstack.NewBypassDriver(ma.Kernel, ma.NIC, 0, testbed.BypassDeviceID,
		scheme == testbed.SchemeBypassProt)
	var setupErr error
	d.Core().Submit(false, func(task *sim.Task) { setupErr = d.Setup(task) })
	ma.Sim.Run(ma.Sim.Now())
	must(tb, setupErr)
	d.Start()
	tb.Cleanup(d.Close)
	return ma, d
}

// bypassPollTick: one idle busy-poll tick — the pinned poll task harvests
// an empty used ring and charges the full spin interval.
func bypassPollTick(tb testing.TB) (func(), int, func(int) error) {
	ma, d := bypassRig(tb, testbed.SchemeBypassRaw)
	interval := ma.Model.BypassPollInterval
	return func() { ma.Sim.Run(ma.Sim.Now() + interval) }, 200, func(ops int) error {
		if d.Polls < uint64(ops) || d.EmptyPolls == 0 {
			return fmt.Errorf("poll loop ticked %d times (%d empty) in %d intervals; the idle spin path did not run", d.Polls, d.EmptyPolls, ops)
		}
		return nil
	}
}

// vqPostHarvest: one segment through the protected bypass path — DMA
// through the per-app domain, used-ring publish, busy-poll harvest,
// run-to-completion delivery and the batched repost behind one doorbell.
func vqPostHarvest(tb testing.TB) (func(), int, func(int) error) {
	ma, d := bypassRig(tb, testbed.SchemeBypassProt)
	window := 4 * ma.Model.BypassPollInterval // covers DMA + publish + poll + repost
	hdr := []byte("hdr:steady")
	return func() {
			ma.NIC.InjectRX(0, device.Segment{Flow: 1, Len: 9000, Header: hdr})
			ma.Sim.Run(ma.Sim.Now() + window)
		}, 200, func(ops int) error {
			switch {
			case d.Harvested < uint64(ops):
				return fmt.Errorf("driver harvested %d completions for %d segments; the path under test did not run", d.Harvested, ops)
			case d.Drops != 0:
				return fmt.Errorf("%d completions dropped; the good-segment path was not the one measured", d.Drops)
			case d.Virtqueue().PublishFaults != 0:
				return fmt.Errorf("%d used-ring publishes faulted; the registered pool does not cover the ring", d.Virtqueue().PublishFaults)
			}
			return nil
		}
}
